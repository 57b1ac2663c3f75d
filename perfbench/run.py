"""Benchmark of the singcov package: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: experiment, spectrum, estimate, verify (see README.md). The
workload runs in its own process (``worker.py``) with numpy's BLAS
pinned to one thread. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
``setup_s``, ``op_s`` and ``peak_rss_mb`` with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("experiment", "spectrum", "estimate", "verify")
# set-up is timed in this many processes and reported as their median
SETUPS = 5
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def _worker(argv, deadline) -> dict:
    env = {**os.environ, **PINNED}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--spawn-time"]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(spawn)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {argv} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="singcov benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "singcov", "__init__.py")):
        print(f"perfbench: no package sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    setup_only = common + ["--seconds", "0", "--setup-only"]
    run = common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run += ["--trace-out", os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")]
    try:
        setups = []
        # half of the extra set-ups before the run and half after, so that
        # their median spans the run rather than one moment of it
        extra = 0 if args.trace else SETUPS - 1
        for _ in range(extra // 2):
            setups.append(_worker(setup_only, deadline)["setup_s"])
        result = _worker(run, deadline)
        for _ in range(extra - extra // 2):
            setups.append(_worker(setup_only, deadline)["setup_s"])
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = result["layers"]
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": result["op_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
