"""Record the benchmark medians of this tree in ``BENCH_<number>.json``.

    python3 tools/bench_record.py <number>

Runs ``perfbench/run.py --workload <w> --seed <s> --seconds 20 --trace 0``
for each of the four workloads at each of the ten fixed ``SEEDS``, one run
at a time, and reads the JSON object on the last line of each run. It writes
``BENCH_<number>.json`` at the root of the repository: per workload the
median of every end-to-end metric, the value of each run, and the run
outcomes; the git revision; and the numpy, BLAS and CPU environment. It
then prints the change of each median against the newest earlier
``BENCH_*.json``, if there is one, and flags each median that lies below
or above every run of that file: a step that the earlier runs' own spread
does not cover.

perfbench pins BLAS to one thread in its workers, so the recorded figures
are single-BLAS-thread figures whatever the caller's environment; the
caller's BLAS variables are recorded to show what was set. A run that
fails, or whose outputs fail perfbench's checks, stops the script before
any file is written. Timing is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("experiment", "spectrum", "estimate", "verify")
SEEDS = tuple(range(101, 111))
SECONDS = 20
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(workload: str, seed: int, root: str = ROOT) -> dict:
    """One benchmark run of the tree at ``root``; the parsed JSON of its
    last output line."""
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"{workload} seed {seed} in {root}: {result['failed']} failed, "
            f"correct={result['correct']}"
        )
    return result


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def environment() -> dict:
    """numpy and its BLAS, the CPUs this process may run on, and the BLAS
    thread variables of the caller."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            names = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            cpu = next(names, "")
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "machine": f"{platform.system()} {platform.machine()}",
        "cpu": cpu or platform.processor(),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "blas_variables": {k: os.environ.get(k) for k in BLAS_VARIABLES},
    }


def record(number: int) -> dict:
    workloads = {}
    for w in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_workload(w, seed))
            values = (f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
            print(f"{w} seed {seed}: " + ", ".join(values), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            metrics[name] = {"median": median, "unit": first["unit"], "runs": values}
        workloads[w] = {
            "metrics": metrics,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
    return {
        "bench": number,
        "revision": _git("rev-parse", "HEAD"),
        "modified": _git("status", "--porcelain", "--untracked-files=no").splitlines(),
        "command": f"perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "environment": environment(),
        "workloads": workloads,
    }


def newest_earlier(number: int):
    """Path of the ``BENCH_<n>.json`` at the root with the largest n below
    ``number``, or None."""
    found = []
    for name in os.listdir(ROOT):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if match and int(match.group(1)) < number:
            found.append((int(match.group(1)), name))
    return os.path.join(ROOT, max(found)[1]) if found else None


def _span(values) -> str:
    return f"{min(values):.4g}-{max(values):.4g}"


def print_delta(old: dict, new: dict):
    """Each median of ``new`` against the same median of ``old``, with the
    range of both sides' runs, which shows their noise. A median outside
    the range of ``old``'s runs is flagged "OUTSIDE"."""
    print(f"against BENCH_{old['bench']}.json ({old['revision'][:12]}):")
    for w, now in new["workloads"].items():
        before = old["workloads"].get(w, {}).get("metrics", {})
        for name, m in now["metrics"].items():
            if name not in before:
                continue
            a, b, runs = before[name]["median"], m["median"], before[name]["runs"]
            side = "below" if b < min(runs) else "above" if b > max(runs) else ""
            flag = f"  OUTSIDE: {side} every earlier run" if side else ""
            print(
                f"  {w:10s} {name:12s} {a:.4g} -> {b:.4g} {m['unit']} ({(b - a) / a:+.1%}; "
                f"runs {_span(m['runs'])}, before {_span(runs)}){flag}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the N of the BENCH_<N>.json to write")
    args = parser.parse_args(argv)
    result = record(args.number)
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    previous = newest_earlier(args.number)
    if previous:
        with open(previous) as f:
            print_delta(json.load(f), result)
    else:
        print("no earlier BENCH_*.json to compare with")
    return 0


if __name__ == "__main__":
    sys.exit(main())
