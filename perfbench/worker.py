"""One workload in one process; started by ``run.py``.

``run.py`` sets ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in
this process's environment, so numpy's BLAS runs on one thread. Prints
one JSON object as its last line of standard output.

Set-up is timed from ``--spawn-time``, the parent's ``time.monotonic()``
just before it started this process, to the end of building the inputs.
With ``--setup-only`` the process stops there. Otherwise it runs whole
rounds of the workload's operation, at least one and then until the
next round would end after ``--seconds``, timing each round
and checking each output outside the timed region. ``op_s`` is the
median round time divided by the operations in a round. Times are
scaled to a fixed machine speed (see ``REFERENCE_S``). With
``--trace 1`` every package function is traced and the per-layer
figures are reported per operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    """Import ``singcov`` from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "singcov", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import singcov

    if os.path.realpath(singcov.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported singcov from {singcov.__file__}, not {init}")
    return singcov


# On a shared 2-vCPU VM, neighbours on the host slow the cores by up to
# 1.75x, in phases that last from seconds to many minutes, so raw times
# of two runs minutes apart are not comparable. Every time reported is scaled to one
# machine speed: REFERENCE_S over the mean time of a small reference
# kernel sampled before, during and after the timed interval. REFERENCE_S
# is the kernel's time on an unloaded core of the machine the README's
# figures come from.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.5


class SpeedProbe:
    """Times of a reference kernel, taken on demand and, between
    ``start`` and ``stop``, every ``SAMPLE_EVERY_S`` from a timer signal.

    The kernel is numpy alone, dense products and a batched symmetric
    eigensolve, so a change to the package cannot change it. ``spent``
    is the time the signal handler took, which the caller subtracts from
    the interval it timed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 128))
        b = rng.standard_normal((100, 30, 30))
        self.b = b + np.swapaxes(b, 1, 2)
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self.a @ self.a
        np.linalg.eigvalsh(self.b)
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def _on_timer(self, signum, frame):
        self.spent += self.sample()

    def start(self):
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self) -> float:
        """REFERENCE_S over the mean sample since the last call."""
        mean = statistics.fmean(self.samples)
        self.samples = []
        return REFERENCE_S / mean


# (metric, unit) of the traced run, in BENCHMARK.json order
LAYER_METRICS = [
    ("linalg.sample_haar_stiefel_batch.self_s", "s"),
    ("linalg.sample_haar_stiefel_batch.draws", "count"),
    ("linalg._pinv_batch_hermitian.self_s", "s"),
    ("linalg._pinv_batch_hermitian.calls", "count"),
    ("linalg.WelfordAccumulator.add_batch.self_s", "s"),
    ("linalg.WelfordAccumulator.add_batch.bytes", "bytes"),
    ("linalg.load_matrix_csv.self_s", "s"),
    ("linalg.save_matrix_csv.self_s", "s"),
    ("linalg.require_hermitian.self_s", "s"),
    ("linalg.pseudoinverse.self_s", "s"),
    ("linalg.sample_gaussian_covariance.self_s", "s"),
    ("haar.invcov_p_mc.calls", "count"),
    ("haar.invcov_p_mc.self_s", "s"),
    ("haar.invcov_p_mc.accept_ratio", "ratio"),
    ("haar.invcov_spectrum.self_s", "s"),
    ("haar.invcov_spectrum.alloc_peak_mb", "MiB"),
    ("haar.cov_p_mc.self_s", "s"),
    ("haar.moment_matrix_coeffs.self_s", "s"),
    ("haar.trace_moment.self_s", "s"),
    ("haar.cov_p_closed.self_s", "s"),
    ("haar.diagonal_loading.self_s", "s"),
    ("ewens.hybrid_inverse_mc.calls", "count"),
    ("ewens.hybrid_inverse_mc.self_s", "s"),
    ("ewens.sample_ewens_batch.self_s", "s"),
    ("ewens.ewens_estimator.self_s", "s"),
    ("ewens.hybrid_estimator.self_s", "s"),
    ("ewens.ewens_estimator_bruteforce.self_s", "s"),
    ("ewens.hybrid_estimator_bruteforce.self_s", "s"),
    ("ewens.hybrid_inverse_bruteforce.self_s", "s"),
    ("combinatorics.schur_hook_powersum.self_s", "s"),
    ("combinatorics.schur_hook_derivative_coeffs.self_s", "s"),
    ("toeplitz.tridiag_eigensystem.self_s", "s"),
    ("toeplitz.limiting_measure.self_s", "s"),
    ("toeplitz.ewens_transform_closedform.self_s", "s"),
    ("bench.run_experiment.self_s", "s"),
    ("bench.MetricReport.write.self_s", "s"),
    ("bench.verify.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.op_s", "s"),
]


def layer_values(tracer, ops: int, op_s: float, speed: float) -> dict:
    """Per-layer metrics: self times (scaled by ``speed``) and counts per
    operation; 0 where the workload does not reach the layer."""
    out = {}
    for name, unit in LAYER_METRICS:
        layer, stat = name.rsplit(".", 1)
        if name == "trace.op_s":
            value = op_s
        elif stat == "self_s":
            value = tracer.self_s.get(layer, 0.0) * speed / ops
        elif stat == "accept_ratio":
            drawn = tracer.counts.get(layer + ".drawn", 0.0)
            value = tracer.counts.get(layer + ".accepted", 0.0) / drawn if drawn else 0.0
        elif stat == "alloc_peak_mb":
            value = tracer.counts.get(name, 0.0)
        else:
            value = tracer.counts.get(name, 0.0) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = _import_package()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, package)
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_wall_s = time.monotonic() - args.spawn_time
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    result = {"setup_s": setup_wall_s * probe.speed()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.reset()
    per_round = workload.OPS_PER_ROUND
    round_s, round_cost, speed = [], [], []
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    while True:
        began = time.monotonic()
        probe.sample()
        elapsed = 0.0
        for j in range(per_round):
            i = len(round_s) * per_round + j
            attempted += 1
            if tracer is not None:
                tracer.recording = i == 0
            probe.start()
            t0 = time.perf_counter()
            try:
                output = workload.run(i)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                probe.stop()
                elapsed += time.perf_counter() - t0 - probe.spent
            problems = workload.check(i, output)
            if problems:
                failed += 1
                correct = False
                print(f"perfbench: {args.workload} operation {i}: " + "; ".join(problems), file=sys.stderr)
        probe.sample()
        speed.append(probe.speed())
        round_s.append(elapsed * speed[-1])
        round_cost.append(time.monotonic() - began)
        spent = time.monotonic() - start
        if spent + statistics.median(round_cost) > args.seconds:
            break

    op_s = statistics.median(round_s) / per_round
    result.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        op_s=op_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = layer_values(tracer, attempted, op_s, statistics.median(speed))
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "operations": attempted,
                        "self_s": dict(sorted(tracer.self_s.items())),
                        "counts": dict(sorted(tracer.counts.items())),
                        "spans_of_first_op": tracer.spans,
                    },
                    fh,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
