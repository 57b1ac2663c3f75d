"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (that
is the set-up the benchmark times), then runs one operation per call of
``run(i)``; ``check(i, output)`` checks an output outside the timed
region. A round is ``OPS_PER_ROUND`` consecutive operations; runs are
made of whole rounds.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os

import numpy as np

import checks
import tracing

import singcov
from singcov import bench, cli, ewens, haar
from singcov.linalg import RandomSource, sample_gaussian_covariance
from singcov.toeplitz import PowerToeplitz


def _quiet(argv) -> int:
    """``singcov <argv>`` in this process, with its progress lines dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Experiment:
    """One trial of the README example config plus ``hybrid_inverse``."""

    OPS_PER_ROUND = 1
    CONFIG = {
        "m": 100,
        "n": 75,
        "truth": {"kind": "power", "alpha": 0.5},
        "estimators": ["sample", "loading", "ewens", "hybrid", "invcovp", "hybrid_inverse"],
        "theta_grid": [1.0, 10.0, 100.0],
        "p_grid": [25, 50],
        "loading_grid": [[1.0, 0.0], [0.8, 0.2]],
        "mc_samples": 2000,
        "trials": 1,
    }

    def __init__(self, seed, workdir):
        self.seed = seed
        self.outdir = os.path.join(workdir, "experiment")
        self.captured = {"invcovp": [], "hybrid_inverse": []}
        self._capture("invcovp", haar.invcov_p_mc)
        self._capture("hybrid_inverse", ewens.hybrid_inverse_mc)

    def _capture(self, key, fn):
        # keep (K, p, estimate) of every Monte Carlo inverse call for the check
        signature = inspect.signature(fn)

        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            self.captured[key].append((np.asarray(bound["k"]), bound["p"], result.estimate))
            return result

        tracing.rebind([singcov, *tracing.modules(singcov).values()], fn, capturing)

    def planned_rows(self) -> list:
        cfg = self.CONFIG
        thetas = ["%g" % t for t in cfg["theta_grid"]]
        rows = [("sample", "", "fro_direct"), ("loading", "grid-min", "fro_direct")]
        rows += [("ewens", f"theta={t}", "fro_direct") for t in thetas]
        rows += [("hybrid", f"theta={t},p={p}", "fro_direct") for t in thetas for p in cfg["p_grid"]]
        rows += [("invcovp", f"p={p}", m) for p in cfg["p_grid"] for m in ("fro_direct", "fro_inverse")]
        rows += [
            ("hybrid_inverse", f"theta={t},p={p}", "fro_inverse")
            for t in thetas
            for p in cfg["p_grid"]
        ]
        return rows

    def run(self, i):
        for calls in self.captured.values():
            calls.clear()
        config = bench.ExperimentConfig.from_dict({**self.CONFIG, "seed": self.seed * 1000 + i})
        bench.run_experiment(config, threads=1).write(self.outdir)
        return os.path.join(self.outdir, "metrics_mean.csv")

    def check(self, i, path) -> list:
        problems = checks.metrics_mean(path, self.planned_rows())
        for key, calls in self.captured.items():
            if not calls:
                problems.append(f"no {key} estimate was made")
            for k, p, est in calls:
                problems += checks.trace_identity(k, est, p, key)
                if key == "invcovp":
                    problems += checks.hermitian(est, key)
                    problems += checks.positive_definite(est, key)
        return problems


class Spectrum:
    """``invcov_spectrum`` at m=200, n=150, p=45 with 5000 draws."""

    OPS_PER_ROUND = 1
    M, N, P, DRAWS = 200, 150, 45, 5000

    def __init__(self, seed, workdir):
        self.seed = seed
        truth = PowerToeplitz(self.M, 0.5).matrix()
        self.k = sample_gaussian_covariance(truth, self.N, RandomSource(seed))

    def run(self, i):
        return haar.invcov_spectrum(self.k, self.P, self.DRAWS, RandomSource(self.seed).substream(i + 1))

    def check(self, i, spec) -> list:
        return checks.inverse_spectrum(self.k, spec.lambdas, spec.mu, self.P, self.N)


class Estimate:
    """``singcov estimate`` on a stored sample covariance, cycling through
    the closed-form estimators."""

    M, N = 400, 300
    THETA, HYBRID_THETA, P, ALPHA, BETA = 50.0, 2.0, 100, 0.8, 0.2
    ESTIMATORS = ("ewens", "hybrid", "covp", "loading")
    OPS_PER_ROUND = len(ESTIMATORS)

    def __init__(self, seed, workdir):
        truth = PowerToeplitz(self.M, 0.5).matrix()
        self.k = sample_gaussian_covariance(truth, self.N, RandomSource(seed))
        self.input = os.path.join(workdir, "k.csv")
        checks.write_matrix_csv(self.input, self.k)
        self.workdir = workdir

    def _args(self, name) -> list:
        if name == "ewens":
            return ["--theta", repr(self.THETA)]
        if name == "hybrid":
            return ["--theta", repr(self.HYBRID_THETA), "--p", str(self.P)]
        if name == "covp":
            return ["--p", str(self.P)]
        return ["--alpha", repr(self.ALPHA), "--beta", repr(self.BETA)]

    def run(self, i):
        name = self.ESTIMATORS[i % len(self.ESTIMATORS)]
        out = os.path.join(self.workdir, f"{name}.csv")
        argv = ["estimate", "--estimator", name, "--input", self.input, "--out", out]
        code = _quiet(argv + self._args(name))
        if code != 0:
            raise RuntimeError(f"singcov {' '.join(argv)} exited with {code}")
        return out

    def check(self, i, path) -> list:
        name = self.ESTIMATORS[i % len(self.ESTIMATORS)]
        e = checks.read_matrix_csv(path)
        if name == "ewens":
            return checks.ewens_average(self.k, e)
        if name == "hybrid":
            return checks.hybrid(self.k, e, self.HYBRID_THETA, self.P)
        if name == "covp":
            return checks.compression_average(self.k, e, self.P)
        return checks.loading(self.k, e, self.ALPHA, self.BETA)


class Verify:
    """One pass of every ``singcov verify`` suite. The suites carry their
    own fixed inputs, so the seed does not change this workload."""

    OPS_PER_ROUND = 1
    SUITES = (
        "block-pinv",
        "ewens-closedform",
        "haar-moments",
        "hybrid-closedform",
        "toeplitz-decomp",
        "toeplitz-spectra",
    )

    def __init__(self, seed, workdir):
        self.report = os.path.join(workdir, "verify.json")

    def run(self, i):
        return _quiet(["verify", "--out", self.report])

    def check(self, i, code) -> list:
        problems = checks.verify_report(self.report, self.SUITES)
        return problems + ([f"singcov verify exited with {code}"] if code else [])


WORKLOADS = {
    "experiment": Experiment,
    "spectrum": Spectrum,
    "estimate": Estimate,
    "verify": Verify,
}
