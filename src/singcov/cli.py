"""Command line front end.

Subcommands::

    singcov estimate    apply one estimator to a matrix stored as CSV
    singcov experiment  run a JSON-configured error benchmark
    singcov spectrum    write ESD and limiting-density CSV reports
    singcov verify      run oracle suites and report pass/fail

Exit codes: 0 on success, 1 on a validation or usage error, 2 when a
verify suite ran but at least one check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, bench
from .linalg import RandomSource, load_matrix_csv, require_hermitian, save_matrix_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singcov",
        description="structured shrinkage estimators for singular sample covariance",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="apply one estimator to a CSV matrix")
    est.add_argument("--estimator", required=True, choices=bench.CLI_ESTIMATORS)
    est.add_argument("--input", required=True, help="input matrix CSV")
    est.add_argument("--out", required=True, help="output matrix CSV")
    est.add_argument("--theta", type=float, help="permutation weight parameter")
    est.add_argument("--p", type=int, help="compression dimension")
    est.add_argument("--alpha", type=float, help="loading multiplier")
    est.add_argument("--beta", type=float, help="loading ridge offset")
    est.add_argument("--samples", type=int, default=20000, help="Monte Carlo draws")
    est.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a JSON-configured benchmark")
    exp.add_argument("--config", required=True, help="experiment JSON path")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, help="override the config seed")
    exp.add_argument("--threads", type=int, default=1, help="trial thread pool size")

    spec = sub.add_parser("spectrum", help="write spectral report CSVs")
    spec.add_argument("--config", required=True, help="experiment JSON path")
    spec.add_argument("--out", required=True, help="output directory")
    spec.add_argument("--seed", type=int, help="override the config seed")

    ver = sub.add_parser("verify", help="run oracle suites")
    ver.add_argument("suites", nargs="*", help="suite names (default: all)")
    ver.add_argument("--out", help="optional JSON report path")
    return parser


def _cmd_estimate(args) -> int:
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    k = load_matrix_csv(args.input)
    spec = bench.ESTIMATORS[args.estimator]
    for name in spec.params:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for estimator {args.estimator!r}")
    point = bench.Point(**{name: getattr(args, name) for name in spec.params})
    if spec.rank_margin is not None:  # only then are the eigenvalues needed
        reason = bench.rank_error(spec, point, np.linalg.eigvalsh(require_hermitian(k, "k")))
        if reason:
            raise ValueError(reason)
    result = spec.estimate(k, point, args.samples, RandomSource(args.seed))
    save_matrix_csv(args.out, np.asarray(result))
    print(f"wrote {args.out}")
    return 0


def _load_config(args) -> bench.ExperimentConfig:
    config = bench.ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    report = bench.run_experiment(config, threads=args.threads)
    raw, agg, cfg = report.write(args.out)
    for path in (raw, agg, cfg):
        print(f"wrote {path}")
    invalid = [r for r in report.rows if not r.valid]
    for r in invalid:
        print(f"skipped {r.estimator}[{r.parameter}] {r.metric}: {r.reason}")
    return 0


def _cmd_spectrum(args) -> int:
    config = _load_config(args)
    for path in bench.spectrum_report(config, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    names = args.suites or sorted(bench.VERIFY_SUITES)
    reports = []
    for name in names:
        reports.append(bench.verify(name))
    failed = False
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"{status} [{report.suite}] {check.name}: "
                f"value={check.value:.3e} tol={check.tol:.3e}"
            )
        failed = failed or not report.passed
    if args.out:
        doc = {"passed": not failed, "suites": [r.to_dict() for r in reports]}
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
