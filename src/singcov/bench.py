r"""Experiment runner, spectrum reports, and verification suites.

A JSON config fixes the ground-truth Toeplitz family, the estimator
set, the parameter grids, the Monte Carlo budget, the trial count and
the seed. ``run_experiment`` replays it into per-trial Frobenius error
rows plus aggregated means; with the same config the emitted CSV files
are byte identical, which the acceptance tests rely on. ``verify``
hosts the oracle-equivalence suites used both from pytest and from the
command line.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import ewens as ew
from . import haar
from . import toeplitz as tp
from .linalg import (
    FLOAT_FMT,
    RandomSource,
    block_pinv_update,
    esd,
    frobenius_norm,
    hermitize,
    numeric_rank,
    pseudoinverse,
    require_p,
    require_theta,
    sample_gaussian_covariance,
    save_density_csv,
    save_esd_csv,
)

__all__ = [
    "ExperimentConfig",
    "MetricRow",
    "MetricReport",
    "run_experiment",
    "spectrum_report",
    "VerifyCheck",
    "VerifyReport",
    "verify",
    "VERIFY_SUITES",
    "ESTIMATORS",
    "Estimator",
    "Point",
]


@dataclass(frozen=True)
class Point:
    """Typed parameter values of one estimate; a parameter the estimator
    does not take stays None."""

    theta: float | None = None
    p: int | None = None
    alpha: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class Estimator:
    """One estimator, as ``run_experiment`` and ``singcov estimate`` use it.

    ``params``: the ``Point`` fields it reads, which are also its CLI flags.
    ``estimate(k, x, samples, rng)``: its estimate from ``K`` at the point
    ``x``; None marks the truth itself. ``metrics``: for each metric it
    reports, the matrix scored from the estimate ``e`` at ``x``, against
    the truth (``fro_direct``) or its inverse (``fro_inverse``).
    ``rank_margin``: None, or how far ``p`` must stay below the numeric
    rank r of a singular ``K``; rows with ``p > r - rank_margin`` are invalid.
    """

    params: tuple
    estimate: Callable | None
    metrics: dict
    rank_margin: int | None = None


def rank_error(spec: Estimator, x: Point, eigenvalues) -> str:
    """Why ``spec`` cannot estimate at ``x`` from a ``K`` with these
    eigenvalues, or '' when it can: with a ``rank_margin``, ``p`` must not
    exceed ``r - rank_margin`` when the numeric rank r of ``K`` is below m.
    A ``p`` outside ``[1, m]`` raises."""
    if spec.rank_margin is None:
        return ""
    m = len(eigenvalues)
    require_p(x.p, m)
    rank = numeric_rank(eigenvalues)
    if rank == m or x.p <= rank - spec.rank_margin:
        return ""
    if x.p > rank:
        return f"p={x.p} exceeds rank {rank} of K"
    return f"p={x.p} reaches rank {rank} of the singular K, where the average is infinite"


_DIRECT = {"fro_direct": lambda e, x: e}

# Every call goes through its module attribute when it runs, never through
# a function object stored here, so rebinding ``haar.invcov_p_mc`` (as a
# tracer or a test does) reaches the experiment and the CLI alike.
ESTIMATORS = {
    "truth": Estimator((), None, _DIRECT),
    "sample": Estimator((), lambda k, x, *_: k, _DIRECT),
    "ewens": Estimator(("theta",), lambda k, x, *_: ew.ewens_estimator(k, x.theta), _DIRECT),
    "hybrid": Estimator(
        ("theta", "p"), lambda k, x, *_: ew.hybrid_estimator(k, x.theta, x.p), _DIRECT
    ),
    "hybrid_inverse": Estimator(
        ("theta", "p"),
        lambda k, x, *mc: ew.hybrid_inverse_mc(k, x.theta, x.p, *mc).estimate,
        {"fro_inverse": lambda e, x: e},
        rank_margin=0,
    ),
    "covp": Estimator(("p",), lambda k, x, *_: haar.cov_p_closed(k, x.p), _DIRECT),
    # the inverse-compression average estimates p/m times the inverse, and
    # on a singular K it is infinite on the kernel from p = rank on
    "invcovp": Estimator(
        ("p",),
        lambda k, x, *mc: haar.invcov_p_mc(k, x.p, *mc).estimate,
        {
            "fro_direct": lambda e, x: (x.p / e.shape[0]) * pseudoinverse(e),
            "fro_inverse": lambda e, x: (e.shape[0] / x.p) * e,
        },
        rank_margin=1,
    ),
    "loading": Estimator(
        ("alpha", "beta"),
        lambda k, x, *_: haar.diagonal_loading(k, haar.LoadingParameters(x.alpha, x.beta)),
        _DIRECT,
    ),
}

# ``singcov estimate`` offers the estimators that take parameters; ``truth``
# and ``sample`` are reference rows of an experiment.
CLI_ESTIMATORS = tuple(name for name, spec in ESTIMATORS.items() if spec.params)

# The config grid each parameter's values come from.
_GRIDS = {"theta": "theta_grid", "p": "p_grid", "alpha": "loading_grid", "beta": "loading_grid"}


def _key(read, default=MISSING):
    """A field that is also a top-level JSON key, converted by
    ``read(value, key)``, which raises ``ValueError`` naming the key for a
    value of the wrong JSON type."""
    return field(default=default, metadata={"read": read})


def _int(value, key):
    if type(value) is not int:  # not isinstance: bool is a subclass of int
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key):
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _text(value, key):
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _list_of(item):
    def read(values, key):
        if not isinstance(values, list):
            raise ValueError(f"{key} must be a list, got {values!r}")
        return tuple(item(v, f"{key} entries") for v in values)

    return read


def _number_pair(pair, key):
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{key} must be [alpha, beta] pairs, got {pair!r}")
    return _number(pair[0], key), _number(pair[1], key)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (mirrors the JSON schema).

    Every field but the truth pair is a top-level JSON key of the same
    name; the truth pair is the ``truth`` object.
    """

    m: int = _key(_int)
    n: int = _key(_int)
    truth_kind: str
    truth_param: float
    estimators: tuple = _key(_list_of(_text), ("sample",))
    theta_grid: tuple = _key(_list_of(_number), ())
    p_grid: tuple = _key(_list_of(_int), ())
    loading_grid: tuple = _key(_list_of(_number_pair), ())
    mc_samples: int = _key(_int, 2000)
    seed: int = _key(_int, 0)
    trials: int = _key(_int, 10)

    def __post_init__(self):
        tp.toeplitz_truth(self.truth_kind, self.m, self.truth_param)  # validates m too
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.estimators:
            raise ValueError("estimators must be a nonempty list")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {name!r}; choose from {tuple(ESTIMATORS)}"
                )
            for param in ESTIMATORS[name].params:
                if not getattr(self, _GRIDS[param]):
                    raise ValueError(
                        f"{_GRIDS[param]} must be nonempty for estimator {name!r}"
                    )
        # each entry names rows of the metric files, a theta by its %g label
        thetas = [_fmt_param(t) for t in self.theta_grid]
        for key, labels in (
            ("estimators", self.estimators), ("p_grid", self.p_grid), ("theta_grid", thetas)
        ):
            if len(set(labels)) < len(labels):
                raise ValueError(f"{key} entries must have distinct labels, got {list(labels)}")
        for theta in self.theta_grid:
            require_theta(theta)
        for p in self.p_grid:
            require_p(p, self.m)
        for pair in self.loading_grid:
            haar.LoadingParameters(*pair)  # validates

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        doc = dict(doc)
        truth = doc.pop("truth", None)
        if not isinstance(truth, dict):
            raise ValueError("config requires a 'truth' object")
        truth = dict(truth)
        kind = truth.pop("kind", None)
        if kind not in tp.FAMILIES:
            raise ValueError(f"truth.kind must be {' or '.join(map(repr, tp.FAMILIES))}")
        name = tp.FAMILIES[kind][0]
        param = truth.pop(name, None)
        if param is None:
            raise ValueError(f"truth lacks its family parameter {name!r}")
        if truth:
            raise ValueError(f"unknown truth keys: {sorted(truth)}")
        unknown = set(doc) - {f.name for f in _JSON_FIELDS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        required = [f.name for f in _JSON_FIELDS if f.default is MISSING]
        if any(name not in doc for name in required):
            raise ValueError("config requires " + " and ".join(f"'{n}'" for n in required))
        values = {
            f.name: f.metadata["read"](doc[f.name], f.name) for f in _JSON_FIELDS if f.name in doc
        }
        param = _number(param, f"truth.{name}")
        return ExperimentConfig(truth_kind=kind, truth_param=param, **values)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path!r} is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        truth = {"kind": self.truth_kind, tp.FAMILIES[self.truth_kind][0]: self.truth_param}
        doc = {f.name: _plain(getattr(self, f.name)) for f in _JSON_FIELDS}
        return dict(doc, truth=truth)


_JSON_FIELDS = tuple(f for f in fields(ExperimentConfig) if "read" in f.metadata)


def _plain(value):
    """JSON form of a config value: tuples become lists, recursively."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass
class MetricRow:
    """One (estimator, parameter, metric) cell with its per-trial values."""

    estimator: str
    parameter: str
    metric: str
    values: list = field(default_factory=list)
    valid: bool = True
    reason: str = ""

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))


@dataclass
class MetricReport:
    config: ExperimentConfig
    rows: list

    def row(self, estimator, parameter, metric) -> MetricRow:
        for r in self.rows:
            if (r.estimator, r.parameter, r.metric) == (estimator, parameter, metric):
                return r
        raise KeyError((estimator, parameter, metric))

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        raw = os.path.join(outdir, "metrics_raw.csv")
        agg = os.path.join(outdir, "metrics_mean.csv")
        cfg = os.path.join(outdir, "config.json")
        with open(raw, "w", newline="") as fh:
            fh.write("estimator,parameter,metric,trial,value\n")
            for r in self.rows:
                if not r.valid:
                    continue
                for t, v in enumerate(r.values):
                    fh.write(
                        f"{r.estimator},{r.parameter},{r.metric},{t}," + FLOAT_FMT % v + "\n"
                    )
        with open(agg, "w", newline="") as fh:
            fh.write("estimator,parameter,metric,trials,mean,std,valid,reason\n")
            for r in self.rows:
                if r.valid:
                    fh.write(
                        f"{r.estimator},{r.parameter},{r.metric},{len(r.values)},"
                        + FLOAT_FMT % r.mean
                        + ","
                        + FLOAT_FMT % r.std
                        + ",true,\n"
                    )
                else:
                    fh.write(
                        f"{r.estimator},{r.parameter},{r.metric},0,,,false,{r.reason}\n"
                    )
        with open(cfg, "w") as fh:
            json.dump(self.config.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return raw, agg, cfg


def _truth_matrices(config: ExperimentConfig):
    family = tp.toeplitz_truth(config.truth_kind, config.m, config.truth_param)
    return family, family.matrix(), family.inverse()


@dataclass(frozen=True)
class Job:
    """An estimator and the points that one experiment row evaluates it at.

    A job has one point, except that the loading pair is an oracle choice:
    its job spans the whole ``loading_grid`` and keeps the least error.
    """

    estimator: str
    points: tuple

    @property
    def parameter(self) -> str:
        """The row's label in the metric files."""
        x = self.points[0]
        if x.alpha is not None:
            return "grid-min"
        theta = None if x.theta is None else f"theta={_fmt_param(x.theta)}"
        p = None if x.p is None else f"p={x.p}"
        return ",".join(filter(None, (theta, p)))


def _fmt_param(x: float) -> str:
    return "%g" % x


def _build_plan(config: ExperimentConfig) -> list:
    plan = []
    for name in config.estimators:
        params = ESTIMATORS[name].params
        if "alpha" in params:
            pairs = tuple(Point(alpha=al, beta=be) for al, be in config.loading_grid)
            plan.append(Job(name, pairs))
            continue
        thetas = config.theta_grid if "theta" in params else (None,)
        ps = config.p_grid if "p" in params else (None,)
        plan += [Job(name, (Point(theta=t, p=p),)) for t in thetas for p in ps]
    return plan


def _trial_errors(config: ExperimentConfig, trial: int, plan, a, a_inv) -> list:
    """One trial's result per job: ``{metric: error}``, or the reason the
    job cannot apply to the drawn ``K``. Each point of a job is estimated
    once, and every metric is scored from that one estimate."""
    base = RandomSource(config.seed).substream(trial)
    k = sample_gaussian_covariance(a, config.n, base.substream(0))
    w = np.linalg.eigvalsh(k)
    targets = {"fro_direct": a, "fro_inverse": a_inv}
    out = []
    for jobid, job in enumerate(plan):
        spec = ESTIMATORS[job.estimator]
        reason = rank_error(spec, job.points[0], w)
        if reason:
            out.append(reason)
            continue
        rng = base.substream(jobid + 1)
        errors = dict.fromkeys(spec.metrics, math.inf)
        for x in job.points:
            e = a if spec.estimate is None else spec.estimate(k, x, config.mc_samples, rng)
            for metric, scored in spec.metrics.items():
                error = frobenius_norm(targets[metric] - scored(e, x))
                errors[metric] = min(errors[metric], error)
        out.append(errors)
    return out


def run_experiment(config: ExperimentConfig, threads: int = 1) -> MetricReport:
    """Execute every (estimator, parameter, trial) job of the config.

    Trials are independent jobs on substreams of the config seed, so a
    thread pool changes wall time but never results. A row where the
    parameter cannot apply to the drawn matrix (p above the sample rank,
    say) is marked invalid with a reason instead of aborting the run.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    _, a, a_inv = _truth_matrices(config)
    plan = _build_plan(config)
    rows = [
        [
            MetricRow(job.estimator, job.parameter, metric)
            for metric in ESTIMATORS[job.estimator].metrics
        ]
        for job in plan
    ]
    if threads > 1:
        # the trial threads keep the cores busy, so each runs its own chunks
        with ThreadPoolExecutor(max_workers=threads, initializer=haar._run_chunks_inline) as pool:
            futures = [
                pool.submit(_trial_errors, config, t, plan, a, a_inv)
                for t in range(config.trials)
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _trial_errors(config, t, plan, a, a_inv) for t in range(config.trials)
        ]
    for per_trial in results:
        for job_rows, errors in zip(rows, per_trial):
            for row in job_rows:
                if isinstance(errors, str):
                    row.valid = False
                    row.reason = errors
                    row.values = []
                elif row.valid:
                    row.values.append(float(errors[row.metric]))
    return MetricReport(config, [row for job_rows in rows for row in job_rows])


def spectrum_report(config: ExperimentConfig, outdir) -> list:
    """Write spectra: truth and sample ESDs, Ewens-average ESDs on the
    theta grid, and the matching analytic limiting densities.

    Returns the list of written paths.
    """
    os.makedirs(outdir, exist_ok=True)
    family, a, _ = _truth_matrices(config)
    paths = []

    def _emit_esd(name, mat):
        path = os.path.join(outdir, name)
        save_esd_csv(path, esd(mat))
        paths.append(path)

    _emit_esd("esd_truth.csv", a)
    k = sample_gaussian_covariance(
        a, config.n, RandomSource(config.seed).substream(0).substream(0)
    )
    _emit_esd("esd_sample.csv", k)

    def _emit_law(name, sym):
        # a constant symbol's law is a point mass: the single row "atom,inf"
        path = os.path.join(outdir, name)
        law = tp.limiting_measure(sym)
        grid = _density_grid(sym) if law.atom is None else [law.atom]
        save_density_csv(path, grid, law.density(grid))
        paths.append(path)

    _emit_law("density_truth.csv", family.symbol())

    for theta in config.theta_grid:
        tag = _fmt_param(theta)
        _emit_esd(f"esd_ewens_theta_{tag}.csv", ew.ewens_estimator(a, theta))
        beta = theta / config.m
        rsym = tp.rescaled_symbol(config.truth_kind, config.truth_param, beta)
        _emit_law(f"density_ewens_beta_{_fmt_param(beta)}.csv", rsym)
    return paths


def _density_grid(sym: tp.SymbolFunction, points: int = 513) -> np.ndarray:
    # image of a uniform angle grid: clusters abscissae near the
    # density's edge singularities where resolution matters
    theta = np.linspace(0.0, np.pi, points + 2)[1:-1]
    return np.sort(np.asarray(sym(theta), dtype=float))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class VerifyCheck:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)


@dataclass
class VerifyReport:
    suite: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "value": c.value, "tol": c.tol, "passed": c.passed}
                for c in self.checks
            ],
        }


def _random_hermitian(m, rng, psd=False):
    g = rng.generator
    z = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    if psd:
        return hermitize(z @ z.conj().T / m)
    return hermitize((z + z.conj().T) / 2)


def _suite_ewens_closedform() -> list:
    checks = []
    rng = RandomSource(2024)
    worst = 0.0
    for m in range(2, 7):
        for theta in (0.5, 1.0, 2.0, 5.0):
            for rep in range(3):
                k = _random_hermitian(m, rng.substream(m * 100 + rep))
                ref = ew.ewens_estimator_bruteforce(k, theta)
                got = ew.ewens_estimator(k, theta)
                worst = max(worst, float(np.abs(ref - got).max()))
    checks.append(VerifyCheck("ewens closed form vs m! enumeration", worst, 1e-12))
    return checks


def _suite_hybrid_closedform() -> list:
    checks = []
    rng = RandomSource(77)
    worst = 0.0
    for m in range(2, 6):
        k = _random_hermitian(m, rng.substream(m))
        for p in range(1, m + 1):
            for theta in (0.5, 1.7, 4.0):
                ref = ew.hybrid_estimator_bruteforce(k, theta, p)
                got = ew.hybrid_estimator(k, theta, p)
                worst = max(worst, float(np.abs(ref - got).max()))
    checks.append(VerifyCheck("hybrid closed form vs injection enumeration", worst, 1e-12))
    worst = 0.0
    for m in range(2, 6):
        dvals = RandomSource(5).substream(m).generator.uniform(0.5, 2.0, m)
        for n in range(1, m + 1):
            d = np.zeros(m)
            d[:n] = dvals[:n]
            for p in range(1, n + 1):
                for theta in (0.8, 2.0):
                    ref = ew.hybrid_inverse_bruteforce(np.diag(d), theta, p)
                    got = ew.hybrid_inverse_diagonal(d, theta, p)
                    worst = max(worst, float(np.abs(ref - got).max()))
    checks.append(
        VerifyCheck("diagonal inverse closed form vs enumeration", worst, 1e-12)
    )
    return checks


def _suite_haar_moments() -> list:
    from fractions import Fraction

    checks = []
    rng = RandomSource(31)
    m, samples = 5, 40_000
    k = _random_hermitian(m, rng.substream(0), psd=True)
    for i, p in enumerate((2, 3)):
        mc = haar.cov_p_mc(k, p, samples, rng.substream(i + 1))
        resid = np.abs(mc.estimate - haar.cov_p_closed(k, p))
        z = float((resid / np.maximum(mc.stderr, 1e-300)).max())
        checks.append(VerifyCheck(f"cov average closed form vs MC (p={p})", z, 5.0))
    n, p = 4, 2
    dvals = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    d = np.diag(np.asarray([float(x) for x in dvals]))
    for l in (1, 2):
        coeffs = haar.moment_matrix_coeffs(dvals, p, l)
        pred = coeffs.as_matrix([float(x) for x in dvals])
        phi_rng = rng.substream(10 + l)
        acc_est = haar._compression_mc(d, p, l, 60_000, phi_rng)
        resid = np.abs(acc_est.estimate - pred)
        z = float((resid / np.maximum(acc_est.stderr, 1e-300)).max())
        checks.append(VerifyCheck(f"matrix moment closed form vs MC (l={l})", z, 5.0))
        tr_identity = coeffs.trace(dvals) - haar.trace_moment(dvals, p, l)
        checks.append(
            VerifyCheck(f"trace identity exact (l={l})", float(abs(tr_identity)), 0.0)
        )
    return checks


def _suite_block_pinv() -> list:
    checks = []
    worst = 0.0
    for trial in range(50):
        rng = RandomSource(900 + trial).generator
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((m, n - 1)) + 1j * rng.standard_normal((m, n - 1))
        if trial % 2 == 0:
            col = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        else:
            col = a @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        full = np.hstack([a, col[:, None]])
        ref = np.linalg.pinv(full.conj().T @ full)
        got = block_pinv_update(a, col)
        worst = max(worst, float(np.abs(ref - got).max() / (1 + np.abs(ref).max())))
    checks.append(VerifyCheck("bordered pseudoinverse vs SVD (both branches)", worst, 1e-8))
    return checks


def _suite_toeplitz_decomp() -> list:
    checks = []
    worst_b = worst_a = 0.0
    for m in (5, 40):
        trid = tp.TridiagonalToeplitz(m, 0.3)
        powf = tp.PowerToeplitz(m, 0.5)
        for theta in (0.5, 2.0, 7.0):
            ref = ew.ewens_estimator(trid.matrix(), theta)
            got = tp.ewens_transform_closedform(trid, theta)
            worst_b = max(worst_b, float(np.abs(ref - got).max()))
            ref = ew.ewens_estimator(powf.matrix(), theta)
            got = tp.ewens_transform_closedform(powf, theta)
            worst_a = max(worst_a, float(np.abs(ref - got).max()))
    checks.append(VerifyCheck("tridiagonal decomposition vs closed form", worst_b, 1e-10))
    checks.append(VerifyCheck("power decomposition vs closed form", worst_a, 1e-10))
    return checks


def _suite_toeplitz_spectra() -> list:
    checks = []
    m, b = 200, 0.3
    trid = tp.TridiagonalToeplitz(m, b)
    dec = trid.eigensystem()
    resid = frobenius_norm(dec.reconstruct() - trid.matrix())
    checks.append(VerifyCheck("tridiagonal eigensystem residual", resid, 1e-10))
    numeric = np.sort(np.linalg.eigvalsh(trid.matrix()))
    closed = np.sort(dec.eigenvalues)
    checks.append(
        VerifyCheck("closed vs numeric eigenvalues", float(np.abs(numeric - closed).max()), 1e-10)
    )
    powf = tp.PowerToeplitz(6, 0.5)
    det_gap = abs(powf.det() - float(np.linalg.det(powf.matrix())))
    checks.append(VerifyCheck("power determinant closed form", det_gap, 1e-12))
    inv_gap = float(np.abs(powf.matrix() @ powf.inverse() - np.eye(6)).max())
    checks.append(VerifyCheck("power inverse closed form", inv_gap, 1e-12))
    big = tp.TridiagonalToeplitz(300, b)
    measure = tp.limiting_measure(big.symbol())
    ks = esd(big.matrix()).kolmogorov_distance(measure.cdf)
    checks.append(VerifyCheck("ESD vs symbol push-forward (m=300)", ks, 0.05))
    return checks


VERIFY_SUITES = {
    "ewens-closedform": _suite_ewens_closedform,
    "hybrid-closedform": _suite_hybrid_closedform,
    "haar-moments": _suite_haar_moments,
    "block-pinv": _suite_block_pinv,
    "toeplitz-decomp": _suite_toeplitz_decomp,
    "toeplitz-spectra": _suite_toeplitz_spectra,
}


def verify(suite: str) -> VerifyReport:
    """Run one named oracle suite; raises KeyError for unknown names."""
    if suite not in VERIFY_SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(VERIFY_SUITES))}"
        )
    return VerifyReport(suite, VERIFY_SUITES[suite]())
