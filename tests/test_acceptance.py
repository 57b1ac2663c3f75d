"""Acceptance suite: one test per release criterion.

Each criterion gets exactly one test function; the conftest summary
hook prints one pass/fail line per criterion at the end of the run.
Tolerances and parameter grids are pinned here on purpose, so a change
in library behavior fails loudly instead of drifting.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
from conftest import random_hermitian, random_psd

from singcov import bench, cli
from singcov.haar import _compression_mc as _mc_matrix_moment
from singcov.combinatorics import (
    CycleType,
    HookShape,
    Partition,
    hook_character,
    power_sums,
    schur_bialternant,
    schur_hook_powersum,
)
from singcov.ewens import (
    ewens_estimator,
    ewens_estimator_bruteforce,
    hybrid_estimator,
    hybrid_estimator_bruteforce,
    hybrid_inverse_bruteforce,
    hybrid_inverse_diagonal,
)
from singcov.haar import (
    cov_p_closed,
    cov_p_mc,
    invcov_p_mc,
    invcov_spectrum,
    moment_matrix_coeffs,
    trace_moment,
)
from singcov.linalg import (
    RandomSource,
    WelfordAccumulator,
    block_pinv_update,
    esd,
    frobenius_norm,
    sample_gaussian_covariance,
    sample_haar_stiefel_batch,
)
from singcov.toeplitz import (
    PowerToeplitz,
    TridiagonalToeplitz,
    ewens_transform_closedform,
    limiting_measure,
    tridiag_eigensystem,
)

THETA_GRID = (0.5, 1.0, 2.0, 5.0)


def test_c01_ewens_closed_form_vs_enumeration():
    # all m in 2..7, four thetas, 20 seeded draws each; relative
    # entrywise error <= 1e-12 and half a minute of wall time
    start = time.monotonic()
    worst = 0.0
    for m in range(2, 8):
        for ti, theta in enumerate(THETA_GRID):
            for rep in range(20):
                k = random_hermitian(m, 1000 * m + 100 * ti + rep)
                ref = ewens_estimator_bruteforce(k, theta)
                got = ewens_estimator(k, theta)
                rel = float(np.abs(ref - got).max() / np.abs(ref).max())
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"
    assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_c02_hybrid_closed_form_vs_injection_enumeration():
    worst = 0.0
    for m in range(2, 8):
        for ti, theta in enumerate(THETA_GRID):
            k = random_hermitian(m, 2000 * m + ti)
            for p in range(1, m + 1):
                ref = hybrid_estimator_bruteforce(k, theta, p)
                got = hybrid_estimator(k, theta, p)
                worst = max(worst, float(np.abs(ref - got).max()))
    assert worst <= 1e-12, f"worst error {worst:.3e}"

    # size-3 closed forms reproduced literally
    a = random_hermitian(3, 31415)
    for theta in THETA_GRID:
        den = theta + 2.0
        want1 = np.diag([theta * a[0, 0], a[1, 1], a[2, 2]]) / den
        got1 = hybrid_estimator(a, theta, 1)
        assert np.abs(got1 - want1).max() <= 1e-12
        want2 = (
            np.array(
                [
                    [(theta + 1) * a[0, 0], theta * a[0, 1], a[0, 2]],
                    [theta * a[1, 0], (theta + 1) * a[1, 1], a[1, 2]],
                    [a[2, 0], a[2, 1], 2 * a[2, 2]],
                ]
            )
            / den
        )
        got2 = hybrid_estimator(a, theta, 2)
        assert np.abs(got2 - want2).max() <= 1e-12


def test_c03_diagonal_inverse_closed_form_and_adjudication():
    g = RandomSource(424242).generator
    worst_stated = 0.0
    worst_swapped = 0.0
    for m in range(2, 7):
        for n in range(1, m + 1):
            d = np.zeros(m)
            d[:n] = g.uniform(0.5, 2.0, n)
            for p in range(1, n + 1):
                for theta in (0.5, 2.0, 5.0):
                    ref = hybrid_inverse_bruteforce(np.diag(d), theta, p)
                    got = hybrid_inverse_diagonal(d, theta, p)
                    worst_stated = max(worst_stated, float(np.abs(ref - got).max()))
                    # the competing reading swaps which block carries
                    # the theta-enhanced coefficient
                    swapped = np.zeros((m, m), dtype=complex)
                    for i in range(n):
                        coef = float(p) if i < p else (theta + p - 1.0)
                        swapped[i, i] = coef / ((theta + m - 1.0) * d[i])
                    worst_swapped = max(worst_swapped, float(np.abs(ref - swapped).max()))
    assert worst_stated <= 1e-12, f"stated reading error {worst_stated:.3e}"
    # adjudication record: enumeration confirms the head-enhanced
    # reading and rejects the swapped one by a wide margin
    assert worst_swapped > 1e-3, f"swapped reading error only {worst_swapped:.3e}"
    print(
        f"adjudication: head-enhanced reading max err {worst_stated:.2e}, "
        f"swapped reading max err {worst_swapped:.2e}"
    )


def test_c04_cov_average_closed_form_vs_mc():
    start = time.monotonic()
    m, samples = 6, 200_000
    k = random_psd(m, m, 515)
    for i, p in enumerate((2, 3, 4)):
        closed = cov_p_closed(k, p)
        mc = cov_p_mc(k, p, samples, RandomSource(616).substream(i))
        resid = np.abs(mc.estimate - closed)
        assert (resid <= 5.0 * np.maximum(mc.stderr, 1e-300)).all(), f"p={p}"
        trace_gap = abs(np.trace(closed) - (p / m) * np.trace(k))
        assert trace_gap <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def _factorial_ratio_display(a: int, b: int) -> float:
    # a! / b! with the reciprocal-factorial-of-a-negative-integer
    # convention: the term vanishes
    if b < 0:
        return 0.0
    return math.factorial(a) / math.factorial(b)


def test_c05_moment_closed_forms_vs_mc():
    samples = 60_000
    rng = RandomSource(717)
    job = 0
    for n in (4, 5):
        for p in (2, 3):
            g = RandomSource(818 + 10 * n + p).generator
            dvals = g.uniform(0.5, 2.5, n)
            d = np.diag(dvals.astype(complex))
            t1, t2 = dvals.sum(), (dvals**2).sum()

            # degree 1: (p(np-1) D + p(n-p) Tr(D) I) / (n(n^2-1))
            den = n * (n * n - 1.0)
            display1 = (p * (n * p - 1) / den) * np.diag(dvals) + (
                p * (n - p) / den
            ) * t1 * np.eye(n)
            coeffs = moment_matrix_coeffs([Fraction(x) for x in dvals], p, 1)
            assert np.abs(coeffs.as_matrix(dvals) - display1).max() <= 1e-12
            mc = _mc_matrix_moment(d, p, 1, samples, rng.substream(job))
            job += 1
            resid = np.abs(mc.estimate - display1)
            assert (resid <= 5.0 * np.maximum(mc.stderr, 1e-300)).all()

            # degree 2 display with its three factorial coefficients
            c0 = _factorial_ratio_display(2 + p, p - 1) * _factorial_ratio_display(
                n - 1, 2 + n
            ) / 3.0
            c1 = _factorial_ratio_display(1 + p, p - 2) * _factorial_ratio_display(
                n - 2, 1 + n
            ) / 3.0
            c2 = _factorial_ratio_display(p, p - 3) * _factorial_ratio_display(
                n - 3, n
            ) / 3.0
            display2 = (
                (c0 + c1 + c2) * np.diag(dvals**2)
                + (c0 - c2) * t1 * np.diag(dvals)
                + (
                    c0 * (t1 * t1 + t2) / 2.0
                    - c1 * t1 * t1
                    + c2 * (t1 * t1 - t2) / 2.0
                )
                * np.eye(n)
            )
            coeffs = moment_matrix_coeffs([Fraction(x) for x in dvals], p, 2)
            assert np.abs(coeffs.as_matrix(dvals) - display2).max() <= 1e-12
            mc = _mc_matrix_moment(d, p, 2, samples, rng.substream(job))
            job += 1
            resid = np.abs(mc.estimate - display2)
            assert (resid <= 5.0 * np.maximum(mc.stderr, 1e-300)).all()

            # trace moments N <= 4 against a shared Monte Carlo stream
            accs = [WelfordAccumulator() for _ in range(4)]
            done = 0
            trace_rng = rng.substream(job)
            job += 1
            while done < samples:
                b = min(8192, samples - done)
                phi = sample_haar_stiefel_batch(p, n, b, trace_rng)
                w = np.einsum("bpi,i,bqi->bpq", phi, dvals.astype(complex), phi.conj())
                power = np.broadcast_to(np.eye(p, dtype=complex), w.shape).copy()
                for acc in accs:
                    power = power @ w
                    acc.add_batch(np.trace(power, axis1=1, axis2=2).real)
                done += b
            for order, acc in enumerate(accs, start=1):
                want = float(trace_moment([Fraction(x) for x in dvals], p, order))
                se = float(acc.stderr())
                got = float(np.real(acc.mean))
                assert abs(got - want) <= 5.0 * max(se, 1e-300), f"n={n} p={p} N={order}"


def test_c06_schur_two_routes_characters_and_closed_forms():
    # power-sum route vs alternant route on every hook up to weight 6
    g = RandomSource(919).generator
    for weight in range(1, 7):
        for leg in range(weight):
            shape = HookShape(weight, leg)
            parts = Partition((weight - leg,) + (1,) * leg)
            for n in range(1, 6):
                xs = list(g.uniform(0.3, 2.0, n))
                via_ps = float(schur_hook_powersum(shape, power_sums(xs, weight)))
                via_alt = schur_bialternant(parts, xs)
                assert abs(via_ps - via_alt) <= 1e-10 * max(1.0, abs(via_alt))

    # the nine weight-3 character values, exactly
    table = {
        (0, (1, 1, 1)): 1, (0, (2, 1)): 1, (0, (3,)): 1,
        (1, (1, 1, 1)): 2, (1, (2, 1)): 0, (1, (3,)): -1,
        (2, (1, 1, 1)): 1, (2, (2, 1)): -1, (2, (3,)): 1,
    }
    for (leg, cycles), want in table.items():
        assert hook_character(HookShape(3, leg), CycleType(cycles)) == want

    # two displayed closed forms at 20 random points each
    pts = RandomSource(1021).generator.uniform(0.2, 2.0, (20, 3))
    for x1, x2, x3 in pts:
        got = schur_bialternant(Partition((2, 1, 1)), [x1, x2, x3])
        want = x1 * x2 * x3 * (x1 + x2 + x3)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        got = schur_bialternant(Partition((2, 2)), [x1, x2, x3])
        want = (
            x1**2 * x2**2 + x1**2 * x3**2 + x2**2 * x3**2
            + x1**2 * x2 * x3 + x1 * x2**2 * x3 + x1 * x2 * x3**2
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_c07_inverse_compression_structure():
    m, n, p, samples = 6, 4, 3, 200_000
    g = RandomSource(1123).generator
    d = np.zeros(m)
    d[0] = d[1] = g.uniform(0.8, 1.6)
    d[2:n] = g.uniform(0.5, 2.0, n - 2)
    mc = invcov_p_mc(np.diag(d), p, samples, RandomSource(1224))
    est, se = mc.estimate, np.maximum(mc.stderr, 1e-300)
    off = ~np.eye(m, dtype=bool)
    assert (np.abs(est[off]) <= 5.0 * se[off]).all(), "off-diagonal not null"
    # kernel-block diagonal entries agree pairwise
    gap = abs(est[4, 4] - est[5, 5])
    assert gap <= 5.0 * math.hypot(se[4, 4], se[5, 5])
    # equal inputs d_1 = d_2 map to equal outputs
    gap = abs(est[0, 0] - est[1, 1])
    assert gap <= 5.0 * math.hypot(se[0, 0], se[1, 1])


def test_c08_block_pseudoinverse_vs_svd():
    dependent_cases = 0
    independent_cases = 0
    worst = 0.0
    for m in range(2, 7):
        for n in range(2, 7):
            for rep in range(100):
                g = RandomSource(100000 + 1000 * m + 100 * n + rep).generator
                a = g.standard_normal((m, n - 1)) + 1j * g.standard_normal((m, n - 1))
                force_dependent = rep % 2 == 0
                if force_dependent:
                    w = g.standard_normal(n - 1) + 1j * g.standard_normal(n - 1)
                    col = a @ w
                    dependent_cases += 1
                else:
                    col = g.standard_normal(m) + 1j * g.standard_normal(m)
                    independent_cases += 1
                full = np.hstack([a, col[:, None]])
                ref = np.linalg.pinv(full.conj().T @ full)
                got = block_pinv_update(a, col)
                rel = float(np.abs(got - ref).max() / (1.0 + np.abs(ref).max()))
                worst = max(worst, rel)
    assert dependent_cases >= 1 and independent_cases >= 1
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"


def test_c09_toeplitz_spectra():
    # (a) closed-form eigenvalues vs numeric at m = 200
    trid = TridiagonalToeplitz(200, 0.3)
    closed = np.sort(tridiag_eigensystem(200, 0.3).eigenvalues)
    numeric = np.sort(np.linalg.eigvalsh(trid.matrix()))
    assert np.abs(closed - numeric).max() <= 1e-10

    # (b) determinant closed form vs LU through m = 50
    for m in range(2, 51):
        for alpha in (0.3, 0.5, 0.8):
            lu = float(np.linalg.det(PowerToeplitz(m, alpha).matrix()))
            got = PowerToeplitz(m, alpha).det()
            assert abs(got - lu) <= 1e-10 * abs(lu), f"m={m} alpha={alpha}"

    # (c) structured transform displays vs the general closed form
    for m in range(5, 51):
        for theta in (0.5, 2.0, 10.0):
            t = TridiagonalToeplitz(m, 0.3)
            gap = np.abs(
                ewens_transform_closedform(t, theta) - ewens_estimator(t.matrix(), theta)
            ).max()
            assert gap <= 1e-10, f"tridiagonal m={m} theta={theta}"
            a = PowerToeplitz(m, 0.5)
            gap = np.abs(
                ewens_transform_closedform(a, theta) - ewens_estimator(a.matrix(), theta)
            ).max()
            assert gap <= 1e-10, f"power m={m} theta={theta}"

    # (d) support edges in the theta = m regime: the limiting support
    # at beta = 1 is [0.85, 1.15]; the finite-size transform keeps its
    # bulk within 0.05 of those edges plus a single outlier from the
    # rank-one constant component
    m, b = 300, 0.3
    bt = ewens_transform_closedform(TridiagonalToeplitz(m, b), float(m))
    vals = np.sort(np.linalg.eigvalsh(bt))
    assert abs(vals[0] - 0.85) <= 0.05, f"lower edge at {vals[0]:.4f}"
    assert abs(vals[-2] - 1.15) <= 0.05, f"bulk upper edge at {vals[-2]:.4f}"
    outside = ((vals < 0.80) | (vals > 1.20)).sum()
    assert outside == 1, f"{outside} eigenvalues outside the widened support"

    # (e) ESD vs the symbol push-forward at m = 300
    measure = limiting_measure(TridiagonalToeplitz(300, 0.3).symbol())
    ks = esd(TridiagonalToeplitz(300, 0.3).matrix()).kolmogorov_distance(measure.cdf)
    assert ks <= 0.05, f"Kolmogorov distance {ks:.4f}"


def test_c10_rank_deficient_recovery_structure():
    m, n, alpha, p, theta = 200, 150, 0.5, 45, 261.0
    a = PowerToeplitz(m, alpha).matrix()
    k = sample_gaussian_covariance(a, n, RandomSource(0).substream(0))
    w = np.linalg.eigvalsh(k)
    tol = m * np.finfo(float).eps * float(w.max())
    assert int((w > tol).sum()) == n, "sample covariance rank is not n"

    ew = np.linalg.eigvalsh(ewens_estimator(k, theta))
    assert (ew > 0).all(), "permutation average kept a zero eigenvalue"
    assert ew.min() >= 0.2 and ew.max() <= 3.5, (
        f"permutation average range [{ew.min():.3f}, {ew.max():.3f}]"
    )

    spec = invcov_spectrum(k, p, 5000, RandomSource(0).substream(1))
    values = np.concatenate([spec.lambdas, np.full(m - len(spec.lambdas), spec.mu)])
    assert (values > 0).all(), "inverse-compression average not positive"
    inv_eigs = (p / m) / values
    assert inv_eigs.min() >= 0.2 and inv_eigs.max() <= 3.5, (
        f"inverse estimate range [{inv_eigs.min():.3f}, {inv_eigs.max():.3f}]"
    )


def test_c11_error_curve_beats_sample_covariance():
    m, n, trials = 100, 75, 10
    a = PowerToeplitz(m, 0.5).matrix()
    grid = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)
    f_mean = np.zeros(len(grid))
    sample_mean = 0.0
    for t in range(trials):
        k = sample_gaussian_covariance(a, n, RandomSource(7).substream(t))
        sample_mean += frobenius_norm(a - k)
        for j, theta in enumerate(grid):
            f_mean[j] += frobenius_norm(a - ewens_estimator(k, theta))
    f_mean /= trials
    sample_mean /= trials
    j = int(np.argmin(f_mean))
    assert f_mean[j] < sample_mean, (
        f"min F {f_mean[j]:.3f} does not beat sample error {sample_mean:.3f}"
    )
    assert 0 < j < len(grid) - 1, f"minimizer sits at the grid edge (theta={grid[j]})"


def test_c12_experiment_rerun_byte_identical(tmp_path):
    config = {
        "m": 8,
        "n": 6,
        "truth": {"kind": "tridiagonal", "b": 0.3},
        "estimators": ["sample", "loading", "covp", "invcovp", "ewens",
                       "hybrid", "hybrid_inverse"],
        "theta_grid": [1.0, 4.0],
        "p_grid": [3],
        "loading_grid": [[1.0, 0.0], [0.8, 0.2]],
        "mc_samples": 300,
        "seed": 7,
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(first)]) == 0
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(second)]) == 0
    for name in ("metrics_raw.csv", "metrics_mean.csv", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
