"""Unit tests for the rotation-average estimators and moment formulas."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_hermitian, random_psd

from singcov import haar
from singcov.ewens import hybrid_inverse_mc
from singcov.haar import (
    _CHUNK_BYTES,
    LoadingParameters,
    _chunk_draws,
    cov_p_closed,
    cov_p_mc,
    diagonal_loading,
    invcov_p_mc,
    invcov_spectrum,
    moment_matrix_coeffs,
    trace_moment,
)
from singcov.linalg import RandomSource, eig_hermitian


class TestCovPClosed:
    def test_identity_maps_to_scaled_identity(self):
        # closed form must send I to (p/m) I
        for m, p in ((4, 1), (5, 3), (6, 6)):
            np.testing.assert_allclose(
                cov_p_closed(np.eye(m), p), (p / m) * np.eye(m), atol=1e-12
            )

    def test_trace_scaling(self):
        k = random_hermitian(6, 3)
        for p in (1, 2, 5):
            got = np.trace(cov_p_closed(k, p))
            assert abs(got - (p / 6) * np.trace(k)) <= 1e-12

    def test_linearity(self):
        a = random_hermitian(5, 4)
        b = random_hermitian(5, 5)
        lhs = cov_p_closed(a + 2.0 * b, 3)
        rhs = cov_p_closed(a, 3) + 2.0 * cov_p_closed(b, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_mc(self, rng):
        k = random_psd(5, 5, 6)
        mc = cov_p_mc(k, 2, 30000, rng)
        resid = np.abs(mc.estimate - cov_p_closed(k, 2))
        assert (resid <= 5 * np.maximum(mc.stderr, 1e-300)).all()

    def test_p_range_validation(self):
        with pytest.raises(ValueError):
            cov_p_closed(np.eye(3), 0)
        with pytest.raises(ValueError):
            cov_p_closed(np.eye(3), 4)


class TestInvcov:
    def test_identity_gives_p_over_m(self, rng):
        m, p = 5, 3
        mc = invcov_p_mc(np.eye(m), p, 20000, rng)
        resid = np.abs(mc.estimate - (p / m) * np.eye(m))
        assert (resid <= 5 * np.maximum(mc.stderr, 1e-12)).all()

    def test_rejects_rank_below_p(self, rng):
        k = random_psd(6, 2, 7)
        with pytest.raises(RuntimeError):
            invcov_p_mc(k, 4, 2000, rng)
        with pytest.raises(RuntimeError):
            invcov_spectrum(k, 4, 2000, rng)

    def test_accepts_p_at_rank_and_rejects_above(self):
        k = random_psd(6, 3, 9)
        mc = invcov_p_mc(k, 3, 2000, RandomSource(10))
        assert mc.samples == 2000
        assert mc.rejected <= 20
        with pytest.raises(RuntimeError, match="resampling budget"):
            invcov_p_mc(k, 4, 2000, RandomSource(10))

    def test_preserves_eigenvectors(self, rng):
        k = random_psd(5, 5, 8)
        dec = eig_hermitian(k)
        spec = invcov_spectrum(k, 2, 20000, rng)
        rebuilt = dec.eigenvectors @ np.diag(spec.lambdas) @ dec.eigenvectors.conj().T
        mc = invcov_p_mc(k, 2, 20000, RandomSource(99))
        # same spectrum either way, up to MC noise
        got = np.sort(np.linalg.eigvalsh(mc.estimate))
        want = np.sort(spec.lambdas)
        assert np.abs(got - want).max() <= 6 * float(np.max(mc.stderr))

    def test_zero_block_is_flat(self, rng):
        d = np.diag([2.0, 1.0, 0.5, 0.0, 0.0])
        spec = invcov_spectrum(d, 2, 30000, rng)
        assert spec.mu > 0
        # lambdas for the kernel directions equal mu by construction
        assert np.isfinite(spec.lambdas).all()


class TestCompressionCore:
    def test_diagonal_and_full_lift_agree_on_same_draws(self):
        # 2000 draws fit one chunk of either lift, so both see the same frames
        d = np.array([3.0, 2.5, 1.7, 1.1, 0.6, 0.2])
        spec = invcov_spectrum(np.diag(d), 3, 2000, RandomSource(41))
        full = invcov_p_mc(np.diag(d), 3, 2000, RandomSource(41))
        np.testing.assert_allclose(spec.lambdas, np.diag(full.estimate).real, rtol=1e-12)

    def test_cov_average_is_first_matrix_moment(self):
        k = random_hermitian(5, 42)
        cov = cov_p_mc(k, 2, 3000, RandomSource(43))
        moment = haar._compression_mc(k, 2, 1, 3000, RandomSource(43))
        assert np.array_equal(cov.estimate, moment.estimate)
        assert np.array_equal(cov.stderr, moment.stderr)


class TestChunkPlan:
    def test_chunk_bytes_stay_within_budget(self):
        # diagonal lift at m=1000, p=200 and full lift at m=400, p=100: the
        # planned draws' frames, compressed matrices and lifts fit the budget
        for m, p, lift in ((1000, 200, 1000), (400, 100, 400 * 400)):
            draws = _chunk_draws(m * p, p * p, lift)
            assert draws >= 1
            assert draws * 16 * (m * p + p * p + lift) <= _CHUNK_BYTES

    def test_at_least_one_draw_when_one_exceeds_budget(self):
        m, p = 2000, 1000
        assert 16 * m * m > _CHUNK_BYTES
        assert _chunk_draws(m * p, p * p, m * m) == 1

    def test_spectrum_memory_is_bounded_per_chunk(self):
        # one chunk of all 2000 draws would hold about 160 MB at this shape
        k = random_psd(60, 40, 11)
        tracemalloc.start()
        try:
            spec = invcov_spectrum(k, 15, 2000, RandomSource(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec.lambdas) == 40
        assert peak <= 1.25 * _CHUNK_BYTES, f"peak {peak / 2**20:.0f} MiB"


    def test_injection_memory_is_bounded_per_run(self):
        # one 200 x 200 complex stack per draw would hold 640 kB, 1.3 GB in all
        k = random_psd(200, 200, 13)
        tracemalloc.start()
        try:
            mc = hybrid_inverse_mc(k, 2.0, 20, 2000, RandomSource(14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc.samples == 2000
        assert peak <= _CHUNK_BYTES, f"peak {peak / 2**20:.1f} MiB"


def _dirichlet_trace_moment(d, order):
    """Independent p = 1 oracle: complex unit vector weights are
    Dirichlet(1,..,1), so E(sum d_i u_i)^N = N! (n-1)!/(N+n-1)! h_N(d)."""
    n = len(d)
    # complete homogeneous via Newton's identity
    ps = [None] + [sum(x ** k for x in d) for k in range(1, order + 1)]
    h = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += ps[i] * h[k - i]
        h.append(acc / k)
    return (
        Fraction(math.factorial(order) * math.factorial(n - 1), math.factorial(order + n - 1))
        * h[order]
    )


class TestTraceMoment:
    def test_p1_against_dirichlet_oracle(self):
        d = [Fraction(1), Fraction(2), Fraction(7, 2)]
        for order in range(1, 5):
            assert trace_moment(d, 1, order) == _dirichlet_trace_moment(d, order)

    def test_order_one_is_p_over_n_trace(self):
        d = [Fraction(3), Fraction(5), Fraction(11), Fraction(2)]
        for p in (1, 2, 3):
            assert trace_moment(d, p, 1) == Fraction(p, 4) * sum(d)

    def test_full_projection_case(self):
        # p = n makes Phi unitary: moment reduces to Tr(D^N)
        d = [Fraction(2), Fraction(3)]
        for order in range(1, 4):
            assert trace_moment(d, 2, order) == sum(x ** order for x in d)


class TestMomentCoeffs:
    def test_trace_identity_exact(self):
        d = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
        for p in (1, 2, 3):
            for degree in (1, 2, 3):
                coeffs = moment_matrix_coeffs(d, p, degree)
                assert coeffs.trace(d) == trace_moment(d, p, degree)

    def test_degree_one_display(self):
        # l = 1 closed form: (p(np-1) D + p(n-p) Tr(D) I) / (n(n^2-1))
        d = [Fraction(1), Fraction(4), Fraction(6)]
        n, p = 3, 2
        coeffs = moment_matrix_coeffs(d, p, 1)
        den = n * (n * n - 1)
        got = coeffs.as_matrix([float(x) for x in d])
        want = (
            p * (n * p - 1) / den * np.diag([float(x) for x in d])
            + p * (n - p) / den * float(sum(d)) * np.eye(n)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_full_projection_is_power(self):
        d = [Fraction(2), Fraction(5), Fraction(3)]
        coeffs = moment_matrix_coeffs(d, 3, 2)
        got = coeffs.as_matrix([float(x) for x in d])
        np.testing.assert_allclose(got, np.diag([4.0, 25.0, 9.0]), atol=1e-12)


class TestDiagonalLoading:
    def test_formula(self):
        k = random_hermitian(4, 10)
        params = LoadingParameters(0.7, 0.3)
        np.testing.assert_allclose(
            diagonal_loading(k, params), 0.7 * k + 0.3 * np.eye(4), atol=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadingParameters(-0.1, 0.5)
        with pytest.raises(ValueError):
            LoadingParameters(0.0, 0.0)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 0.2), (math.inf, 0.0), (0.5, math.nan)], ids=["nan", "inf", "beta"]
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="loading weights must be finite"):
            LoadingParameters(*weights)
