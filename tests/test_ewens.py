"""Unit tests for permutation- and injection-average estimators."""

import math
from itertools import permutations

import numpy as np
import pytest
from conftest import random_hermitian, random_psd

from singcov.ewens import (
    Injection,
    Permutation,
    cycle_count,
    enumerate_injections,
    ewens_estimator,
    ewens_estimator_bruteforce,
    ewens_probability,
    hybrid_estimator,
    hybrid_estimator_bruteforce,
    hybrid_inverse_bruteforce,
    hybrid_inverse_diagonal,
    hybrid_inverse_inductive_step,
    hybrid_inverse_mc,
    injection_probability,
    injection_probability_enumerated,
    sample_ewens_batch,
)
from singcov.linalg import RandomSource


class TestCycleCount:
    def test_identity(self):
        assert cycle_count(tuple(range(6))) == 6

    def test_full_cycle(self):
        assert cycle_count((1, 2, 3, 0)) == 1

    def test_transposition(self):
        assert cycle_count((1, 0, 2)) == 2


class TestEwensMeasure:
    def test_normalizes(self):
        m = 5
        for theta in (0.5, 1.0, 3.0):
            total = sum(
                ewens_probability(sigma, theta) for sigma in permutations(range(m))
            )
            assert abs(total - 1.0) <= 1e-12

    def test_uniform_at_theta_one(self):
        sigma = (2, 0, 1, 3)
        assert abs(ewens_probability(sigma, 1.0) - 1 / 24) <= 1e-15

    def test_sampler_mean_cycles(self):
        # E[#cycles] = sum theta/(theta+i) over i = 0..m-1
        m, theta, n = 8, 2.5, 40000
        sigmas = sample_ewens_batch(m, theta, n, RandomSource(17))
        counts = np.array([cycle_count(tuple(s)) for s in sigmas])
        expected = sum(theta / (theta + i) for i in range(m))
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - expected) <= 5 * se

    def test_sampler_yields_permutations(self):
        sigmas = sample_ewens_batch(6, 0.7, 200, RandomSource(3))
        assert sigmas.shape == (200, 6)
        assert (np.sort(sigmas, axis=1) == np.arange(6)).all()


class TestEwensEstimator:
    def test_matches_bruteforce(self):
        for m in (2, 3, 4, 5):
            k = random_hermitian(m, 40 + m)
            for theta in (0.5, 1.0, 2.0, 7.0):
                ref = ewens_estimator_bruteforce(k, theta)
                got = ewens_estimator(k, theta)
                assert np.abs(ref - got).max() <= 1e-12

    def test_limits(self):
        k = random_hermitian(4, 50)
        # huge theta concentrates on the identity permutation
        np.testing.assert_allclose(ewens_estimator(k, 1e9), k, atol=1e-6)

    def test_preserves_trace_and_hermiticity(self):
        k = random_hermitian(5, 51)
        est = ewens_estimator(k, 2.2)
        np.testing.assert_allclose(est, est.conj().T, atol=1e-13)
        assert abs(np.trace(est) - np.trace(k)) <= 1e-10

    def test_trivial_size_one(self):
        k = np.array([[2.5]])
        np.testing.assert_allclose(ewens_estimator(k, 3.0), k)

    def test_rejects_non_hermitian_and_nan(self):
        k = random_hermitian(3, 53)
        skew = k.copy()
        skew[0, 1] += 0.5
        with pytest.raises(ValueError, match="k is not Hermitian"):
            ewens_estimator(skew, 2.0)
        k[1, 1] = np.nan
        with pytest.raises(ValueError, match="k contains non-finite entries"):
            ewens_estimator(k, 2.0)

    def test_mc_average_converges_to_closed_form(self):
        # direct check that the closed form is the measure average
        m, theta, n = 5, 1.8, 60000
        k = random_hermitian(m, 52)
        sigmas = sample_ewens_batch(m, theta, n, RandomSource(19))
        acc = np.zeros((m, m), dtype=complex)
        for s in sigmas:
            acc += k[np.ix_(s, s)]
        mc = acc / n
        assert np.abs(mc - ewens_estimator(k, theta)).max() <= 0.05


class TestInjections:
    def test_enumeration_count(self):
        assert len(list(enumerate_injections(2, 4))) == 12
        assert len(list(enumerate_injections(4, 4))) == 24

    def test_probability_normalizes(self):
        for m, p in ((4, 2), (5, 3), (5, 5)):
            for theta in (0.6, 1.0, 3.5):
                total = sum(
                    injection_probability(s, theta, m)
                    for s in enumerate_injections(p, m)
                )
                assert abs(total - 1.0) <= 1e-12

    def test_uniform_at_theta_one(self):
        m, p = 5, 3
        want = math.factorial(m - p) / math.factorial(m)
        for s in enumerate_injections(p, m):
            assert abs(injection_probability(s, 1.0, m) - want) <= 1e-15

    def test_closed_form_matches_pushforward_enumeration(self):
        for m, p in ((4, 2), (5, 2), (5, 4)):
            for theta in (0.5, 2.0):
                for s in enumerate_injections(p, m):
                    got = injection_probability(s, theta, m)
                    ref = injection_probability_enumerated(s, theta, m)
                    assert abs(got - ref) <= 1e-13


class TestHybridEstimator:
    def test_matches_bruteforce(self):
        for m in (2, 3, 4, 5):
            k = random_hermitian(m, 60 + m)
            for p in range(1, m + 1):
                for theta in (0.5, 1.0, 3.0):
                    ref = hybrid_estimator_bruteforce(k, theta, p)
                    got = hybrid_estimator(k, theta, p)
                    assert np.abs(ref - got).max() <= 1e-12

    def test_p_equals_m_returns_input(self):
        # a full-size injection selects everything and the lift undoes
        # the relabeling, so the average collapses to K itself
        k = random_hermitian(4, 70)
        for theta in (0.5, 2.0):
            np.testing.assert_allclose(hybrid_estimator(k, theta, 4), k, atol=1e-12)

    def test_large_theta_keeps_leading_block(self):
        # theta -> inf concentrates on injections fixing 0..p-1
        k = random_hermitian(4, 72)
        got = hybrid_estimator(k, 1e9, 2)
        want = np.zeros_like(k)
        want[:2, :2] = k[:2, :2]
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_preserves_hermiticity(self):
        k = random_hermitian(5, 71)
        est = hybrid_estimator(k, 1.7, 3)
        np.testing.assert_allclose(est, est.conj().T, atol=1e-13)

    def test_rejects_non_hermitian_and_nan(self):
        k = random_hermitian(4, 73)
        skew = k.copy()
        skew[2, 0] += 0.5j
        with pytest.raises(ValueError, match="k is not Hermitian"):
            hybrid_estimator(skew, 1.7, 2)
        k[0, 3] = np.nan
        with pytest.raises(ValueError, match="k contains non-finite entries"):
            hybrid_estimator(k, 1.7, 2)


class TestHybridInverse:
    def test_diagonal_closed_form_vs_enumeration(self):
        g = RandomSource(80).generator
        for m in (3, 4, 5):
            for n in range(1, m + 1):
                d = np.zeros(m)
                d[:n] = g.uniform(0.5, 2.0, n)
                for p in range(1, n + 1):
                    for theta in (0.5, 1.0, 2.5):
                        ref = hybrid_inverse_bruteforce(np.diag(d), theta, p)
                        got = hybrid_inverse_diagonal(d, theta, p)
                        assert np.abs(ref - got).max() <= 1e-12

    def test_diagonal_rejects_interleaved_zeros(self):
        with pytest.raises(ValueError):
            hybrid_inverse_diagonal(np.array([1.0, 0.0, 2.0]), 1.0, 1)

    def test_mc_matches_enumeration(self):
        k = random_psd(4, 3, 81)
        theta, p = 1.6, 2
        ref = hybrid_inverse_bruteforce(k, theta, p)
        mc = hybrid_inverse_mc(k, theta, p, 60000, RandomSource(8))
        resid = np.abs(mc.estimate - ref)
        assert (resid <= 5 * np.maximum(mc.stderr, 1e-12)).all()

    def test_inductive_step_matches_direct(self):
        # growing p by one column agrees with the direct estimate
        k = random_psd(4, 4, 82)
        theta = 2.0
        base = hybrid_inverse_mc(k, theta, 2, 50000, RandomSource(9))
        step = hybrid_inverse_inductive_step(k, theta, 3, 50000, RandomSource(10), base=base)
        direct = hybrid_inverse_bruteforce(k, theta, 3)
        resid = np.abs(step.estimate - direct)
        assert (resid <= 6 * np.maximum(step.stderr, 1e-12)).all()


class TestWrappers:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        perm = Permutation((1, 0, 2))
        assert perm.m == 3
        assert cycle_count(perm.images) == 2

    def test_injection_validation(self):
        with pytest.raises(ValueError):
            Injection(4, (1, 1))
        inj = Injection(4, (2, 0))
        assert inj.m == 4
