"""Unit tests for permutation- and injection-average estimators."""

import math
import re
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from conftest import random_hermitian, random_psd, replay_chunks

from singcov import ewens, haar
from singcov.ewens import (
    Injection,
    cycle_count,
    enumerate_injections,
    ewens_estimator,
    ewens_estimator_bruteforce,
    ewens_probability,
    hybrid_estimator,
    hybrid_estimator_bruteforce,
    hybrid_inverse_bruteforce,
    hybrid_inverse_diagonal,
    hybrid_inverse_mc,
    injection_probability,
    injection_probability_enumerated,
)
from singcov.haar import _CHUNK_BYTES
from singcov.linalg import RandomSource, WelfordAccumulator


class TestCycleCount:
    def test_identity(self):
        assert cycle_count(tuple(range(6))) == 6

    def test_full_cycle(self):
        assert cycle_count((1, 2, 3, 0)) == 1

    def test_transposition(self):
        assert cycle_count((1, 0, 2)) == 2

    def test_injection_counts_closed_cycles_only(self):
        # 0 -> 1 -> 0 closes; 2 -> 4 and 3 -> 2 -> 4 leave 0..3
        assert cycle_count((1, 0, 4, 2)) == 1
        assert cycle_count((3, 4, 0, 5)) == 0

    def test_chunk_count_matches_scalar_walk(self):
        def walk(images):
            # the reference: mark each path once, count the walks that close
            p = len(images)
            seen = [False] * p
            closed = 0
            for start in range(p):
                if seen[start]:
                    continue
                j = start
                while j < p and not seen[j]:
                    seen[j] = True
                    j = images[j]
                closed += j == start
            return closed

        for m in range(1, 8):
            for p in range(1, m + 1):
                rows = np.array(list(permutations(range(m), p)), dtype=np.int64)
                want = [walk(tuple(row)) for row in rows]
                assert ewens._closed_cycles(rows).tolist() == want


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


class TestEwensEstimator:
    def test_matches_bruteforce(self):
        for m in (2, 3, 4, 5):
            k = random_hermitian(m, 40 + m)
            for theta in (0.5, 1.0, 2.0, 7.0):
                ref = ewens_estimator_bruteforce(k, theta)
                got = ewens_estimator(k, theta)
                assert np.abs(ref - got).max() <= 1e-12

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, 1e-3, 1.0, 1e3])
    def test_size_two_matches_bruteforce_to_roundoff(self, theta):
        # each m = 2 entry is a two-term weighted sum, so small theta loses nothing
        k = random_hermitian(2, 44)
        ref = ewens_estimator_bruteforce(k, theta)
        np.testing.assert_allclose(ewens_estimator(k, theta), ref, rtol=1e-14, atol=0)

    def test_limits(self):
        k = random_hermitian(4, 50)
        # huge theta concentrates on the identity permutation; theta^2
        # overflows above 1e154, which no coefficient may form
        for theta in (1e9, 1e200):
            np.testing.assert_allclose(ewens_estimator(k, theta), k, atol=1e-6)

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

    def test_bruteforce_stops_at_the_enumeration_budget(self):
        # 10! = 3,628,800 permutations exceed the 500,000-term budget
        with pytest.raises(ValueError, match="enumeration budget"):
            ewens_estimator_bruteforce(np.eye(10), 1.0)


class TestInjections:
    def test_enumeration_count(self):
        assert len(list(enumerate_injections(2, 4))) == 12
        assert len(list(enumerate_injections(4, 4))) == 24

    def test_unranked_rows_follow_enumeration_order(self):
        # chunks of 5 ranks, so most chunks start inside a block of equal heads
        for m in range(1, 8):
            for p in range(1, m + 1):
                want = np.array(list(permutations(range(m), p)), dtype=np.int64)
                n = len(want)
                got = [ewens._injection_rows(m, p, s, min(s + 5, n)) for s in range(0, n, 5)]
                assert np.array_equal(np.concatenate(got), want)

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: enumerate_injections(5, 3),
            lambda: hybrid_estimator_bruteforce(np.eye(3), 1.0, 5),
            lambda: hybrid_inverse_bruteforce(np.eye(3), 1.0, 5),
        ],
        ids=["enumerate", "hybrid_bruteforce", "inverse_bruteforce"],
    )
    def test_rejects_p_above_m(self, call):
        with pytest.raises(ValueError, match=re.escape("p=5 must lie in [1, 3]")):
            call()

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda k: ewens_estimator_bruteforce(k, 1.0),
            lambda k: hybrid_estimator_bruteforce(k, 1.0, 2),
        ],
        ids=["ewens", "hybrid"],
    )
    def test_bruteforce_oracles_reject_non_square_k(self, oracle):
        with pytest.raises(ValueError, match=re.escape("k must be square, got shape (3, 2)")):
            oracle(np.ones((3, 2)))

    def test_closed_form_matches_pushforward_enumeration(self):
        for m, p in ((4, 2), (5, 2), (5, 4)):
            for theta in (0.5, 2.0):
                for s in enumerate_injections(p, m):
                    got = injection_probability(s, theta, m)
                    ref = injection_probability_enumerated(s, theta, m)
                    assert abs(got - ref) <= 1e-13


class TestImageSets:
    def test_law_matches_enumerated_injection_masses(self):
        # the masses of all injections, grouped by how many images leave 0..p-1
        for m in range(1, 7):
            for p in range(1, m + 1):
                for theta in (1e-8, 0.3, 2.0, 50.0, 1e12):
                    want = np.zeros(min(p, m - p) + 1)
                    for s in enumerate_injections(p, m):
                        want[sum(x >= p for x in s)] += injection_probability(s, theta, m)
                    got = ewens._image_set_law(m, p, theta)
                    assert np.abs(got - want).max() <= 1e-13, (m, p, theta)

    @pytest.mark.parametrize("m, p, theta", [(5, 3, 2.0), (6, 4, 0.5)])
    def test_set_frequencies_match_set_law(self, m, p, theta):
        # P(S) spreads P(k) evenly over the C(p, k) C(m-p, k) sets with that k
        n = 100_000
        draws = ewens._image_set_sampler(m, p, theta)(n, RandomSource(21))
        assert all(len(set(row)) == p for row in draws.tolist())
        law = ewens._image_set_law(m, p, theta)
        counts = {}
        for row in np.sort(draws, axis=1).tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        sets = list(combinations(range(m), p))
        assert set(counts) <= set(sets)
        for s in sets:
            k = sum(x >= p for x in s)
            prob = law[k] / (math.comb(p, k) * math.comb(m - p, k))
            stderr = math.sqrt(prob * (1 - prob) / n)
            assert abs(counts.get(s, 0) / n - prob) <= 5 * stderr, s

    def test_p_equal_m_draws_every_index(self):
        # the tail is empty, so k = 0 and S is all of 0..m-1
        for theta in (1e-8, 1.0, 1e12):
            assert np.array_equal(ewens._image_set_law(5, 5, theta), [1.0])
            draws = ewens._image_set_sampler(5, 5, theta)(50, RandomSource(22))
            assert np.array_equal(np.sort(draws, axis=1), np.tile(np.arange(5), (50, 1)))


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
        # at m = 1 and theta = 1 the off-diagonal weights would divide by zero
        np.testing.assert_allclose(hybrid_estimator([[2.5]], 1.0, 1), [[2.5]])

    def test_large_theta_keeps_leading_block(self):
        # theta -> inf concentrates on injections fixing 0..p-1
        k = random_hermitian(4, 72)
        want = np.zeros_like(k)
        want[:2, :2] = k[:2, :2]
        for theta in (1e9, 1e200):
            np.testing.assert_allclose(hybrid_estimator(k, theta, 2), want, atol=1e-6)

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_diagonal_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="d contains non-finite entries"):
            hybrid_inverse_diagonal([bad, 1.0], 1.0, 1)

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

    def test_mc_matches_dense_welford_on_same_draws(self):
        # The oracle replays the run's draws chunk by chunk, in the chunk
        # sizes and streams of its plan, and accumulates the scattered m x m
        # stack entry by entry. 2000 draws at m=6, p=3 fit one chunk; the
        # draws at m=8, p=4 span eleven.
        cases = [
            (random_psd(6, 6, 83), 1.3, 3, 2000, 1, 11),
            (random_psd(8, 8, 84), 0.8, 4, 18202, 11, 13),
        ]
        for k, theta, p, n, chunks, seed in cases:
            m = k.shape[0]
            mc = hybrid_inverse_mc(k, theta, p, n, RandomSource(seed))
            size = haar._chunk_draws(frame=m, block=p * p, lift=p * p)
            assert len(haar._round_plan(n, size)) == chunks
            draw = ewens._image_set_sampler(m, p, theta)
            draws = []

            def chunk(b, stream):
                draws.append(draw(b, stream))
                return b

            replay_chunks(n, size, RandomSource(seed), chunk)
            idx = np.concatenate(draws)
            blocks = np.linalg.inv(k[idx[:, :, None], idx[:, None, :]])
            dense = np.zeros((n, m, m), dtype=complex)
            dense[np.arange(n)[:, None, None], idx[:, :, None], idx[:, None, :]] = blocks
            acc = WelfordAccumulator()
            acc.add_batch(dense)
            want = (acc.mean + acc.mean.conj().T) / 2
            assert mc.samples == n
            assert np.abs(mc.estimate - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(mc.stderr - acc.stderr()).max() <= 1e-12 * acc.stderr().max()

    def test_mc_at_p_equal_m_returns_the_inverse(self):
        # each draw's block is a permutation of K, so its scattered inverse is
        # K^-1 itself: every entry of the fold is hit by every draw, and an
        # entry below the diagonal comes from a mirrored one above it
        k = random_psd(6, 6, 86)
        mc = hybrid_inverse_mc(k, 0.9, 6, 3000, RandomSource(14))
        inv = np.linalg.inv(k)
        assert np.abs(mc.estimate - inv).max() <= 1e-12 * np.abs(inv).max()
        assert mc.stderr.max() <= 1e-12 * np.abs(inv).max()

    def test_mc_above_rank_keeps_the_trace_at_the_rank(self):
        # a 6 x 6 block of a rank-4 K has rank 4 and is pseudo-inverted, so
        # each draw gives Tr(K E_s) = rank(V_s K V_s^T) = 4
        k = random_psd(7, 4, 87)
        mc = hybrid_inverse_mc(k, 1.4, 6, 2000, RandomSource(15))
        assert abs(np.trace(k @ mc.estimate) - 4) <= 1e-10

    def test_mc_pseudo_inverts_exactly_singular_blocks(self):
        # blocks that select a zero diagonal entry are exactly singular
        k = np.diag([2.0, 1.5, 1.0, 0.7, 0.0, 0.0])
        theta, p = 1.5, 3
        ref = hybrid_inverse_bruteforce(k, theta, p)
        mc = hybrid_inverse_mc(k, theta, p, 40000, RandomSource(12))
        resid = np.abs(mc.estimate - ref)
        assert (resid <= 5 * np.maximum(mc.stderr, 1e-12)).all()


class TestBatchedEnumeration:
    # 8!/2! = 20160 injections of 6 indices into 8, more than one chunk holds
    M, P = 8, 6

    def test_hybrid_bruteforce_across_chunks(self):
        assert math.perm(self.M, self.P) > ewens._terms_per_chunk(self.P)
        k = random_hermitian(self.M, 90)
        for theta in (0.7, 3.0):
            ref = hybrid_estimator_bruteforce(k, theta, self.P)
            assert np.abs(ref - hybrid_estimator(k, theta, self.P)).max() <= 1e-12

    def test_inverse_bruteforce_across_chunks_pseudo_inverts(self):
        # rank 5 < p, so every selected block is singular
        d = np.array([1.9, 0.8, 1.4, 0.6, 1.1, 0.0, 0.0, 0.0])
        for theta in (0.8, 2.5):
            ref = hybrid_inverse_bruteforce(np.diag(d), theta, self.P)
            assert np.abs(ref - hybrid_inverse_diagonal(d, theta, self.P)).max() <= 1e-12

    def test_inverse_bruteforce_factors_each_chunk_once(self, monkeypatch):
        sizes = []
        pinv = ewens._pinv_batch_hermitian

        def counting(blocks):
            sizes.append(len(blocks))
            return pinv(blocks)

        monkeypatch.setattr(ewens, "_pinv_batch_hermitian", counting)
        hybrid_inverse_bruteforce(random_psd(self.M, self.M, 91), 1.2, self.P)
        per_chunk = ewens._terms_per_chunk(self.P)
        assert len(sizes) == math.ceil(math.perm(self.M, self.P) / per_chunk)
        assert sum(sizes) == math.perm(self.M, self.P)
        assert max(sizes) == per_chunk

    def test_chunk_masses_match_injection_probability(self):
        m, p, theta = 5, 3, 1.7
        k = random_hermitian(m, 92)
        for idx, blocks, weights in ewens._enumerated_blocks(k, theta, p):
            want = [injection_probability(s, theta, m) for s in idx]
            np.testing.assert_allclose(weights, want, rtol=1e-14, atol=0)
            np.testing.assert_array_equal(blocks, [k[np.ix_(s, s)] for s in idx])

    def test_ewens_bruteforce_memory_is_bounded_per_chunk(self):
        # all 8! permutations' 8 x 8 blocks at once would hold 41 MB
        k = random_hermitian(self.M, 93)
        tracemalloc.start()
        try:
            ref = ewens_estimator_bruteforce(k, 1.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _CHUNK_BYTES, f"peak {peak / 2**20:.0f} MiB"
        assert np.abs(ref - ewens_estimator(k, 1.4)).max() <= 1e-12


class TestWrappers:
    def test_injection_validation(self):
        with pytest.raises(ValueError):
            Injection(4, (1, 1))
        inj = Injection(4, (2, 0))
        assert inj.m == 4
