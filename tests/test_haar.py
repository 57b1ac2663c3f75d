"""Unit tests for the rotation-average estimators and moment formulas."""

import dataclasses
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import ChunkCensus, random_hermitian, random_psd, replay_chunks
from hypothesis import given, settings
from hypothesis import strategies as st

from singcov import ewens, haar
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
from singcov.linalg import (
    RandomSource,
    WelfordAccumulator,
    eig_hermitian,
    sample_complex_gaussian,
    sample_gaussian_covariance,
    sample_haar_stiefel_batch,
)


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


# the two inverse paths at (k, p): the Monte Carlo average and the exact map
INVERSE_CALLS = {
    "full": lambda k, p: invcov_p_mc(k, p, 200, RandomSource(15)),
    "spectrum": invcov_spectrum,
}


class TestInvcov:
    def test_identity_gives_p_over_m(self, rng):
        m, p = 5, 3
        mc = invcov_p_mc(np.eye(m), p, 20000, rng)
        resid = np.abs(mc.estimate - (p / m) * np.eye(m))
        assert (resid <= 5 * np.maximum(mc.stderr, 1e-12)).all()

    def test_rejects_rank_below_p(self, rng):
        k = random_psd(6, 2, 7)
        with pytest.raises(ValueError, match="p=4 must lie below rank 2"):
            invcov_p_mc(k, 4, 2000, rng)
        with pytest.raises(ValueError, match="p=4 must lie below rank 2"):
            invcov_spectrum(k, 4)

    def test_accepts_p_at_rank_and_rejects_above(self):
        # on a singular K the kernel value is infinite from p = rank on, so
        # p = rank is rejected with the p above it, and p = rank - 1 runs
        k = random_psd(6, 3, 9)
        mc = invcov_p_mc(k, 2, 2000, RandomSource(10))
        assert mc.samples == 2000
        assert mc.rejected <= 20
        assert np.isfinite(invcov_spectrum(k, 2).mu)
        for p in (3, 4):
            for call in INVERSE_CALLS.values():
                with pytest.raises(ValueError, match=f"p={p} must lie below rank 3"):
                    call(k, p)

    @pytest.mark.parametrize("call", list(INVERSE_CALLS))
    def test_ill_conditioned_draws_exhaust_the_budget(self, call):
        # numeric rank 5, p = 4: by Poincare separation W's largest eigenvalue
        # is at least 1 and its smallest at most 1e-14, so every draw has
        # kappa_F >= 1e14 and is rejected; the exact map has no draws, and
        # is finite: the kernel value is of the order of 1 / 1e-14
        k = np.diag([1.0, 1.0, 1.0, 1e-14, 1e-14, 0.0])
        if call == "full":
            with pytest.raises(RuntimeError, match="resampling budget"):
                invcov_p_mc(k, 4, 200, RandomSource(16))
            return
        spec = invcov_spectrum(k, 4)
        assert np.isfinite(spec.lambdas).all() and (spec.lambdas > 0).all()
        assert abs(np.diag(k)[:5] @ spec.lambdas - 4) <= 1e-13 * 4
        assert 0.5e14 <= spec.mu <= 2e14

    @pytest.mark.parametrize("c", [1e170, 1e-170, 1e308])
    def test_scale_of_k_leaves_the_average_scaled(self, c):
        # beyond about 1e+-152 the squared Frobenius norms of the rejection
        # rule overflow or underflow unless K's scale is taken out first; K's
        # largest eigenvalue is 1, so 1e308 K has it in the top binade, where
        # the nearest power of 4 above it is no longer finite
        k = sample_gaussian_covariance(np.eye(6), 5, RandomSource(0))
        k /= np.linalg.eigvalsh(k)[-1]
        calls = {
            "full": lambda k: invcov_p_mc(k, 2, 400, RandomSource(1)),
            "spectrum": lambda k: invcov_spectrum(k, 2),
        }
        for name, call in calls.items():
            want, got = vars(call(k)), vars(call(c * k))
            for field in ("estimate", "stderr", "lambdas", "mu"):
                if field in want:
                    expected = np.asarray(want[field])
                    err = np.abs(c * np.asarray(got[field]) - expected).max()
                    assert err <= 1e-12 * np.abs(expected).max(), (name, field)
            if name == "full":
                assert (got["samples"], got["rejected"]) == (want["samples"], want["rejected"])

    def test_preserves_eigenvectors(self, rng):
        # invcov_p_mc in K's eigenbasis U is diag(lambdas) of the exact map:
        # each entry of U* E U is held to 6 of its own standard errors, taken
        # from the spread of 20 independent runs of 1000 draws
        k = random_psd(5, 5, 8)
        u = eig_hermitian(k).eigenvectors
        spec = invcov_spectrum(k, 2)
        runs = np.array([
            u.conj().T @ invcov_p_mc(k, 2, 1000, RandomSource(99).substream(j)).estimate @ u
            for j in range(20)
        ])
        mean = runs.mean(axis=0)
        se_re, se_im = (x.std(axis=0, ddof=1) / np.sqrt(len(runs)) for x in (runs.real, runs.imag))
        diag = np.diagonal(mean).real - spec.lambdas
        assert (np.abs(diag) <= 6 * np.diagonal(se_re)).all()
        off = ~np.eye(5, dtype=bool)
        assert (np.abs(mean.real[off]) <= 6 * se_re[off]).all()
        assert (np.abs(mean.imag[off]) <= 6 * se_im[off]).all()

    @pytest.mark.parametrize("call", list(INVERSE_CALLS))
    def test_rejects_indefinite_k(self, call):
        with pytest.raises(ValueError, match="k must be positive semidefinite"):
            INVERSE_CALLS[call](np.diag([2.0, 1.0, 0.5, -1.0]), 2)
        # a negative eigenvalue at roundoff level is a zero one
        got = INVERSE_CALLS[call](np.diag([2.0, 1.0, 0.5, -1e-13]), 2)
        if call == "full":
            assert got.samples == 200
        else:
            assert len(got.lambdas) == 3 and got.mu > 0

    def test_zero_block_is_flat(self):
        d = np.diag([2.0, 1.0, 0.5, 0.0, 0.0])
        spec = invcov_spectrum(d, 2)
        assert spec.mu > 0
        # lambdas for the kernel directions equal mu by construction
        assert np.isfinite(spec.lambdas).all()


def _compressions(k, phi):
    """Definitional Phi K Phi* of each frame, its inverse and its kappa_F."""
    w = phi @ k @ np.swapaxes(phi, 1, 2).conj()
    w_inv = np.linalg.inv(w)
    return w_inv, np.linalg.norm(w, axis=(1, 2)) * np.linalg.norm(w_inv, axis=(1, 2))


def _full_lift_size(m, p):
    """Draws per chunk of invcov_p_mc's plan."""
    gaussian = haar._lifts_gaussian(p, m)
    return _chunk_draws(*haar._compression_bytes(m, p, -1, gaussian))


def _replay_invcov(k, p, samples, rng, limit, size=None):
    """The Haar frames of invcov_p_mc, chunk by chunk in the sizes and streams
    of its plan with rejected draws redrawn, and the dense Welford fold of the
    definitional lift Phi* (Phi K Phi*)^-1 Phi of each kept frame. ``size``
    replays the plan of another path whose chunks hold the same frames."""
    m = k.shape[0]
    acc = WelfordAccumulator()
    rejected = 0

    def chunk(b, stream):
        nonlocal rejected
        phi = sample_haar_stiefel_batch(p, m, b, stream)
        w_inv, kappa = _compressions(k, phi)
        keep = kappa <= limit
        rejected += int((~keep).sum())
        acc.add_batch(np.swapaxes(phi[keep], 1, 2).conj() @ w_inv[keep] @ phi[keep])
        return int(keep.sum())

    replay_chunks(samples, size or _full_lift_size(m, p), rng, chunk)
    return acc, rejected


def _first_chunk_limit(k, p, seed, rejects=3):
    """A condition-number limit that rejects the ``rejects`` draws of the
    largest kappa_F of the first chunk of invcov_p_mc(k, p, ...,
    RandomSource(seed)): the geometric mean of the two kappa_F it falls
    between."""
    m = k.shape[0]
    first_stream = haar._chunk_streams(RandomSource(seed))(0)
    first = sample_haar_stiefel_batch(p, m, _full_lift_size(m, p), first_stream)
    cond = np.sort(_compressions(k, first)[1])
    return float(np.sqrt(cond[-rejects - 1] * cond[-rejects]))


class TestInvcovRankFactor:
    # 3000 draws span two or more chunks at each shape; the last three
    # shapes, with m p > 80 and 2p <= m, lift the sampler's Gaussians
    # directly, and the replay orthonormalizes them by LAPACK QR
    @pytest.mark.parametrize(
        ("m", "rank", "p"),
        [(10, 7, 4), (10, 7, 5), (8, 8, 3), (20, 15, 5), (30, 30, 4), (100, 75, 25)],
    )
    def test_matches_definitional_lift_on_same_frames(self, m, rank, p):
        k = random_psd(m, rank, 60 + p)
        mc = invcov_p_mc(k, p, 3000, RandomSource(61))
        acc, rejected = _replay_invcov(k, p, 3000, RandomSource(61), haar.COND_LIMIT)
        want = (acc.mean + acc.mean.conj().T) / 2
        assert (mc.samples, mc.rejected) == (3000, rejected) == (3000, 0)
        assert np.abs(mc.estimate - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(mc.stderr - acc.stderr()).max() <= 1e-12 * acc.stderr().max()

    def test_rejections_match_definitional_condition_numbers(self, monkeypatch):
        m, rank, p, samples, seed = 10, 7, 5, 3000, 62
        k = random_psd(m, rank, 63)
        limit = _first_chunk_limit(k, p, seed)
        monkeypatch.setattr(haar, "COND_LIMIT", limit)
        mc = invcov_p_mc(k, p, samples, RandomSource(seed))
        acc, rejected = _replay_invcov(k, p, samples, RandomSource(seed), limit)
        want = (acc.mean + acc.mean.conj().T) / 2
        assert rejected >= 3
        assert (mc.samples, mc.rejected) == (samples, rejected)
        assert np.abs(mc.estimate - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(mc.stderr - acc.stderr()).max() <= 1e-12 * acc.stderr().max()

    def test_gaussian_basis_rejections_match_definitional_condition_numbers(self, monkeypatch):
        # at m p > 80 and 2p <= m each draw lifts the sampler's Gaussian G;
        # a limit this low flags nearly every draw by the screen
        # s ||W^-1||_F^2 ||G||_F^4, so the exact kappa_F of Phi K Phi* on
        # the Gram matrix G* G decides which are kept
        m, rank, p, samples, seed = 20, 15, 5, 3000, 62
        k = random_psd(m, rank, 63)
        assert haar._lifts_gaussian(p, m)
        limit = _first_chunk_limit(k, p, seed, rejects=1)
        size = _full_lift_size(m, p)
        g = sample_complex_gaussian((size, m, p), haar._chunk_streams(RandomSource(seed))(0))
        frames = sample_haar_stiefel_batch(p, m, size, haar._chunk_streams(RandomSource(seed))(0))
        cond = _compressions(k, frames)[1]
        w_inv = np.linalg.inv(np.swapaxes(g, 1, 2).conj() @ k @ g)
        screen = (
            np.sort(np.linalg.eigvalsh(k) ** 2)[-p:].sum()
            * (np.abs(w_inv) ** 2).sum(axis=(1, 2))
            * (np.abs(g) ** 2).sum(axis=(1, 2)) ** 2
        )
        assert ((screen > limit**2) & (cond <= limit)).sum() > 100

        monkeypatch.setattr(haar, "COND_LIMIT", limit)
        mc = invcov_p_mc(k, p, samples, RandomSource(seed))
        acc, rejected = _replay_invcov(k, p, samples, RandomSource(seed), limit)
        want = (acc.mean + acc.mean.conj().T) / 2
        assert rejected >= 3
        assert (mc.samples, mc.rejected) == (samples, rejected)
        assert np.abs(mc.estimate - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(mc.stderr - acc.stderr()).max() <= 1e-12 * acc.stderr().max()


class TestInvcovSpectrumChunk:
    # the exact map takes its quadrature nodes in chunks of the Monte Carlo
    # budget's share, by the bytes of the Poisson-binomial prefix it stores

    @pytest.mark.parametrize(
        ("m", "r", "p", "samples"),
        [(40, 30, 10, 4000), (8, 4, 2, 20000), (8, 4, 3, 20000), (7, 5, 4, 20000)],
    )
    def test_singular_spectrum_matches_full_lift(self, m, r, p, samples):
        # invcov_p_mc lifts Gaussian bases at (40, 30, 10), frames at the others
        d = np.concatenate([np.linspace(3.0, 0.2, r), np.zeros(m - r)])
        spec = invcov_spectrum(np.diag(d), p)
        full = invcov_p_mc(np.diag(d), p, samples, RandomSource(51))
        diag, se = np.diag(full.estimate).real, np.diag(full.stderr)
        assert abs(d[:r] @ spec.lambdas - p) <= 1e-13 * p
        assert (np.abs(spec.lambdas - diag[:r]) <= 5 * se[:r]).all()
        # the mean of the kernel entries' stderrs bounds the stderr of their mean
        assert abs(spec.mu - diag[r:].mean()) <= 5 * se[r:].mean()

    def test_full_frame_inverts_ill_conditioned_diagonal(self):
        # at p = m every frame is unitary, so the average is D^-1 itself
        d = np.logspace(0, -8, 12)
        spec = invcov_spectrum(np.diag(d), 12)
        np.testing.assert_allclose(spec.lambdas * d, 1.0, rtol=1e-13)
        assert math.isnan(spec.mu)

    def test_node_chunks_leave_the_map_unchanged(self, monkeypatch):
        # a share of one byte plans one node per chunk
        k = _padded_psd(30, 24, 17)
        want = invcov_spectrum(k, 9)
        monkeypatch.setattr(haar, "_CHUNK_SHARE", _CHUNK_BYTES)
        got = invcov_spectrum(k, 9)
        np.testing.assert_allclose(got.lambdas, want.lambdas, rtol=1e-14)
        assert abs(got.mu - want.mu) <= 1e-14 * want.mu


def _loading_point(d, p):
    """t* with sum_i d_i / (d_i + t*) = p, by bisection in log t."""
    lo, hi = math.log(d.min()) - 40.0, math.log(d.sum()) + 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (d / (d + math.exp(mid))).sum() > p else (lo, mid)
    return math.exp((lo + hi) / 2)


@st.composite
def _spectra(draw):
    """(d, p): a diagonal with condition number up to 1e8 over its rank,
    zero-padded to m in [2, 12] and shuffled, and p in {1, rank, m}."""
    m = draw(st.integers(2, 12))
    p = draw(st.sampled_from(["one", "rank", "m"]))
    rank = m if p == "m" else draw(st.integers(1, m))
    log_kappa = draw(st.floats(0.0, 8.0))
    d = np.concatenate([np.logspace(0.0, -log_kappa, rank), np.zeros(m - rank)])
    d = d[draw(st.permutations(range(m)))]
    return d, {"one": 1, "rank": rank, "m": m}[p]


class TestInvcovSpectrumProperties:
    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(_spectra())
    def test_trace_positivity_and_full_frame_limit(self, case):
        d, p = case
        rank = int((d > 0).sum())
        if rank <= p < len(d):
            # on a singular K the kernel value is infinite from p = rank on
            with pytest.raises(ValueError, match=f"p={p} must lie below rank {rank}"):
                invcov_spectrum(np.diag(d), p)
            return
        spec = invcov_spectrum(np.diag(d), p)
        nonzero = np.sort(d)[::-1][: len(spec.lambdas)]
        # tr(D Phi* (Phi D Phi*)^-1 Phi) = p holds draw by draw
        assert abs(nonzero @ spec.lambdas - p) <= 1e-13 * p
        assert (spec.lambdas > 0).all()
        assert len(spec.lambdas) == len(d) or spec.mu > 0
        if p == len(d):
            np.testing.assert_allclose(spec.lambdas * nonzero, 1.0, rtol=1e-13)

    @pytest.mark.parametrize(("c", "m", "p"), [(1.0, 30, 7), (3.7, 12, 5), (1e-9, 50, 49)])
    def test_identity_maps_to_p_over_m(self, c, m, p):
        spec = invcov_spectrum(c * np.eye(m), p)
        np.testing.assert_allclose(spec.lambdas, p / (m * c), rtol=1e-15)

    def test_exact_tie_maps_to_one_value(self):
        # d_1 = d_2 exactly; a split of 1e-12 moves the map by as little
        tie = np.concatenate([[2.0, 2.0], np.linspace(1.5, 0.1, 48)])
        near = tie.copy()
        near[1] *= 1 - 1e-12
        spec, split = invcov_spectrum(np.diag(tie), 25), invcov_spectrum(np.diag(near), 25)
        assert abs(spec.lambdas[0] - spec.lambdas[1]) <= 1e-15 * spec.lambdas[0]
        assert abs(tie @ spec.lambdas - 25) <= 1e-13 * 25
        np.testing.assert_allclose(split.lambdas, spec.lambdas, rtol=1e-11)

    @pytest.mark.parametrize("m", [100, 80])
    def test_fourteen_decades(self, m):
        # eigenvalues from 1 down to 1e-14; below the rank cutoff m eps of
        # the largest, the smallest are zeros, so the m = 100 map has a kernel
        d = np.logspace(0, -14, m)
        spec = invcov_spectrum(np.diag(d), m // 2)
        r = len(spec.lambdas)
        assert r < m
        # each d_j lambda_j is an average of d_j z_j W^-1 z_j* in (0, 1]
        share = d[:r] * spec.lambdas
        assert (share > 0).all() and (share <= 1).all()
        assert abs(share.sum() - m // 2) <= 1e-13 * (m // 2)
        # the map keeps the order of the eigenvalues, and their shares
        assert (np.diff(spec.lambdas) > 0).all() and (np.diff(share) < 0).all()
        assert spec.mu > spec.lambdas[-1]

    @pytest.mark.parametrize(("m", "n", "p"), [(100, 75, 25), (100, 75, 50)])
    def test_full_lift_matches_invcov_p_mc(self, m, n, p):
        # the map's lift U diag(lambdas, mu) U* against the Monte Carlo average,
        # on Gaussian bases at these shapes
        k = sample_gaussian_covariance(random_psd(m, m, 18), n, RandomSource(19))
        assert haar._lifts_gaussian(p, m)
        spec = invcov_spectrum(k, p)
        dec = eig_hermitian(k)
        values = np.concatenate([spec.lambdas, np.full(m - n, spec.mu)])
        want = (dec.eigenvectors * values) @ dec.eigenvectors.conj().T
        mc = invcov_p_mc(k, p, 2000, RandomSource(20))
        assert (np.abs(mc.estimate - want) <= 5 * mc.stderr).all()
        assert abs(np.trace(k @ want) - p) <= 1e-12 * p

    def test_tends_to_loading_as_rank_grows(self):
        # N(t) concentrates at its mean, so lambda_j -> 1 / (d_j + t*) and
        # mu -> 1 / t*, where sum_i d_i / (d_i + t*) = p; at fixed p / r the
        # gap falls about fourfold with each doubling of r
        gaps = []
        for r in (20, 40, 80, 160):
            d = 1.0 + 2.0 * (np.arange(r, 0, -1) - 0.5) / r
            spec = invcov_spectrum(np.diag(np.append(d, 0.0)), r // 2)
            t_star = _loading_point(d, r // 2)
            gaps.append(max(np.abs(spec.lambdas * (d + t_star) - 1).max(), abs(spec.mu * t_star - 1)))
        assert all(3 * b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 2e-5

    def test_fixed_quarter_step_fails_the_trace_rule_at_rank_300(self):
        # the CDFs sharpen in log t as the rank grows, so h = 0.25 falls
        # short there, and the halving rule must go on
        d = np.linspace(3.0, 1.0, 300)
        gaps = {}
        for h, values in haar._map_levels(d, 100, True):
            gaps[h] = abs(math.fsum(d * values[:300]) - 100)
            if h == 2.0**-5:
                break
        assert 1e-13 * 100 < gaps[0.25] < 1e-3 * 100, gaps
        assert gaps[2.0**-5] <= 1e-13 * 100, gaps

    def test_unconverged_map_raises(self, monkeypatch):
        monkeypatch.setattr(haar, "_MAX_HALVINGS", 2)
        with pytest.raises(RuntimeError, match="did not converge at step 0.25"):
            invcov_spectrum(np.diag(np.linspace(3.0, 1.0, 300)), 100)


def _padded_psd(m, rank, seed):
    """A complex positive semidefinite K whose last m - rank rows and columns
    are exact zeros, so its rank is exactly ``rank``."""
    k = np.zeros((m, m), dtype=np.complex128)
    k[:rank, :rank] = random_psd(rank, rank, seed)
    return k


class TestInvcovPProperties:
    # (m, rank, p) on either basis of invcov_p_mc, on complex K: m p just
    # below and above 80, the 2p = m edge on both sides of 80, and p =
    # rank - 1 on a numerically and on an exactly singular K
    CASES = {
        "frames_78": (13, 13, 6),
        "frames_80": (16, 16, 5),
        "frames_2p_eq_m": (10, 10, 5),
        "frames_rank_minus_one": (12, 7, 6),
        "frames_lapack_81": (9, 9, 9),
        "frames_lapack_rank_minus_one": (12, 10, 9),
        "frames_exactly_singular": (10, 6, 5),
        "gaussian_85": (17, 17, 5),
        "gaussian_81": (81, 81, 1),
        "gaussian_2p_eq_m": (18, 18, 9),
        "gaussian_rank_minus_one": (18, 9, 8),
        "gaussian_exactly_singular": (24, 12, 11),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_trace_hermitian_and_definite(self, name):
        m, rank, p = self.CASES[name]
        assert haar._lifts_gaussian(p, m) == name.startswith("gaussian")
        seed = 90 + m + p
        k = _padded_psd(m, rank, seed) if "exactly" in name else random_psd(m, rank, seed)
        assert np.abs(k.imag).max() > 0.1
        mc = invcov_p_mc(k, p, 300, RandomSource(seed))
        e = mc.estimate
        # Tr(K Phi* (Phi K Phi*)^-1 Phi) = p holds draw by draw
        assert abs(np.trace(k @ e) - p) <= 1e-10 * p
        assert np.array_equal(e, e.conj().T)
        if rank == m:
            assert np.linalg.eigvalsh(e).min() > 0
        if p == m:
            np.testing.assert_allclose(e, np.linalg.inv(k), rtol=0, atol=1e-10 * np.abs(e).max())


class TestCompressionCore:
    def test_cov_average_is_first_matrix_moment(self):
        k = random_hermitian(5, 42)
        cov = cov_p_mc(k, 2, 3000, RandomSource(43))
        moment = haar._compression_mc(k, 2, 1, 3000, RandomSource(43))
        assert np.array_equal(cov.estimate, moment.estimate)
        assert np.array_equal(cov.stderr, moment.stderr)

    # at a positive degree, frames with p m^2 <= 128, (2, 1) to (5, 3), are
    # lifted on planes; the others, and every frame at degree -1, by matmuls
    @pytest.mark.parametrize(
        ("m", "p"),
        [(2, 1), (2, 2), (4, 2), (5, 3), (6, 4), (8, 8), (9, 8), (80, 1), (12, 4),
         (27, 3), (100, 25)],
    )
    @pytest.mark.parametrize("degree", [1, 2, 3, -1])
    def test_chunk_lifts_match_matmul_reference(self, m, p, degree):
        k = random_psd(m, m, 44 + m)
        phi = sample_haar_stiefel_batch(p, m, 30, RandomSource(45 + p))
        if degree < 0:
            dec = eig_hermitian(k)
            lifts = haar._compression_lifts(phi, dec.eigenvectors * np.sqrt(dec.eigenvalues), -1)
        else:
            lifts = haar._compression_lifts(phi, k, degree)
        phi_h = np.swapaxes(phi, 1, 2).conj()
        w = phi @ k @ phi_h
        w = np.linalg.inv(w) if degree < 0 else np.linalg.matrix_power(w, degree)
        want = phi_h @ w @ phi
        assert lifts.shape == want.shape == (30, m, m)
        assert np.abs(lifts - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [2, 5, 8, 9])
    def test_full_compression_average_is_k(self, m):
        # at p = m each frame is unitary, so each draw's lift is K itself
        k = random_hermitian(m, 46 + m)
        mc = cov_p_mc(k, m, 3000, RandomSource(47))
        assert np.abs(mc.estimate - k).max() <= 1e-12 * np.abs(k).max()


def _fields(result):
    return [getattr(result, f.name) for f in dataclasses.fields(result)]


class TestMonteCarloDriver:
    # multi-chunk runs of every Monte Carlo path, the last three with
    # rejected draws redrawn within their chunks; the "gaussian" runs of
    # invcov_p_mc lift the sampler's Gaussians at m p > 80, 2p <= m, and the
    # "lapack" and "singular" runs lift LAPACK QR frames at 2p > m; the
    # injection run on an exactly singular K inverts its few regular blocks
    # by LU and its singular ones through their eigendecompositions
    RUNS = {
        "invcov_p_mc": lambda: invcov_p_mc(random_psd(10, 7, 64), 4, 3000, RandomSource(70)),
        "invcov_p_mc_gaussian": lambda: invcov_p_mc(
            random_psd(20, 15, 67), 5, 600, RandomSource(77)
        ),
        "invcov_p_mc_lapack": lambda: invcov_p_mc(
            random_psd(12, 12, 66), 8, 3000, RandomSource(72)
        ),
        "cov_p_mc": lambda: cov_p_mc(random_hermitian(5, 42), 2, 5000, RandomSource(73)),
        "hybrid_inverse_mc": lambda: hybrid_inverse_mc(
            random_psd(8, 8, 84), 0.8, 4, 12000, RandomSource(74)
        ),
        "hybrid_inverse_mc_singular_blocks": lambda: hybrid_inverse_mc(
            _padded_psd(12, 6, 65), 0.8, 4, 12000, RandomSource(71)
        ),
        "invcov_p_mc_rejecting": lambda: invcov_p_mc(
            random_psd(10, 7, 63), 5, 3000, RandomSource(62)
        ),
        "invcov_p_mc_singular_rejecting": lambda: invcov_p_mc(
            _padded_psd(12, 9, 65), 7, 3000, RandomSource(49)
        ),
        "invcov_p_mc_gaussian_rejecting": lambda: invcov_p_mc(
            random_psd(20, 15, 63), 5, 3000, RandomSource(62)
        ),
    }
    LIMITS = {
        "invcov_p_mc_rejecting": lambda: _first_chunk_limit(random_psd(10, 7, 63), 5, 62),
        "invcov_p_mc_singular_rejecting": lambda: _first_chunk_limit(
            _padded_psd(12, 9, 65), 7, 49
        ),
        "invcov_p_mc_gaussian_rejecting": lambda: _first_chunk_limit(
            random_psd(20, 15, 63), 5, 62, rejects=1
        ),
    }
    # samples and draws per chunk of the rejecting runs' plans
    PLANS = {
        "invcov_p_mc_rejecting": (3000, _full_lift_size(10, 5)),
        "invcov_p_mc_singular_rejecting": (3000, _full_lift_size(12, 7)),
        "invcov_p_mc_gaussian_rejecting": (3000, _full_lift_size(20, 5)),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_worker_leaves_results_unchanged(self, monkeypatch, name):
        if name in self.LIMITS:
            monkeypatch.setattr(haar, "COND_LIMIT", self.LIMITS[name]())
        chunk_streams, used = haar._chunk_streams, set()

        def counted(rng):
            stream = chunk_streams(rng)
            return lambda j: used.add(j) or stream(j)

        monkeypatch.setattr(haar, "_chunk_streams", counted)
        results = []
        for two_threads in (False, True):
            monkeypatch.setattr(haar, "_TWO_THREADS", two_threads)
            results.append(self.RUNS[name]())
        serial, parallel = results
        assert len(used) > 1
        assert (serial.rejected > 0) == (name in self.LIMITS)
        for want, got in zip(_fields(serial), _fields(parallel)):
            assert np.array_equal(want, got, equal_nan=True)

    @pytest.mark.parametrize("two_threads", [False, True])
    @pytest.mark.parametrize("name", list(LIMITS))
    def test_plan_is_fixed_and_chunks_redraw_from_their_own_streams(
        self, monkeypatch, name, two_threads
    ):
        # the chunks and their quotas of accepted draws depend only on the
        # sample count and the draw sizes; chunk j redraws its rejected draws
        # from the rest of stream(j), so no stream is asked for twice
        monkeypatch.setattr(haar, "COND_LIMIT", self.LIMITS[name]())
        monkeypatch.setattr(haar, "_TWO_THREADS", two_threads)
        chunk_streams, monte_carlo = haar._chunk_streams, haar._monte_carlo
        lock = threading.Lock()
        requests, calls = [], []

        def logged_streams(rng):
            stream = chunk_streams(rng)

            def logged(j):
                own = stream(j)
                with lock:
                    requests.append((j, own))
                return own

            return logged

        def logged_run(samples, rng, chunk, *held):
            def logging(b, stream, acc):
                before = acc.count
                chunk(b, stream, acc)
                with lock:
                    calls.append((stream, b, acc.count - before))

            return monte_carlo(samples, rng, logging, *held)

        monkeypatch.setattr(haar, "_chunk_streams", logged_streams)
        monkeypatch.setattr(haar, "_monte_carlo", logged_run)
        result = self.RUNS[name]()
        samples, size = self.PLANS[name]
        plan = haar._round_plan(samples, size)
        assert sorted(j for j, _ in requests) == list(range(len(plan)))
        streams = [own for _, own in sorted(requests, key=lambda request: request[0])]
        assert all(any(own is stream for own in streams) for stream, _, _ in calls)
        kept = [sum(k for stream, _, k in calls if stream is own) for own in streams]
        assert kept == plan
        drawn = sum(b for _, b, _ in calls)
        assert result.rejected == drawn - samples > 0
        # some chunk redrew, in a second call on its own stream
        assert len(calls) > len(plan)

    def test_calls_on_one_source_differ_and_a_fresh_source_repeats(self):
        k = random_psd(10, 7, 64)
        rng = RandomSource(75)
        first = invcov_p_mc(k, 4, 1500, rng)
        second = invcov_p_mc(k, 4, 1500, rng)
        again = invcov_p_mc(k, 4, 1500, RandomSource(75))
        assert not np.array_equal(first.estimate, second.estimate)
        assert np.array_equal(first.estimate, again.estimate)
        assert np.array_equal(first.stderr, again.stderr)
        # the chunk streams are not the caller's substreams
        stream = haar._chunk_streams(RandomSource(75))
        for j in range(3):
            drawn = stream(j).generator.random(4)
            assert not np.array_equal(drawn, RandomSource(75).substream(j).generator.random(4))

    def test_chunk_streams_are_sfc64_per_key_and_chunk(self):
        rng = RandomSource(76)
        key = int.from_bytes(RandomSource(76).generator.bytes(16), "little")
        first, second = haar._chunk_streams(rng), haar._chunk_streams(rng)

        def draws(stream, j):
            return stream(j).generator.standard_normal(8)

        for j in range(3):
            seq = np.random.SeedSequence(key, spawn_key=(j,))
            want = np.random.Generator(np.random.SFC64(seq)).standard_normal(8)
            # the same (key, j) repeats the same draws
            assert np.array_equal(draws(first, j), want)
            assert np.array_equal(draws(first, j), want)
            # a second run on the source draws another key
            assert not np.array_equal(draws(second, j), want)
        assert not np.array_equal(draws(first, 0), draws(first, 1))

    def test_budget_overrun_waits_for_the_chunk_in_flight(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        # chunk j draws from "stream" j, which labels it
        monkeypatch.setattr(haar, "_chunk_streams", lambda rng: lambda j: j)
        events = []
        other_started = threading.Event()

        def chunk(b, j, acc):
            events.append(("start", j))
            if j == 0:
                # the budget is spent while another chunk still runs
                assert other_started.wait(5.0)
            else:
                other_started.set()
                time.sleep(0.2)
            # no draw is folded into acc, so every draw is rejected
            events.append(("end", j))

        with pytest.raises(RuntimeError, match="resampling budget"):
            haar._monte_carlo(1000, RandomSource(76), chunk, 80_000)
        started = sorted(j for event, j in events if event == "start")
        assert len(started) > 1
        assert started == sorted(j for event, j in events if event == "end")

    def test_concurrent_runs_share_the_worker(self, monkeypatch):
        # three calling threads share the two pool threads, which never run
        # more than two chunks at once; a lost or misrouted chunk result
        # would change an estimate
        k = random_psd(12, 9, 65)
        monkeypatch.setattr(haar, "_TWO_THREADS", False)
        want = [invcov_p_mc(k, 4, 6000, RandomSource(80 + i)).estimate for i in range(3)]
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        census = ChunkCensus(monkeypatch)
        got = [None] * 3

        def run(i):
            got[i] = invcov_p_mc(k, 4, 6000, RandomSource(80 + i)).estimate

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        assert census.most == 2
        assert all(name.startswith("singcov-chunks") for name in census.threads)

    def test_worker_error_is_raised_and_the_worker_serves_the_next_run(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)

        def chunk(b, rng, acc):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("chunk failed on the worker")
            acc.add_batch(rng.generator.random((b, 2)))

        with pytest.raises(ValueError, match="chunk failed on the worker"):
            haar._monte_carlo(1000, RandomSource(77), chunk, 80_000)
        k = random_psd(10, 7, 64)
        parallel = invcov_p_mc(k, 4, 1500, RandomSource(78))
        monkeypatch.setattr(haar, "_TWO_THREADS", False)
        serial = invcov_p_mc(k, 4, 1500, RandomSource(78))
        assert np.array_equal(parallel.estimate, serial.estimate)

    def test_round_bounds_its_unmerged_chunks(self, monkeypatch):
        # chunk 0 is slow and the others instant, so a run that submitted
        # ahead unchecked would start late chunks before chunk 0 is merged
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        events = []

        def run(j):
            events.append(("start", j))
            if j == 0:
                time.sleep(0.05)
            return None, j

        def merge(acc, j):
            events.append(("merged", j))

        haar._run_chunks(run, 20, merge)
        window = haar._UNMERGED
        assert [j for event, j in events if event == "merged"] == list(range(20))
        order = {event: i for i, event in enumerate(events)}
        for j in range(window, 20):
            assert order["merged", j - window] < order["start", j]

    def test_threads_that_start_at_once_make_one_pool(self, monkeypatch):
        # four threads behind a barrier ask for the pool at their first run;
        # a check-then-set without a lock let several of them make one, and
        # chunks then ran on more than two threads. Making an executor here
        # takes a millisecond, which widens that window
        made = []

        def executor(*args, **kwargs):
            time.sleep(1e-3)
            made.append(ThreadPoolExecutor(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(haar, "ThreadPoolExecutor", executor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                monkeypatch.setattr(haar, "_pool", None)
                made.clear()
                barrier = threading.Barrier(4)
                got = []

                def first_run():
                    barrier.wait(10.0)
                    got.append(haar._chunk_pool())

                threads = [threading.Thread(target=first_run) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(10.0)
                assert not any(t.is_alive() for t in threads)
                assert len(made) == 1
                assert len(got) == 4 and all(pool is made[0] for pool in got)
        finally:
            sys.setswitchinterval(interval)

    def test_thread_that_outlives_the_main_thread_runs_its_own_chunks(self):
        # once the main thread ended, the executor takes no new work
        script = textwrap.dedent(
            """
            import threading
            import numpy as np
            from singcov import haar
            from singcov.haar import invcov_p_mc
            from singcov.linalg import RandomSource

            def late():
                threading.main_thread().join()
                mc = invcov_p_mc(np.diag(np.arange(1.0, 13.0)), 4, 6000, RandomSource(82))
                print(mc.estimate.tobytes().hex())

            haar._TWO_THREADS = True
            threading.Thread(target=late).start()
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(haar.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        want = invcov_p_mc(np.diag(np.arange(1.0, 13.0)), 4, 6000, RandomSource(82)).estimate
        assert done.stdout.strip() == want.tobytes().hex(), done.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12 warns that fork in a process with threads may deadlock the
    # child; that child is what this test runs
    @pytest.mark.filterwarnings("ignore:This process .*is multi-threaded:DeprecationWarning")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        k = random_psd(12, 9, 65)

        def run():
            return invcov_p_mc(k, 4, 6000, RandomSource(81)).estimate

        want = run()
        # the parent's worker ran, and the child inherits no thread of it
        assert haar._pool[0] == os.getpid()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = run()
                if haar._pool[0] == os.getpid():
                    os.write(write, got.tobytes())
                    code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60.0
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read, "rb") as pipe:
            got = np.frombuffer(pipe.read(), dtype=want.dtype).reshape(want.shape)
        assert done, "the forked child's run hung"
        assert os.waitstatus_to_exitcode(status) == 0
        assert np.array_equal(got, want)


def _record_chunks(monkeypatch):
    """``(plans, peaks)``, filled as serial Monte Carlo runs go: the draws of
    each plan with the bytes it states for one chunk of them (the draws
    times ``draw_bytes``, plus ``chunk_bytes``), and each chunk's
    tracemalloc peak while tracemalloc traces."""
    monkeypatch.setattr(haar, "_TWO_THREADS", False)
    plans, peaks = [], []
    chunk_draws, monte_carlo = haar._chunk_draws, haar._monte_carlo

    def planning(draw_bytes, chunk_bytes=0):
        draws = chunk_draws(draw_bytes, chunk_bytes)
        plans.append((draws, draws * draw_bytes + chunk_bytes))
        return draws

    def measured(samples, rng, chunk, *held):
        def measuring(b, stream, acc):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            chunk(b, stream, acc)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

        return monte_carlo(samples, rng, measuring, *held)

    monkeypatch.setattr(haar, "_chunk_draws", planning)
    monkeypatch.setattr(haar, "_monte_carlo", measured)
    return plans, peaks


class TestChunkPlan:
    # a run of each Monte Carlo chunk body: the full inverse lift on both of
    # its bases, the positive degrees on planes and on matmuls, and the
    # injection fold, also where it pseudo-inverts every block
    BODIES = {
        "invcov_p_mc_gaussian": lambda s: invcov_p_mc(
            random_psd(100, 75, 1), 25, s, RandomSource(1)
        ),
        "invcov_p_mc_gram_schmidt": lambda s: invcov_p_mc(
            random_psd(10, 10, 2), 5, s, RandomSource(2)
        ),
        "invcov_p_mc_lapack": lambda s: invcov_p_mc(random_psd(12, 12, 3), 8, s, RandomSource(3)),
        "planes": lambda s: cov_p_mc(random_hermitian(5, 6), 2, s, RandomSource(6)),
        "planes_cubed": lambda s: haar._compression_mc(
            random_hermitian(5, 7), 3, 3, s, RandomSource(7)
        ),
        "matmuls": lambda s: cov_p_mc(random_hermitian(12, 8), 4, s, RandomSource(8)),
        "matmuls_cubed": lambda s: haar._compression_mc(
            random_hermitian(12, 9), 4, 3, s, RandomSource(9)
        ),
        "hybrid_inverse_mc": lambda s: hybrid_inverse_mc(
            random_psd(100, 75, 10), 10.0, 25, s, RandomSource(10)
        ),
        "hybrid_inverse_mc_small": lambda s: hybrid_inverse_mc(
            random_psd(8, 8, 11), 1.0, 4, s, RandomSource(11)
        ),
        # p above the rank of K: every block is pseudo-inverted
        "hybrid_inverse_mc_above_rank": lambda s: hybrid_inverse_mc(
            random_psd(100, 30, 14), 10.0, 40, s, RandomSource(14)
        ),
    }

    @pytest.mark.parametrize("name", list(BODIES))
    def test_chunk_peak_is_half_to_all_of_its_planned_bytes(self, monkeypatch, name):
        # the stated bytes bound what a chunk holds, without overstating it
        # twice over; a run of one full chunk, after a run that reads its plan
        plans, peaks = _record_chunks(monkeypatch)
        self.BODIES[name](2)
        draws, planned = plans[-1]
        peaks.clear()
        tracemalloc.start()
        try:
            self.BODIES[name](draws)
        finally:
            tracemalloc.stop()
        assert 0.5 * planned <= peaks[0] <= planned, f"peak {peaks[0]} of {planned} planned"

    def test_enumerated_chunk_peak_is_half_to_all_of_its_planned_bytes(self, monkeypatch):
        # each oracle's chunks are planned from its own block map: the
        # pseudoinverses of hybrid_inverse_bruteforce, and the identity maps
        # of ewens_estimator_bruteforce and hybrid_estimator_bruteforce; each
        # run spans more than 10 chunks
        plans, _ = _record_chunks(monkeypatch)
        k = random_psd(8, 8, 12)
        oracles = {
            "hybrid_inverse": (lambda: ewens.hybrid_inverse_bruteforce(k, 1.2, 6), 6),
            "ewens": (lambda: ewens.ewens_estimator_bruteforce(k, 1.2), 8),
            "hybrid": (lambda: ewens.hybrid_estimator_bruteforce(k, 1.2, 8), 8),
        }
        for name, (oracle, p) in oracles.items():
            tracemalloc.start()
            try:
                oracle()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            terms, planned = plans[-1]
            assert math.perm(8, p) > 10 * terms, name
            assert 0.5 * planned <= peak <= planned, f"{name}: peak {peak} of {planned} planned"

    def test_chunk_bytes_stay_within_budget(self):
        # full lift at m=400, p=100 on both bases: the bytes the planned draws
        # and their chunk hold fit the budget
        for gaussian in (True, False):
            held = haar._compression_bytes(400, 100, -1, gaussian)
            draws = _chunk_draws(*held)
            assert draws >= 1
            assert draws * held[0] + held[1] <= _CHUNK_BYTES

    def test_at_least_one_draw_when_one_exceeds_budget(self):
        m, p = 2000, 1000
        draw_bytes, chunk_bytes = haar._compression_bytes(m, p, -1, False)
        assert draw_bytes > _CHUNK_BYTES
        assert _chunk_draws(draw_bytes, chunk_bytes) == 1

    def test_spectrum_memory_is_bounded_per_chunk(self):
        # the Poisson-binomial prefix of one node holds 8 (r + 1) p bytes; the
        # 130 nodes that need it here would hold about 21 MB in one chunk
        k = _padded_psd(201, 200, 11)
        tracemalloc.start()
        try:
            spec = invcov_spectrum(k, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec.lambdas) == 200
        assert peak <= 2 * _CHUNK_BYTES // haar._CHUNK_SHARE, f"peak {peak / 2**20:.1f} MiB"

    def test_inverse_memory_is_bounded_per_chunk(self):
        # one chunk of all 2000 draws would hold about 180 MB at this shape
        k = random_psd(60, 40, 11)
        tracemalloc.start()
        try:
            mc = invcov_p_mc(k, 15, 2000, RandomSource(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc.samples == 2000
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
