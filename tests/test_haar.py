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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import random_hermitian, random_psd, replay_chunks
from hypothesis import given, settings
from hypothesis import strategies as st

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
from singcov.linalg import (
    RandomSource,
    WelfordAccumulator,
    eig_hermitian,
    sample_complex_gaussian,
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
            invcov_spectrum(k, 4, 2000, rng)

    def test_accepts_p_at_rank_and_rejects_above(self):
        # on a singular K the kernel value is infinite from p = rank on, so
        # p = rank is rejected with the p above it, and p = rank - 1 runs
        k = random_psd(6, 3, 9)
        mc = invcov_p_mc(k, 2, 2000, RandomSource(10))
        assert mc.samples == 2000
        assert mc.rejected <= 20
        for p in (3, 4):
            for call in (invcov_p_mc, invcov_spectrum):
                with pytest.raises(ValueError, match=f"p={p} must lie below rank 3"):
                    call(k, p, 2000, RandomSource(10))

    @pytest.mark.parametrize("call", [invcov_p_mc, invcov_spectrum], ids=["full", "spectrum"])
    def test_ill_conditioned_draws_exhaust_the_budget(self, call):
        # numeric rank 5, p = 4: by Poincare separation W's largest eigenvalue
        # is at least 1 and its smallest at most 1e-14, so every draw has
        # kappa_F >= 1e14 and is rejected
        k = np.diag([1.0, 1.0, 1.0, 1e-14, 1e-14, 0.0])
        with pytest.raises(RuntimeError, match="resampling budget"):
            call(k, 4, 200, RandomSource(16))

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

    @pytest.mark.parametrize("call", [invcov_p_mc, invcov_spectrum], ids=["full", "spectrum"])
    def test_rejects_indefinite_k(self, call):
        with pytest.raises(ValueError, match="k must be positive semidefinite"):
            call(np.diag([2.0, 1.0, 0.5, -1.0]), 2, 200, RandomSource(15))
        # a negative eigenvalue at roundoff level is a zero one
        got = call(np.diag([2.0, 1.0, 0.5, -1e-13]), 2, 200, RandomSource(15))
        assert got.samples == 200

    def test_zero_block_is_flat(self, rng):
        d = np.diag([2.0, 1.0, 0.5, 0.0, 0.0])
        spec = invcov_spectrum(d, 2, 30000, rng)
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
    return _chunk_draws(m * p, p * p, m * m)


def _diagonal_lift_size(m, r, p):
    """Draws per chunk of invcov_spectrum's plan on a K of rank r."""
    rows = m if 2 * p > m else r
    return _chunk_draws(rows * p, p * p, r + (r < m))


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


def _first_chunk_limit(k, p, seed):
    """A condition-number limit between the third and fourth largest kappa_F
    of the first chunk of invcov_p_mc(k, p, ..., RandomSource(seed))."""
    m = k.shape[0]
    first_stream = haar._chunk_streams(RandomSource(seed))(0)
    first = sample_haar_stiefel_batch(p, m, _full_lift_size(m, p), first_stream)
    cond = np.sort(_compressions(k, first)[1])
    return float(np.sqrt(cond[-4] * cond[-3]))


class TestInvcovRankFactor:
    # 3000 draws span two chunks at each shape
    @pytest.mark.parametrize(("m", "rank", "p"), [(10, 7, 4), (10, 7, 5), (8, 8, 3)])
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


def _range_draws(d_r, m, p, b, rng):
    """One Gaussian-branch chunk of b draws, in its documented order: the
    range rows Z_r, then the radii t = ||Z_k||_F^2 of the kernel rows."""
    z_r = sample_complex_gaussian((b, len(d_r), p), rng)
    return z_r, rng.generator.standard_gamma((m - len(d_r)) * p, b)


def _screen(d_r, p, z_r, t):
    """The rejection screen s ||W^-1||_F^2 ||Z||_F^4 with ||Z||_F^2 = ||Z_r||_F^2 + t."""
    w_inv = np.linalg.inv(np.swapaxes(z_r, 1, 2).conj() @ (z_r * d_r[:, None]))
    norm_sq = (np.abs(z_r) ** 2).sum(axis=(1, 2)) + t
    return np.sort(d_r**2)[-p:].sum() * (np.abs(w_inv) ** 2).sum(axis=(1, 2)) * norm_sq**2


def _with_kernel_rows(z_r, t, u):
    """Gaussian bases [Z_r; sqrt(t) U / ||U||_F]."""
    scale = np.sqrt(t / (np.abs(u) ** 2).sum(axis=(1, 2)))
    return np.concatenate([z_r, scale[:, None, None] * u], axis=1)


def _frame_lift(d, z):
    """Definitional diagonal lift diag(Phi* (Phi D Phi*)^-1 Phi) and kappa_F of
    Phi D Phi* for the orthonormalized frames Phi* = QR(Z) of each basis Z."""
    q = np.linalg.qr(z)[0]
    w = np.swapaxes(q, 1, 2).conj() @ (q * d[:, None])
    w_inv = np.linalg.inv(w)
    lift = np.einsum("bip,bpq,biq->bi", q, w_inv, q.conj()).real
    kappa = np.linalg.norm(w, axis=(1, 2)) * np.linalg.norm(w_inv, axis=(1, 2))
    return lift, kappa


class TestInvcovSpectrumChunk:
    def test_gaussian_basis_matches_frames_on_same_draws(self):
        # m = 40 >= 2p takes the QR-free path; at full rank its chunks hold
        # the frames that sampler chunks of their sizes would, so the full
        # lift replayed on its plan averages the same frames
        d = np.linspace(3.0, 0.1, 40)
        spec = invcov_spectrum(np.diag(d), 10, 150, RandomSource(44))
        acc, rejected = _replay_invcov(
            np.diag(d), 10, 150, RandomSource(44), haar.COND_LIMIT, _diagonal_lift_size(40, 40, 10)
        )
        np.testing.assert_allclose(spec.lambdas, np.diag(acc.mean).real, rtol=1e-12)
        # the run's noise and draw counts are reported too
        np.testing.assert_allclose(spec.stderr, np.diag(acc.stderr()), rtol=1e-9)
        assert (spec.samples, spec.rejected) == (acc.count, rejected) == (150, 0)
        assert math.isnan(spec.mu) and math.isnan(spec.mu_stderr)

    def test_singular_range_rows_lift_their_frames(self):
        # only the range rows and one radius per draw come from the stream;
        # the range lift of the frame is the same whatever the kernel direction
        m, r, p, samples, seed = 40, 30, 10, 150, 44
        d = np.concatenate([np.linspace(3.0, 0.1, r), np.zeros(m - r)])
        spec = invcov_spectrum(np.diag(d), p, samples, RandomSource(seed))
        draws = []

        def chunk(b, stream):
            draws.append(_range_draws(d[:r], m, p, b, stream))
            return b

        replay_chunks(samples, _diagonal_lift_size(m, r, p), RandomSource(seed), chunk)
        z_r, t = (np.concatenate(part) for part in zip(*draws))
        # no draw is flagged, so no kernel direction is drawn and none rejected
        assert (_screen(d[:r], p, z_r, t) <= haar.COND_LIMIT**2).all()
        u = sample_complex_gaussian((samples, m - r, p), RandomSource(seed + 1))
        lift = _frame_lift(d, _with_kernel_rows(z_r, t, u))[0][:, :r]
        np.testing.assert_allclose(spec.lambdas, lift.mean(axis=0), rtol=1e-12)
        want_stderr = lift.std(axis=0, ddof=1) / math.sqrt(samples)
        np.testing.assert_allclose(spec.stderr, want_stderr, rtol=1e-9)
        assert (spec.samples, spec.rejected) == (samples, 0)

    @pytest.mark.parametrize(
        ("m", "r", "p", "samples"),
        [(40, 30, 10, 4000), (8, 4, 2, 20000), (8, 4, 3, 20000), (7, 5, 4, 20000)],
    )
    def test_singular_spectrum_matches_full_lift(self, m, r, p, samples):
        # (7, 5, 4) takes the orthonormal frames; the others the range rows
        d = np.concatenate([np.linspace(3.0, 0.2, r), np.zeros(m - r)])
        spec = invcov_spectrum(np.diag(d), p, samples, RandomSource(50))
        full = invcov_p_mc(np.diag(d), p, samples, RandomSource(51))
        diag, se = np.diag(full.estimate).real, np.diag(full.stderr)
        assert abs(d[:r] @ spec.lambdas - p) <= 1e-8 * p
        assert np.isfinite(spec.mu_stderr) and spec.mu_stderr > 0
        gap = np.abs(spec.lambdas - diag[:r])
        assert (gap <= 5 * np.hypot(spec.stderr, se[:r])).all()
        # the mean of the kernel entries' stderrs bounds the stderr of their mean
        assert abs(spec.mu - diag[r:].mean()) <= 5 * math.hypot(spec.mu_stderr, se[r:].mean())

    def test_rejections_match_frame_condition_numbers(self, monkeypatch):
        m, p, samples, seed = 12, 4, 300, 45
        d = np.logspace(0, -3, m)
        # the draws fit one chunk of either path, and the three rejected draws
        # are redrawn in a second round, from the run's second chunk stream
        for size in (_diagonal_lift_size(m, m, p), _full_lift_size(m, p)):
            assert haar._round_plan(samples, size) == [samples]
        stream = haar._chunk_streams(RandomSource(seed))
        frames = sample_haar_stiefel_batch(p, m, samples, stream(0))
        redrawn = sample_haar_stiefel_batch(p, m, 3, stream(1))

        def kappa(phi):
            w = (phi * d) @ np.swapaxes(phi, 1, 2).conj()
            w_inv = np.linalg.inv(w)
            return np.linalg.norm(w, axis=(1, 2)) * np.linalg.norm(w_inv, axis=(1, 2))

        cond = kappa(frames)
        limit = float(np.sqrt(np.sort(cond)[-4] * np.sort(cond)[-3]))
        assert (kappa(redrawn) <= limit).all()
        # the screen s ||W^-1||_F^2 ||Z||_F^4 over the Gaussian bases of these frames
        z = sample_complex_gaussian((samples, m, p), stream(0))
        w_inv = np.linalg.inv(np.swapaxes(z, 1, 2).conj() @ (z * d[:, None]))
        screen = (
            np.sort(d**2)[-p:].sum()
            * (np.abs(w_inv) ** 2).sum(axis=(1, 2))
            * (np.abs(z) ** 2).sum(axis=(1, 2)) ** 2
        )
        assert ((screen > limit**2) & (cond <= limit)).sum() > 10

        monkeypatch.setattr(haar, "COND_LIMIT", limit)
        spec = invcov_spectrum(np.diag(d), p, samples, RandomSource(seed))
        full = invcov_p_mc(np.diag(d), p, samples, RandomSource(seed))
        assert spec.rejected == full.rejected == 3
        np.testing.assert_allclose(spec.lambdas, np.diag(full.estimate).real, rtol=1e-12)

    def test_singular_rejections_match_frame_condition_numbers(self, monkeypatch):
        # each kernel direction is drawn only for a flagged draw; whether a
        # draw is kept must still follow the kappa_F of its whole frame
        m, r, p, samples, seed, limit = 12, 9, 4, 1000, 49, 400.0
        d = np.concatenate([np.logspace(0, -3, r), np.zeros(m - r)])
        lambdas, kernel, flags, rejected = [], [], [], 0

        def chunk(b, rng):
            nonlocal rejected
            z_r, t = _range_draws(d[:r], m, p, b, rng)
            flagged = _screen(d[:r], p, z_r, t) > limit**2
            u = sample_complex_gaussian((int(flagged.sum()), m - r, p), rng)
            z = _with_kernel_rows(z_r[flagged], t[flagged], u)
            lift, kappa = _frame_lift(d, z)
            keep = kappa <= limit
            # an unflagged draw stays under the limit whatever its kernel
            # direction, which leaves its range lift as it is
            for other in range(3):
                v = sample_complex_gaussian((b, m - r, p), RandomSource(100 + other))
                free, free_kappa = _frame_lift(d, _with_kernel_rows(z_r, t, v))
                assert (free_kappa[~flagged] <= limit).all()
            # an unflagged draw's kernel value is its mean given t
            w_inv = np.linalg.inv(np.swapaxes(z_r, 1, 2).conj() @ (z_r * d[:r, None]))
            mu = np.einsum("bii->b", w_inv).real * t / (p * (m - r))
            mu[flagged] = lift[:, r:].mean(axis=1)
            free[flagged] = lift
            accepted = ~flagged
            accepted[flagged] = keep
            lambdas.extend(free[accepted, :r])
            kernel.extend(mu[accepted])
            flags.append((int(flagged.sum()), int(keep.sum())))
            rejected += b - int(accepted.sum())
            return int(accepted.sum())

        replay_chunks(samples, _diagonal_lift_size(m, r, p), RandomSource(seed), chunk)
        # the first chunk has unflagged draws, flagged ones kept and one rejected
        assert flags[0][0] < samples - 100 and flags[0][1] > 100 and rejected >= 1

        monkeypatch.setattr(haar, "COND_LIMIT", limit)
        spec = invcov_spectrum(np.diag(d), p, samples, RandomSource(seed))
        assert (spec.samples, spec.rejected) == (samples, rejected)
        np.testing.assert_allclose(spec.lambdas, np.mean(lambdas, axis=0), rtol=1e-10)
        np.testing.assert_allclose(spec.mu, np.mean(kernel), rtol=1e-10)

    @pytest.mark.parametrize("rank", [12, 10])
    def test_orthonormal_frame_rejections_match_frame_condition_numbers(
        self, monkeypatch, rank
    ):
        # for 2p > m the bases are the orthonormal frames themselves, so G = I
        # and a draw is kept by the kappa_F of its W alone
        m, p, samples, seed = 12, 8, 300, 45
        d = np.logspace(0, -3, m)
        d[rank:] = 0.0
        # the draws fit one chunk of the spectrum's plan, and the three
        # rejected draws are redrawn in a second round, from its second stream
        size = _diagonal_lift_size(m, rank, p)
        assert haar._round_plan(samples, size) == [samples]
        stream = haar._chunk_streams(RandomSource(seed))
        frames = sample_haar_stiefel_batch(p, m, samples, stream(0))
        redrawn = sample_haar_stiefel_batch(p, m, 3, stream(1))

        def kappa(phi):
            w = (phi * d) @ np.swapaxes(phi, 1, 2).conj()
            w_inv = np.linalg.inv(w)
            return np.linalg.norm(w, axis=(1, 2)) * np.linalg.norm(w_inv, axis=(1, 2))

        cond = np.sort(kappa(frames))
        limit = float(np.sqrt(cond[-4] * cond[-3]))
        assert (kappa(redrawn) <= limit).all()

        monkeypatch.setattr(haar, "COND_LIMIT", limit)
        spec = invcov_spectrum(np.diag(d), p, samples, RandomSource(seed))
        # the full lift, replayed on the spectrum's plan, averages these frames
        acc, rejected = _replay_invcov(np.diag(d), p, samples, RandomSource(seed), limit, size)
        assert spec.rejected == rejected == 3
        diag = np.diag(acc.mean).real
        np.testing.assert_allclose(spec.lambdas, diag[:rank], rtol=1e-12)
        if rank < m:
            # mu is the mean of the kernel diagonal of each draw's lift
            np.testing.assert_allclose(spec.mu, diag[rank:].mean(), rtol=1e-12)

    def test_full_frame_inverts_ill_conditioned_diagonal(self):
        # p = m takes the orthonormal frame; the average is then D^-1 itself
        d = np.logspace(0, -8, 12)
        spec = invcov_spectrum(np.diag(d), 12, 200, RandomSource(46))
        np.testing.assert_allclose(spec.lambdas * d, 1.0, rtol=1e-9)


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
                invcov_spectrum(np.diag(d), p, 1000, RandomSource(48))
            return
        spec = invcov_spectrum(np.diag(d), p, 1000, RandomSource(48))
        nonzero = np.sort(d)[::-1][: len(spec.lambdas)]
        # tr(D Phi* (Phi D Phi*)^-1 Phi) = p holds draw by draw
        assert abs(nonzero @ spec.lambdas - p) <= 1e-8 * p
        assert (spec.lambdas > 0).all()
        assert len(spec.lambdas) == len(d) or spec.mu > 0
        if p == len(d):
            np.testing.assert_allclose(spec.lambdas * nonzero, 1.0, rtol=1e-9)


class TestCompressionCore:
    def test_diagonal_and_full_lift_agree_on_same_draws(self):
        # the full lift, replayed on the diagonal lift's plan, sees its frames
        d = np.array([3.0, 2.5, 1.7, 1.1, 0.6, 0.2])
        spec = invcov_spectrum(np.diag(d), 3, 2000, RandomSource(41))
        full, _ = _replay_invcov(
            np.diag(d), 3, 2000, RandomSource(41), haar.COND_LIMIT, _diagonal_lift_size(6, 6, 3)
        )
        np.testing.assert_allclose(spec.lambdas, np.diag(full.mean).real, rtol=1e-12)

    def test_cov_average_is_first_matrix_moment(self):
        k = random_hermitian(5, 42)
        cov = cov_p_mc(k, 2, 3000, RandomSource(43))
        moment = haar._compression_mc(k, 2, 1, 3000, RandomSource(43))
        assert np.array_equal(cov.estimate, moment.estimate)
        assert np.array_equal(cov.stderr, moment.stderr)


def _fields(result):
    return [getattr(result, f.name) for f in dataclasses.fields(result)]


class TestMonteCarloDriver:
    # multi-chunk runs of every Monte Carlo path, the last two with rejected
    # draws redrawn in later rounds
    RUNS = {
        "invcov_p_mc": lambda: invcov_p_mc(random_psd(10, 7, 64), 4, 3000, RandomSource(70)),
        "spectrum_gaussian": lambda: invcov_spectrum(
            random_psd(12, 9, 65), 4, 6000, RandomSource(71)
        ),
        "spectrum_orthonormal": lambda: invcov_spectrum(
            random_psd(12, 12, 66), 8, 3000, RandomSource(72)
        ),
        "cov_p_mc": lambda: cov_p_mc(random_hermitian(5, 42), 2, 5000, RandomSource(73)),
        "hybrid_inverse_mc": lambda: hybrid_inverse_mc(
            random_psd(8, 8, 84), 0.8, 4, 5000, RandomSource(74)
        ),
        "invcov_p_mc_rejecting": lambda: invcov_p_mc(
            random_psd(10, 7, 63), 5, 3000, RandomSource(62)
        ),
        "spectrum_rejecting": lambda: invcov_spectrum(
            np.diag(np.concatenate([np.logspace(0, -3, 9), np.zeros(3)])),
            4,
            1000,
            RandomSource(49),
        ),
    }
    LIMITS = {
        "invcov_p_mc_rejecting": lambda: _first_chunk_limit(random_psd(10, 7, 63), 5, 62),
        "spectrum_rejecting": lambda: 400.0,
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

    def test_budget_overrun_waits_for_the_chunk_in_flight(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        events = []
        worker_started = threading.Event()

        def chunk(b, rng, acc):
            on_worker = threading.current_thread() is not threading.main_thread()
            events.append(("start", on_worker))
            if on_worker:
                worker_started.set()
                # still running when the calling thread finds the budget spent
                time.sleep(0.2)
            else:
                assert worker_started.wait(5.0)
            events.append(("end", on_worker))
            return b  # every draw is rejected

        with pytest.raises(RuntimeError, match="resampling budget"):
            haar._monte_carlo(1000, RandomSource(76), chunk, frame=1000, block=0, lift=0)
        assert ("start", True) in events
        assert events.count(("start", True)) == events.count(("end", True))
        assert events.count(("start", False)) == events.count(("end", False))

    def test_concurrent_runs_share_the_worker(self, monkeypatch):
        # three calling threads share the one worker, and a round that finds
        # it claimed runs its own chunks; a lost or misrouted chunk result
        # would change an estimate
        k = random_psd(12, 9, 65)
        monkeypatch.setattr(haar, "_TWO_THREADS", False)
        want = [invcov_spectrum(k, 4, 6000, RandomSource(80 + i)).lambdas for i in range(3)]
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        got = [None] * 3

        def run(i):
            got[i] = invcov_spectrum(k, 4, 6000, RandomSource(80 + i)).lambdas

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

    def test_worker_error_is_raised_and_the_worker_serves_the_next_run(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)

        def chunk(b, rng, acc):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("chunk failed on the worker")
            acc.add_batch(rng.generator.random((b, 2)))
            return 0

        with pytest.raises(ValueError, match="chunk failed on the worker"):
            haar._monte_carlo(1000, RandomSource(77), chunk, frame=1000, block=0, lift=0)
        # the failed round gave the worker back
        assert haar._worker_claim.acquire(blocking=False)
        haar._worker_claim.release()
        k = random_psd(10, 7, 64)
        parallel = invcov_p_mc(k, 4, 1500, RandomSource(78))
        monkeypatch.setattr(haar, "_TWO_THREADS", False)
        serial = invcov_p_mc(k, 4, 1500, RandomSource(78))
        assert np.array_equal(parallel.estimate, serial.estimate)

    def test_worker_looks_ahead_at_most_five_chunks(self, monkeypatch):
        # the calling thread's chunks are slow and the worker's instant, so a
        # worker that ran ahead unchecked would start late odd chunks while
        # the calling thread is still on chunk 0
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        chunk_streams, events, label, on_worker = haar._chunk_streams, [], {}, []

        def labelled(rng):
            stream = chunk_streams(rng)

            def start(j):
                source = stream(j)
                label[id(source)] = j
                events.append(("start", j))
                if threading.current_thread() is not threading.main_thread():
                    on_worker.append(j)
                return source

            return start

        def chunk(b, rng, acc):
            j = label[id(rng)]
            if j % 2 == 0:
                time.sleep(0.01)
            acc.add_batch(rng.generator.random((b, 2)))
            events.append(("end", j))
            return 0

        monkeypatch.setattr(haar, "_chunk_streams", labelled)
        haar._monte_carlo(1000, RandomSource(79), chunk, frame=1000, block=0, lift=0)
        order = {event: i for i, event in enumerate(events)}
        late = [j for j in on_worker if j >= 5]
        assert late
        for j in late:
            assert order["end", j - 5] < order["start", j]

    def test_thread_that_outlives_the_main_thread_runs_its_own_chunks(self):
        # once the main thread ended, the executor takes no new work
        script = textwrap.dedent(
            """
            import threading
            import numpy as np
            from singcov import haar
            from singcov.haar import invcov_spectrum
            from singcov.linalg import RandomSource

            def late():
                threading.main_thread().join()
                spectrum = invcov_spectrum(np.diag(np.arange(1.0, 13.0)), 4, 6000, RandomSource(82))
                print(spectrum.lambdas.tobytes().hex())

            haar._TWO_THREADS = True
            threading.Thread(target=late).start()
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(haar.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        want = invcov_spectrum(np.diag(np.arange(1.0, 13.0)), 4, 6000, RandomSource(82)).lambdas
        assert done.stdout.strip() == want.tobytes().hex(), done.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12 warns that fork in a process with threads may deadlock the
    # child; that child is what this test runs
    @pytest.mark.filterwarnings("ignore:This process .*is multi-threaded:DeprecationWarning")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        k = random_psd(12, 9, 65)

        def run():
            return invcov_spectrum(k, 4, 6000, RandomSource(81)).lambdas

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
            got = np.frombuffer(pipe.read(), dtype=want.dtype)
        assert done, "the forked child's run hung"
        assert os.waitstatus_to_exitcode(status) == 0
        assert np.array_equal(got, want)


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
