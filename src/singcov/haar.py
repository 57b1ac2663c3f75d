r"""Unitary compression averages of covariance matrices.

For a Haar-random ``p x m`` matrix ``Phi`` with orthonormal rows, these
estimators average the compressed matrix ``Phi K Phi*`` after mapping it
back up to ``m x m``:

* ``cov_p_closed``   : ``E(Phi* (Phi K Phi*) Phi)``, in closed form.
* ``invcov_p_mc``    : ``E(Phi* (Phi K Phi*)^{-1} Phi)``, by Monte Carlo.
* ``trace_moment``   : ``E Tr((Phi D Phi*)^N)`` for diagonal D, exactly,
  through hook-shape Schur polynomials.
* ``moment_matrix_coeffs`` : the polynomial coefficients a_k with
  ``E(Phi* (Phi D Phi*)^l Phi) = sum_k a_k D^k``.

Coefficient arithmetic runs in exact rationals; handing in integer or
``Fraction`` diagonals keeps the whole evaluation exact.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite

import numpy as np

from .combinatorics import (
    HookShape,
    power_sums,
    schur_hook_derivative_coeffs,
    schur_hook_powersum,
)
from .linalg import (
    RandomSource,
    WelfordAccumulator,
    _inv_batch_hermitian,
    _squared_frobenius,
    eig_hermitian,
    hermitize,
    numeric_rank,
    require_hermitian,
    require_p,
    require_psd,
    sample_complex_gaussian,
    sample_haar_stiefel_batch,
)

__all__ = [
    "MonteCarloEstimate",
    "MomentCoefficients",
    "InvcovSpectrum",
    "LoadingParameters",
    "cov_p_closed",
    "cov_p_mc",
    "invcov_p_mc",
    "invcov_spectrum",
    "trace_moment",
    "moment_matrix_coeffs",
    "diagonal_loading",
]

# Monte Carlo engine constants: draws whose compressed matrix has a worse
# Frobenius condition number ||W||_F ||W^-1||_F are redrawn; aborting once
# more than this fraction was rejected keeps a silently-degenerate input
# from producing a quietly biased average.
COND_LIMIT = 1e12
MAX_REJECT_FRACTION = 0.01
# Draws are batched so that the arrays of the chunks in flight at once stay
# near this many bytes, whatever the shape or the sample count. A run keeps
# up to two chunks in flight, and each chunk plans for this share of the
# budget. Against one chunk of the whole budget, the benchmark's peak RSS
# then fell by 9-11% on `spectrum` and `experiment` and rose by 0.2% on
# `verify`; a half share raised `verify`'s by 6%.
_CHUNK_BYTES = 16 * 2**20
_CHUNK_SHARE = 4


def _second_core_idles() -> bool:
    """Whether a run on one thread leaves a core idle: the process may run
    on at least 2 CPUs, and numpy's OpenBLAS runs on one thread
    (``OPENBLAS_NUM_THREADS``, or else ``OMP_NUM_THREADS``, is 1).

    Only then does a run hand every other chunk to the worker thread. With
    BLAS on its own threads, the two chunks' BLAS calls compete for the
    cores: on 2 cores, invcov_spectrum at m=200, p=45 and invcov_p_mc at
    m=100, p=50 ran 30-60% slower than with one chunk at a time.
    """
    env = os.environ
    blas = env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS"))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and blas == "1"


_TWO_THREADS = _second_core_idles()


def _chunk_draws(frame: int, block: int, lift: int) -> int:
    """Draws per chunk: the chunk's share of the byte budget over the bytes
    one draw holds.

    ``frame``, ``block`` and ``lift`` count the entries of one draw's frame
    (its injection, or the m x p Gaussian basis of the inverse spectrum),
    compressed matrix and lift. Sampling and lifting hold up to five
    complex frames at once, the factorization four blocks, and the lift
    with Welford's deviation pass 40 bytes per lifted entry. Runs whose
    draws have different sizes get different plans, and so different
    chunk streams and different draws.
    """
    per_draw = 16 * (5 * frame + 4 * block) + 40 * lift
    return max(1, _CHUNK_BYTES // _CHUNK_SHARE // per_draw)


@dataclass
class MonteCarloEstimate:
    """Sample mean plus per-entry standard error of a matrix average."""

    estimate: np.ndarray
    stderr: np.ndarray
    samples: int
    rejected: int = 0


def _chunk_streams(rng: RandomSource):
    """``stream(j)``, the stream of chunk j of one run on ``rng``.

    The run draws one 128-bit key from ``rng`` and chunk j takes the Philox
    stream ``RandomSource(key, (j,))``: two runs on one source get different
    keys, and no chunk stream is a ``substream`` of the caller's seed.
    """
    key = int.from_bytes(rng.generator.bytes(16), "little")
    return lambda j: RandomSource(key, (j,))


def _round_plan(draws: int, size: int) -> list:
    """Chunk sizes of a round of ``draws`` draws: full chunks of ``size``,
    then the remainder."""
    full, rest = divmod(draws, size)
    return [size] * full + [rest] * (rest > 0)


_heap_primed = False


def _prime_heap():
    """Free one untouched block of ``_CHUNK_BYTES``, once per process.

    glibc's malloc serves a block above its mmap threshold by ``mmap``,
    raises the threshold to the size of each such block freed, and hands
    the top of a heap back to the system once more than twice the
    threshold is free there. Chunk arrays of a few hundred KiB keep both
    low, so the pages of every chunk went back to the system when it ended
    and were faulted in again by the next one: invcov_p_mc at m=100, p=50
    took about 243,000 minor page faults per call, against about 250 once
    this block was freed, and ran 25-30% slower. After it, the arrays of a
    chunk, each smaller than the budget, stay on the heaps and their pages
    are reused. Other allocators ignore it.
    """
    global _heap_primed
    if not _heap_primed:
        np.empty(_CHUNK_BYTES, dtype=np.uint8)
        _heap_primed = True


_pool = None  # (pid, executor) of the worker thread, see _worker_pool
# Held by the round whose odd chunks the worker runs. A round that finds it
# held runs all its chunks itself, rather than wait while another thread's
# round has the worker.
_worker_claim = threading.Lock()
# Threads that run all their chunks themselves, since other threads already
# keep the cores busy: the trial threads of bench.run_experiment.
_inline = threading.local()


def _run_chunks_inline():
    """Make the calling thread run every chunk of its runs itself."""
    _inline.chunks = True


def _worker_pool() -> ThreadPoolExecutor:
    """The one-thread executor of the worker, made at the first call and then
    kept (a forked child, which does not inherit its thread, makes its
    own). Only the holder of ``_worker_claim`` calls this."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="singcov-chunks"))
    return _pool[1]


def _run_round(chunk, sizes: list, stream, first: int, merge):
    """Run chunk j of ``sizes`` on ``stream(first + j)`` and pass its result to
    ``merge(acc, rejected)`` in the calling thread, strictly in chunk order.

    Chunk j folds its accepted draws into a chunk-local
    :class:`~singcov.linalg.WelfordAccumulator` ``acc``. With
    ``_TWO_THREADS``, more than one chunk and the worker free, the worker
    runs the odd chunks while the calling thread runs the even ones. At
    most two odd chunks are submitted and not merged yet: odd chunk j is
    submitted once chunk j - 4 is merged, so the worker starts it only after
    the calling thread ended chunk j - 5. When ``merge`` or a chunk raises,
    the round cancels the queued chunk and waits for the one in flight
    before it raises. Once the interpreter shuts down, the calling thread
    runs the odd chunks it could not submit.
    """

    def run(j):
        acc = WelfordAccumulator()
        return acc, chunk(sizes[j], stream(first + j), acc)

    inline = len(sizes) == 1 or not _TWO_THREADS or getattr(_inline, "chunks", False)
    if inline or not _worker_claim.acquire(blocking=False):
        for j in range(len(sizes)):
            merge(*run(j))
        return
    pending = deque()
    stop = len(sizes)  # odd chunks from here on run on the calling thread

    def submit(j):
        nonlocal stop
        if j < stop:
            try:
                pending.append(_worker_pool().submit(run, j))
            except RuntimeError:
                # the executor takes no new work, as once the interpreter
                # shuts down; pending then still holds consecutive odd chunks
                stop = j

    try:
        submit(1)
        submit(3)
        for j in range(0, len(sizes), 2):
            merge(*run(j))
            if pending:
                # dropped once merged, so a wait cut short by an interrupt
                # still waits for the chunk below
                merge(*pending[0].result())
                pending.popleft()
            elif j + 1 < len(sizes):
                merge(*run(j + 1))
            submit(j + 5)
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
        _worker_claim.release()


def _monte_carlo(
    samples: int, rng: RandomSource, chunk, frame: int, block: int, lift: int
) -> MonteCarloEstimate:
    """Mean of ``samples`` accepted draws, made chunk by chunk.

    ``chunk(b, rng, acc)`` makes ``b`` draws of the sizes given to
    :func:`_chunk_draws` from the stream ``rng``, folds the values of the
    accepted ones into the
    :class:`~singcov.linalg.WelfordAccumulator` ``acc`` and returns the
    count of the others. Each round plans the chunks of the draws still
    missing (:func:`_round_plan`); chunk j of the run, counted over all
    rounds, draws from its own stream (:func:`_chunk_streams`), and the
    chunks' moments are merged in chunk order (:func:`_run_round`), so the
    result does not depend on which thread ran a chunk. ``chunk`` keeps no
    state between calls: its arrays are allocated afresh, and
    :func:`_prime_heap` keeps their pages on the heap. Rejected draws are
    redrawn in the next round; once rejections exceed
    ``MAX_REJECT_FRACTION`` of ``samples`` the run aborts, since that
    signals p exceeding the numerically effective rank. Every average
    taken this way is Hermitian, so the mean is projected onto its
    Hermitian part (the real part, for a lifted diagonal).
    """
    if samples < 2:
        raise ValueError("need at least two Monte Carlo samples")
    total = WelfordAccumulator()
    rejected = 0
    max_reject = max(1, int(MAX_REJECT_FRACTION * samples))
    size = _chunk_draws(frame, block, lift)
    stream = _chunk_streams(rng)
    _prime_heap()
    first = 0

    def merge(acc, bad):
        nonlocal rejected
        total.merge(acc)
        rejected += bad
        if rejected > max_reject:
            raise RuntimeError(
                f"{rejected} ill-conditioned draws exceed the "
                f"{MAX_REJECT_FRACTION:.0%} resampling budget; "
                "is p larger than the effective rank of K?"
            )

    while total.count < samples:
        sizes = _round_plan(samples - total.count, size)
        _run_round(chunk, sizes, stream, first, merge)
        first += len(sizes)
    return MonteCarloEstimate(hermitize(total.mean), total.stderr(), total.count, rejected)


@dataclass
class InvcovSpectrum:
    """Eigenvalue action of the inverse-compression average.

    The average preserves the eigenvectors of ``K``; nonzero eigenvalues
    ``d_i`` map to ``lambdas[i]`` and the zero eigenvalues map to the
    common constant ``mu``. ``stderr`` holds the Monte Carlo standard error
    of each of ``lambdas`` and ``mu_stderr`` that of ``mu``; both ``mu``
    and ``mu_stderr`` are NaN when K has full rank. ``samples`` counts the
    accepted draws and ``rejected`` the ill-conditioned draws that were
    redrawn.
    """

    lambdas: np.ndarray
    mu: float
    p: int
    stderr: np.ndarray | None = None
    samples: int = 0
    rejected: int = 0
    mu_stderr: float = float("nan")


@dataclass(frozen=True)
class LoadingParameters:
    """Diagonal loading weights: alpha scales K, beta scales I."""

    alpha: float
    beta: float

    def __post_init__(self):
        weights = (self.alpha, self.beta)
        if not all(isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"loading weights must be finite and nonnegative, got {weights}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("loading weights must not both vanish")


def cov_p_closed(k, p: int) -> np.ndarray:
    """Closed form of the compression average ``E(Phi* (Phi K Phi*) Phi)``.

    Equals ``p/((m^2-1)m) * ((mp-1) K + (m-p) Tr(K) I)``; the average
    shares eigenvectors with K, contracts toward the sphere of trace
    ``(p/m) Tr K``, and returns K itself at p = m.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    require_p(p, m)
    if m == 1:
        return k.astype(np.complex128, copy=True)
    lead = p / ((m * m - 1.0) * m)
    return hermitize(lead * ((m * p - 1.0) * k + (m - p) * np.trace(k) * np.eye(m)))


def _compression_mc(
    k, p: int, degree: int, samples: int, rng: RandomSource
) -> MonteCarloEstimate:
    """Monte Carlo mean of ``Phi* (Phi K Phi*)^degree Phi`` over Haar frames,
    lifted in full.

    ``degree`` is a positive power, with ``k`` a validated Hermitian matrix,
    or -1, the inverse, with ``k`` an ``m x r`` factor F of a positive
    semidefinite ``K = F F*``: the compressed matrix is then
    ``W = (Phi F)(Phi F)*``, which costs ``p m r`` per draw rather than
    ``p m^2``. The inverse needs an invertible W: draws whose W has a
    Frobenius condition number above ``COND_LIMIT`` are rejected and
    redrawn.
    """
    m = k.shape[0]

    def chunk(b, rng, acc):
        phi = sample_haar_stiefel_batch(p, m, b, rng)
        if degree < 0:
            rows = (phi.reshape(b * p, m) @ k).reshape(b, p, -1)  # Phi F
            w = rows @ np.swapaxes(rows, 1, 2).conj()
        else:
            rows = np.einsum("bpi,ij->bpj", phi, k, optimize=True)  # Phi K
            w = np.einsum("bpi,bqi->bpq", rows, phi.conj(), optimize=True)
        del rows  # freed, like w below, so the chunk's peak holds neither
        w = (w + np.swapaxes(w, 1, 2).conj()) / 2.0
        rejected = 0
        if degree < 0:
            w, cond = _inv_batch_hermitian(w)
            good = cond <= COND_LIMIT
            if not good.all():
                phi, w = phi[good], w[good]
                rejected = b - len(phi)
            # two matmuls, Phi* (W^-1 Phi): faster than the einsum at these shapes
            lifted = np.swapaxes(phi, 1, 2).conj() @ (w @ phi)
        else:
            w = np.linalg.matrix_power(w, degree)
            # two two-operand einsums, Phi* (W Phi): faster on small frames
            # than one three-operand einsum or two matmuls
            lifted = np.einsum("bpi,bpj->bij", phi.conj(), np.einsum("bpq,bqj->bpj", w, phi))
        acc.add_batch(lifted)
        return rejected

    return _monte_carlo(samples, rng, chunk, frame=m * p, block=p * p, lift=m * m)


def _trace_square(a):
    """``Re tr(A^2)`` of each matrix in a stack."""
    return np.einsum("bij,bji->b", a, a).real


def _invcov_diagonal_mc(d, m: int, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo mean of the diagonal of ``Phi* (Phi D Phi*)^{-1} Phi``, for
    ``D = diag(d, 0, ..., 0)`` of size m and the r positive entries ``d``,
    without QR. The mean holds the r range values and, when r < m, their
    common kernel value last.

    The lift depends on Phi only through its row span: for any m x p basis
    Z of that span it is ``Z W^{-1} Z*`` with ``W = Z* D Z = Z_r* D_r Z_r``,
    which holds only the r range rows ``Z_r`` of Z. Its diagonal is
    ``Re(z_i W^{-1} z_i*)`` over the rows z_i of Z, and its kernel value
    ``tr(W^{-1} G_k) / (m - r)`` with the kernel Gram matrix
    ``G_k = Z_k* Z_k`` of the kernel rows ``Z_k``.

    For ``2p <= m``, Z is complex Gaussian, and a chunk of b draws takes from
    its own stream (see :func:`_monte_carlo`), in this order: ``Z_r`` through
    :func:`~singcov.linalg.sample_complex_gaussian` at shape (b, r, p); if
    r < m, the radii ``t = ||Z_k||_F^2``, b standard Gamma variates of shape
    ``(m - r) p``; then, for the flagged draws below in ascending order, the
    complex Gaussians U of shape (flagged, m - r, p) that give
    ``Z_k = sqrt(t) U / ||U||_F``, the law of Z_k given t. Given t, the mean
    of ``G_k`` is ``(t / p) I``, so an unflagged draw, accepted whatever
    Z_k's direction, counts its conditional kernel value
    ``t tr(W^{-1}) / (p (m - r))``; a flagged draw counts its explicit one.
    At full rank a chunk holds the frames that a sampler chunk of its size
    would draw from that stream. For ``2p > m`` that Gaussian is too
    ill-conditioned for its Gram matrix ``G = Z* Z``, and Z is the
    orthonormal Haar frame itself, with ``G = I`` and
    ``G_k = I - Z_r* Z_r``.

    Draws are rejected exactly as in :func:`invcov_p_mc`. ``Phi D Phi*`` is
    similar to ``G^{-1} W``, so the square of its Frobenius condition
    number is ``tr((G^{-1} W)^2) tr((W^{-1} G)^2)``. On orthonormal frames
    ``G = I``, and that number is W's own ``||W||_F ||W^{-1}||_F``, with no
    screen. On Gaussian bases a screen bounds its square by
    ``s ||W^{-1}||_F^2 ||Z||_F^4``, where s sums the p largest ``d_k^2``
    (Poincare separation: the eigenvalues of a compression of D lie below
    those of D), ``||Z||_F^2 = ||Z_r||_F^2 + t >= ||G||_2``. Only the draws
    whose screen exceeds ``COND_LIMIT`` pay for G and the exact value.
    """
    r = len(d)
    kernel = m - r
    orthonormal = 2 * p > m
    rows = m if orthonormal else r
    top_sq = float(np.sort(d * d)[max(r - p, 0) :].sum())
    limit_sq = COND_LIMIT**2

    def chunk(b, rng, acc):
        if orthonormal:
            full = np.swapaxes(sample_haar_stiefel_batch(p, m, b, rng), 1, 2)
            full = np.conjugate(full, order="C")
        else:
            full = sample_complex_gaussian((b, r, p), rng)
            t = rng.generator.standard_gamma(kernel * p, b) if kernel else 0.0
        z = full[:, :r]
        zh = np.swapaxes(z.conj(), 1, 2)
        w = zh @ (z * d[:, None])
        w_inv, cond = _inv_batch_hermitian(w)
        tr_inv = np.einsum("bii->b", w_inv).real
        if orthonormal:
            # G = I, so Phi D Phi* is similar to W and shares its condition number
            good = cond <= COND_LIMIT
        else:
            # each draw's tr(W^-1 G_k), for an unflagged draw its mean given t
            kernel_trace = tr_inv * t / p
            screen = top_sq * _squared_frobenius(w_inv) * (_squared_frobenius(full) + t) ** 2
            good = np.isfinite(cond)
            flagged = np.flatnonzero(good & (screen > limit_sq))
            if len(flagged):
                g = zh[flagged] @ z[flagged]
                if kernel:
                    u = sample_complex_gaussian((len(flagged), kernel, p), rng)
                    u *= np.sqrt(t[flagged] / _squared_frobenius(u))[:, None, None]
                    g_k = np.swapaxes(u.conj(), 1, 2) @ u
                    g += g_k
                    kernel_trace[flagged] = np.einsum("bij,bji->b", w_inv[flagged], g_k).real
                w_norm_sq = _trace_square(np.linalg.solve(g, w[flagged]))
                good[flagged] = w_norm_sq * _trace_square(w_inv[flagged] @ g) <= limit_sq
        # Re(z_i W^-1 z_i*): a real dot of each row of Z W^-1 with that row of Z
        lift = (z @ w_inv).view(np.float64)
        values = np.einsum("bij,bij->bi", lift, z.view(np.float64))
        if kernel:
            if orthonormal:
                # tr(W^-1 (I - Z_r* Z_r)): the range values sum to tr(W^-1 Z_r* Z_r)
                kernel_trace = tr_inv - values.sum(axis=1)
            values = np.column_stack([values, kernel_trace / kernel])
        acc.add_batch(values[good])
        return b - acc.count

    lift = r + (kernel > 0)
    return _monte_carlo(samples, rng, chunk, frame=rows * p, block=p * p, lift=lift)


def cov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo twin of :func:`cov_p_closed` for validation."""
    k = require_hermitian(k, name="k")
    require_p(p, k.shape[0])
    return _compression_mc(k, p, 1, samples, rng)


def _require_p_below_singular_rank(p: int, rank: int, m: int):
    """On a singular K the inverse-compression average is finite only below
    its rank: from ``p = rank`` on, its kernel value ``mu`` is infinite."""
    if rank < m and p >= rank:
        raise ValueError(
            f"p={p} must lie below rank {rank} of the singular K: from p = rank on, "
            "the inverse-compression average is infinite on the kernel (mu = inf)"
        )


def invcov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo estimate of ``E(Phi* (Phi K Phi*)^{-1} Phi)``.

    Requires a positive semidefinite K, whose least eigenvalue may lie
    below zero only by the roundoff of :func:`~singcov.linalg.require_psd`.
    At full rank any ``p <= m`` is allowed, and ``p = m`` returns ``K^-1``.
    For a singular K of numeric rank ``r < m``, ``p >= r`` raises
    ``ValueError``: the lift on the kernel of K averages
    ``tr((Z_r* D_r Z_r)^{-1})`` over an r x p complex Gaussian ``Z_r``,
    where ``D_r`` holds the nonzero eigenvalues (within constant factors
    the trace of a complex inverse Wishart matrix), and its mean is
    infinite from ``p = r`` on. At ``p = r - 1`` the mean is finite but the
    second moment is not, so ``stderr`` is no valid error bar. Draws whose
    compressed matrix ``W`` has a Frobenius condition number
    ``||W||_F ||W^-1||_F`` above ``COND_LIMIT`` are rejected and redrawn;
    once rejections exceed ``MAX_REJECT_FRACTION`` of the requested sample
    count the run aborts, since that signals p exceeding the numerically
    effective rank.

    One eigendecomposition of K serves the PSD check and gives the rank
    factor ``F = U_r sqrt(d_r)`` over the r eigenvalues above the cutoff of
    :func:`~singcov.linalg.numeric_rank`, so ``K = F F*`` to roundoff. Each
    draw's compressed matrix is ``W = (Phi F)(Phi F)* = Phi K Phi*``, at a
    cost of ``p m r`` rather than ``p m^2``; its Haar frame, its full
    ``m x m`` lift and its rejection rule are those of the definition.

    Returns
    -------
    MonteCarloEstimate
        ``estimate`` is Hermitian positive definite, ``stderr`` holds
        per-entry Monte Carlo standard errors, ``rejected`` counts
        discarded draws.
    """
    dec = eig_hermitian(k)
    require_psd(dec.eigenvalues, "k")
    require_p(p, len(dec.eigenvalues))
    # the eigenvalues descend, so those above the rank cutoff come first
    rank = numeric_rank(dec.eigenvalues)
    _require_p_below_singular_rank(p, rank, len(dec.eigenvalues))
    factor = dec.eigenvectors[:, :rank] * np.sqrt(dec.eigenvalues[:rank])
    return _compression_mc(factor, p, -1, samples, rng)


def invcov_spectrum(k, p: int, samples: int, rng: RandomSource) -> InvcovSpectrum:
    """Eigenvalue map of the inverse-compression average of ``K``.

    Diagonalizes K, which must be positive semidefinite as in
    :func:`invcov_p_mc`, and runs the Monte Carlo average on the diagonal of
    eigenvalues (the average commutes with conjugation, so this loses
    nothing). For diagonal input the average is exactly diagonal, so
    only the lifted diagonal is accumulated; that trims the per-draw
    cost from m^2 p to m p^2 and makes large m practical. For ``2p <= m``
    the draws skip QR: each averages ``Z (Z* D Z)^{-1} Z*`` over a
    Gaussian basis Z of the frame's row span, of which only the r rows on
    the range of K are drawn; the kernel rows enter through one Gamma
    radius per draw, and their explicit directions only where the
    rejection rule needs them (see :func:`_invcov_diagonal_mc`). Each
    draw's ``mu`` value is its lift's mean over the kernel given that
    radius, which leaves the mean of ``mu`` as it is and lowers its
    variance. Each chunk of draws takes them from its own stream, derived
    from one key drawn from ``rng`` (see :func:`_monte_carlo`). Draws are
    rejected, and the run aborted, as in :func:`invcov_p_mc`; the result
    reports the standard errors of ``lambdas`` and ``mu``, the accepted
    draws and the rejected ones.

    For a singular K of numeric rank r < m, ``p >= r`` raises
    ``ValueError``, since the exact ``mu`` is infinite from ``p = r`` on.
    At ``p = r - 1`` the exact ``mu`` is finite, but the second moment is
    not, so neither ``stderr`` nor ``mu_stderr`` is a valid error bar (see
    :func:`invcov_p_mc`).
    """
    dec = eig_hermitian(k)
    require_psd(dec.eigenvalues, "k")
    m = len(dec.eigenvalues)
    require_p(p, m)
    # the eigenvalues descend, so those above the rank cutoff come first
    rank = numeric_rank(dec.eigenvalues)
    _require_p_below_singular_rank(p, rank, m)
    mc = _invcov_diagonal_mc(dec.eigenvalues[:rank].copy(), m, p, samples, rng)
    values = mc.estimate.real
    mu, mu_stderr = (values[rank], mc.stderr[rank]) if rank < m else (np.nan, np.nan)
    return InvcovSpectrum(
        values[:rank].copy(),
        float(mu),
        p,
        mc.stderr[:rank].copy(),
        mc.samples,
        mc.rejected,
        float(mu_stderr),
    )


def _hook_prefactor(moment: int, n: int, p: int, j: int) -> Fraction:
    """Weight ``(-1)^j (N+p-j-1)! (n-j-1)! / ((N+n-j-1)! (p-j-1)!)`` of the
    hook shape ``(N-j, 1^j)`` in the order ``N`` trace moment."""
    num = factorial(moment + p - j - 1) * factorial(n - j - 1)
    den = factorial(moment + n - j - 1) * factorial(p - j - 1)
    return (-1) ** j * Fraction(num, den)


def trace_moment(d, p: int, moment: int):
    """Exact ``E Tr((Phi D Phi*)^N)`` for diagonal ``D`` and Haar ``Phi``.

    Hook-shape expansion:
    ``sum_j (-1)^j [(N+p-j-1)!(n-j-1)!] / [(N+n-j-1)!(p-j-1)!]
    s_(N-j,1^j)(D)`` with j < min(p, N). Factorial ratios are exact
    rationals (arbitrary-precision integers make log-space evaluation
    unnecessary here), so integer or Fraction diagonals give exact
    results.

    Parameters
    ----------
    d : sequence
        Diagonal entries of D; length n >= p.
    p : int
        Compression size, ``1 <= p <= n``.
    moment : int
        Trace power N >= 1.
    """
    d = list(d)
    n = len(d)
    require_p(p, n)
    if moment < 1:
        raise ValueError("moment order must be >= 1")
    psums = power_sums(d, moment)
    total = 0
    for j in range(min(p, moment)):
        coef = _hook_prefactor(moment, n, p, j)
        total = total + coef * schur_hook_powersum(HookShape(moment, j), psums)
    return total


@dataclass
class MomentCoefficients:
    """Coefficients a_0..a_l of ``E(Phi* (Phi D Phi*)^l Phi) = sum a_k D^k``."""

    degree: int
    coeffs: list

    def evaluate_diag(self, d) -> list:
        """Diagonal entries sum_k a_k d_i^k, in the inputs' arithmetic."""
        return [sum(self.coeffs[k] * x**k for k in range(self.degree + 1)) for x in d]

    def as_matrix(self, d) -> np.ndarray:
        return np.diag(np.asarray([complex(v) for v in self.evaluate_diag(d)]))

    def trace(self, d):
        total = 0
        for v in self.evaluate_diag(d):
            total = total + v
        return total


def moment_matrix_coeffs(d, p: int, degree: int) -> MomentCoefficients:
    """Polynomial form of the compressed matrix moment of order ``degree``.

    Differentiates the order ``l + 1`` trace moment in each diagonal
    entry: the prefactors are the trace-moment factorial ratios at
    ``N = l + 1`` divided by ``l + 1``, and the per-shape derivative
    coefficients come from
    :func:`~singcov.combinatorics.schur_hook_derivative_coeffs`.
    The contraction identity ``sum_i sum_k a_k d_i^k =
    trace_moment(d, p, l)`` holds exactly in rational arithmetic.
    """
    d = list(d)
    n = len(d)
    require_p(p, n)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    big_n = degree + 1
    psums = power_sums(d, big_n)
    coeffs = [0] * big_n
    for j in range(min(p, big_n)):
        beta = _hook_prefactor(big_n, n, p, j) / big_n
        per_shape = schur_hook_derivative_coeffs(HookShape(big_n, j), psums)
        for k in range(big_n):
            coeffs[k] = coeffs[k] + beta * per_shape[k]
    return MomentCoefficients(degree, coeffs)


def diagonal_loading(k, params: LoadingParameters) -> np.ndarray:
    """Classical loading ``alpha K + beta I``."""
    k = require_hermitian(k, name="k")
    return hermitize(params.alpha * k + params.beta * np.eye(k.shape[0]))
