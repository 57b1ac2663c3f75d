r"""Unitary compression averages of covariance matrices.

For a Haar-random ``p x m`` matrix ``Phi`` with orthonormal rows, these
estimators average the compressed matrix ``Phi K Phi*`` after mapping it
back up to ``m x m``:

* ``cov_p_closed``   : ``E(Phi* (Phi K Phi*) Phi)``, in closed form.
* ``cov_p_mc``       : the same average by Monte Carlo, to check the
  closed form.
* ``invcov_p_mc``    : ``E(Phi* (Phi K Phi*)^{-1} Phi)``, by Monte Carlo.
* ``invcov_spectrum`` : the eigenvalue map of that average, exactly, as
  integrals of Poisson-binomial laws over a scale t.
* ``trace_moment``   : ``E Tr((Phi D Phi*)^N)`` for diagonal D, exactly,
  through hook-shape Schur polynomials.
* ``moment_matrix_coeffs`` : the polynomial coefficients a_k with
  ``E(Phi* (Phi D Phi*)^l Phi) = sum_k a_k D^k``.
* ``diagonal_loading`` : the classical ``alpha K + beta I``, for comparison.

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
from functools import cache
from math import comb, factorial, frexp, fsum, isfinite, ldexp, lgamma

import numpy as np

from .combinatorics import (
    HookShape,
    power_sums,
    schur_hook_derivative_coeffs,
    schur_hook_powersum,
)
from .linalg import (
    GRAM_SCHMIDT_MAX_ENTRIES,
    RandomSource,
    WelfordAccumulator,
    _fill_complex_gaussian,
    _inv_batch_hermitian,
    eig_hermitian,
    hermitize,
    numeric_rank,
    require_hermitian,
    require_int,
    require_p,
    require_psd,
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
# budget, counted as the bytes its body holds at its peak (see
# _chunk_draws). Counted so, a quarter share raised the benchmark's
# `experiment` peak RSS by 6-7% and a fifth by 5.9%, against 3.0% for a
# sixth, at which a chunk holds 2.1-2.4 MiB there. The exact map of
# invcov_spectrum takes its chunks of quadrature nodes from the same share.
_CHUNK_BYTES = 16 * 2**20
_CHUNK_SHARE = 6


def _second_core_idles() -> bool:
    """Whether a run on one thread leaves a core idle: the process may run
    on at least 2 CPUs, and numpy's OpenBLAS runs on one thread
    (``OPENBLAS_NUM_THREADS``, or else ``OMP_NUM_THREADS``, is 1).

    Only then does a run hand its chunks to the two threads of the chunk
    pool. With BLAS on its own threads, the two chunks' BLAS calls compete
    for the cores: on 2 cores, invcov_p_mc at m=100, p=50, and a Monte
    Carlo of the inverse spectrum at m=200, p=45, ran 30-60% slower than
    with one chunk at a time.
    """
    env = os.environ
    blas = env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS"))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and blas == "1"


_TWO_THREADS = _second_core_idles()


def _chunk_draws(draw_bytes: int, chunk_bytes: int = 0) -> int:
    """Draws per chunk: the chunk's share of the byte budget, less the
    ``chunk_bytes`` that a chunk holds whatever its size, over the
    ``draw_bytes`` that each of its draws adds to the chunk's peak.

    Each Monte Carlo path states both for its own chunk body, from the
    arrays that body holds at once (:func:`_compression_bytes`,
    ``ewens._injection_bytes``). Runs whose draws hold different bytes get
    different plans, and so different chunk streams and different draws.
    The exact map of :func:`invcov_spectrum` plans its chunks of quadrature
    nodes the same way, a node in place of a draw.
    """
    return max(1, (_CHUNK_BYTES // _CHUNK_SHARE - chunk_bytes) // draw_bytes)


@dataclass
class MonteCarloEstimate:
    """Sample mean plus per-entry standard error of a matrix average."""

    estimate: np.ndarray
    stderr: np.ndarray
    samples: int
    rejected: int = 0


class _ChunkStream:
    """The stream of one chunk: a ``generator``, which is all the samplers
    read of a :class:`~singcov.linalg.RandomSource`, on the SFC64 bit
    generator seeded by ``SeedSequence(key, spawn_key=(j,))``.

    SFC64 fills normals faster than the Philox of ``RandomSource``: 833
    chunks of 6 complex 150 x 45 Gaussians took 0.97 s against 1.51 s on a
    2-core VM.
    """

    __slots__ = ("generator",)

    def __init__(self, key: int, j: int):
        seq = np.random.SeedSequence(key, spawn_key=(j,))
        self.generator = np.random.Generator(np.random.SFC64(seq))


def _chunk_streams(rng: RandomSource):
    """``stream(j)``, the stream of chunk j of one run on ``rng``.

    The run draws one 128-bit key from ``rng`` and chunk j takes the
    stream ``_ChunkStream(key, j)``. Each chunk's draws depend only on the
    key and j, not on the thread that runs the chunk; two runs on one
    source get different keys, and no chunk stream is a ``substream`` of
    the caller's seed.
    """
    key = int.from_bytes(rng.generator.bytes(16), "little")
    return lambda j: _ChunkStream(key, j)


def _round_plan(draws: int, size: int) -> list:
    """Accepted draws of each chunk of a run of ``draws`` draws: full chunks
    of ``size``, then the remainder, as Python ints: a numpy integer p or
    ``samples`` makes both numpy integers, and a list cannot be repeated
    by the numpy bool ``rest > 0``."""
    draws, size = int(draws), int(size)
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


_pool = None  # (pid, executor) of the chunk pool, see _chunk_pool
_pool_locks = {}  # pid -> the lock that _chunk_pool makes the pool under
# Chunks a run keeps submitted and not merged yet: with the two pool
# threads busy, two more wait queued, so a thread that ends a chunk finds
# the next one at once. On 2 cores with BLAS on one thread, a bound of 2
# ran a Monte Carlo of the inverse spectrum at m=200, p=45 7-16% slower; 3
# and 8 ran as fast.
_UNMERGED = 4


def _chunk_pool() -> ThreadPoolExecutor:
    """The two-thread executor that every run of several chunks runs its
    chunks on, made at the first call and then kept (a forked child, which
    does not inherit its threads, makes its own). Threads that make their
    first run at once share one executor, and concurrent runs share its two
    threads, so chunks never run on more than two threads at once.
    """
    global _pool
    # one lock per process, added atomically: a forked child never waits on
    # a lock that a thread of its parent held at the fork
    with _pool_locks.setdefault(os.getpid(), threading.Lock()):
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), ThreadPoolExecutor(2, thread_name_prefix="singcov-chunks"))
        return _pool[1]


def _run_chunks(run, chunks: int, merge):
    """Pass ``run(j)`` of each chunk j < ``chunks`` to ``merge`` in the
    calling thread, strictly in chunk order.

    With ``_TWO_THREADS`` and more than one chunk, the calling thread
    submits the chunks in order to :func:`_chunk_pool` and merges them as
    they end, keeping at most ``_UNMERGED`` submitted and not merged yet:
    chunk j is submitted once chunk ``j - _UNMERGED`` is merged. Otherwise
    the calling thread runs every chunk itself. A chunk never starts a
    Monte Carlo run, so no pool thread waits on its own pool. When
    ``merge`` or a chunk raises, the run cancels the queued chunks and
    waits for those in flight before it raises. Once the interpreter shuts
    down, the calling thread runs the chunks it could not submit.
    """
    if chunks == 1 or not _TWO_THREADS:
        for j in range(chunks):
            merge(*run(j))
        return
    pending = deque()

    def merge_first():
        # dropped once merged, so a wait cut short by an interrupt still
        # waits for the chunk below
        merge(*pending[0].result())
        pending.popleft()

    try:
        for j in range(chunks):
            if len(pending) == _UNMERGED:
                merge_first()
            try:
                pending.append(_chunk_pool().submit(run, j))
            except RuntimeError:
                # the executor takes no new work, as once the interpreter
                # shuts down
                while pending:
                    merge_first()
                merge(*run(j))
        while pending:
            merge_first()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _monte_carlo(
    samples: int, rng: RandomSource, chunk, draw_bytes: int, chunk_bytes: int = 0
) -> MonteCarloEstimate:
    """Mean of ``samples`` accepted draws, made chunk by chunk.

    ``chunk(b, rng, acc)`` makes ``b`` draws from the stream ``rng`` and
    folds the values of the accepted ones into the
    :class:`~singcov.linalg.WelfordAccumulator` ``acc``, holding at most
    ``chunk_bytes`` plus ``draw_bytes`` per draw at once (see
    :func:`_chunk_draws`). The run is planned once, by ``samples`` and
    those bytes alone (:func:`_round_plan`): chunk j holds its share of the
    accepted draws, drawn from its own stream (:func:`_chunk_streams`), and
    redraws its rejected draws from the rest of that stream. The chunks' moments
    are merged in chunk order (:func:`_run_chunks`), so the result does not
    depend on which thread ran a chunk. ``chunk`` may run on a thread of
    the chunk pool, so it starts no Monte Carlo run itself; it keeps no
    state between calls: its arrays are allocated afresh, and
    :func:`_prime_heap` keeps their pages on the heap. Once rejections
    exceed ``MAX_REJECT_FRACTION`` of ``samples`` the run aborts, since
    that signals p exceeding the numerically effective rank; a chunk stops
    redrawing once its own rejections do. Every average taken this way is
    Hermitian, so the mean is projected onto its Hermitian part.
    """
    require_int(samples, "samples")
    if samples < 2:
        raise ValueError("need at least two Monte Carlo samples")
    total = WelfordAccumulator()
    rejected = 0
    max_reject = max(1, int(MAX_REJECT_FRACTION * samples))
    sizes = _round_plan(samples, _chunk_draws(draw_bytes, chunk_bytes))
    stream = _chunk_streams(rng)
    _prime_heap()

    def run(j):
        acc, rng, drawn = WelfordAccumulator(), stream(j), 0
        while acc.count < sizes[j] and drawn - acc.count <= max_reject:
            b = sizes[j] - acc.count
            chunk(b, rng, acc)
            drawn += b
        return acc, drawn - acc.count

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

    _run_chunks(run, len(sizes), merge)
    return MonteCarloEstimate(hermitize(total.mean), total.stderr(), total.count, rejected)


@dataclass
class InvcovSpectrum:
    """Eigenvalue action of the inverse-compression average, exactly.

    The average preserves the eigenvectors of ``K``; its r positive
    eigenvalues ``d_i`` map to ``lambdas[i]`` and its zero eigenvalues to the
    common constant ``mu``, which is NaN when K has full rank.
    """

    lambdas: np.ndarray
    mu: float
    p: int


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


def _plane_products(a, x):
    """``A X`` for each draw of a chunk held as planes, the draws along the
    last axis: ``a`` of shape (n, q, b) and ``x`` of shape (q, l, b) give
    (n, l, b), as q multiply-adds over the batch."""
    out = a[:, 0, None] * x[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * x[j]
    return out


def _compression_lifts(phi, k, degree: int):
    """Lifts ``Phi* W^degree Phi`` of a chunk of frames ``phi`` (b, p, m), as
    a (b', m, m) stack, for the compressed matrix ``W = Phi K Phi*`` of a
    positive ``degree``, or ``W = (Phi F)(Phi F)*`` of the factor ``k = F``
    at degree -1. At degree -1 the b' draws kept are those whose W, the
    matrix inverted, has a Frobenius condition number of at most
    ``COND_LIMIT``. A W that LU refused has a condition number of inf and a
    zero inverse (see :func:`~singcov.linalg._inv_batch_hermitian`), so its
    draw is rejected.

    At degree -1 ``phi`` may hold the conjugate transposes ``G*`` of m x p
    Gaussian bases G of the frames' row spans in place of the frames. The
    lift ``G (G* K G)^{-1} G*`` is then the frame's, and W is ``G* K G``.

    ``W^degree Phi`` is ``degree`` products with W, or one with ``W^-1``,
    and the lift ``Phi* (.)`` one more. At a positive degree, frames whose
    lift costs ``p m^2 <= 128`` multiply-adds per draw (so p <= 5) are held
    as p planes of shape (m, b): W is formed row by row as multiply-sums
    over the planes, and each product as p multiply-adds over the batch
    (:func:`_plane_products`). A batched matmul of such tiny matrices costs
    more in per-matrix overhead than in arithmetic; 128 is the measured
    crossover (README, "Haar frame sampling"). Larger frames, and every
    frame at degree -1, take batched matmuls.
    """
    b, p, m = phi.shape
    if degree > 0 and p * m * m <= 128:
        phi = np.ascontiguousarray(np.moveaxis(phi, 0, -1))
        rows = np.matmul(k.T, phi)  # the planes of Phi K
        conj = phi.conj()
        w = np.empty((b, p, p), dtype=np.complex128)
        for i, row in enumerate(rows):
            w[:, i] = (row * conj).sum(axis=1).T
        del rows
        w = (w + np.swapaxes(w, 1, 2).conj()) / 2.0
        w = np.ascontiguousarray(np.moveaxis(w, 0, -1))
        x = phi
        del phi  # so the planes are freed once the first product is formed
        for _ in range(degree):
            x = _plane_products(w, x)
        return np.moveaxis(_plane_products(np.swapaxes(conj, 0, 1), x), -1, 0)
    rows = (phi.reshape(b * p, m) @ k).reshape(b, p, -1)  # Phi K or Phi F
    w = rows @ np.swapaxes(rows if degree < 0 else phi, 1, 2).conj()
    del rows  # freed, like w below, so the chunk's peak holds neither
    w = (w + np.swapaxes(w, 1, 2).conj()) / 2.0
    if degree < 0:
        w_inv, cond = _inv_batch_hermitian(w)
        good = cond <= COND_LIMIT
        w = w_inv
        del w_inv  # so that `del w` below frees it
        if not good.all():
            phi, w = phi[good], w[good]
    x = phi
    for _ in range(abs(degree)):
        x = w @ x
    del w
    # Phi* (W^l Phi) as (W^l Phi)* Phi for the Hermitian W, conjugated in place
    return np.swapaxes(np.conjugate(x, out=x), 1, 2) @ phi


def _compression_mc(
    k, p: int, degree: int, samples: int, rng: RandomSource, gaussian: bool = False
) -> MonteCarloEstimate:
    """Monte Carlo mean of ``Phi* (Phi K Phi*)^degree Phi`` over Haar frames,
    lifted in full.

    ``degree`` is a positive power, with ``k`` a validated Hermitian matrix,
    or -1, the inverse, with ``k`` an ``m x r`` factor F of a positive
    semidefinite ``K = F F*``: the compressed matrix is then
    ``W = (Phi F)(Phi F)*``, which costs ``p m r`` per draw rather than
    ``p m^2``. The inverse needs an invertible W: draws whose W has a
    Frobenius condition number above ``COND_LIMIT`` are rejected and
    redrawn. Each chunk's lifts are those of :func:`_compression_lifts`.

    With ``gaussian``, each draw at degree -1 lifts the m x p complex
    Gaussian G that :func:`~singcov.linalg.sample_haar_stiefel_batch` would
    orthonormalize into its frame, drawn from the same stream, and skips
    the QR; its W is ``(G* F)(G* F)*``.
    """
    m = k.shape[0]

    def rows(b, rng):
        if not gaussian:
            return sample_haar_stiefel_batch(p, m, b, rng)
        # the rows G* of the sampler's Gaussians G, not orthonormalized,
        # filled through the transposed view that holds G's entries
        g_rows = np.empty((b, p, m), dtype=np.complex128)
        _fill_complex_gaussian(np.swapaxes(g_rows, 1, 2), rng, conjugate=True)
        return g_rows

    def chunk(b, rng, acc):
        # the rows are freed once lifted, so Welford's pass does not hold them
        acc.add_batch(_compression_lifts(rows(b, rng), k, degree))

    return _monte_carlo(samples, rng, chunk, *_compression_bytes(m, p, degree))


def _compression_bytes(m: int, p: int, degree: int):
    """``(draw_bytes, chunk_bytes)`` of a :func:`_compression_mc` chunk of
    p x m frames (see :func:`_chunk_draws`).

    A draw holds at most: on planes, three frames (the sampler's, their
    conjugates and a product) with the lift and one term of it, which
    outweigh the products' five frames; else the lift phase's frame,
    ``(W^l Phi)*`` and lift, or the sampler's four frames (Gram-Schmidt and
    LAPACK QR hold the Gaussian, its copy and two more, which at p > m/2
    outweighs the lift); and one p x p stack. The Gaussian bases of
    :func:`_lifts_gaussian` hold no QR, but at their ``2p <= m`` the four
    frames never outweigh the lift phase, so their plan is the frames'. The
    chunk holds the Welford fold's batch mean and sum of squares and, on
    planes, the buffers of numpy's strided loops: up to two operands of
    ``np.getbufsize()`` complex entries (one was seen, in the products and
    in the lift).
    """
    frame, lift, chunk = 16 * m * p, 16 * m * m, 24 * m * m
    if degree > 0 and p * m * m <= 128:
        return 3 * frame + 2 * lift + 16 * p * p, chunk + 32 * np.getbufsize()
    return max(2 * frame + lift, 4 * frame) + 16 * p * p, chunk


def cov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo twin of :func:`cov_p_closed` for validation."""
    k = require_hermitian(k, name="k")
    require_p(p, k.shape[0])
    return _compression_mc(k, p, 1, samples, rng)


def _inverse_path_rank(eigenvalues, p: int):
    """Numeric rank and scale of a positive semidefinite K, from its
    eigenvalues in descending order. On a singular K the inverse-compression
    average is finite only below its rank: from ``p = rank`` on, its kernel
    value ``mu`` is infinite.

    The scale ``s``, the largest power of 4 not above the largest eigenvalue,
    brings that eigenvalue into [1, 4). The inverse paths average ``K / s``,
    whose average is ``s`` times that of K, and divide the result by ``s``;
    without it the squared Frobenius norms of the rejection rule overflow or
    underflow beyond about ``1e+-152``, and every draw is rejected. A power
    of 4 leaves every result bit as it is, since ``sqrt(d / s)`` is exact too.
    """
    require_psd(eigenvalues, "k")
    m = len(eigenvalues)
    require_p(p, m)
    # the eigenvalues descend, so those above the rank cutoff come first
    rank = numeric_rank(eigenvalues)
    if rank < m and p >= rank:
        raise ValueError(
            f"p={p} must lie below rank {rank} of the singular K: from p = rank on, "
            "the inverse-compression average is infinite on the kernel (mu = inf)"
        )
    return rank, ldexp(1.0, 2 * ((frexp(eigenvalues[0])[1] - 1) // 2))


def _lifts_gaussian(p: int, m: int) -> bool:
    """Whether :func:`invcov_p_mc` lifts the sampler's m x p Gaussians in place
    of their frames: above ``GRAM_SCHMIDT_MAX_ENTRIES`` entries, where the
    sampler takes LAPACK QR, and tall, ``2p <= m``, so well conditioned."""
    return m * p > GRAM_SCHMIDT_MAX_ENTRIES and 2 * p <= m


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

    At the shapes of :func:`_lifts_gaussian`, a draw skips the QR: it lifts
    the m x p complex Gaussian G, read from the same chunk stream, that
    :func:`~singcov.linalg.sample_haar_stiefel_batch` would orthonormalize
    into its frame Phi. The lift depends on Phi only through its row span,
    so ``Phi* (Phi K Phi*)^-1 Phi = G W^-1 G*`` with ``W = (G* F)(G* F)*``.
    The draw is kept by the condition number of this W, the matrix that is
    inverted, which is at most ``kappa_2(G)^2`` times that of its frame's
    ``Phi K Phi*``; near the numerically effective rank it may thus reject
    a draw whose frame would be kept. At the other shapes each draw lifts
    its frame: Gram-Schmidt frames are cheap, and at ``2p > m`` G is too
    ill-conditioned. Either way the draws and the chunk plan are the same.

    Returns
    -------
    MonteCarloEstimate
        ``estimate`` is Hermitian positive definite, ``stderr`` holds
        per-entry Monte Carlo standard errors, ``rejected`` counts
        discarded draws.
    """
    dec = eig_hermitian(k)
    rank, scale = _inverse_path_rank(dec.eigenvalues, p)
    d = dec.eigenvalues[:rank] / scale
    factor = dec.eigenvectors[:, :rank] * np.sqrt(d)
    gaussian = _lifts_gaussian(p, len(dec.eigenvalues))
    mc = _compression_mc(factor, p, -1, samples, rng, gaussian)
    return MonteCarloEstimate(mc.estimate / scale, mc.stderr / scale, mc.samples, mc.rejected)


def _count_ratios(d):
    """The ratios ``rho_k = e_k(d) / e_(k-1)(d)``, k = 1 .. r, of the
    elementary symmetric polynomials of the r positive eigenvalues ``d``.

    ``Pr[N(t) = k] = e_k(d) t^(r - k) / prod_i (t + d_i)`` for the count
    ``N(t)`` of :func:`_count_cdfs`, so ``Pr[N = k] / Pr[N = k - 1] =
    rho_k / t`` at every t, and the ratios are made once per map; the
    weights of :func:`_success_weights` are made from them too. Adding
    the eigenvalue ``d_j`` to the terms before it sends ``rho_1`` to
    ``rho_1 + d_j`` and ``rho_k`` to
    ``(rho_k + d_j) rho_(k-1) / (rho_(k-1) + d_j)``, with ``rho_k = 0``
    until term k arrives. Every step adds, multiplies and divides positive
    numbers, so no digits cancel; and the ratios stay within
    ``[d_min / r, r d_max]`` where ``e_k`` itself would overflow (``e_550``
    of 1100 ones is ``C(1100, 550)``, about 1e330).

    The law far from its mode is a product of many ratios, whose roundings
    add up: run in float64, the product of the ratios between two counts
    drifted by up to 5e-14 at r = 600 (against 50-digit mpmath). So the
    recursion runs in ``np.longdouble``, whose 64-bit mantissa on x86-64
    leaves each ratio within an ulp of its exact value once rounded to
    float64. That cost nothing at r = 150 (0.5 ms, mostly call overhead)
    and took 18 ms against 4 ms at r = 1100, on a 2-vCPU x86-64 VM. Where
    ``np.longdouble`` is float64, the law and the weights keep the float64
    figure.

    A step adds ``d_j`` to ``rho_0 .. rho_j`` once, which serves both sums,
    and writes into two preallocated temporaries and then into the ratios:
    three ufunc calls and no new array.
    """
    d = d.astype(np.longdouble)
    rho, plus, top = np.zeros_like(d), np.empty_like(d), np.empty_like(d)
    for j, dj in enumerate(d):
        # rho_k <- (rho_k + d_j) rho_(k-1) / (rho_(k-1) + d_j), k = 1 .. j
        s = np.add(rho[: j + 1], dj, out=plus[: j + 1])
        np.multiply(s[1:], rho[:j], out=top[:j])
        np.divide(top[:j], s[:j], out=rho[1 : j + 1])
        rho[0] = s[0]
    return rho.astype(np.float64)


def _count_cdfs(ratios, p: int, t):
    """``Pr[N(t) <= p - 1]`` and ``Pr[N(t) = p]`` at the nodes ``t``, where
    ``N(t)`` sums independent Bernoulli variables of success probabilities
    ``d_i / (d_i + t)``, from the ratios of :func:`_count_ratios`.

    ``Pr[N = k] / Pr[N = k - 1] = rho_k / t`` descends in k, since the law
    is log-concave (Newton's inequalities). So the law on ``0 .. r`` is built
    outward from its mode M, where ``rho_k >= t`` exactly for k <= M: above
    M by cumulative products of ``min(rho_k / t, 1)``, below it by reversed
    cumulative products of ``min(t / rho_k, 1)``, so every factor is at most
    1. The counts below p and those from p on are then summed in order, in
    place, and divided by their total. No logarithm and no subtraction
    enter, so no digits cancel, and only terms below 2^-1074 of the mode
    underflow. A node holds the law and its factors, ``8 (2 r + 1)`` bytes,
    and its values are the same bits whatever the other nodes of its chunk.
    """
    law = np.empty((len(ratios) + 1, len(t)))
    law[-1] = 1.0
    factor = t / ratios[:, None]
    np.minimum(factor, 1.0, out=factor)
    np.multiply.accumulate(factor[::-1], axis=0, out=law[-2::-1])
    np.divide(ratios[:, None], t, out=factor)
    np.minimum(factor, 1.0, out=factor)
    law[1:] *= np.multiply.accumulate(factor, axis=0, out=factor)
    below = np.add.accumulate(law[:p], axis=0, out=law[:p])[-1]
    total = below + np.add.accumulate(law[p:], axis=0, out=law[p:])[-1]
    return below / total, law[p] / total


def _success_weights(ratios, d, p: int):
    """``w_j = Pr[B_j = 1 | N = p]`` for the success ``B_j`` of term j of
    ``N(t)`` (see :func:`_count_cdfs`), from the ratios of
    :func:`_count_ratios`.

    Given ``N = p``, the set S of successes has the law proportional to
    ``prod_(i in S) d_i`` at every t, so ``w_j = d_j e_(p-1)(d_-j) / e_p(d)``
    and ``Pr[N_-j <= p - 1] = Pr[N <= p - 1] + w_j Pr[N = p]`` at every t.
    With ``g_k = d_j e_(k-1)(d_-j) / e_k(d)``, the identity
    ``e_k(d) = e_k(d_-j) + d_j e_(k-1)(d_-j)`` gives
    ``g_k = (d_j / rho_k) (1 - g_(k-1))`` from ``g_0 = 0``, and for
    ``f_k = 1 - g_k`` the reverse ``f_(k-1) = (1 - f_k) rho_k / d_j`` from
    ``f_r = 0``. The ratios descend in k, so for ``d_j < rho_p`` the first
    runs up to ``w_j = g_p`` with factors ``d_j / rho_k`` below 1, and
    otherwise the second runs down to ``w_j = 1 - f_p`` with factors
    ``rho_k / d_j`` at most 1: an error is never amplified, and no step
    takes a difference of nearly equal numbers. So ``0 < w <= 1``, and at
    ``p = r`` no step runs and w is 1. The weights are as accurate as the
    ratios.
    """
    up = d < ratios[p - 1]
    low, high = d[up], d[~up]
    g, f = np.zeros_like(low), np.zeros_like(high)
    for rho in ratios[:p]:
        g = low / rho * (1.0 - g)
    for rho in ratios[p:][::-1]:
        f = rho / high * (1.0 - f)
    w = np.empty_like(d)
    w[up], w[~up] = g, 1.0 - f
    return w


def _node_cdfs(ratios, p: int, w, t):
    """The CDFs of the exact map at the nodes ``t``, as an (r + 1, n) array:
    row j < r holds ``Pr[N_-j(t) <= p - 1] = Pr[N <= p - 1] + w_j Pr[N = p]``
    for the weights w of :func:`_success_weights`, and row r holds
    ``Pr[N(t) <= p - 1]`` (see :func:`_count_cdfs` for the ratios)."""
    below, at_p = _count_cdfs(ratios, p, t)
    return np.vstack([below + w[:, None] * at_p, below])


# The exact map's quadrature (see _map_levels): the coarse step, the padding in
# log t below the least eigenvalue and above their sum, the share of an
# integral left out at either end, and the cap on the halvings of the step.
_COARSE_STEP = 1.0
_PAD = 42.0
_NEGLIGIBLE = 2.0**-60
_MAX_HALVINGS = 10
# Euler-Maclaurin terms of the closed-form tail (see _tail_series): with
# seven, B_2 .. B_14, the first term left out is at most 4e-22 of the tail
# at every step h <= 1/8, below _NEGLIGIBLE, and each halving of a coarser
# step divides it by 2^16 or more.
_TAIL_TERMS = 7


@cache
def _tail_table() -> np.ndarray:
    """Row k - 1 holds ``B_2k / (2k)!`` times the coefficients of
    ``g^(2k-1) / w`` in the monomials ``u^a v^(2k-a)``, a = 0 .. 2k, for the
    ``g``, u, v and w of :func:`_tail_series`, zero beyond a = 2k. Made
    exactly in integers and rationals at the first call, and read-only."""
    bernoulli = [Fraction(1)]
    for n in range(1, 2 * _TAIL_TERMS + 1):
        bernoulli.append(-sum(comb(n + 1, i) * b for i, b in enumerate(bernoulli)) / (n + 1))
    table = np.zeros((_TAIL_TERMS, 2 * _TAIL_TERMS + 1))
    poly = [0, 1]  # g / w = u
    for n in range(1, 2 * _TAIL_TERMS):
        # d/ds (w u^a v^b) = w (a u^a v^(b+1) - (b+1) u^(a+1) v^b), with a + b = n
        step = [0] * (n + 2)
        for a, coef in enumerate(poly):
            step[a] += a * coef
            step[a + 1] -= (n - a + 1) * coef
        poly = step
        if n % 2:
            scale = bernoulli[n + 1] / factorial(n + 1)
            table[n // 2, : n + 2] = [float(scale * coef) for coef in poly]
    table.flags.writeable = False
    return table


def _tail_series(t, c):
    """``tail(h)``: the trapezoid sum in ``s = log t`` of ``g(s) = t / (t + c)^2``
    at the step h from the node ``s = log t`` on, that node at half weight.

    That is ``int_s^inf g = 1 / (t + c)`` less the Euler-Maclaurin terms
    ``sum_k B_2k h^2k / (2k)! g^(2k-1)(s)``, k = 1 .. ``_TAIL_TERMS``; g and
    its derivatives vanish at infinity. With ``u = t / (t + c)``,
    ``v = c / (t + c)`` and ``w = 1 / (t + c)``, ``g = u w`` and
    ``du/ds = u v``, ``dv/ds = -u v``, ``dw/ds = -u w``, so each derivative
    is w times a polynomial in u and v (see :func:`_tail_table`): at c = 0,
    ``(-1)^n / t``. On ``u + v = 1`` the polynomials stay below 1.3e4 in
    size, so each term is bounded relative to ``w`` whatever c.
    """
    w = 1.0 / (t + c)
    powers = np.arange(2 * _TAIL_TERMS + 1)[:, None]
    u, v = (t * w) ** powers, (c * w) ** powers
    # row k multiplies the monomials u^a v^(2k+2-a) of degree 2k + 2
    terms = np.array(
        [row[: 2 * k + 3] @ (u[: 2 * k + 3] * v[2 * k + 2 :: -1]) for k, row in enumerate(_tail_table())]
    )
    orders = 2 * np.arange(1, _TAIL_TERMS + 1)
    return lambda h: w * (1.0 - h**orders @ terms)


def _map_levels(d, p: int, kernel: bool):
    """Trapezoid sums in ``s = log t`` of the exact map of the positive
    eigenvalues ``d``, at the steps ``1, 1/2, 1/4, ...``: yields ``(h, values)``
    with the r range values and, given ``kernel``, the kernel value last.

    The integrands are ``Pr[N_-j <= p - 1] t / (t + d_j)^2`` and
    ``Pr[N <= p - 1] / t`` (see :func:`_node_cdfs`). Both are ``C g_c`` for
    a CDF C and ``g_c = t / (t + c)^2``, with c = 0 for the kernel. A coarse
    grid from ``_PAD`` below the least eigenvalue to ``_PAD`` above their sum
    finds the node ``s_hi``, the first where
    ``Pr[N >= p] <= (sum_i d_i / (d_i + t))^p / p!`` falls below
    ``_NEGLIGIBLE``. Above it C is 1 to that share, so the sums end there:
    ``s_hi``, a node at every step, takes half weight, and the nodes above it
    are replaced by the closed form of :func:`_tail_series`, the integral
    ``1 / (t_hi + c)`` of ``g_c`` less its Euler-Maclaurin end corrections.
    Those leave out the derivatives of ``1 - C``, of order
    ``(p h)^n _NEGLIGIBLE``. No integrand is evaluated above ``s_hi``.
    Below, the nodes are dropped up to the last coarse node at which the
    coarse sums of every integrand stay within ``_NEGLIGIBLE`` of its coarse
    integral; the integrands decay like ``e^s`` there, so that end needs no
    correction. Each halving adds the midpoints between the two ends of
    the last grid, so the finest grid's nodes are the whole cost: at the
    ``spectrum`` workload's K (m = 200, p = 45) 51 coarse nodes and 90
    midpoints over four halvings.

    The ratios of :func:`_count_ratios` are made once, and the weights of
    :func:`_success_weights` from them, so no node runs a pass over the
    eigenvalues.
    Nodes go in chunks of the Monte Carlo chunk share, by the bytes that a
    node holds in its count law and in its integrand values. The values of
    each level are added to the sums node after node, so the map has the
    same bits whatever the chunks. The sums are carried in ``np.longdouble``:
    in float64 the rounding of a few hundred additions left ``1e-9 I`` at
    m = 50, p = 49 five ulps from ``p / m`` even with exactly rounded node
    values, and in extended precision one.
    """
    r = len(d)
    c = np.append(d, 0.0) if kernel else d
    step = _COARSE_STEP
    low = np.log(d.min()) - _PAD
    top = int(np.ceil((np.log(d.sum()) + _PAD - low) / step))
    coarse = low + step * np.arange(top + 1)
    t = np.exp(coarse)
    mean = (d[:, None] / (d[:, None] + t)).sum(axis=0)
    hi = int(np.argmax(p * np.log(mean) - lgamma(p + 1) <= np.log(_NEGLIGIBLE)))
    coarse = coarse[: hi + 1]
    tail = _tail_series(t[hi], c)
    ratios = _count_ratios(d)
    w = _success_weights(ratios, d, p)
    # nodes per chunk: the count law, then the CDF rows and the integrands,
    # or the integrands and their running sums in np.longdouble (16 bytes a
    # value on x86-64)
    wide = _chunk_draws(8 * (2 * r + 1 + 4 * len(c)))

    def integrands(s):
        # at a chunk of nodes s up to s_hi
        t = np.exp(s)
        return t / (t + c[:, None]) ** 2 * _node_cdfs(ratios, p, w, t)[: len(c)]

    def fold(total, s):
        # total plus the integrands at the nodes s, one node after another
        for a in range(0, len(s), wide):
            f = integrands(s[a : a + wide]).astype(np.longdouble)
            f[:, 0] += total
            total = np.add.accumulate(f, axis=1)[:, -1]
        return total

    f = np.hstack([integrands(coarse[a : a + wide]) for a in range(0, len(coarse), wide)])
    f[:, -1] /= 2
    cover = step * np.cumsum(f, axis=1) <= _NEGLIGIBLE * (step * f.sum(axis=1) + tail(step))[:, None]
    lo = max(int(np.argmin(cover.all(axis=0))) - 1, 0)
    total = f[:, lo:].sum(axis=1, dtype=np.longdouble)
    nodes = hi - lo
    yield step, (step * total + tail(step)).astype(np.float64)
    for _ in range(_MAX_HALVINGS):
        total = fold(total, coarse[lo] + step * (np.arange(nodes) + 0.5))
        step, nodes = step / 2, 2 * nodes
        yield step, (step * total + tail(step)).astype(np.float64)


def _exact_map(d, p: int, kernel: bool):
    """The first level of :func:`_map_levels` that agrees with the one
    before to ``1e-13`` in every value and keeps ``sum_i d_i lambda_i = p`` to
    ``1e-13 p``; a map that no step up to ``2^-_MAX_HALVINGS`` meets raises."""
    last = None
    for step, values in _map_levels(d, p, kernel):
        if last is not None and (np.abs(values - last) <= 1e-13 * values).all():
            if abs(fsum(d * values[: len(d)]) - p) <= 1e-13 * p:
                return values
        last = values
    raise RuntimeError(
        f"the inverse-compression integral did not converge at step {step}: "
        f"successive steps or sum_i d_i lambda_i = {p} disagree beyond 1e-13"
    )


def invcov_spectrum(k, p: int, samples=None, rng=None) -> InvcovSpectrum:
    """Exact eigenvalue map of the inverse-compression average of ``K``.

    The average ``E(Phi* (Phi K Phi*)^{-1} Phi)`` shares the eigenvectors of
    K, which must be positive semidefinite as in :func:`invcov_p_mc`; only its
    eigenvalues remain. With d the r positive eigenvalues of K, ``N(t)`` a sum
    of independent Bernoulli variables of success probabilities
    ``d_i / (d_i + t)`` and ``N_-j`` the same sum without term j:

    * ``lambda_j = int_0^inf Pr[N_-j(t) <= p - 1] / (t + d_j)^2 dt``;
    * ``mu = int_0^inf Pr[N(t) <= p - 1] / t^2 dt``.

    This is the gradient of Chiani, Win & Zanella's determinant ratio for
    ``E log det(Z* D Z)`` (IEEE Trans. Inf. Theory 49(10), 2003), with
    ``log z`` written as an integral over t, so that every term is positive.
    The integrals are trapezoid sums in ``log t`` (see :func:`_map_levels`)
    that end at the node ``t_hi`` above which every CDF is 1 to ``2^-60``;
    the rest, ``int_(t_hi)^inf dt / (t + d_j)^2`` or ``dt / t^2`` for mu, is
    taken in closed form with its Euler-Maclaurin end corrections (see
    :func:`_tail_series`). The step is halved until two successive steps
    agree to ``1e-13`` and ``sum_i d_i lambda_i = p`` holds to ``1e-13 p``;
    a map that does not converge raises ``RuntimeError``. The law of N at a
    node is built from the ratios ``e_k(d) / e_(k-1)(d)`` of the elementary
    symmetric polynomials, which do not depend on t and are made once per
    map (see :func:`_count_ratios`), so a node costs O(r) arithmetic and no
    pass over the eigenvalues (see :func:`_count_cdfs`). The CDF of each
    ``N_-j`` is that of N plus ``w_j Pr[N = p]``, with weights w read from
    the same ratios (see :func:`_success_weights`). Only the eigenvalues of
    K are computed.

    For a singular K of numeric rank r < m, ``p >= r`` raises ``ValueError``:
    near ``t = 0``, ``Pr[N <= p - 1]`` behaves like ``t^(r - p + 1)``, so
    ``mu`` is finite exactly when p < r. At full rank ``mu`` is NaN. K is
    scaled as in :func:`invcov_p_mc` (see :func:`_inverse_path_rank`).

    ``samples`` and ``rng`` are ignored: the map is exact. They remain
    only because the ``spectrum`` workload of ``perfbench`` and its test
    still pass them, and go once that workload is retargeted.
    """
    eigenvalues = np.linalg.eigvalsh(require_hermitian(k, name="k"))[::-1]
    rank, scale = _inverse_path_rank(eigenvalues, p)
    kernel = rank < len(eigenvalues)
    values = _exact_map(eigenvalues[:rank] / scale, p, kernel) / scale
    return InvcovSpectrum(values[:rank], float(values[rank]) if kernel else float("nan"), p)


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
