r"""Unitary compression averages of covariance matrices.

For a Haar-random ``p x m`` matrix ``Phi`` with orthonormal rows, these
estimators average the compressed matrix ``Phi K Phi*`` after mapping it
back up to ``m x m``:

* ``cov_p_closed``   : ``E(Phi* (Phi K Phi*) Phi)``, in closed form.
* ``cov_p_mc``       : the same average by Monte Carlo, to check the
  closed form.
* ``invcov_p_mc``    : ``E(Phi* (Phi K Phi*)^{-1} Phi)``, by Monte Carlo.
* ``invcov_spectrum`` : the eigenvalue map of that average, by Monte Carlo
  on the diagonal of eigenvalues of K.
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
from math import factorial, frexp, isfinite, ldexp

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
# budget, counted as the bytes its body holds at its peak (see
# _chunk_draws). Counted so, a quarter share raised the benchmark's
# `experiment` peak RSS by 6-7% and a fifth by 5.9%, against 3.0% for a
# sixth, at which a chunk holds 2.1-2.4 MiB there and `spectrum` keeps
# its 6 draws per chunk.
_CHUNK_BYTES = 16 * 2**20
_CHUNK_SHARE = 6


def _second_core_idles() -> bool:
    """Whether a run on one thread leaves a core idle: the process may run
    on at least 2 CPUs, and numpy's OpenBLAS runs on one thread
    (``OPENBLAS_NUM_THREADS``, or else ``OMP_NUM_THREADS``, is 1).

    Only then does a run hand its chunks to the two threads of the chunk
    pool. With BLAS on its own threads, the two chunks' BLAS calls compete
    for the cores: on 2 cores, invcov_spectrum at m=200, p=45 and
    invcov_p_mc at m=100, p=50 ran 30-60% slower than with one chunk at a
    time.
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
    :func:`_diagonal_bytes`, ``ewens._injection_bytes``). Runs whose draws
    hold different bytes get different plans, and so different chunk
    streams and different draws.
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

    SFC64 fills normals faster than the Philox of ``RandomSource``: the
    Gaussian fill of ``invcov_spectrum(m=200, p=45)`` on a rank-150 K, 833
    chunks of 6 draws, took 0.97 s against 1.51 s on a 2-core VM.
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
    of ``size``, then the remainder."""
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
# ran invcov_spectrum at m=200, p=45 7-16% slower; 3 and 8 ran as fast.
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
    Hermitian, so the mean is projected onto its Hermitian part (the real
    part, for a lifted diagonal).
    """
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


def _plane_products(a, x):
    """``A X`` for each draw of a chunk held as planes, the draws along the
    last axis: ``a`` of shape (n, q, b) and ``x`` of shape (q, l, b) give
    (n, l, b), as q multiply-adds over the batch."""
    out = a[:, 0, None] * x[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * x[j]
    return out


def _compression_lifts(phi, k, degree: int, keep=None):
    """Lifts ``Phi* W^degree Phi`` of a chunk of frames ``phi`` (b, p, m), as
    a (b', m, m) stack, for the compressed matrix ``W = Phi K Phi*`` of a
    positive ``degree``, or ``W = (Phi F)(Phi F)*`` of the factor ``k = F``
    at degree -1. At degree -1 the b' draws kept are those whose W has a
    Frobenius condition number of at most ``COND_LIMIT``.

    At degree -1, given the rule ``keep`` of :func:`_gaussian_basis_rule`,
    ``phi`` holds the conjugate transposes ``G*`` of m x p Gaussian bases G
    of the frames' row spans in place of the frames. The lift
    ``G (G* K G)^{-1} G*`` is then the frame's, and ``keep`` decides which
    draws are kept, by the condition number of the frame's ``Phi K Phi*``.

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
        if keep is None:
            good = cond <= COND_LIMIT
        else:

            def gram(i):
                # the Gram matrices G* G of the draws i, from their rows G*
                drawn = phi[i]
                return drawn @ np.swapaxes(drawn, 1, 2).conj()

            good = keep(w, w_inv, cond, _squared_frobenius(phi), gram)
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
    k, p: int, degree: int, samples: int, rng: RandomSource, keep=None
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

    Given the rule ``keep`` of :func:`_gaussian_basis_rule`, each draw at
    degree -1 lifts the m x p complex Gaussian G that
    :func:`~singcov.linalg.sample_haar_stiefel_batch` would orthonormalize
    into its frame, drawn from the same stream, and skips the QR.
    """
    m = k.shape[0]

    def rows(b, rng):
        if keep is None:
            return sample_haar_stiefel_batch(p, m, b, rng)
        # the rows G* of the sampler's Gaussians G, not orthonormalized
        return np.conjugate(np.swapaxes(sample_complex_gaussian((b, m, p), rng), 1, 2), order="C")

    def chunk(b, rng, acc):
        # the rows are freed once lifted, so Welford's pass does not hold them
        acc.add_batch(_compression_lifts(rows(b, rng), k, degree, keep))

    return _monte_carlo(samples, rng, chunk, *_compression_bytes(m, p, degree, keep is not None))


def _compression_bytes(m: int, p: int, degree: int, gaussian: bool):
    """``(draw_bytes, chunk_bytes)`` of a :func:`_compression_mc` chunk of
    p x m frames (see :func:`_chunk_draws`).

    A draw holds at most: on planes, three frames (the sampler's, their
    conjugates and a product) with the lift and one term of it, which
    outweigh the products' five frames; else the lift phase's frame,
    ``(W^l Phi)*`` and lift, or the sampler's four frames (Gram-Schmidt and
    LAPACK QR hold the Gaussian, its copy and two more, which at p > m/2
    outweighs the lift); and one p x p stack. The chunk holds the Welford
    fold's batch mean and sum of squares and, on planes, the buffers of
    numpy's strided loops: up to two operands of ``np.getbufsize()``
    complex entries (one was seen, in the products and in the lift).
    """
    frame, lift, chunk = 16 * m * p, 16 * m * m, 24 * m * m
    if degree > 0 and p * m * m <= 128:
        return 3 * frame + 2 * lift + 16 * p * p, chunk + 32 * np.getbufsize()
    return max(2 * frame + lift, 0 if gaussian else 4 * frame) + 16 * p * p, chunk


def _trace_square(a):
    """``Re tr(A^2)`` of each matrix in a stack."""
    return np.einsum("bij,bji->b", a, a).real


def _gaussian_basis_rule(d, p: int):
    """The rule ``keep(w, w_inv, cond, basis_sq, gram)`` that says which
    draws of a chunk on Gaussian bases to keep, for a K of positive
    eigenvalues ``d``: those whose ``Phi K Phi*`` has a Frobenius condition
    number of at most ``COND_LIMIT``, exactly as on the frames Phi.

    A draw's m x p basis Z of its frame's row span has the Gram matrix
    ``G = Z* Z``, and ``w``, ``w_inv`` and ``cond`` hold ``W = Z* K Z``, its
    inverse and its own condition number (see
    :func:`~singcov.linalg._inv_batch_hermitian`). ``Phi K Phi*`` is similar
    to ``G^{-1} W``, so the square of its condition number is
    ``tr((G^{-1} W)^2) tr((W^{-1} G)^2)``. A screen bounds that by
    ``s ||W^{-1}||_F^2 ||Z||_F^4``, where s sums the p largest ``d_k^2``
    (Poincare separation: the eigenvalues of a compression of K lie below
    those of K) and ``basis_sq`` holds each ``||Z||_F^2 >= ||G||_2``. A
    draw whose W is singular is rejected. Only the draws whose screen
    exceeds ``COND_LIMIT^2``, at the indices ``flagged``, pay for their
    ``gram(flagged)`` and the exact value.
    """
    top_sq = float(np.sort(d * d)[max(len(d) - p, 0) :].sum())
    limit_sq = COND_LIMIT**2

    def keep(w, w_inv, cond, basis_sq, gram):
        screen = top_sq * _squared_frobenius(w_inv) * basis_sq**2
        good = np.isfinite(cond)
        flagged = np.flatnonzero(good & (screen > limit_sq))
        if len(flagged):
            g = gram(flagged)
            w_norm_sq = _trace_square(np.linalg.solve(g, w[flagged]))
            good[flagged] = w_norm_sq * _trace_square(w_inv[flagged] @ g) <= limit_sq
        return good

    return keep


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

    Draws are rejected exactly as in :func:`invcov_p_mc`. On orthonormal
    frames ``G = I``, and ``Phi D Phi*`` is similar to W, whose own
    ``||W||_F ||W^{-1}||_F`` decides. On Gaussian bases the rule of
    :func:`_gaussian_basis_rule` decides, with
    ``||Z||_F^2 = ||Z_r||_F^2 + t``; only its flagged draws draw their
    kernel directions.
    """
    r = len(d)
    kernel = m - r
    orthonormal = 2 * p > m
    rows = m if orthonormal else r
    keep = None if orthonormal else _gaussian_basis_rule(d, p)

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

            def gram(flagged):
                # G = Z_r* Z_r + G_k, drawing the flagged draws' kernel
                # directions; Z_r* Z_r is formed for the whole chunk, so that
                # no gather of Z or Z* is held
                g = (zh @ z)[flagged]
                if kernel:
                    u = sample_complex_gaussian((len(flagged), kernel, p), rng)
                    u *= np.sqrt(t[flagged] / _squared_frobenius(u))[:, None, None]
                    g_k = np.swapaxes(u.conj(), 1, 2) @ u
                    g += g_k
                    kernel_trace[flagged] = np.einsum("bij,bji->b", w_inv[flagged], g_k).real
                return g

            good = keep(w, w_inv, cond, _squared_frobenius(full) + t, gram)
        del zh, w  # freed, so the lift is held with Z and W^-1 alone
        # Re(z_i W^-1 z_i*): a real dot of each row of Z W^-1 with that row of Z
        lift = (z @ w_inv).view(np.float64)
        values = np.einsum("bij,bij->bi", lift, z.view(np.float64))
        if kernel:
            if orthonormal:
                # tr(W^-1 (I - Z_r* Z_r)): the range values sum to tr(W^-1 Z_r* Z_r)
                kernel_trace = tr_inv - values.sum(axis=1)
            values = np.column_stack([values, kernel_trace / kernel])
        acc.add_batch(values[good])

    return _monte_carlo(samples, rng, chunk, *_diagonal_bytes(m, r, p))


def _diagonal_bytes(m: int, r: int, p: int):
    """``(draw_bytes, chunk_bytes)`` of an :func:`_invcov_diagonal_mc` chunk
    at rank r (see :func:`_chunk_draws`).

    On orthonormal frames (2p > m) a draw holds at most the sampler's four
    m x p arrays, or Z, Z* and ``Z D`` with W and ``W^-1``. On Gaussian
    bases it holds Z_r, its conjugate and ``Z_r D_r`` (three r x p arrays)
    with W and ``W^-1``, or, where the screen flags it, Z_r, the kernel
    directions and the conjugates of both (two m x p arrays) with five
    p x p stacks; the lift is made once Z* and W are freed. Each draw's
    values are held three times, with up to twelve scalars (condition
    numbers, traces, screens), and the chunk holds the values' mean, as
    reals and as complex, and their sum of squares.
    """
    lift = 8 * (r + (r < m))
    if 2 * p > m:
        draw = 16 * (4 * m * p + 2 * p * p)
    else:
        draw = 16 * max(3 * r * p + 2 * p * p, 2 * m * p + 5 * p * p)
    return draw + 3 * lift + 96, 4 * lift


def cov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo twin of :func:`cov_p_closed` for validation."""
    k = require_hermitian(k, name="k")
    require_p(p, k.shape[0])
    return _compression_mc(k, p, 1, samples, rng)


def _inverse_path_rank(k, p: int):
    """Eigendecomposition, numeric rank and scale of a positive semidefinite
    K. On a singular K the inverse-compression average is finite only below
    its rank: from ``p = rank`` on, its kernel value ``mu`` is infinite.

    The scale ``s``, the largest power of 4 not above the largest eigenvalue,
    brings that eigenvalue into [1, 4). The inverse paths average ``K / s``,
    whose average is ``s`` times that of K, and divide the result by ``s``;
    without it the squared Frobenius norms of the rejection rule overflow or
    underflow beyond about ``1e+-152``, and every draw is rejected. A power
    of 4 leaves every result bit as it is, since ``sqrt(d / s)`` is exact too.
    """
    dec = eig_hermitian(k)
    require_psd(dec.eigenvalues, "k")
    m = len(dec.eigenvalues)
    require_p(p, m)
    # the eigenvalues descend, so those above the rank cutoff come first
    rank = numeric_rank(dec.eigenvalues)
    if rank < m and p >= rank:
        raise ValueError(
            f"p={p} must lie below rank {rank} of the singular K: from p = rank on, "
            "the inverse-compression average is infinite on the kernel (mu = inf)"
        )
    return dec, rank, ldexp(1.0, 2 * ((frexp(dec.eigenvalues[0])[1] - 1) // 2))


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
    The draw is still kept by the condition number of its frame's
    ``Phi K Phi*``: a screen bounds that number, and only the draws it flags
    pay for ``G* G`` and the exact value (see :func:`_gaussian_basis_rule`).
    At the other shapes each draw lifts its frame: Gram-Schmidt frames are
    cheap, and at ``2p > m`` G is too ill-conditioned. Either way the draws
    and the chunk plan are the same, and the results agree to roundoff.

    Returns
    -------
    MonteCarloEstimate
        ``estimate`` is Hermitian positive definite, ``stderr`` holds
        per-entry Monte Carlo standard errors, ``rejected`` counts
        discarded draws.
    """
    dec, rank, scale = _inverse_path_rank(k, p)
    d = dec.eigenvalues[:rank] / scale
    factor = dec.eigenvectors[:, :rank] * np.sqrt(d)
    keep = _gaussian_basis_rule(d, p) if _lifts_gaussian(p, len(dec.eigenvalues)) else None
    mc = _compression_mc(factor, p, -1, samples, rng, keep)
    return MonteCarloEstimate(mc.estimate / scale, mc.stderr / scale, mc.samples, mc.rejected)


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
    dec, rank, scale = _inverse_path_rank(k, p)
    m = len(dec.eigenvalues)
    mc = _invcov_diagonal_mc(dec.eigenvalues[:rank] / scale, m, p, samples, rng)
    values, stderr = mc.estimate.real / scale, mc.stderr / scale
    mu, mu_stderr = (values[rank], stderr[rank]) if rank < m else (np.nan, np.nan)
    return InvcovSpectrum(
        values[:rank],
        float(mu),
        p,
        stderr[:rank],
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
