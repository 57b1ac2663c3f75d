r"""Permutation and injection averages under the Ewens measure.

The Ewens measure on the symmetric group weights a permutation by
``theta^(#cycles) / (theta (theta+1) ... (theta+m-1))``. Conjugating a
covariance matrix by a random permutation matrix and averaging gives a
shrinkage estimator with a closed form; restricting random permutations
to their first p coordinates gives partial (injection) averages that
interpolate between no mixing (theta large) and heavy mixing, again in
closed form. The inverse-side averages replace the permuted matrix by
the pseudoinverse of its selected block.

Index conventions are 0-based throughout; a permutation is its image
array and an injection the image array of ``0..p-1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import haar
from .haar import MonteCarloEstimate
from .linalg import (
    RandomSource,
    _inv_batch_hermitian,
    _pinv_batch_hermitian,
    hermitize,
    require_finite,
    require_hermitian,
    require_p,
    require_theta,
)

__all__ = [
    "Injection",
    "cycle_count",
    "ewens_probability",
    "ewens_estimator",
    "ewens_estimator_bruteforce",
    "enumerate_injections",
    "injection_probability",
    "injection_probability_enumerated",
    "hybrid_estimator",
    "hybrid_estimator_bruteforce",
    "hybrid_inverse_diagonal",
    "hybrid_inverse_bruteforce",
    "hybrid_inverse_mc",
]

# enumeration budget in terms: it caps the full group at m <= 9 (9! = 362,880)
MAX_INJECTION_TERMS = 500_000
MAX_COMPLETION_DEGREE = 8
# p x p arrays that _pinv_batch_hermitian holds per block: the block, its
# eigenvectors, their scaled copy and conjugate transpose, and the product
_PINV_BLOCKS = 5


@dataclass(frozen=True)
class Injection:
    """Injective map of 0..p-1 into 0..m-1, stored as its image tuple."""

    m: int
    images: tuple

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        if len(set(images)) != len(images):
            raise ValueError("images must be distinct")
        if images and not (0 <= min(images) and max(images) < self.m):
            raise ValueError("images must lie in 0..m-1")
        require_p(len(images), self.m)
        object.__setattr__(self, "images", images)

    @property
    def p(self) -> int:
        return len(self.images)


def cycle_count(images) -> int:
    """Number of closed cycles of the map ``i -> images[i]`` on 0..p-1: all
    cycles of a permutation; an injection's paths that leave 0..p-1 stay open."""
    return int(_closed_cycles(np.array([images], dtype=np.int64))[0])


def _closed_cycles(rows: np.ndarray) -> np.ndarray:
    """:func:`cycle_count` of each row of a ``(b, p)`` image array.

    All p walks of a row advance together, one flat gather per round for p
    rounds. Images outside 0..p-1 lead to a sink column p that leads to
    itself, so after p rounds every open path sits in the sink and every
    walk on a closed cycle has been round it. A cycle is counted once, at
    its least element: the start that no step of its walk went below.
    """
    b, p = rows.shape
    width = p + 1
    base = np.arange(0, b * width, width)[:, None]  # flat offset of each row
    step = (np.concatenate([np.minimum(rows, p), np.full((b, 1), p)], axis=1) + base).ravel()
    start = base + np.arange(p)
    walk = low = start
    for _ in range(p):
        walk = step[walk]
        low = np.minimum(low, walk)
    return ((walk - base < p) & (low == start)).sum(axis=1)


def _log_rising(theta: float, start: int, stop: int) -> float:
    # log prod_{k=start}^{stop-1} (theta + k)
    return float(sum(math.log(theta + k) for k in range(start, stop)))


def ewens_probability(images, theta: float) -> float:
    """Probability of a permutation (its image array) under Ewens(theta).

    ``theta^(#cycles) / (theta (theta+1) ... (theta+m-1))``: the
    injection mass of :func:`injection_probability` at p = m.
    """
    return injection_probability(images, theta, len(images))


def ewens_estimator(k, theta: float) -> np.ndarray:
    """Closed form of the Ewens permutation average ``E(P K P*)``.

    Diagonal entries mix with the trace; off-diagonal entries mix with
    the transposed entry, the two crossing row/column sums, and the
    total off-diagonal mass. Trace is preserved for every theta, and
    theta -> infinity returns K.
    """
    k = require_hermitian(k, name="k")
    require_theta(theta)
    m = k.shape[0]
    if m == 1:
        return k.copy()
    d1 = theta + m - 1.0
    d2 = theta + m - 2.0
    diag = np.diag(k)
    tr = diag.sum()
    if m == 2:
        # identity with weight theta/d1, the swap with 1/d1; the general form
        # divides a cancelled numerator by d2 = theta, losing eps/theta
        out = theta / d1 * k + k.T / d1
    else:
        # each coefficient is a product of ratios bounded in theta, so none
        # overflows as theta grows: (theta^2-1)/(d1 d2) = (theta-1)/d2 (theta+1)/d1
        lag = (theta - 1.0) / d2
        row = k.sum(axis=1)
        col = k.sum(axis=0)
        cross = row[:, None] + col[None, :] - diag[:, None] - diag[None, :] - 2.0 * k
        out = lag * ((theta + 1.0) / d1) * k + lag / d1 * (k.T + cross)
        out += (k.sum() - tr) / d2 / d1
    out[np.diag_indices(m)] = (theta - 1.0) / d1 * diag + tr / d1
    return out


def ewens_estimator_bruteforce(k, theta: float) -> np.ndarray:
    """Definitional sum over all m! permutations; oracle for the closed form."""
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    require_theta(theta)
    out = np.zeros((m, m), dtype=np.complex128)
    # the permutations are the injections at p = m, with the same masses; a
    # term holds its block and index arrays, about 1.4 blocks at m = 8
    for _, blocks, weights in _enumerated_blocks(k, theta, m, 2):
        out += np.einsum("s,sij->ij", weights, blocks)
        del blocks  # freed before the next chunk's blocks are gathered
    return out


def _injection_count(p: int, m: int) -> int:
    """Number of injections 0..p-1 -> 0..m-1, checked against the budget."""
    require_p(p, m)
    terms = math.perm(m, p)
    if terms > MAX_INJECTION_TERMS:
        raise ValueError(
            f"{terms} injections exceed the enumeration budget {MAX_INJECTION_TERMS}"
        )
    return terms


def enumerate_injections(p: int, m: int):
    """All images of injective maps 0..p-1 -> 0..m-1, budget checked."""
    _injection_count(p, m)
    return itertools.permutations(range(m), p)


def _injection_rows(m: int, p: int, start: int, stop: int) -> np.ndarray:
    """Images of the injections 0..p-1 -> 0..m-1 of lexicographic ranks
    ``start..stop-1``, the order of :func:`enumerate_injections`.

    The digits of a rank in the mixed radix ``(m, m-1, ..., m-p+1)`` say
    which of the still free values each image takes. Decoded from the last
    image back, each image moves the later images at or above it up by one.
    """
    rank = np.arange(start, stop, dtype=np.int64)
    rows = np.empty((len(rank), p), dtype=np.int64)
    for j in range(p - 1, -1, -1):
        rank, rows[:, j] = np.divmod(rank, m - j)
    for j in range(p - 2, -1, -1):
        later = rows[:, j + 1 :]
        later += later >= rows[:, j : j + 1]
    return rows


def injection_probability(images, theta: float, m: int) -> float:
    """Mass of an injection under the restriction of the Ewens measure.

    The restriction of Ewens(theta) from permutations of 0..m-1 to the
    images of 0..p-1 has the product form
    ``theta^c / ((theta+m-p) (theta+m-p+1) ... (theta+m-1))`` where c is
    the number of already-closed cycles of the partial map: grouping the
    completions by how they link the open paths reduces their weighted
    count to a rising factorial. :func:`injection_probability_enumerated`
    performs the definitional completion sum for cross-checking. The mass
    is evaluated in log space, so large m and extreme theta stay finite.
    """
    images = Injection(m, tuple(images)).images
    require_theta(theta)
    return math.exp(_log_injection_mass(cycle_count(images), theta, m, len(images)))


def _log_injection_mass(closed, theta: float, m: int, p: int):
    """``log(theta^c / ((theta+m-p) ... (theta+m-1)))`` for a closed-cycle
    count c, or for each of an array of them."""
    return closed * math.log(theta) - _log_rising(theta, m - p, m)


def injection_probability_enumerated(images, theta: float, m: int) -> float:
    """Definitional mass: sum of Ewens weights over all (m-p)! completions."""
    images = Injection(m, tuple(images)).images
    require_theta(theta)
    p = len(images)
    if m - p > MAX_COMPLETION_DEGREE:
        raise ValueError(f"completion enumeration capped at m - p <= {MAX_COMPLETION_DEGREE}")
    free_values = [v for v in range(m) if v not in images]
    completions = itertools.permutations(free_values)
    return sum(ewens_probability(images + rest, theta) for rest in completions)


def _hybrid_weights(m: int, p: int, theta: float) -> np.ndarray:
    """Coefficient of each entry of K in the injection average: the
    probability that a random injection hits both its indices."""
    if m == 1:
        return np.ones((1, 1))  # the only injection hits the only index
    d1 = theta + m - 1.0
    d2 = theta + m - 2.0
    w = np.zeros((m, m))
    head = np.arange(m) < p
    both = np.outer(head, head)
    neither = np.outer(~head, ~head)
    mixed = ~both & ~neither
    # products of ratios bounded in theta, so none overflows as theta grows
    w[both] = (theta + p - 1.0) / d1 * ((theta + p - 2.0) / d2)
    w[mixed] = (theta + p - 1.0) / d1 * ((p - 1.0) / d2)
    w[neither] = p / d1 * ((p - 1.0) / d2)
    w[np.diag_indices(m)] = np.where(head, (theta + p - 1.0) / d1, p / d1)
    return w


def hybrid_estimator(k, theta: float, p: int) -> np.ndarray:
    """Closed form of the injection average ``E(V_s K V_s^T)`` scattered back.

    Entry (i, j) of K is scaled by a coefficient depending only on which
    of i, j fall in the averaged head block 0..p-1:

    * both on the diagonal head: ``(theta+p-1)/(theta+m-1)``; tail
      diagonal: ``p/(theta+m-1)``;
    * off-diagonal head/head: ``(theta+p-1)(theta+p-2)``, head/tail:
      ``(p-1)(theta+p-1)``, tail/tail: ``p(p-1)``, all over
      ``(theta+m-1)(theta+m-2)``.

    At p = m every coefficient equals 1, so the input is returned
    unchanged: reordering the selected block and scattering it back
    cancel each other.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    require_p(p, m)
    require_theta(theta)
    return _hybrid_weights(m, p, theta) * k


def _terms_per_chunk(p: int, blocks: int) -> int:
    """Injections enumerated per chunk: a term holds its images and a few
    index arrays of p, and at most ``blocks`` p x p complex arrays at once."""
    return haar._chunk_draws(16 * p * (blocks * p + 3))


def _enumerated_blocks(k, theta: float, p: int, blocks: int):
    """The injections of 0..p-1 into the indices of ``k``, chunk by chunk,
    in lexicographic order: each chunk's images are unranked at once by
    :func:`_injection_rows`, planned for a caller whose terms hold at most
    ``blocks`` p x p arrays each (:func:`_terms_per_chunk`).

    Yields ``(idx, blocks, weights)``: the images of each injection s of the
    chunk, its selected block ``V_s K V_s^T`` and its mass. A mass depends
    only on the closed-cycle count, so it is taken from a table over
    0..p cycles.
    """
    m = k.shape[0]
    terms = _injection_count(p, m)
    require_theta(theta)
    mass = np.exp(_log_injection_mass(np.arange(p + 1), theta, m, p))
    size = _terms_per_chunk(p, blocks)
    for start in range(0, terms, size):
        idx = _injection_rows(m, p, start, min(start + size, terms))
        yield idx, k[idx[:, :, None], idx[:, None, :]], mass[_closed_cycles(idx)]


def _injection_sum(k, theta: float, p: int, block_map, blocks: int) -> np.ndarray:
    """``sum_s mu(s) V_s^T block_map(V_s K V_s^T) V_s`` over all injections s.

    ``block_map`` maps a stack of selected blocks to a stack of blocks,
    holding at most ``blocks >= 2`` blocks per term, its input among them.
    The weighted blocks of a chunk are scatter-added into the m x m sum over
    flat indices ``i*m + j``, as in :func:`_fold_blocks`; the scatter holds
    two blocks per term (the weighted block, its indices, one part's copy).
    """
    m = k.shape[0]
    size = m * m
    re = np.zeros(size)
    im = np.zeros(size)
    for idx, selected, weights in _enumerated_blocks(k, theta, p, blocks):
        values = (block_map(selected) * weights[:, None, None]).ravel()
        del selected  # freed, so the scatter does not hold it
        flat = (idx[:, :, None] * m + idx[:, None, :]).ravel()
        re += np.bincount(flat, values.real, size)
        im += np.bincount(flat, values.imag, size)
        del values, flat  # freed before the next chunk's blocks are mapped
    return (re + 1j * im).reshape(m, m)


def hybrid_estimator_bruteforce(k, theta: float, p: int) -> np.ndarray:
    """Definitional sum over all m!/(m-p)! injections; oracle for the closed form."""
    return _injection_sum(require_hermitian(k, name="k"), theta, p, lambda blocks: blocks, 2)


def hybrid_inverse_diagonal(d, theta: float, p: int) -> np.ndarray:
    """Closed form of the inverse injection average for diagonal input.

    For ``D = diag(d_1..d_n, 0..0)`` the average
    ``E(V_s^T (V_s D V_s^T)^+ V_s)`` is the coefficient matrix of
    :func:`hybrid_estimator` times ``D^+``: a diagonal with entries

    * ``(theta+p-1)/(theta+m-1) / d_i`` for i < min(p, n),
    * ``p/(theta+m-1) / d_i``          for p <= i < n,
    * 0                                 for i >= n,

    the coefficient being the probability that index i is hit by the
    random injection. The head block 0..p-1 carries the enhanced
    coefficient: the exhaustive oracle
    (:func:`hybrid_inverse_bruteforce`) pins this orientation down.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError("d must be a vector of diagonal entries")
    require_finite(d, "d")
    m = len(d)
    require_p(p, m)
    require_theta(theta)
    nz = np.flatnonzero(d != 0)
    n = int(nz[-1]) + 1 if len(nz) else 0
    if len(nz) != n:
        raise ValueError("zero entries must trail the nonzero block")
    if n and d[:n].min() <= 0:
        raise ValueError("nonzero block must be strictly positive")
    inv = np.zeros(m, dtype=np.complex128)
    inv[:n] = 1.0 / d[:n]
    return _hybrid_weights(m, p, theta) * np.diag(inv)


def hybrid_inverse_bruteforce(k, theta: float, p: int) -> np.ndarray:
    """Definitional inverse-side sum ``sum_s mu(s) V_s^T (V_s K V_s^T)^+ V_s``."""
    k = require_hermitian(k, name="k")
    return hermitize(_injection_sum(k, theta, p, _pinv_batch_hermitian, _PINV_BLOCKS))


def _fold_blocks(blocks: np.ndarray, idx: np.ndarray, m: int, acc):
    """Fold into the :class:`~singcov.linalg.WelfordAccumulator` ``acc`` the
    draws whose ``m x m`` value is zero but for the Hermitian ``p x p`` block
    ``blocks[b]`` on the rows and columns ``idx[b]``.

    Only the entries ``a <= c`` of each block are gathered, once, and
    scatter-added at their flat indices ``idx[b, a] * m + idx[b, c]`` into
    per-entry sums, hit counts and sums of squared deviations, so no
    ``m x m`` matrix is built per draw. An entry below a block's diagonal is
    the conjugate of its mirror above it, with the same squared deviation
    from the Hermitian mean, so the half sums are mirrored once per chunk:
    an off-diagonal entry of the ``m x m`` sum adds the conjugate of its
    transpose, and a diagonal entry is counted once. The batch's sum of
    squared deviations adds those of the draws that hit an entry to the
    ``|mean|^2`` that each of the others, a zero there, contributes.
    """
    b, p = blocks.shape[:2]
    rows, cols = np.triu_indices(p)
    flat = idx[:, rows] * m
    flat += idx[:, cols]
    flat = flat.ravel()
    # the deviations and their squares overwrite this gather, through its parts
    values = blocks.reshape(b, p * p)[:, rows * p + cols].ravel()
    re, im = values.real, values.imag
    size = m * m

    def mirror(half):
        # a diagonal entry keeps its real part, as the mean is Hermitian
        half = half.reshape(m, m)
        full = np.conjugate(half.T, order="C")
        full += half
        np.fill_diagonal(full, half.diagonal().real)
        return full

    hits = mirror(np.bincount(flat, minlength=size))
    mean = mirror(np.bincount(flat, re, size) + 1j * np.bincount(flat, im, size))
    mean /= b
    values -= mean.ravel()[flat]
    re *= re
    im *= im
    re += im
    m2 = mirror(np.bincount(flat, re, size)) + (b - hits) * np.abs(mean) ** 2
    acc.add_moments(b, mean, m2)


def _image_set_law(m: int, p: int, theta: float) -> np.ndarray:
    r"""Law of ``k = |S \ {0..p-1}|``, entry k for k = 0..min(p, m-p), where S is
    the image set of 0..p-1 under the restriction of Ewens(theta).

    The law ``P(k) = C(p,k) (theta+k)^(p-k rising) (m-p)!/(m-p-k)! /
    (theta+m-p)^(p rising)`` is built up from ``P(0)`` by its term ratio
    ``P(k+1)/P(k) = (p-k)(m-p-k) / ((k+1)(theta+k))``. The ratios are summed
    in log space and the weights scaled by the largest before normalizing,
    so no term overflows or underflows to a wrong law at any theta.
    """
    k = np.arange(min(p, m - p))
    log_ratio = np.log(p - k) + np.log(m - p - k) - np.log(k + 1) - np.log(theta + k)
    log_weight = np.concatenate([[0.0], np.cumsum(log_ratio)])
    weight = np.exp(log_weight - log_weight.max())
    return weight / weight.sum()


def _image_set_sampler(m: int, p: int, theta: float):
    r"""``draw(count, rng)``: the image sets of 0..p-1 of ``count`` injections
    drawn from the restriction of Ewens(theta), as a ``(count, p)`` array of
    rows of distinct indices in no particular order.

    Given ``k = |S \ {0..p-1}|``, every set with that k is equally likely,
    since ``P(S)`` depends on S only through k. So a draw takes k from
    :func:`_image_set_law` by inverse CDF, then a uniform ``(p-k)``-subset of
    0..p-1 and a uniform k-subset of p..m-1: the first entries of the
    argsorts of uniform keys. From ``rng``, the stream of the chunk it draws
    for (see :func:`singcov.haar._monte_carlo`), a call takes, in this
    order: ``count`` uniforms for k, the head keys of shape ``(count, p)``
    and the tail keys of shape ``(count, m-p)``.
    """
    # P(0..j) for j < k_max: the count of these at or below u is k
    cdf = np.cumsum(_image_set_law(m, p, theta))[:-1]
    cols = np.arange(p)

    def draw(count, rng):
        g = rng.generator
        k = np.searchsorted(cdf, g.random(count), side="right")[:, None]
        head = np.argsort(g.random((count, p)), axis=1)
        tail = np.argsort(g.random((count, m - p)), axis=1) + p
        # column j < p-k takes head[j], and the k after it tail[j - (p-k)]
        pos = cols + k * (cols >= p - k)
        return np.take_along_axis(np.concatenate([head, tail], axis=1), pos, axis=1)

    return draw


def hybrid_inverse_mc(
    k, theta: float, p: int, samples: int, rng: RandomSource
) -> MonteCarloEstimate:
    """Monte Carlo inverse injection average.

    A draw's scattered block ``V_s^T (V_s K V_s^T)^{-1} V_s`` depends on the
    injection s only through its image set S, whatever the order of S. So
    each draw takes S from its exact law under the restriction of
    Ewens(theta) (see :func:`_image_set_sampler`, which gives the order in
    which a chunk's variates are taken from its stream; each chunk has its
    own, derived from one key drawn from ``rng``), with no permutation
    drawn, inverts the selected block of K and scatters it back. A block
    whose Frobenius condition number exceeds ``haar.COND_LIMIT``, or that LU
    refused as exactly singular, is pseudo-inverted instead, as in
    :func:`~singcov.linalg.pseudoinverse`. So is every block when p exceeds
    the rank of K: the average is then one of pseudoinverses, and each draw
    ``E_s`` gives ``Tr(K E_s) = rank(V_s K V_s^T)``, which on a generic K is
    p for p up to the rank of K and the rank above it. ``singcov estimate``
    and ``singcov experiment`` refuse a p above the rank; this function
    does not. Welford accumulation provides per-entry standard errors.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    require_p(p, m)
    require_theta(theta)
    draw = _image_set_sampler(m, p, theta)
    draw_bytes, chunk_bytes = _injection_bytes(m, p)
    # blocks pseudo-inverted at once, in the room of the fold's chunk_bytes
    step = max(1, chunk_bytes // (16 * _PINV_BLOCKS * p * p))

    def chunk(b, rng, acc):
        idx = draw(b, rng)
        blocks = k[idx[:, :, None], idx[:, None, :]]
        inv, cond = _inv_batch_hermitian(blocks)
        # kappa_2 <= kappa_F, so every block the pseudoinverse would truncate
        # is among these, and so is every block that LU refused (kappa_F = inf)
        bad = np.flatnonzero(~(cond <= haar.COND_LIMIT))
        for start in range(0, len(bad), step):
            i = bad[start : start + step]
            inv[i] = _pinv_batch_hermitian(blocks[i])
        del blocks  # freed, so the fold does not hold it
        _fold_blocks(inv, idx, m, acc)

    return haar._monte_carlo(samples, rng, chunk, draw_bytes, chunk_bytes)


def _injection_bytes(m: int, p: int):
    """``(draw_bytes, chunk_bytes)`` of a :func:`hybrid_inverse_mc` chunk
    (see ``haar._chunk_draws``).

    A draw holds its p images and, at most, 24 bytes per index of m while
    its image set is drawn, or its block and inverse, or in
    :func:`_fold_blocks` the inverse, the gather of its upper entries with
    their flat indices, and one temporary of half a block: 36 bytes per
    block entry and its diagonal. The chunk holds the fold's ``m x m`` hit
    counts, sums, mirrors and squared-deviation terms, up to 56 bytes per
    entry. The blocks that must be pseudo-inverted (all of them when p
    exceeds the rank of K) are pseudo-inverted a few at a time, in the room
    of those ``m x m`` arrays (see :func:`hybrid_inverse_mc`).
    """
    return 8 * p + max(36 * p * (p + 1), 24 * m), 56 * m * m
