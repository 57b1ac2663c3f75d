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
    _pinv_batch_hermitian,
    block_pinv_correction,
    eig_hermitian,
    hermitize,
    require_hermitian,
)

__all__ = [
    "Permutation",
    "Injection",
    "cycle_count",
    "ewens_probability",
    "sample_ewens_batch",
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
    "hybrid_inverse_inductive_step",
]

# enumeration budgets: full group at m <= 9, injection families capped
# by term count
MAX_BRUTE_M = 9
MAX_INJECTION_TERMS = 500_000
MAX_COMPLETION_DEGREE = 8


@dataclass(frozen=True)
class Permutation:
    """Permutation of 0..m-1 stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a permutation of 0..m-1")
        object.__setattr__(self, "images", images)

    @property
    def m(self) -> int:
        return len(self.images)


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
        if not (1 <= len(images) <= self.m):
            raise ValueError("need 1 <= p <= m")
        object.__setattr__(self, "images", images)

    @property
    def p(self) -> int:
        return len(self.images)


def cycle_count(images) -> int:
    """Number of cycles of a permutation given as an image array."""
    images = list(images)
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return count


def _check_theta(theta: float):
    if not (theta > 0) or not math.isfinite(theta):
        raise ValueError("theta must be positive and finite")


def _log_rising(theta: float, start: int, stop: int) -> float:
    # log prod_{k=start}^{stop-1} (theta + k)
    return float(sum(math.log(theta + k) for k in range(start, stop)))


def ewens_probability(perm, theta: float) -> float:
    """Probability of a permutation under the Ewens(theta) measure.

    ``theta^(#cycles) / (theta (theta+1) ... (theta+m-1))``, evaluated
    in log space so large m and extreme theta stay finite.
    """
    _check_theta(theta)
    images = perm.images if isinstance(perm, Permutation) else tuple(perm)
    images = Permutation(images).images
    m = len(images)
    logp = cycle_count(images) * math.log(theta) - _log_rising(theta, 0, m)
    return math.exp(logp)


def sample_ewens_batch(m: int, theta: float, count: int, rng: RandomSource) -> np.ndarray:
    """Exact Ewens(theta) permutation sampling, vectorized over draws.

    Sequential insertion: element k starts a new cycle with probability
    ``theta / (theta + k)`` and otherwise splices itself after a
    uniformly chosen earlier element, which reproduces the Ewens weights
    exactly (no Metropolis step, no burn-in).

    Returns an integer array of shape (count, m) of image rows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_theta(theta)
    g = rng.generator
    sigma = np.zeros((count, m), dtype=np.int64)
    rows = np.arange(count)
    for k in range(1, m):
        fresh = g.random(count) < theta / (theta + k)
        anchor = g.integers(0, k, size=count)
        # splice k after its anchor: sigma[k] <- sigma[anchor], sigma[anchor] <- k
        old = sigma[rows, anchor]
        sigma[:, k] = np.where(fresh, k, old)
        sigma[rows, anchor] = np.where(fresh, old, k)
    return sigma


def ewens_estimator(k, theta: float) -> np.ndarray:
    """Closed form of the Ewens permutation average ``E(P K P*)``.

    Diagonal entries mix with the trace; off-diagonal entries mix with
    the transposed entry, the two crossing row/column sums, and the
    total off-diagonal mass. Trace is preserved for every theta, and
    theta -> infinity returns K.
    """
    k = require_hermitian(k, name="k")
    _check_theta(theta)
    m = k.shape[0]
    if m == 1:
        return k.copy()
    diag = np.diag(k)
    tr = diag.sum()
    total = k.sum()
    row = k.sum(axis=1)
    col = k.sum(axis=0)
    numer = (
        (theta**2 - 1.0) * k
        + (theta - 1.0) * k.T
        + (theta - 1.0)
        * (row[:, None] + col[None, :] - diag[:, None] - diag[None, :] - 2.0 * k)
        + (total - tr)
    )
    out = numer / ((theta + m - 2.0) * (theta + m - 1.0))
    out[np.diag_indices(m)] = ((theta - 1.0) * diag + tr) / (theta + m - 1.0)
    return out


def _permutation_table(m: int):
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    cycles = np.array([cycle_count(p) for p in perms], dtype=np.int64)
    return perms, cycles


def ewens_estimator_bruteforce(k, theta: float) -> np.ndarray:
    """Definitional sum over all m! permutations; oracle for the closed form."""
    k = np.asarray(k, dtype=np.complex128)
    m = k.shape[0]
    _check_theta(theta)
    if m > MAX_BRUTE_M:
        raise ValueError(f"brute force capped at m <= {MAX_BRUTE_M}")
    perms, cycles = _permutation_table(m)
    logw = cycles * math.log(theta) - _log_rising(theta, 0, m)
    weights = np.exp(logw)
    out = np.zeros((m, m), dtype=np.complex128)
    step = 50_000
    for lo in range(0, len(perms), step):
        chunk = perms[lo : lo + step]
        gathered = k[chunk[:, :, None], chunk[:, None, :]]
        out += np.einsum("s,sij->ij", weights[lo : lo + step], gathered)
    return out


def enumerate_injections(p: int, m: int):
    """All images of injective maps 0..p-1 -> 0..m-1, budget checked."""
    terms = math.perm(m, p)
    if terms > MAX_INJECTION_TERMS:
        raise ValueError(
            f"{terms} injections exceed the enumeration budget {MAX_INJECTION_TERMS}"
        )
    return itertools.permutations(range(m), p)


def _injection_cycles(images) -> int:
    # closed cycles of the partial map i -> images[i] on 0..p-1
    p = len(images)
    visited = [False] * p
    closed = 0
    for start in range(p):
        if visited[start]:
            continue
        j = start
        while True:
            visited[j] = True
            nxt = images[j]
            if nxt == start:
                closed += 1
                break
            if nxt >= p or visited[nxt]:
                break
            j = nxt
    return closed


def injection_probability(inj, theta: float, m: int | None = None) -> float:
    """Mass of an injection under the restriction of the Ewens measure.

    The restriction of Ewens(theta) from permutations of 0..m-1 to the
    images of 0..p-1 has the product form
    ``theta^c / ((theta+m-p) (theta+m-p+1) ... (theta+m-1))`` where c is
    the number of already-closed cycles of the partial map: grouping the
    completions by how they link the open paths reduces their weighted
    count to a rising factorial. :func:`injection_probability_enumerated`
    performs the definitional completion sum for cross-checking.
    """
    if isinstance(inj, Injection):
        images, m = inj.images, inj.m
    else:
        if m is None:
            raise ValueError("m required when passing a raw image tuple")
        images = Injection(m, tuple(inj)).images
    _check_theta(theta)
    p = len(images)
    logp = _injection_cycles(images) * math.log(theta) - _log_rising(theta, m - p, m)
    return math.exp(logp)


def injection_probability_enumerated(inj, theta: float, m: int | None = None) -> float:
    """Definitional mass: sum of Ewens weights over all (m-p)! completions."""
    if isinstance(inj, Injection):
        images, m = inj.images, inj.m
    else:
        if m is None:
            raise ValueError("m required when passing a raw image tuple")
        images = Injection(m, tuple(inj)).images
    _check_theta(theta)
    p = len(images)
    if m - p > MAX_COMPLETION_DEGREE:
        raise ValueError(f"completion enumeration capped at m - p <= {MAX_COMPLETION_DEGREE}")
    free_slots = list(range(p, m))
    free_values = [v for v in range(m) if v not in set(images)]
    log_denom = _log_rising(theta, 0, m)
    total = 0.0
    for assign in itertools.permutations(free_values):
        full = list(images) + [0] * (m - p)
        for slot, val in zip(free_slots, assign):
            full[slot] = val
        total += math.exp(cycle_count(full) * math.log(theta) - log_denom)
    return total


def _hybrid_weights(m: int, p: int, theta: float) -> np.ndarray:
    d1 = theta + m - 1.0
    d2 = theta + m - 2.0
    w = np.zeros((m, m))
    head = np.arange(m) < p
    both = np.outer(head, head)
    neither = np.outer(~head, ~head)
    mixed = ~both & ~neither
    w[both] = (theta + p - 1.0) * (theta + p - 2.0) / (d1 * d2)
    w[mixed] = (p - 1.0) * (theta + p - 1.0) / (d1 * d2)
    w[neither] = p * (p - 1.0) / (d1 * d2)
    diag = np.where(head, (theta + p - 1.0) / d1, p / d1)
    w[np.diag_indices(m)] = diag
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
    if not (1 <= p <= m):
        raise ValueError(f"p={p} must lie in [1, {m}]")
    _check_theta(theta)
    return _hybrid_weights(m, p, theta) * k


def hybrid_estimator_bruteforce(k, theta: float, p: int) -> np.ndarray:
    """Definitional sum over all m!/(m-p)! injections; oracle for the closed form."""
    k = np.asarray(k, dtype=np.complex128)
    m = k.shape[0]
    out = np.zeros((m, m), dtype=np.complex128)
    for images in enumerate_injections(p, m):
        idx = np.asarray(images)
        w = injection_probability(images, theta, m)
        out[np.ix_(idx, idx)] += w * k[np.ix_(idx, idx)]
    return out


def hybrid_inverse_diagonal(d, theta: float, p: int) -> np.ndarray:
    """Closed form of the inverse injection average for diagonal input.

    For ``D = diag(d_1..d_n, 0..0)`` the average
    ``E(V_s^T (V_s D V_s^T)^+ V_s)`` is diagonal with entries

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
    m = len(d)
    if not (1 <= p <= m):
        raise ValueError(f"p={p} must lie in [1, {m}]")
    _check_theta(theta)
    nz = np.flatnonzero(d != 0)
    n = int(nz[-1]) + 1 if len(nz) else 0
    if len(nz) != n:
        raise ValueError("zero entries must trail the nonzero block")
    if n and d[:n].min() <= 0:
        raise ValueError("nonzero block must be strictly positive")
    out = np.zeros((m, m), dtype=np.complex128)
    for i in range(n):
        coef = (theta + p - 1.0) if i < p else float(p)
        out[i, i] = coef / ((theta + m - 1.0) * d[i])
    return out


def hybrid_inverse_bruteforce(k, theta: float, p: int) -> np.ndarray:
    """Definitional inverse-side sum ``sum_s mu(s) V_s^T (V_s K V_s^T)^+ V_s``."""
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    out = np.zeros((m, m), dtype=np.complex128)
    for images in enumerate_injections(p, m):
        idx = np.asarray(images)
        w = injection_probability(images, theta, m)
        block = k[np.ix_(idx, idx)]
        out[np.ix_(idx, idx)] += w * _pinv_batch_hermitian(block[None])[0]
    return hermitize(out)


def _scatter_blocks(blocks: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    # place each p x p block at rows/cols idx[b] of an m x m zero matrix
    b, p, _ = blocks.shape
    out = np.zeros((b, m, m), dtype=np.complex128)
    rows = np.arange(b)[:, None, None]
    out[rows, idx[:, :, None], idx[:, None, :]] = blocks
    return out


def hybrid_inverse_mc(
    k, theta: float, p: int, samples: int, rng: RandomSource
) -> MonteCarloEstimate:
    """Monte Carlo inverse injection average.

    Draws a full Ewens(theta) permutation, keeps the images of 0..p-1
    (that restriction is exactly the injection law), pseudo-inverts the
    selected block of K and scatters it back. Welford accumulation
    provides per-entry standard errors.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    if not (1 <= p <= m):
        raise ValueError(f"p={p} must lie in [1, {m}]")

    def chunk(b, rng):
        idx = sample_ewens_batch(m, theta, b, rng)[:, :p]
        blocks = k[idx[:, :, None], idx[:, None, :]]
        return _scatter_blocks(_pinv_batch_hermitian(blocks), idx, m), 0

    return haar._monte_carlo(samples, rng, chunk, frame=m, block=p * p, lift=m * m)


def hybrid_inverse_inductive_step(
    k,
    theta: float,
    p: int,
    samples: int,
    rng: RandomSource,
    base: MonteCarloEstimate | None = None,
) -> MonteCarloEstimate:
    """Inverse injection average built by the bordered-pseudoinverse recursion.

    The selected block for p columns is the Gram matrix of the block for
    p - 1 columns extended by one column, so its pseudoinverse is the
    zero-padded smaller pseudoinverse plus the rank-one-or-two
    correction of :func:`~singcov.linalg.block_pinv_correction`. The
    estimate is therefore the p - 1 average (``base``, estimated fresh
    when not supplied) plus the Monte Carlo average of the scattered
    corrections. The restriction consistency this relies on (dropping
    the last column of a p-injection gives the (p-1)-injection law) is
    exercised by the tests rather than assumed silently.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    if not (2 <= p <= m):
        raise ValueError("the inductive step needs p >= 2")
    if base is None:
        base = hybrid_inverse_mc(k, theta, p - 1, samples, rng.substream(0))
        rng = rng.substream(1)
    # factor K = R* R so each selected block is a Gram matrix of columns of R
    dec = eig_hermitian(k)
    scale = max(1.0, float(np.abs(dec.eigenvalues).max()))
    if dec.eigenvalues.min() < -1e-10 * scale:
        raise ValueError("k must be positive semidefinite")
    root = np.diag(np.sqrt(np.clip(dec.eigenvalues.real, 0.0, None))) @ dec.eigenvectors.conj().T

    def chunk(b, rng):
        idx = sample_ewens_batch(m, theta, b, rng)[:, :p]
        corr = []
        for sel in idx:
            cols = root[:, sel]
            corr.append(block_pinv_correction(cols[:, : p - 1], cols[:, p - 1]))
        return _scatter_blocks(np.stack(corr), idx, m), 0

    step = haar._monte_carlo(samples, rng, chunk, frame=m, block=p * p, lift=m * m)
    est = base.estimate + step.estimate
    stderr = np.sqrt(np.asarray(base.stderr) ** 2 + np.asarray(step.stderr) ** 2)
    return MonteCarloEstimate(hermitize(est), stderr, min(base.samples, step.samples))
