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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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
    default_rank_tol,
    eig_hermitian,
    hermitize,
    require_hermitian,
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

# Monte Carlo engine constants: draws with a worse condition number are
# redrawn; aborting once more than this fraction was rejected keeps a
# silently-degenerate input from producing a quietly biased average.
COND_LIMIT = 1e12
MAX_REJECT_FRACTION = 0.01
# Draws are batched so that the arrays one chunk holds at once stay near
# this many bytes, whatever the shape or the sample count.
_CHUNK_BYTES = 16 * 2**20


def _chunk_draws(frame: int, block: int, lift: int) -> int:
    """Draws per chunk: the byte budget over the bytes one draw holds.

    ``frame``, ``block`` and ``lift`` count the entries of one draw's frame
    (or injection), compressed matrix and lift. Sampling and lifting hold
    up to five complex frames at once, the factorization four blocks, and
    the lift with Welford's deviation pass 40 bytes per lifted entry.
    """
    per_draw = 16 * (5 * frame + 4 * block) + 40 * lift
    return max(1, _CHUNK_BYTES // per_draw)


@dataclass
class MonteCarloEstimate:
    """Sample mean plus per-entry standard error of a matrix average."""

    estimate: np.ndarray
    stderr: np.ndarray
    samples: int
    rejected: int = 0


def _monte_carlo(
    samples: int, rng: RandomSource, chunk, frame: int, block: int, lift: int
) -> MonteCarloEstimate:
    """Mean of ``samples`` accepted draws, made chunk by chunk.

    ``chunk(b, rng)`` makes ``b`` draws of the sizes given to
    :func:`_chunk_draws` and returns the values of the accepted ones
    (sample index on axis 0) with the number it rejected. Rejected draws
    are redrawn; once rejections exceed ``MAX_REJECT_FRACTION`` of
    ``samples`` the run aborts, since that signals p exceeding the
    numerically effective rank. Every average taken this way is
    Hermitian, so the mean is projected onto its Hermitian part (the real
    part, for a lifted diagonal).
    """
    if samples < 2:
        raise ValueError("need at least two Monte Carlo samples")
    acc = WelfordAccumulator()
    rejected = 0
    max_reject = max(1, int(MAX_REJECT_FRACTION * samples))
    size = _chunk_draws(frame, block, lift)
    while acc.count < samples:
        values, bad = chunk(min(size, samples - acc.count), rng)
        rejected += bad
        if rejected > max_reject:
            raise RuntimeError(
                f"{rejected} ill-conditioned draws exceed the "
                f"{MAX_REJECT_FRACTION:.0%} resampling budget; "
                "is p larger than the effective rank of K?"
            )
        acc.add_batch(values)
    return MonteCarloEstimate(hermitize(acc.mean), acc.stderr(), acc.count, rejected)


@dataclass
class InvcovSpectrum:
    """Eigenvalue action of the inverse-compression average.

    The average preserves the eigenvectors of ``K``; nonzero eigenvalues
    ``d_i`` map to ``lambdas[i]`` and the zero eigenvalues map to the
    common constant ``mu``.
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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loading weights must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("loading weights must not both vanish")


def _check_p(p: int, m: int):
    if not (1 <= p <= m):
        raise ValueError(f"compression size p={p} must lie in [1, {m}]")


def cov_p_closed(k, p: int) -> np.ndarray:
    """Closed form of the compression average ``E(Phi* (Phi K Phi*) Phi)``.

    Equals ``p/((m^2-1)m) * ((mp-1) K + (m-p) Tr(K) I)``; the average
    shares eigenvectors with K, contracts toward the sphere of trace
    ``(p/m) Tr K``, and returns K itself at p = m.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    _check_p(p, m)
    if m == 1:
        return k.astype(np.complex128, copy=True)
    lead = p / ((m * m - 1.0) * m)
    return hermitize(lead * ((m * p - 1.0) * k + (m - p) * np.trace(k) * np.eye(m)))


def cov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo twin of :func:`cov_p_closed` for validation."""
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    _check_p(p, m)

    def chunk(b, rng):
        phi = sample_haar_stiefel_batch(p, m, b, rng)
        w = np.einsum("bpi,ij,bqj->bpq", phi, k, phi.conj(), optimize=True)
        return np.einsum("bpi,bpq,bqj->bij", phi.conj(), w, phi, optimize=True), 0

    return _monte_carlo(samples, rng, chunk, frame=m * p, block=p * p, lift=m * m)


def _compress_check_invert(phi, phik):
    """Compressed inverses of one chunk of the inverse-compression averages.

    ``phik`` holds ``Phi K`` for each frame ``Phi`` of ``phi``. Draws whose
    compressed matrix ``Phi K Phi*`` has condition number above
    ``COND_LIMIT`` are dropped. Returns the kept frames, the inverses of
    their compressed matrices and the number of draws dropped.
    """
    w = np.einsum("bpi,bqi->bpq", phik, phi.conj(), optimize=True)
    w = (w + np.swapaxes(w, 1, 2).conj()) / 2.0
    lam = np.linalg.eigvalsh(w)
    lo, hi = lam[:, 0], lam[:, -1]
    good = (lo > 0) & (hi <= COND_LIMIT * lo)
    if not good.all():
        phi, w = phi[good], w[good]
    return phi, np.linalg.inv(w), len(good) - len(phi)


def invcov_p_mc(k, p: int, samples: int, rng: RandomSource) -> MonteCarloEstimate:
    """Monte Carlo estimate of ``E(Phi* (Phi K Phi*)^{-1} Phi)``.

    Requires ``p <= rank(K)`` so the compressed matrix is almost surely
    invertible. Draws whose compressed matrix has condition number above
    ``COND_LIMIT`` are rejected and redrawn; once rejections exceed
    ``MAX_REJECT_FRACTION`` of the requested sample count the run aborts,
    since that signals p exceeding the numerically effective rank.

    Returns
    -------
    MonteCarloEstimate
        ``estimate`` is Hermitian positive definite, ``stderr`` holds
        per-entry Monte Carlo standard errors, ``rejected`` counts
        discarded draws.
    """
    k = require_hermitian(k, name="k")
    m = k.shape[0]
    _check_p(p, m)

    def chunk(b, rng):
        phi = sample_haar_stiefel_batch(p, m, b, rng)
        phik = np.einsum("bpi,ij->bpj", phi, k, optimize=True)
        phi, winv, rejected = _compress_check_invert(phi, phik)
        lifted = np.einsum("bpi,bpq,bqj->bij", phi.conj(), winv, phi, optimize=True)
        return lifted, rejected

    return _monte_carlo(samples, rng, chunk, frame=m * p, block=p * p, lift=m * m)


def invcov_spectrum(k, p: int, samples: int, rng: RandomSource) -> InvcovSpectrum:
    """Eigenvalue map of the inverse-compression average of ``K``.

    Diagonalizes K and runs the Monte Carlo average on the diagonal of
    eigenvalues (the average commutes with conjugation, so this loses
    nothing). For diagonal input the average is exactly diagonal, so
    only the lifted diagonal is accumulated; that trims the per-draw
    cost from m^2 p to m p^2 and makes large m practical. Draws are
    rejected, and the run aborted, as in :func:`invcov_p_mc`.
    """
    dec = eig_hermitian(k)
    m = len(dec.eigenvalues)
    _check_p(p, m)
    tol = default_rank_tol(dec.eigenvalues, m)
    rank = int((dec.eigenvalues > tol).sum())
    d = np.where(dec.eigenvalues > tol, dec.eigenvalues.real, 0.0)

    def chunk(b, rng):
        phi = sample_haar_stiefel_batch(p, m, b, rng)
        phi, winv, rejected = _compress_check_invert(phi, phi * d)
        lifted = np.einsum("bpi,bpq,bqi->bi", phi.conj(), winv, phi, optimize=True)
        return lifted.real, rejected

    est = _monte_carlo(samples, rng, chunk, frame=m * p, block=p * p, lift=m)
    diag = est.estimate.real
    mu = float(diag[rank:].mean()) if rank < m else float("nan")
    return InvcovSpectrum(diag[:rank].copy(), mu, p)


def _factorial_ratio(num_terms, den_terms) -> Fraction:
    num = 1
    for t in num_terms:
        num *= factorial(t)
    den = 1
    for t in den_terms:
        den *= factorial(t)
    return Fraction(num, den)


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
    _check_p(p, n)
    if moment < 1:
        raise ValueError("moment order must be >= 1")
    psums = power_sums(d, moment)
    total = 0
    for j in range(min(p, moment)):
        coef = (-1) ** j * _factorial_ratio(
            (moment + p - j - 1, n - j - 1), (moment + n - j - 1, p - j - 1)
        )
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
    _check_p(p, n)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    big_n = degree + 1
    psums = power_sums(d, big_n)
    coeffs = [0] * big_n
    for j in range(min(p, big_n)):
        beta = (
            (-1) ** j
            * _factorial_ratio(
                (degree + p - j, n - j - 1), (degree + n - j, p - j - 1)
            )
            / (degree + 1)
        )
        per_shape = schur_hook_derivative_coeffs(HookShape(big_n, j), psums)
        for k in range(big_n):
            coeffs[k] = coeffs[k] + beta * per_shape[k]
    return MomentCoefficients(degree, coeffs)


def diagonal_loading(k, params: LoadingParameters) -> np.ndarray:
    """Classical loading ``alpha K + beta I``."""
    k = require_hermitian(k, name="k")
    return hermitize(params.alpha * k + params.beta * np.eye(k.shape[0]))
