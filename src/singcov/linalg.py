r"""Core linear algebra for the estimator modules.

Everything downstream works with complex double precision Hermitian
matrices. This module provides the shared plumbing: spectral
decompositions, pseudoinverses (including the bordered Gram-matrix
update for one appended column), empirical spectral distributions,
Gaussian and unitary sampling, reproducible random streams, and the CSV
exchange format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomSource",
    "SpectralDecomposition",
    "EmpiricalSpectralDistribution",
    "WelfordAccumulator",
    "eig_hermitian",
    "pseudoinverse",
    "block_pinv_correction",
    "block_pinv_update",
    "frobenius_norm",
    "esd",
    "sample_complex_gaussian",
    "sample_gaussian_covariance",
    "sample_haar_stiefel_batch",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_esd_csv",
    "save_density_csv",
]

# Roundoff allowed in an input matrix, relative to max(1, its largest entry or
# eigenvalue magnitude): asymmetry if Hermitian, negative eigenvalues if PSD.
HERMITIAN_TOL = 1e-10

# Haar frames with at most this many entries (m p) are orthonormalized by
# batched Gram-Schmidt, larger ones by LAPACK QR: the measured crossover of
# their run times at the Monte Carlo chunk sizes.
GRAM_SCHMIDT_MAX_ENTRIES = 80


def require_finite(a, name):
    """Reject an array holding NaN or infinite entries."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")


def _as_square(a, name="matrix"):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {a.shape}")
    require_finite(a, name)
    return a.astype(np.complex128, copy=False)


def require_hermitian(a, name="matrix"):
    """Validate that ``a`` is square, finite and Hermitian within ``HERMITIAN_TOL``."""
    a = _as_square(a, name)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().T).max()) > HERMITIAN_TOL * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITIAN_TOL}")
    return a


def require_psd(eigenvalues, name):
    """Reject the eigenvalues of a Hermitian matrix that is not positive
    semidefinite: its least eigenvalue may lie below zero by at most
    ``HERMITIAN_TOL * max(1, max|eigenvalue|)``, which is roundoff."""
    w = np.asarray(eigenvalues)
    if w.size and w.min() < -HERMITIAN_TOL * max(1.0, float(np.abs(w).max())):
        raise ValueError(f"{name} must be positive semidefinite")


def require_int(value, name):
    """``value`` must be a Python or numpy integer: not a ``bool``, and not a
    float, even an integral one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_p(p: int, m: int):
    """A compression or injection size p must be an integer in [1, m]."""
    require_int(p, "p")
    if not (1 <= p <= m):
        raise ValueError(f"p={p} must lie in [1, {m}]")


def require_theta(theta: float):
    """The Ewens weight ``theta`` must be positive and finite."""
    if not (theta > 0) or not math.isfinite(theta):
        raise ValueError("theta must be positive and finite")


def hermitize(a):
    """Project onto the Hermitian part, killing roundoff asymmetry."""
    a = np.asarray(a, dtype=np.complex128)
    return (a + a.conj().T) / 2.0


class RandomSource:
    """Deterministic random stream addressable by (seed, stream indices).

    Stream ``(seed, i)`` is the Philox generator seeded by the
    ``numpy.random.SeedSequence`` of that seed and spawn key, so it is the
    same whoever draws from it, and ``substream`` gives independent
    children.

    A Monte Carlo run on a source draws one 128-bit key from its
    ``generator`` and gives each chunk of draws its own stream, an SFC64
    generator seeded by that key and the chunk's index (see
    :func:`singcov.haar._chunk_streams`). Those per-chunk streams make the
    result independent of which thread ran a chunk; two runs on one source
    still differ, and a run on a fresh source of the same seed repeats the
    first.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(_key)
        self._seq = np.random.SeedSequence(self.seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.Philox(self._seq))

    def substream(self, index: int) -> "RandomSource":
        """Independent child stream; deterministic in (seed, path, index)."""
        return RandomSource(self.seed, self._key + (int(index),))

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, key={self._key})"


@dataclass
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary, column i pairs with eigenvalues[i]

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return hermitize(u @ np.diag(self.eigenvalues) @ u.conj().T)


def eig_hermitian(k) -> SpectralDecomposition:
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Parameters
    ----------
    k : array_like
        Hermitian matrix.

    Returns
    -------
    SpectralDecomposition
        Satisfies ``U diag(w) U* = k`` to machine precision and
        ``U* U = I``.
    """
    k = require_hermitian(k, name="k")
    w, u = np.linalg.eigh(k)
    return SpectralDecomposition(w[::-1].copy(), u[:, ::-1].copy())


def default_rank_tol(eigenvalues, m: int) -> np.ndarray:
    """Rank cutoff ``m * eps * max|eigenvalue|`` used by the pseudoinverse, taken
    over the last axis and kept, so it broadcasts against one or many spectra."""
    top = np.abs(eigenvalues).max(axis=-1, keepdims=True, initial=0.0)
    return m * np.finfo(np.float64).eps * top


def numeric_rank(eigenvalues) -> int:
    """Number of eigenvalues of a Hermitian matrix above :func:`default_rank_tol`."""
    w = np.asarray(eigenvalues)
    return int((w > default_rank_tol(w, len(w))).sum())


def pseudoinverse(k) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix.

    Eigenvalues with ``|w| <= m * eps * max|w|`` are treated as exact
    zeros, which keeps the numerical rank of a sample covariance with
    ``n < m`` at ``n``.
    """
    k = require_hermitian(k, name="k")
    return hermitize(_pinv_batch_hermitian(k[None])[0])


def _pinv_batch_hermitian(w_batch):
    """Batched Hermitian pseudoinverse for a stack of small matrices: each
    ``U diag(x) U*`` for its eigenvectors U and reciprocal eigenvalues x,
    those at or below :func:`default_rank_tol` set to zero."""
    w_batch = np.asarray(w_batch, dtype=np.complex128)
    m = w_batch.shape[-1]
    lam, u = np.linalg.eigh(w_batch)
    cut = default_rank_tol(lam, m)
    inv = np.where(np.abs(lam) > cut, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    return (u * inv[..., None, :]) @ np.swapaxes(u, -1, -2).conj()


def _squared_frobenius(a):
    """``||A||_F^2`` of each matrix in a complex stack, as a real dot of each
    matrix's float64 view with itself."""
    f = np.ascontiguousarray(a).view(np.float64)
    f = f.reshape(a.shape[:-2] + (2 * a.shape[-2] * a.shape[-1],))
    return np.einsum("...k,...k->...", f, f)


def _inv_batch_hermitian(w_batch):
    """Inverses of a stack of Hermitian blocks, of shape (b, p, p), each by
    one LU factorization, and each block's Frobenius condition number
    ``||W||_F ||W^-1||_F``.

    ``np.linalg.inv`` refuses the whole stack when one block is exactly
    singular, that is, when LU meets an exactly zero pivot, which is where
    ``np.linalg.slogdet`` gives the sign 0. The other blocks are then
    inverted by LU as a stack of their own, to the same bits, and each
    singular block gets a condition number of inf and a zero inverse: what
    to use in its place is the caller's to decide.
    """
    w_batch = np.asarray(w_batch, dtype=np.complex128)
    try:
        inv = np.linalg.inv(w_batch)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(w_batch)[0] == 0
        regular = w_batch[~singular]
        regular_inv = np.linalg.inv(regular)
        cond = np.full(len(w_batch), np.inf)
        cond[~singular] = np.sqrt(_squared_frobenius(regular) * _squared_frobenius(regular_inv))
        del regular
        inv = np.zeros_like(w_batch)
        inv[~singular] = regular_inv
        return inv, cond
    return inv, np.sqrt(_squared_frobenius(w_batch) * _squared_frobenius(inv))


def block_pinv_correction(a_block, a_col):
    """Correction term in the bordered Gram-matrix pseudoinverse update.

    For ``M = [A a]`` and ``B = M* M`` the pseudoinverse of ``B`` equals
    the zero-padded pseudoinverse of ``A* A`` plus the correction
    returned here. The two analytic branches split on
    ``s = ||a||^2 - a* A A^+ a``, the squared distance from ``a`` to
    range(A): ``s`` is treated as zero when
    ``|s| <= 1e-10 * (1 + ||a||^2)``.

    Parameters
    ----------
    a_block : array_like, shape (m, n-1)
        Existing columns ``A``.
    a_col : array_like, shape (m,)
        Appended column ``a``.

    Returns
    -------
    numpy.ndarray, shape (n, n)
        Hermitian correction ``E`` with
        ``(M* M)^+ = [[(A* A)^+, 0], [0, 0]] + E``.
    """
    return _bordered_pinv(a_block, a_col)[1]


def _bordered_pinv(a_block, a_col):
    """``(A^+, E)``: the pseudoinverse of ``A`` and the correction ``E`` of
    :func:`block_pinv_correction`, which is built from ``A^+``."""
    a_block = np.asarray(a_block, dtype=np.complex128)
    a_col = np.asarray(a_col, dtype=np.complex128)
    if a_block.ndim != 2 or a_col.shape != a_block.shape[:1]:
        raise ValueError("a_block and a_col have incompatible shapes")
    ap = np.linalg.pinv(a_block)
    x = ap @ a_col
    norm_a2 = np.vdot(a_col, a_col).real
    s = norm_a2 - np.vdot(a_col, a_block @ x).real
    # With v = [x; -1], E = v v*/s when a leaves range(A). Otherwise the
    # rank does not grow and E = |b|^2 v v* - (v w* + w v*), w = [y; 0].
    v = np.append(x, -1.0)
    vv = np.outer(v, v.conj())
    if abs(s) > 1e-10 * (1.0 + norm_a2):
        e = vv / s
    else:
        b = ap.conj().T @ (x / (1.0 + np.vdot(x, x).real))
        vw = np.outer(v, np.append(ap @ b, 0.0).conj())
        e = np.vdot(b, b).real * vv - (vw + vw.conj().T)
    return ap, (e + e.conj().T) / 2.0


def block_pinv_update(a_block, a_col):
    """Pseudoinverse of ``[A a]* [A a]`` from the blocks of ``A``.

    Returns the full ``n x n`` pseudoinverse assembled as the padded
    ``(A* A)^+`` plus :func:`block_pinv_correction`.
    """
    ap, correction = _bordered_pinv(a_block, a_col)
    n1 = ap.shape[0]
    out = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    out[:n1, :n1] = ap @ ap.conj().T  # (A* A)^+
    return hermitize(out + correction)


def frobenius_norm(a) -> float:
    """Frobenius norm ``sqrt(Tr(A A*))``."""
    return float(np.linalg.norm(np.asarray(a), "fro"))


@dataclass
class EmpiricalSpectralDistribution:
    """Uniform probability mass 1/m on each eigenvalue of an m x m matrix."""

    eigenvalues: np.ndarray  # real, ascending

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    def cdf(self, x):
        """Fraction of eigenvalues <= x (right-continuous step function)."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.eigenvalues, x, side="right") / self.m

    def kolmogorov_distance(self, cdf) -> float:
        """sup-distance between this step CDF and a reference CDF callable."""
        lam = self.eigenvalues
        ref = np.asarray(cdf(lam), dtype=float)
        steps = np.arange(1, self.m + 1) / self.m
        return float(
            max(np.abs(steps - ref).max(), np.abs(steps - 1.0 / self.m - ref).max())
        )


def esd(k) -> EmpiricalSpectralDistribution:
    """Empirical spectral distribution of a Hermitian matrix."""
    return EmpiricalSpectralDistribution(np.linalg.eigvalsh(require_hermitian(k, name="k")))


def sample_complex_gaussian(shape, rng: RandomSource) -> np.ndarray:
    """Array of independent standard complex Gaussians, whose real and
    imaginary parts are independent with variance 1/2.

    All real parts are drawn before all imaginary parts, so a seed fixes
    the array whichever sampler asks for it.
    """
    out = np.empty(shape, dtype=np.complex128)
    _fill_complex_gaussian(out, rng)
    return out


def _fill_complex_gaussian(out, rng: RandomSource, conjugate: bool = False):
    """Fill the complex array ``out``, which may be a strided view, with the
    array that :func:`sample_complex_gaussian` draws from ``rng`` at its
    shape, or with that array's conjugate: the same normals, with the
    imaginary parts negated, which is exact."""
    # the product with 1/sqrt(2) rounds as numpy's complex division by sqrt(2)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.generator.standard_normal(out.shape), scale, out=out.real)
    np.multiply(rng.generator.standard_normal(out.shape), -scale if conjugate else scale, out=out.imag)


def sample_gaussian_covariance(sigma, n: int, rng: RandomSource) -> np.ndarray:
    """Sample covariance ``K = (1/n) M M*`` of n standard complex Gaussian
    observations with population covariance ``sigma``.

    Columns of ``M`` are ``sigma^(1/2) g`` with g standard complex
    Gaussian (independent real and imaginary parts of variance 1/2), so
    ``E K = sigma``. For ``n < m`` the result is singular of rank at
    most n.
    """
    sigma = require_hermitian(sigma, name="sigma")
    w, u = np.linalg.eigh(sigma)
    # eigenvalues within the roundoff of require_psd are clipped to zero
    require_psd(w, "sigma")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = u @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    obs = root @ sample_complex_gaussian((len(w), n), rng)
    return hermitize(obs @ obs.conj().T / n)


def _gram_schmidt_rows(g) -> np.ndarray:
    """Conjugate transposes ``Q*`` of the QR factors ``G = QR`` with positive
    real R diagonal, for a stack of m x p matrices G of full column rank.

    Classical Gram-Schmidt, each column projected off its predecessors
    twice ("twice is enough": the second pass restores orthogonality to
    roundoff). The stack is held as p planes of shape (m, count), so each
    step is a few array operations over every matrix at once: a projection
    is a multiply-sum over the planes of the predecessors, and a norm a sum
    of squares over a plane's m rows.
    """
    # plane j holds conj(g[:, :, j]).T; the conjugate of Q is orthonormalized
    # directly, since Gram-Schmidt commutes with conjugation
    y = np.conjugate(np.transpose(g, (2, 1, 0)), order="C")
    for j, v in enumerate(y):
        q = y[:j]
        for _ in range(2 if j else 0):
            v -= (q * (q.conj() * v).sum(axis=1, keepdims=True)).sum(axis=0)
        v /= np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
    return np.ascontiguousarray(np.transpose(y, (2, 0, 1)))


def sample_haar_stiefel_batch(p: int, m: int, count: int, rng: RandomSource) -> np.ndarray:
    """Stack of ``count`` Haar-distributed p x m matrices with orthonormal rows.

    Each draw is ``Q*`` for the QR factorization ``G = QR`` of an m x p
    complex Gaussian matrix G of :func:`sample_complex_gaussian` whose R
    has a positive real diagonal. That normalization makes Q unique, which
    is what makes it exactly Haar-distributed rather than biased by a
    factorization convention (Mezzadri, Notices AMS 54, 2007). Two
    branches compute the same Q from the same G, to roundoff:

    - frames of at most ``GRAM_SCHMIDT_MAX_ENTRIES`` entries (``m p``) are
      orthonormalized by Gram-Schmidt, twice per column, batched along the
      draws. Gram-Schmidt builds the QR factors column by column with
      ``r_jj = ||g_j - sum_{i<j} r_ij q_i|| > 0``, so it yields that unique
      Q; it replaces one LAPACK call per draw, whose overhead dominates
      small frames;
    - larger frames use LAPACK QR, with each column of Q multiplied by the
      phase of its R diagonal entry.
    """
    require_p(p, m)
    if count < 1:
        raise ValueError("count must be >= 1")
    g = sample_complex_gaussian((count, m, p), rng)
    if m * p <= GRAM_SCHMIDT_MAX_ENTRIES:
        return _gram_schmidt_rows(g)
    q, r = np.linalg.qr(g)
    d = np.einsum("bii->bi", r)
    phase = np.where(np.abs(d) > 0, d / np.where(d == 0, 1.0, np.abs(d)), 1.0)
    q = q * phase[:, None, :]
    return np.swapaxes(q, 1, 2).conj()


class WelfordAccumulator:
    """Streaming mean and standard error, folded in one batch at a time.

    Tracks (count, mean, sum of squared deviations) per entry; for
    complex data the squared deviation is ``|x - mean|^2``, so the
    standard error covers both components jointly.
    """

    def __init__(self):
        self.count = 0
        self.mean = None
        self._m2 = None

    def add_batch(self, values: np.ndarray):
        """Fold in a batch with the sample index on axis 0.

        The batch is overwritten: its deviations from the batch mean, and
        their squares, are formed in place on its real and imaginary parts,
        so the fold holds no copy of it. A batch of integers, or one that is
        read-only, is folded from a float copy.
        """
        values = np.asarray(values)
        if values.dtype.kind not in "fc" or not values.flags.writeable:
            values = values.astype(np.result_type(values, np.float64))
        b = values.shape[0]
        if b == 0:
            return
        bmean = values.mean(axis=0)
        values -= bmean
        # |x - mean|^2 = re^2 + im^2, summed into the real part
        sq = np.square(values.real, out=values.real)
        if np.iscomplexobj(values):
            sq += np.square(values.imag, out=values.imag)
        self.add_moments(b, bmean, sq.sum(axis=0))

    def add_moments(self, count: int, mean: np.ndarray, m2: np.ndarray):
        """Fold in a batch given by its size, mean and per-entry sum of
        squared deviations from that mean (the pairwise merge of Chan,
        Golub and LeVeque)."""
        if count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = count, np.asarray(mean, dtype=np.complex128), m2
            return
        delta = mean - self.mean
        total = self.count + count
        self._m2 = self._m2 + m2 + np.abs(delta) ** 2 * (self.count * count / total)
        self.mean = self.mean + delta * (count / total)
        self.count = total

    def merge(self, other: "WelfordAccumulator"):
        """Fold in the batches that ``other`` has folded in."""
        self.add_moments(other.count, other.mean, other._m2)

    def stderr(self) -> np.ndarray:
        """Per-entry standard error of the mean."""
        if self.count < 2:
            raise ValueError("need at least two samples for a standard error")
        return np.sqrt(self._m2 / (self.count - 1) / self.count)


# ---------------------------------------------------------------------------
# CSV exchange format
# ---------------------------------------------------------------------------
#
# Matrix files: a header line "m=<dim>" followed by m rows of 2m floats,
# row-major real/imaginary pairs. Spectra: "index,eigenvalue" rows.
# Densities: "abscissa,density" rows. Floats carry 17 significant digits
# so a write/read round trip is bit exact. Every line but the matrix
# header ends in CRLF.

FLOAT_FMT = "%.17g"


def _write_csv(path, head: str, rows, fmt):
    with open(path, "w", newline="") as fh:
        fh.write(head)
        np.savetxt(fh, rows, fmt=fmt, delimiter=",", newline="\r\n")


def save_matrix_csv(path, a):
    a = _as_square(a, "matrix")
    # the float view interleaves each entry's real and imaginary part
    _write_csv(path, f"m={a.shape[0]}\n", np.ascontiguousarray(a).view(np.float64), FLOAT_FMT)


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix file; either line ending is accepted and blank lines
    are skipped."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("m="):
            raise ValueError(f"matrix file {path!r} lacks the 'm=<dim>' header")
        try:
            m = int(header[2:])
        except ValueError as exc:
            raise ValueError(f"bad matrix header {header!r}") from exc
        if m < 1:
            raise ValueError(f"bad matrix header {header!r}: m must be >= 1")
        # loadtxt warns on input without data, so look for a first row here
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError(f"expected {m} matrix rows, found 0")
        vals = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2, comments=None)
    if vals.shape != (m, 2 * m):
        raise ValueError(
            f"expected {m} matrix rows of {2 * m} fields, found {vals.shape[0]} of {vals.shape[1]}"
        )
    return vals.view(np.complex128)


def save_esd_csv(path, dist: EmpiricalSpectralDistribution):
    lam = dist.eigenvalues
    rows = np.column_stack((np.arange(len(lam)), lam))
    _write_csv(path, "index,eigenvalue\r\n", rows, ("%d", FLOAT_FMT))


def save_density_csv(path, xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("abscissae and density values must align")
    _write_csv(path, "abscissa,density\r\n", np.column_stack((xs, ys)), FLOAT_FMT)
