r"""Core linear algebra for the estimator modules.

Everything downstream works with complex double precision Hermitian
matrices. This module provides the shared plumbing: spectral
decompositions, pseudoinverses (including the bordered Gram-matrix
update used by the injection-average inverse estimators), empirical
spectral distributions, the Levy-distance bound, Gaussian and unitary
sampling, reproducible random streams, and the CSV exchange format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    "levy_bound",
    "sample_gaussian_covariance",
    "sample_haar_stiefel_batch",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_esd_csv",
    "save_density_csv",
]

# Residual tolerance below which a computed matrix is accepted as Hermitian.
HERMITIAN_TOL = 1e-12


def _as_square(a, name="matrix"):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a.astype(np.complex128, copy=False)


def require_hermitian(a, tol=1e-10, name="matrix"):
    """Validate that ``a`` is square, finite and Hermitian within ``tol``."""
    a = _as_square(a, name)
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if float(np.abs(a - a.conj().T).max()) > tol * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance {tol}")
    return a


def hermitize(a):
    """Project onto the Hermitian part, killing roundoff asymmetry."""
    a = np.asarray(a, dtype=np.complex128)
    return (a + a.conj().T) / 2.0


class RandomSource:
    """Deterministic random stream addressable by (seed, stream indices).

    Substreams are derived through ``numpy.random.SeedSequence`` spawn
    keys on top of the counter-based Philox generator, so parallel Monte
    Carlo jobs reproduce bit-for-bit regardless of scheduling: stream
    ``(seed, i)`` is the same no matter which worker runs it.
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


def default_rank_tol(eigenvalues, m: int) -> float:
    """Rank cutoff ``m * eps * max|eigenvalue|`` used by the pseudoinverse."""
    top = float(np.abs(eigenvalues).max()) if len(eigenvalues) else 0.0
    return m * np.finfo(np.float64).eps * top


def pseudoinverse(k) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix.

    Eigenvalues with ``|w| <= m * eps * max|w|`` are treated as exact
    zeros, which keeps the numerical rank of a sample covariance with
    ``n < m`` at ``n``.
    """
    k = require_hermitian(k, name="k")
    return hermitize(_pinv_batch_hermitian(k[None])[0])


def _pinv_batch_hermitian(w_batch):
    """Batched Hermitian pseudoinverse for a stack of small matrices."""
    w_batch = np.asarray(w_batch, dtype=np.complex128)
    m = w_batch.shape[-1]
    lam, u = np.linalg.eigh(w_batch)
    cut = m * np.finfo(np.float64).eps * np.abs(lam).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(lam) > cut, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    return np.einsum("...ik,...k,...jk->...ij", u, inv, u.conj(), optimize=True)


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
    a_block = np.asarray(a_block, dtype=np.complex128)
    a_col = np.asarray(a_col, dtype=np.complex128).reshape(-1)
    if a_block.ndim != 2 or a_block.shape[0] != a_col.shape[0]:
        raise ValueError("a_block and a_col have incompatible shapes")
    n1 = a_block.shape[1]
    ap = np.linalg.pinv(a_block)
    x = ap @ a_col
    norm_a2 = float(np.vdot(a_col, a_col).real)
    s = norm_a2 - float(np.vdot(a_col, a_block @ x).real)
    e = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    if abs(s) > 1e-10 * (1.0 + norm_a2):
        e[:n1, :n1] = np.outer(x, x.conj()) / s
        e[:n1, n1] = -x / s
        e[n1, :n1] = -x.conj() / s
        e[n1, n1] = 1.0 / s
    else:
        # a lies in range(A): rank does not grow, rank-two correction.
        b = ap.conj().T @ (x / (1.0 + float(np.vdot(x, x).real)))
        y = ap @ b
        nb2 = float(np.vdot(b, b).real)
        e[:n1, :n1] = (
            nb2 * np.outer(x, x.conj()) - np.outer(x, y.conj()) - np.outer(y, x.conj())
        )
        e[:n1, n1] = -nb2 * x + y
        e[n1, :n1] = e[:n1, n1].conj()
        e[n1, n1] = nb2
    return hermitize(e)


def block_pinv_update(a_block, a_col):
    """Pseudoinverse of ``[A a]* [A a]`` from the blocks of ``A``.

    Returns the full ``n x n`` pseudoinverse assembled as the padded
    ``(A* A)^+`` plus :func:`block_pinv_correction`.
    """
    a_block = np.asarray(a_block, dtype=np.complex128)
    ap = np.linalg.pinv(a_block)
    n1 = a_block.shape[1]
    out = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    out[:n1, :n1] = ap @ ap.conj().T  # (A* A)^+
    return hermitize(out + block_pinv_correction(a_block, a_col))


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
    dec = eig_hermitian(k)
    return EmpiricalSpectralDistribution(np.sort(dec.eigenvalues.real))


def levy_bound(a, b) -> float:
    """Upper bound ``((1/m) Tr((A-B)(A-B)*))^(1/3)`` on the Levy distance
    between the empirical spectral distributions of Hermitian A and B."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("matrices must share a shape")
    m = a.shape[0]
    return float((frobenius_norm(a - b) ** 2 / m) ** (1.0 / 3.0))


def sample_gaussian_covariance(sigma, n: int, rng: RandomSource) -> np.ndarray:
    """Sample covariance ``K = (1/n) M M*`` of n standard complex Gaussian
    observations with population covariance ``sigma``.

    Columns of ``M`` are ``sigma^(1/2) g`` with g standard complex
    Gaussian (independent real and imaginary parts of variance 1/2), so
    ``E K = sigma``. For ``n < m`` the result is singular of rank at
    most n.
    """
    sigma = require_hermitian(sigma, name="sigma")
    if n < 1:
        raise ValueError("n must be >= 1")
    w, u = np.linalg.eigh(sigma)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if w.size and w.min() < -1e-10 * max(1.0, scale):
        raise ValueError("sigma must be positive semidefinite")
    root = u @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    m = sigma.shape[0]
    g = rng.generator.standard_normal((m, n)) + 1j * rng.generator.standard_normal((m, n))
    obs = root @ (g / np.sqrt(2.0))
    return hermitize(obs @ obs.conj().T / n)


def sample_haar_stiefel_batch(p: int, m: int, count: int, rng: RandomSource) -> np.ndarray:
    """Stack of ``count`` Haar-distributed p x m matrices with orthonormal rows.

    Complex Gaussian matrices are orthonormalized by QR; multiplying by
    the phases of the R diagonal makes the factor unique, which is what
    turns the QR output into an exactly Haar-distributed point rather
    than one biased by the factorization convention.
    """
    if not (1 <= p <= m):
        raise ValueError("need 1 <= p <= m")
    if count < 1:
        raise ValueError("count must be >= 1")
    g = rng.generator
    z = (g.standard_normal((count, m, p)) + 1j * g.standard_normal((count, m, p))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
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
        """Fold in a batch with the sample index on axis 0."""
        values = np.asarray(values)
        b = values.shape[0]
        if b == 0:
            return
        bmean = values.mean(axis=0)
        bm2 = (np.abs(values - bmean) ** 2).sum(axis=0)
        if self.count == 0:
            self.count, self.mean, self._m2 = b, bmean.astype(np.complex128), bm2
            return
        delta = bmean - self.mean
        total = self.count + b
        self._m2 = self._m2 + bm2 + np.abs(delta) ** 2 * (self.count * b / total)
        self.mean = self.mean + delta * (b / total)
        self.count = total

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
