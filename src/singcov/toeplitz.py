r"""Toeplitz test matrices and their spectral limits.

Two banded/decaying Hermitian Toeplitz families serve as ground-truth
covariance models:

* tridiagonal: 1 on the diagonal, b on the first off-diagonals, with
  symbol ``1 + 2 b cos(theta)``;
* geometric power decay: entries ``alpha^|i-j|``, with symbol
  ``1 + 2 alpha (cos(theta) - alpha) / ((cos(theta)-alpha)^2 + sin^2(theta))``.

Both have explicit eigensystems/inverses and arcsine-type limiting
spectral densities (the push-forward of the uniform angle through the
symbol). The Ewens permutation average of either family admits an exact
structured decomposition whose components shrink as the matrix grows,
which is what makes the limiting spectrum of the averaged matrix an
affine rescale of the original symbol when theta grows like beta * m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDecomposition, default_rank_tol, hermitize, require_theta

__all__ = [
    "TridiagonalToeplitz",
    "PowerToeplitz",
    "SymbolFunction",
    "LimitingMeasure",
    "SupportInterval",
    "tridiag_eigensystem",
    "limiting_measure",
    "tridiag_t_matrix",
    "power_j_matrix",
    "ewens_transform_closedform",
    "rescaled_symbol",
    "toeplitz_truth",
]


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float


@dataclass(frozen=True)
class SymbolFunction:
    """Generating symbol ``a(e^{i theta})``, optionally affinely rescaled.

    ``scale`` interpolates ``1 + scale * (a(theta) - 1)``; scale = 1 is
    the raw symbol, scale -> 0 collapses to the constant 1. Both
    families are even in theta and monotone on [0, pi], which is what
    the analytic density inversion uses.
    """

    kind: str  # a key of FAMILIES
    param: float
    scale: float = 1.0

    def __post_init__(self):
        _family(self.kind)
        if self.kind == "power" and not (0.0 <= self.param < 1.0):
            raise ValueError("power symbol needs alpha in [0, 1)")
        if self.kind == "tridiagonal" and not (self.param >= 0):
            raise ValueError("tridiagonal symbol needs b >= 0")
        if not (0.0 <= self.scale <= 1.0):
            raise ValueError("scale must lie in [0, 1]")

    def _base(self, theta):
        c = np.cos(theta)
        if self.kind == "tridiagonal":
            return 1.0 + 2.0 * self.param * c
        a = self.param
        return 1.0 + 2.0 * a * (c - a) / (1.0 + a * a - 2.0 * a * c)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 1.0 + self.scale * (self._base(theta) - 1.0)

    def derivative(self, theta):
        """d a / d theta (of the rescaled symbol)."""
        theta = np.asarray(theta, dtype=float)
        c = np.cos(theta)
        if self.kind == "tridiagonal":
            dbase_dc = 2.0 * self.param * np.ones_like(c)
        else:
            a = self.param
            dbase_dc = 2.0 * a * (1.0 - a * a) / (1.0 + a * a - 2.0 * a * c) ** 2
        return -self.scale * dbase_dc * np.sin(theta)

    @property
    def is_degenerate(self) -> bool:
        return self.scale == 0.0 or self.param == 0.0

    def range(self) -> SupportInterval:
        """Value range over the circle: [a(pi), a(0)] (monotone on [0, pi])."""
        return SupportInterval(float(self(np.pi)), float(self(0.0)))

    def inverse_theta(self, lam):
        """The angle in [0, pi] with a(theta) = lam (monotone branch)."""
        lam = np.asarray(lam, dtype=float)
        if self.is_degenerate:
            raise ValueError("constant symbol has no inverse")
        s = self.scale
        if self.kind == "tridiagonal":
            c = (lam - 1.0) / (2.0 * self.param * s)
        else:
            a = self.param
            y = lam - 1.0
            c = (y * (1.0 + a * a) + 2.0 * s * a * a) / (2.0 * a * (y + s))
        return np.arccos(np.clip(c, -1.0, 1.0))


@dataclass(frozen=True)
class TridiagonalToeplitz:
    """Hermitian Toeplitz matrix 1 on the diagonal, b on the first bands."""

    m: int
    b: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        # definite regime: of the extreme eigenvalues 1 +- 2 b cos(pi / (m+1)),
        # the smallest must stay above the rank cutoff; at the cap it is zero
        c = math.cos(math.pi / (self.m + 1))
        extremes = np.array([1.0 + 2.0 * self.b * c, 1.0 - 2.0 * self.b * c])
        if not (self.b >= 0.0 and extremes[1] > default_rank_tol(extremes, self.m)[0]):
            raise ValueError(f"b must lie in [0, {1.0 / (2.0 * c):.6f}) for m={self.m}")

    def matrix(self) -> np.ndarray:
        return np.eye(self.m) + self.b * (np.eye(self.m, k=1) + np.eye(self.m, k=-1))

    def symbol(self) -> SymbolFunction:
        return SymbolFunction("tridiagonal", self.b)

    def eigensystem(self) -> SpectralDecomposition:
        return tridiag_eigensystem(self.m, self.b)

    def inverse(self) -> np.ndarray:
        """Inverse through the exact eigensystem, ``U diag(1/w) U*``."""
        dec = self.eigensystem()
        u = dec.eigenvectors
        return hermitize(u @ np.diag(1.0 / dec.eigenvalues) @ u.conj().T)


@dataclass(frozen=True)
class PowerToeplitz:
    """Hermitian Toeplitz matrix with entries alpha^|i-j|."""

    m: int
    alpha: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")

    def matrix(self) -> np.ndarray:
        idx = np.arange(self.m)
        return self.alpha ** np.abs(idx[:, None] - idx[None, :]).astype(float)

    def symbol(self) -> SymbolFunction:
        return SymbolFunction("power", self.alpha)

    def det(self) -> float:
        """Closed-form determinant ``(1 - alpha^2)^(m-1)``."""
        return float((1.0 - self.alpha * self.alpha) ** (self.m - 1))

    def inverse(self) -> np.ndarray:
        """Closed-form tridiagonal inverse: ``(1 - alpha^2)^{-1}`` times the
        tridiagonal matrix with diagonal ``(1, 1 + alpha^2, ..., 1 + alpha^2, 1)``
        and off-diagonals ``-alpha``."""
        m, alpha = self.m, self.alpha
        diag = np.full(m, 1.0 + alpha * alpha)
        diag[0] = diag[-1] = 1.0
        out = np.diag(diag) - alpha * (np.eye(m, k=1) + np.eye(m, k=-1))
        return out / (1.0 - alpha * alpha)


def tridiag_eigensystem(m: int, b: float) -> SpectralDecomposition:
    """Exact eigensystem: values ``1 + 2 b cos(pi j / (m+1))``, sine vectors.

    Returned in descending eigenvalue order (j = 1 first for b >= 0);
    eigenvectors are normalized sine profiles, orthonormal by the
    discrete sine transform.
    """
    TridiagonalToeplitz(m, b)  # validate the regime
    j = np.arange(1, m + 1)
    values = 1.0 + 2.0 * b * np.cos(np.pi * j / (m + 1))
    k = np.arange(1, m + 1)
    vecs = np.sin(np.pi * np.outer(k, j) / (m + 1)) * math.sqrt(2.0 / (m + 1))
    return SpectralDecomposition(values, vecs.astype(np.complex128))


# The ground-truth families by kind, each with the name of its parameter,
# which is also the parameter's key in an experiment config's truth object.
FAMILIES = {"tridiagonal": ("b", TridiagonalToeplitz), "power": ("alpha", PowerToeplitz)}


def _family(kind: str) -> tuple:
    if kind not in FAMILIES:
        raise ValueError(f"kind must be {' or '.join(map(repr, FAMILIES))}, got {kind!r}")
    return FAMILIES[kind]


@dataclass(frozen=True)
class LimitingMeasure:
    """Push-forward of the uniform angle through a symbol.

    For a non-degenerate symbol this is an absolutely continuous law on
    the symbol range with density ``(1/pi) / |a'(theta(lam))|``; a
    constant symbol degenerates to a point mass (``atom``), whose density
    is infinite at the atom and zero elsewhere.
    """

    symbol: SymbolFunction

    @property
    def atom(self):
        return 1.0 if self.symbol.is_degenerate else None

    def density(self, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if self.symbol.is_degenerate:
            return np.where(grid == self.atom, np.inf, 0.0)
        sup = self.symbol.range()
        inside = (grid > sup.lo) & (grid < sup.hi)
        out = np.zeros_like(grid)
        if inside.any():
            theta = self.symbol.inverse_theta(grid[inside])
            deriv = np.abs(self.symbol.derivative(theta))
            with np.errstate(divide="ignore"):
                out[inside] = np.where(deriv > 0, 1.0 / (np.pi * deriv), np.inf)
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.symbol.is_degenerate:
            return (x >= 1.0).astype(float)
        sup = self.symbol.range()
        out = np.empty_like(x)
        below, above = x <= sup.lo, x >= sup.hi
        out[below], out[above] = 0.0, 1.0
        mid = ~below & ~above
        if mid.any():
            # symbol decreases over [0, pi]: {a <= x} has angle measure pi - theta(x)
            out[mid] = 1.0 - self.symbol.inverse_theta(x[mid]) / np.pi
        return out


def limiting_measure(sym: SymbolFunction) -> LimitingMeasure:
    return LimitingMeasure(sym)


def tridiag_t_matrix(m: int) -> np.ndarray:
    """Band-degree pattern in the tridiagonal Ewens decomposition.

    Off-diagonal entry (i, j) counts the band neighbors of i and of j,
    minus 2 when i, j are themselves neighbors; values in {1, 2, 3, 4},
    zero diagonal.
    """
    deg = np.full(m, 2.0)
    deg[0] = deg[-1] = 1.0
    adj = np.eye(m, k=1) + np.eye(m, k=-1)
    t = deg[:, None] + deg[None, :] - 2.0 * adj
    np.fill_diagonal(t, 0.0)
    return t


def power_j_matrix(m: int, alpha: float) -> np.ndarray:
    """Boundary-decay pattern in the power-family Ewens decomposition.

    Off-diagonal entry (i, j) is ``alpha^i + alpha^j + alpha^(m+1-i) +
    alpha^(m+1-j)`` in 1-based indices; zero diagonal.
    """
    i = np.arange(1, m + 1, dtype=float)
    s = alpha**i + alpha ** (m + 1 - i)
    j = s[:, None] + s[None, :]
    np.fill_diagonal(j, 0.0)
    return j


def ewens_transform_closedform(family, theta: float) -> np.ndarray:
    """Structured form of the Ewens average of a Toeplitz family member.

    Tridiagonal family B (band weight b):

    ``B_theta = I + (theta^2+theta-2)/Delta * L
              + b (theta-1)/Delta * T
              + 2 b (m-1)/Delta * (ee^T - I)``

    with ``Delta = (theta+m-2)(theta+m-1)``, ``L = B - I`` and the
    pattern ``T`` of :func:`tridiag_t_matrix`.

    Power family A (decay alpha):

    ``A_theta = I + (theta^2-theta)/Delta * (A - I)
              + 2 alpha (alpha^m - m alpha + m - 1 - 2(theta-1)(alpha-1))
                / ((1-alpha)^2 Delta) * (ee^T - I)
              - (theta-1)/((1-alpha) Delta) * J``

    with ``J`` of :func:`power_j_matrix`. The coefficients are derived
    from the closed-form permutation average itself (the constant and
    boundary terms pick up the row-sum geometry of each family); the
    assembled matrix agrees with :func:`~singcov.ewens.ewens_estimator`
    to near machine precision, which the verification suite enforces.
    """
    require_theta(theta)
    m = family.m
    d1 = theta + m - 1.0
    d2 = theta + m - 2.0
    # (theta-1)/Delta and 1/Delta as ratios bounded in theta, so no
    # coefficient overflows as theta grows
    lag = (theta - 1.0) / d2 / d1
    inv_delta = 1.0 / d2 / d1
    ee = np.ones((m, m)) - np.eye(m)
    if isinstance(family, TridiagonalToeplitz):
        b = family.b
        band = family.matrix() - np.eye(m)
        return (
            np.eye(m)
            + (theta - 1.0) / d2 * ((theta + 2.0) / d1) * band
            + b * lag * tridiag_t_matrix(m)
            + 2.0 * b * (m - 1.0) * inv_delta * ee
        )
    if isinstance(family, PowerToeplitz):
        a = family.alpha
        const = (
            2.0
            * a
            * ((a**m - m * a + m - 1.0) * inv_delta - 2.0 * (a - 1.0) * lag)
            / (1.0 - a) ** 2
        )
        return (
            np.eye(m)
            + theta / d1 * ((theta - 1.0) / d2) * (family.matrix() - np.eye(m))
            + const * ee
            - lag / (1.0 - a) * power_j_matrix(m, a)
        )
    raise TypeError("family must be TridiagonalToeplitz or PowerToeplitz")


def rescaled_symbol(kind: str, param: float, beta: float) -> SymbolFunction:
    """Limiting symbol of the Ewens average at theta = beta m.

    The family symbol rescaled by ``beta^2 / (beta+1)^2``; its ``range()``
    is the support of the limiting spectrum, which beta -> infinity takes
    to the raw support and beta -> 0 collapses to {1}.
    """
    if not (beta >= 0):
        raise ValueError(f"beta must be >= 0, got {beta}")
    scale = (beta / (beta + 1.0)) ** 2 if math.isfinite(beta) else 1.0
    return SymbolFunction(kind, param, scale)


def toeplitz_truth(kind: str, m: int, param: float):
    """The ``m x m`` member of the family ``kind`` with parameter ``param``."""
    return _family(kind)[1](m, param)
