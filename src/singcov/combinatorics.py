"""Partitions, hook-shape characters, and Schur polynomial evaluation.

Symmetric-function machinery behind the unitary-average moment
formulas. Everything combinatorial is exact integer or rational
arithmetic; evaluations inherit the numeric type of the inputs, so
feeding ``fractions.Fraction`` power sums keeps results exact while
float inputs give floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

__all__ = [
    "Partition",
    "HookShape",
    "CycleType",
    "enumerate_partitions",
    "enumerate_cycle_types",
    "hook_character",
    "power_sums",
    "schur_hook_powersum",
    "schur_bialternant",
    "schur_hook_derivative_coeffs",
]


@dataclass(frozen=True)
class Partition:
    """Integer partition: non-increasing positive parts."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        if any(x <= 0 for x in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class HookShape:
    """Hook partition (N - j, 1^j): arm N - j >= 1, leg j."""

    weight: int
    leg: int

    def __post_init__(self):
        if not (0 <= self.leg <= self.weight - 1):
            raise ValueError(f"leg must lie in [0, {self.weight - 1}]")


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a permutation, stored as parts of a partition."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", Partition(self.parts).parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> Counter:
        """r_l = number of cycles of length l."""
        return Counter(self.parts)

    def symmetrizer_order(self) -> int:
        """z = prod_l l^{r_l} r_l!, the centralizer order in S_N."""
        z = 1
        for length, rep in self.multiplicities().items():
            z *= length**rep * factorial(rep)
        return z


def _partition_tuples(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int) -> list:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Partition(t) for t in _partition_tuples(n, n)]


def enumerate_cycle_types(n: int) -> list:
    return [CycleType(p.parts) for p in enumerate_partitions(n)]


def hook_character(shape: HookShape, rho: CycleType) -> int:
    """Irreducible symmetric-group character of a hook shape at cycle type rho.

    The character of ``(N - j, 1^j)`` is the coefficient of ``t^j`` in
    ``prod_l (1 - (-t)^{rho_l}) / (1 + t)``, the hook case of the
    Murnaghan-Nakayama rule, computed in exact integers.
    """
    if shape.weight != rho.weight:
        raise ValueError("shape and cycle type must have the same weight")
    c = [1]
    for length in rho.parts:
        # times 1 - (-1)^l t^l
        sign = (-1) ** length
        c = [a - sign * b for a, b in zip(c + [0] * length, [0] * length + c)]
    # divide by 1 + t: q_j = c_j - q_{j-1}
    q = 0
    for cj in c[: shape.leg + 1]:
        q = cj - q
    return q


def power_sums(values, max_order: int) -> list:
    """[p_1, ..., p_max] with p_l = sum_i values[i]**l.

    Plain Python arithmetic: exact for int/Fraction inputs.
    """
    return [sum(v**l for v in values) for l in range(1, max_order + 1)]


def schur_hook_powersum(shape: HookShape, psums) -> object:
    """Schur polynomial of a hook shape from power sums.

    Character expansion over cycle types:
    ``sum_rho chi(rho) prod_l p_l^{r_l} / (l^{r_l} r_l!)``.
    """
    n = shape.weight
    if len(psums) < n:
        raise ValueError(f"need power sums up to order {n}")
    total = 0
    for rho in enumerate_cycle_types(n):
        chi = hook_character(shape, rho)
        if chi == 0:
            continue
        term = Fraction(chi, rho.symmetrizer_order())
        for length in rho.parts:
            term = term * psums[length - 1]
        total = total + term
    return total


def _det_object(rows):
    # cofactor expansion; fine for the tiny matrices used here, and it
    # works for Fraction entries as well as floats
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total = total + (-1) ** j * rows[0][j] * _det_object(minor)
    return total


def _complete_homogeneous(psums, max_order: int) -> list:
    # Newton recurrence k h_k = sum_{i<=k} p_i h_{k-i}
    h = [1]
    for k in range(1, max_order + 1):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + psums[i - 1] * h[k - i]
        h.append(acc * Fraction(1, k))
    return h


def _schur_jacobi_trudi(parts: tuple, values) -> object:
    # det(h_{lambda_i - i + j}); immune to coincident variables
    depth = len(parts)
    if depth == 0:
        return 1
    top = max(parts[0] + depth - 1, 1)
    psums = power_sums(values, top)
    h = _complete_homogeneous(psums, top)

    def entry(i, j):
        k = parts[i] - (i + 1) + (j + 1)
        if k < 0:
            return 0
        return h[k]

    rows = [[entry(i, j) for j in range(depth)] for i in range(depth)]
    return _det_object(rows)


def schur_bialternant(partition: Partition, values) -> object:
    """Schur polynomial as the ratio of alternants.

    ``det(x_j^(d_i + n - i)) / prod_{j<k}(x_j - x_k)`` for distinct
    float variables. Exact (int or Fraction) variables, and float ones so
    close that the ratio is 0/0, go through the Jacobi-Trudi determinant
    in complete homogeneous polynomials instead. Neither route uses the
    power-sum expansion of :func:`schur_hook_powersum`, so the two stay
    independent checks of each other.
    """
    values = list(values)
    n = len(values)
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    parts = partition.parts
    if len(parts) > n:
        # more rows than variables: the polynomial vanishes
        return 0
    scale = max((abs(v) for v in values), default=0)
    min_gap = min(
        (abs(values[i] - values[j]) for i in range(n) for j in range(i + 1, n)),
        default=None,
    )
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    coincident = min_gap is not None and (
        min_gap == 0 if exact else min_gap < 1e-8 * max(1.0, float(scale))
    )
    if coincident or exact:
        return _schur_jacobi_trudi(parts, values)
    padded = list(parts) + [0] * (n - len(parts))
    exps = [padded[i] + n - 1 - i for i in range(n)]
    num = np.array([[complex(x) ** e for x in values] for e in exps], dtype=complex)
    den = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            den *= complex(values[i]) - complex(values[j])
    val = complex(np.linalg.det(num)) / den
    return val.real if abs(val.imag) <= 1e-9 * (1 + abs(val.real)) else val


def schur_hook_derivative_coeffs(shape: HookShape, psums) -> list:
    """Coefficients c_0..c_{N-1} of d s_shape / d d_i = sum_k c_k d_i^k.

    Differentiating the power-sum expansion through p_l = sum d_i^l
    turns each cycle type into per-order contributions
    ``r_k p_k^{r_k - 1} / (k^{r_k - 1} r_k!) * prod_{l != k} ...``.
    """
    n = shape.weight
    if len(psums) < n:
        raise ValueError(f"need power sums up to order {n}")
    coeffs = [0] * n
    for rho in enumerate_cycle_types(n):
        chi = hook_character(shape, rho)
        if chi == 0:
            continue
        mult = rho.multiplicities()
        for k, rk in mult.items():
            term = Fraction(rk, k ** (rk - 1) * factorial(rk))
            val = term * (psums[k - 1] ** (rk - 1)) if rk > 1 else term
            for l, rl in mult.items():
                if l == k:
                    continue
                val = val * Fraction(1, l**rl * factorial(rl)) * psums[l - 1] ** rl
            coeffs[k - 1] = coeffs[k - 1] + chi * val
    return coeffs
