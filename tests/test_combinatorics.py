"""Unit tests for partitions, characters, and Schur evaluation."""

from fractions import Fraction

import numpy as np
import pytest

from singcov import combinatorics
from singcov.combinatorics import (
    CycleType,
    HookShape,
    Partition,
    enumerate_cycle_types,
    enumerate_partitions,
    hook_character,
    power_sums,
    schur_bialternant,
    schur_hook_derivative_coeffs,
    schur_hook_powersum,
)

# frozen from the standard S4 character table
CHI_S4 = {
    # cycle type: (chi for (4), (3,1), (2,1,1), (1,1,1,1)) hooks only
    (1, 1, 1, 1): {(4,): 1, (3, 1): 3, (2, 1, 1): 3, (1, 1, 1, 1): 1},
    (2, 1, 1): {(4,): 1, (3, 1): 1, (2, 1, 1): -1, (1, 1, 1, 1): -1},
    (2, 2): {(4,): 1, (3, 1): -1, (2, 1, 1): -1, (1, 1, 1, 1): 1},
    (3, 1): {(4,): 1, (3, 1): 0, (2, 1, 1): 0, (1, 1, 1, 1): 1},
    (4,): {(4,): 1, (3, 1): -1, (2, 1, 1): 1, (1, 1, 1, 1): -1},
}

_HOOK_BY_PARTS = {
    (4,): HookShape(4, 0),
    (3, 1): HookShape(4, 1),
    (2, 1, 1): HookShape(4, 2),
    (1, 1, 1, 1): HookShape(4, 3),
}


class TestPartitions:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_counts(self):
        # p(6) = 11 and p(10) = 42
        assert len(list(enumerate_partitions(6))) == 11
        assert len(list(enumerate_partitions(10))) == 42

    def test_cycle_types_match_partitions(self):
        types = list(enumerate_cycle_types(5))
        assert len(types) == 7
        # conjugacy class sizes partition S_5
        total = sum(Fraction(120, t.symmetrizer_order()) for t in types)
        assert total == 120


def test_hook_character_table_s4():
    for cycles, expected in CHI_S4.items():
        ctype = CycleType(cycles)
        for parts, value in expected.items():
            shape = _HOOK_BY_PARTS[parts]
            assert hook_character(shape, ctype) == value


def test_character_orthogonality_weight_4():
    # first orthogonality over the hook rows of S_N, at S4 and every other
    # weight up to 9
    for weight in range(1, 10):
        shapes = [HookShape(weight, leg) for leg in range(weight)]
        types = list(enumerate_cycle_types(weight))
        for a in shapes:
            for b in shapes:
                acc = Fraction(0)
                for t in types:
                    acc += Fraction(
                        hook_character(a, t) * hook_character(b, t), t.symmetrizer_order()
                    )
                assert acc == (1 if a == b else 0)


class TestSchur:
    def test_hook_powersum_matches_bialternant(self):
        g = np.random.default_rng(9)
        for weight in range(1, 6):
            for leg in range(weight):
                shape = HookShape(weight, leg)
                parts = Partition((weight - leg,) + (1,) * leg)
                xs = list(g.uniform(0.3, 2.0, 4))
                via_ps = float(schur_hook_powersum(shape, power_sums(xs, weight)))
                via_alt = schur_bialternant(parts, xs)
                assert abs(via_ps - via_alt) <= 1e-10 * max(1.0, abs(via_alt))

    def test_bialternant_handles_repeated_values(self):
        # repeated x forces the fallback route; compare against a
        # nearby evaluation on perturbed points
        parts = Partition((3, 1))
        base = schur_bialternant(parts, [1.0, 1.0, 2.0])
        near = schur_bialternant(parts, [1.0, 1.0 + 1e-7, 2.0])
        assert abs(base - near) <= 1e-4

    def test_exact_fraction_route(self):
        val = schur_bialternant(Partition((2, 2)), [Fraction(1), Fraction(2), Fraction(3)])
        # frozen by expanding the monomial sum by hand:
        # x1^2x2^2 + x1^2x3^2 + x2^2x3^2 + x1^2x2x3 + x1x2^2x3 + x1x2x3^2
        assert val == 4 + 9 + 36 + 6 + 12 + 18

    def test_exact_and_coincident_inputs_avoid_power_sum_route(self, monkeypatch):
        # the bialternant must stay independent of the expansion it checks
        def refuse(*args):
            raise AssertionError("schur_bialternant used the power-sum route")

        monkeypatch.setattr(combinatorics, "schur_hook_powersum", refuse)
        exact = [Fraction(1), Fraction(2), Fraction(3)]
        assert schur_bialternant(Partition((3, 1)), exact) == 239
        # s_(2,1)(1, 1, 2) = m_(2,1) + 2 m_(1,1,1) = 14 + 2 * 2
        assert abs(schur_bialternant(Partition((2, 1)), [1.0, 1.0, 2.0]) - 18.0) <= 1e-12

    def test_vanishes_beyond_variable_count(self):
        assert schur_bialternant(Partition((1, 1, 1)), [1.5, 2.5]) == 0

    def test_single_row_is_complete_homogeneous(self):
        # s_(2)(x, y) = x^2 + xy + y^2
        val = schur_bialternant(Partition((2,)), [2.0, 3.0])
        assert abs(val - (4 + 6 + 9)) <= 1e-10


def test_schur_hook_derivative_matches_finite_difference():
    g = np.random.default_rng(21)
    xs = list(g.uniform(0.5, 2.0, 4))
    h = 1e-6
    for weight in range(1, 5):
        for leg in range(weight):
            shape = HookShape(weight, leg)
            coeffs = schur_hook_derivative_coeffs(shape, power_sums(xs, weight))
            for i in range(len(xs)):
                up = xs.copy()
                dn = xs.copy()
                up[i] += h
                dn[i] -= h
                parts = Partition((weight - leg,) + (1,) * leg)
                fd = (schur_bialternant(parts, up) - schur_bialternant(parts, dn)) / (2 * h)
                poly = sum(float(c) * xs[i] ** k for k, c in enumerate(coeffs))
                assert abs(poly - fd) <= 1e-4 * max(1.0, abs(fd))


def test_derivative_identity_weight_3_hand_expansion():
    # d s/d x_i for the weight-3 hooks against hand expansions
    xs = [0.7, 1.3, 1.9, 0.4]
    p1, p2 = sum(xs), sum(x * x for x in xs)
    for leg, expect in (
        (0, lambda x: x * x + p1 * x + (p1 * p1 + p2) / 2),
        (1, lambda x: -x * x + p1 * p1),
        (2, lambda x: x * x - p1 * x + (p1 * p1 - p2) / 2),
    ):
        coeffs = schur_hook_derivative_coeffs(HookShape(3, leg), power_sums(xs, 3))
        for x in xs:
            poly = sum(float(c) * x ** k for k, c in enumerate(coeffs))
            assert abs(poly - expect(x)) <= 1e-10
