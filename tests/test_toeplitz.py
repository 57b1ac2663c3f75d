"""Unit tests for the Toeplitz ground-truth families and their spectra."""

import numpy as np
import pytest

from singcov.ewens import ewens_estimator
from singcov.linalg import esd
from singcov.toeplitz import (
    FAMILIES,
    PowerToeplitz,
    SymbolFunction,
    TridiagonalToeplitz,
    ewens_transform_closedform,
    limiting_measure,
    rescaled_symbol,
    toeplitz_truth,
    tridiag_eigensystem,
)


class TestTridiagonal:
    def test_matrix_layout(self):
        t = TridiagonalToeplitz(4, 0.3).matrix()
        want = np.eye(4) + 0.3 * (np.eye(4, k=1) + np.eye(4, k=-1))
        np.testing.assert_allclose(t, want)

    def test_eigensystem_closed_form(self):
        m, b = 25, 0.3
        dec = tridiag_eigensystem(m, b)
        j = np.arange(1, m + 1)
        want = np.sort(1.0 + 2.0 * b * np.cos(np.pi * j / (m + 1)))[::-1]
        np.testing.assert_allclose(dec.eigenvalues, want, atol=1e-12)
        np.testing.assert_allclose(
            dec.reconstruct(), TridiagonalToeplitz(m, b).matrix(), atol=1e-12
        )

    def test_eigenvalues_match_numeric(self):
        t = TridiagonalToeplitz(60, 0.45)
        closed = np.sort(t.eigensystem().eigenvalues)
        numeric = np.sort(np.linalg.eigvalsh(t.matrix()))
        assert np.abs(closed - numeric).max() <= 1e-12

    def test_inverse_closed_form(self):
        t = TridiagonalToeplitz(9, 0.4)
        np.testing.assert_allclose(t.inverse(), np.linalg.inv(t.matrix()), atol=1e-12)

    def test_rejects_indefinite_band(self):
        with pytest.raises(ValueError):
            TridiagonalToeplitz(5, 0.7)
        # at the cap the smallest eigenvalue is zero up to roundoff
        for m in (8, 10):
            cap = 1.0 / (2.0 * np.cos(np.pi / (m + 1)))
            with pytest.raises(ValueError, match=r"b must lie in \[0, 0\.5\d+\)"):
                TridiagonalToeplitz(m, cap)


class TestPower:
    def test_matrix_layout(self):
        a = PowerToeplitz(3, 0.5).matrix()
        want = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        np.testing.assert_allclose(a, want)

    def test_det_closed_form(self):
        for m in (2, 10, 50):
            for alpha in (0.3, 0.5, 0.8):
                want = np.linalg.det(PowerToeplitz(m, alpha).matrix())
                got = PowerToeplitz(m, alpha).det()
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_inverse_closed_form(self):
        for m, alpha in ((4, 0.3), (9, 0.6)):
            a = PowerToeplitz(m, alpha)
            np.testing.assert_allclose(
                a.inverse(), np.linalg.inv(a.matrix()), atol=1e-12
            )
            # tridiagonal structure with corner corrections
            inv = a.inverse()
            assert abs(inv[0, 2]) <= 1e-14
            assert abs(inv[0, 0] - 1.0 / (1.0 - alpha * alpha)) <= 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerToeplitz(4, 1.0)


class TestSymbol:
    def test_ranges(self):
        sym = TridiagonalToeplitz(5, 0.3).symbol()
        rng = sym.range()
        assert abs(rng.lo - 0.4) <= 1e-14 and abs(rng.hi - 1.6) <= 1e-14
        sym = PowerToeplitz(5, 0.5).symbol()
        rng = sym.range()
        assert abs(rng.lo - 1.0 / 3.0) <= 1e-12 and abs(rng.hi - 3.0) <= 1e-12

    @pytest.mark.parametrize(
        "kind, param", [("tridiagonal", float("nan")), ("power", float("nan")), ("circulant", 0.3)]
    )
    def test_rejects_nan_parameter_and_unknown_kind(self, kind, param):
        with pytest.raises(ValueError):
            SymbolFunction(kind, param)

    def test_inverse_theta_roundtrip(self):
        for sym in (
            SymbolFunction("tridiagonal", 0.3),
            SymbolFunction("power", 0.5),
            SymbolFunction("tridiagonal", 0.3, scale=0.25),
            SymbolFunction("power", 0.5, scale=0.25),
        ):
            thetas = np.linspace(0.05, np.pi - 0.05, 40)
            back = sym.inverse_theta(sym(thetas))
            np.testing.assert_allclose(back, thetas, atol=1e-9)

    def test_derivative_finite_difference(self):
        sym = SymbolFunction("power", 0.6, scale=0.8)
        thetas = np.linspace(0.1, 3.0, 25)
        h = 1e-6
        fd = (sym(thetas + h) - sym(thetas - h)) / (2 * h)
        np.testing.assert_allclose(sym.derivative(thetas), fd, atol=1e-7)


class TestLimitingMeasure:
    def test_cdf_endpoints_and_monotone(self):
        measure = limiting_measure(SymbolFunction("tridiagonal", 0.3))
        xs = np.linspace(0.3, 1.7, 200)
        cdf = measure.cdf(xs)
        assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= 1e-12
        assert (np.diff(cdf) >= -1e-12).all()

    def test_density_matches_cdf_increments(self):
        # the density has inverse square root edge blowups, so compare
        # its interior integral against the analytic cdf difference
        for sym in (SymbolFunction("tridiagonal", 0.35), SymbolFunction("power", 0.4)):
            measure = limiting_measure(sym)
            rng = sym.range()
            pad = 0.01 * (rng.hi - rng.lo)
            xs = np.linspace(rng.lo + pad, rng.hi - pad, 40001)
            dens = measure.density(xs)
            # the trapezoid rule, written out: np.trapezoid needs numpy 2.0
            integral = ((dens[1:] + dens[:-1]) * np.diff(xs)).sum() / 2
            want = float(measure.cdf(xs[-1]) - measure.cdf(xs[0]))
            assert abs(integral - want) <= 1e-6

    def test_constant_symbol_density_is_point_mass(self):
        # infinite at the atom 1 and zero elsewhere, as spectrum_report writes it
        sym = SymbolFunction("power", 0.0)
        grid = [0.5, 1.0, 1.5]
        want = [0.0, np.inf, 0.0]
        assert limiting_measure(sym).density(grid).tolist() == want

    def test_cdf_is_uniform_angle_mass(self):
        # mass below a(theta) equals the fraction of angles above theta
        sym = SymbolFunction("power", 0.4)
        measure = limiting_measure(sym)
        thetas = np.linspace(0.2, 3.0, 7)
        np.testing.assert_allclose(
            measure.cdf(sym(thetas)), 1.0 - thetas / np.pi, atol=1e-10
        )

    def test_esd_converges_to_pushforward(self):
        for family in (TridiagonalToeplitz(300, 0.3), PowerToeplitz(300, 0.5)):
            measure = limiting_measure(family.symbol())
            ks = esd(family.matrix()).kolmogorov_distance(measure.cdf)
            assert ks <= 0.05


class TestEwensTransform:
    def test_matches_general_closed_form(self):
        for m in (5, 17):
            for theta in (0.5, 2.0, 7.0, 1e200):
                trid = TridiagonalToeplitz(m, 0.3)
                got = ewens_transform_closedform(trid, theta)
                want = ewens_estimator(trid.matrix(), theta)
                assert np.abs(got - want).max() <= 1e-12
                powf = PowerToeplitz(m, 0.5)
                got = ewens_transform_closedform(powf, theta)
                want = ewens_estimator(powf.matrix(), theta)
                assert np.abs(got - want).max() <= 1e-12

    def test_transform_keeps_trace(self):
        trid = TridiagonalToeplitz(12, 0.25)
        got = ewens_transform_closedform(trid, 3.5)
        assert abs(np.trace(got) - 12.0) <= 1e-10

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "family", [TridiagonalToeplitz(6, 0.3), PowerToeplitz(6, 0.5)], ids=["tridiagonal", "power"]
    )
    def test_rejects_non_finite_theta(self, family, theta):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            ewens_transform_closedform(family, theta)


class TestScaledRegime:
    def test_support_frozen_values(self):
        # beta = 1 gives oscillation scale 1/4
        sup = rescaled_symbol("tridiagonal", 0.3, 1.0).range()
        assert abs(sup.lo - 0.85) <= 1e-12 and abs(sup.hi - 1.15) <= 1e-12
        sup = rescaled_symbol("power", 0.5, 1.0).range()
        assert abs(sup.lo - 5.0 / 6.0) <= 1e-12 and abs(sup.hi - 1.5) <= 1e-12

    def test_support_recovers_symbol_range_at_large_beta(self):
        sup = rescaled_symbol("power", 0.5, 1e9).range()
        assert abs(sup.lo - 1.0 / 3.0) <= 1e-6 and abs(sup.hi - 3.0) <= 1e-6
        sup = rescaled_symbol("tridiagonal", 0.3, 1e9).range()
        assert abs(sup.lo - 0.4) <= 1e-6 and abs(sup.hi - 1.6) <= 1e-6

    def test_rescaled_symbol_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            rescaled_symbol("power", 0.5, float("nan"))

    def test_rescaled_symbol_range_equals_support(self):
        # the closed-form support edges, with s = beta^2 / (beta+1)^2
        b, alpha = 0.3, 0.5
        for beta in (0.5, 1.0, 3.0):
            s = (beta / (beta + 1.0)) ** 2
            rng = rescaled_symbol("tridiagonal", b, beta).range()
            assert abs(rng.lo - (1 - 2 * b * s)) <= 1e-12
            assert abs(rng.hi - (1 + 2 * b * s)) <= 1e-12
            rng = rescaled_symbol("power", alpha, beta).range()
            assert abs(rng.lo - (1 - 2 * s * alpha / (1 + alpha))) <= 1e-12
            assert abs(rng.hi - (1 + 2 * s * alpha / (1 - alpha))) <= 1e-12

    def test_transform_bulk_tracks_rescaled_measure(self):
        m, b = 300, 0.3
        theta = float(m)  # beta = 1
        bt = ewens_transform_closedform(TridiagonalToeplitz(m, b), theta)
        vals = np.sort(np.linalg.eigvalsh(bt))
        measure = limiting_measure(rescaled_symbol("tridiagonal", b, 1.0))
        # drop the single rank-one outlier before comparing
        bulk = esd(np.diag(vals[:-1]))
        assert bulk.kolmogorov_distance(measure.cdf) <= 0.05


def test_toeplitz_truth_dispatch():
    t = toeplitz_truth("tridiagonal", 6, 0.3)
    assert isinstance(t, TridiagonalToeplitz)
    a = toeplitz_truth("power", 6, 0.5)
    assert isinstance(a, PowerToeplitz)
    with pytest.raises(ValueError):
        toeplitz_truth("circulant", 6, 0.5)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_families_table_names_parameter_and_class(kind):
    name, cls = FAMILIES[kind]
    family = toeplitz_truth(kind, 5, 0.25)
    assert type(family) is cls and getattr(family, name) == 0.25
    assert family.symbol() == SymbolFunction(kind, 0.25)
    np.testing.assert_allclose(family.inverse() @ family.matrix(), np.eye(5), atol=1e-12)
