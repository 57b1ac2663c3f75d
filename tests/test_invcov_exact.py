"""The Haar inverse-compression paths against their exact finite-m map.

For ``D = diag(d)`` with distinct positive d and a p x m Haar frame Phi,
the diagonal of ``E(Phi* (Phi D Phi*)^-1 Phi)`` is the gradient in d of
``F(d) = E log det(Z* D Z)``, Z an m x p complex Gaussian: the lift depends
on Phi only through its row span, and
``d/d d_i log det(Z* D Z) = z_i (Z* D Z)^-1 z_i*`` over the rows z_i of Z.
``F`` has a closed form as a ratio of Vandermonde-type determinants
(Chiani, Win & Zanella, IEEE Trans. Inf. Theory 49(10), 2003).
"""

import mpmath as mp
import numpy as np
import pytest
from conftest import random_psd

from singcov.haar import invcov_p_mc, invcov_spectrum
from singcov.linalg import RandomSource, eig_hermitian


def invcov_spectrum_exact(d, p: int) -> np.ndarray:
    """Exact eigenvalue map ``lambda = grad_d F(d)`` for distinct positive d.

    With ``V_ik = d_k^(i-1)`` (rows i = 1..m) and ``V^(j)`` the matrix V with
    row j replaced by ``d_k^(j-1) (psi(j-m+p) + log d_k)``,
    ``F(d) = sum_{j=m-p+1}^{m} det V^(j) / det V``. The digamma constants
    add a constant to F and drop out of its gradient, so they are left out.
    Only column l of either matrix depends on ``d_l``, so by multilinearity
    ``d det A / d d_l`` is the determinant of A with column l replaced by its
    derivative. Evaluated in mpmath at 50 digits.
    """
    with mp.workdps(50):
        x = [mp.mpf(float(v)) for v in d]
        m = len(x)

        def entry(i, k, log_row):
            # row i (1-based) of column k: d_k^(i-1), times log d_k on the log row
            return x[k] ** (i - 1) * (mp.log(x[k]) if i == log_row else 1)

        def slope(i, k, log_row):
            # the derivative of entry(i, k, log_row) in d_k
            power = (i - 1) * x[k] ** (i - 2) if i > 1 else mp.mpf(0)
            if i != log_row:
                return power
            return power * mp.log(x[k]) + x[k] ** (i - 2)

        def det(log_row, moved=None):
            # det V (log_row = 0) or det V^(log_row), with column `moved` differentiated
            return mp.det(
                mp.matrix(
                    [
                        [(slope if k == moved else entry)(i, k, log_row) for k in range(m)]
                        for i in range(1, m + 1)
                    ]
                )
            )

        base = det(0)
        rows = range(m - p + 1, m + 1)
        ratios = [det(j) / base for j in rows]
        grad = []
        for l in range(m):
            base_slope = det(0, l) / base
            grad.append(sum(det(j, l) / base - r * base_slope for j, r in zip(rows, ratios)))
        return np.array([float(g) for g in grad])


SPECTRA = [
    np.array([2.0, 0.5]),
    np.array([3.0, 1.9, 1.2, 0.7, 0.25]),
    np.array([3.1, 2.6, 2.0, 1.5, 1.1, 0.8, 0.45, 0.2]),
]


class TestExactMap:
    def test_full_frame_inverts_and_trace_is_p(self):
        d = SPECTRA[1]
        np.testing.assert_allclose(invcov_spectrum_exact(d, len(d)), 1.0 / d, rtol=1e-14)
        for p in range(1, len(d) + 1):
            # tr(D Phi* (Phi D Phi*)^-1 Phi) = p draw by draw
            assert abs(d @ invcov_spectrum_exact(d, p) - p) <= 1e-13 * p

    def test_identity_maps_to_p_over_m(self):
        # the identity is the limit of distinct spectra; these are within 1e-6 of it
        d = 1.0 + 1e-6 * np.arange(4)
        np.testing.assert_allclose(invcov_spectrum_exact(d, 3), 0.75, rtol=1e-5)


class TestMonteCarloAgainstExactMap:
    @pytest.mark.parametrize("d", SPECTRA, ids=[f"m={len(d)}" for d in SPECTRA])
    def test_spectrum_within_five_standard_errors(self, d):
        # every p; at m p <= 64 invcov_p_mc lifts frames, and the Gaussian
        # bases of larger shapes meet the exact map in test_haar
        for p in range(1, len(d) + 1):
            mc = invcov_p_mc(np.diag(d), p, 20000, RandomSource(60 + p))
            exact = invcov_spectrum_exact(d, p)
            # at p = m every draw gives 1/d, so its stderr is roundoff
            bound = 5 * np.diag(mc.stderr) + 1e-12 * exact
            assert (np.abs(np.diag(mc.estimate).real - exact) <= bound).all(), (p, exact)

    @pytest.mark.parametrize("d", SPECTRA, ids=[f"m={len(d)}" for d in SPECTRA])
    def test_exact_spectrum_matches_oracle(self, d):
        for p in range(1, len(d) + 1):
            spec = invcov_spectrum(np.diag(d), p)
            np.testing.assert_allclose(spec.lambdas, invcov_spectrum_exact(d, p), rtol=1e-13)
            assert np.isnan(spec.mu)

    def test_full_lift_on_non_diagonal_k(self):
        k = random_psd(5, 5, 61)
        dec = eig_hermitian(k)
        exact = invcov_spectrum_exact(dec.eigenvalues, 2)
        want = (dec.eigenvectors * exact) @ dec.eigenvectors.conj().T
        mc = invcov_p_mc(k, 2, 20000, RandomSource(62))
        assert (np.abs(mc.estimate - want) <= 5 * mc.stderr).all()


# (range spectrum, m, p) at p = r - 2, where mu and its variance are finite:
# Gaussian bases at (m, r, p) = (6, 4, 2), orthonormal frames at (7, 6, 4)
SINGULAR = [
    (np.array([3.0, 1.9, 1.2, 0.7]), 6, 2),
    (np.array([3.1, 2.4, 1.7, 1.1, 0.6, 0.3]), 7, 4),
]


def singular_spectrum_exact(d_range, m: int, p: int, eps: float = 1e-20):
    """The exact map of ``D = diag(d_range, 0, ..., 0)`` of size m as its
    limit: the map with kernel eigenvalues ``eps (1, 2, ...)`` for small eps,
    split into the r range values, which tend to ``lambdas``, and the m - r
    kernel values, which each tend to ``mu``."""
    r = len(d_range)
    lam = invcov_spectrum_exact(np.concatenate([d_range, eps * np.arange(1, m - r + 1)]), p)
    return lam[:r], lam[r:]


class TestSingularLimit:
    @pytest.mark.parametrize("d, m, p", SINGULAR, ids=["m=6,r=4,p=2", "m=7,r=6,p=4"])
    def test_limit_is_reached(self, d, m, p):
        lambdas, kernel = singular_spectrum_exact(d, m, p)
        near_lambdas, near_kernel = singular_spectrum_exact(d, m, p, eps=1e-12)
        # the kernel values agree, and eight decades of eps move nothing visible
        np.testing.assert_allclose(kernel, kernel[0], rtol=1e-14)
        np.testing.assert_allclose(near_lambdas, lambdas, rtol=1e-10)
        np.testing.assert_allclose(near_kernel, kernel, rtol=1e-10)
        # the kernel carries no weight in sum_i d_i lambda_i = p
        assert abs(d @ lambdas - p) <= 1e-13 * p

    @pytest.mark.parametrize("d, m, p", SINGULAR, ids=["m=6,r=4,p=2", "m=7,r=6,p=4"])
    def test_spectrum_within_five_standard_errors(self, d, m, p):
        lambdas, kernel = singular_spectrum_exact(d, m, p)
        k = np.diag(np.concatenate([d, np.zeros(m - len(d))]))
        mc = invcov_p_mc(k, p, 20000, RandomSource(70 + m))
        diag, se = np.diag(mc.estimate).real, np.diag(mc.stderr)
        r = len(d)
        assert mc.rejected == 0
        assert (np.abs(diag[:r] - lambdas) <= 5 * se[:r]).all(), (diag[:r], lambdas)
        assert (np.abs(diag[r:] - kernel) <= 5 * se[r:]).all(), (diag[r:], kernel)

    @pytest.mark.parametrize("d, m, p", SINGULAR, ids=["m=6,r=4,p=2", "m=7,r=6,p=4"])
    def test_exact_spectrum_matches_oracle(self, d, m, p):
        lambdas, kernel = singular_spectrum_exact(d, m, p)
        spec = invcov_spectrum(np.diag(np.concatenate([d, np.zeros(m - len(d))])), p)
        np.testing.assert_allclose(spec.lambdas, lambdas, rtol=1e-13)
        np.testing.assert_allclose(spec.mu, kernel[0], rtol=1e-13)
