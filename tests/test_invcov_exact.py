"""The Haar inverse-compression paths against their exact finite-m map.

For ``D = diag(d)`` with distinct positive d and a p x m Haar frame Phi,
the diagonal of ``E(Phi* (Phi D Phi*)^-1 Phi)`` is the gradient in d of
``F(d) = E log det(Z* D Z)``, Z an m x p complex Gaussian: the lift depends
on Phi only through its row span, and
``d/d d_i log det(Z* D Z) = z_i (Z* D Z)^-1 z_i*`` over the rows z_i of Z.
``F`` has a closed form as a ratio of Vandermonde-type determinants
(Chiani, Win & Zanella, IEEE Trans. Inf. Theory 49(10), 2003).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from conftest import random_psd

from singcov import haar
from singcov.haar import invcov_p_mc, invcov_spectrum
from singcov.linalg import RandomSource, eig_hermitian, sample_gaussian_covariance
from singcov.toeplitz import PowerToeplitz


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


def _enumerated_counts(d, p: int, t: float):
    """``Pr[N <= p - 1]``, ``Pr[N = p]`` and every ``Pr[N_-j <= p - 1]`` at t,
    where N sums independent Bernoulli variables of success probabilities
    ``d_i / (d_i + t)``: each of the ``2^r`` success sets' probabilities, as
    a product, summed exactly by ``math.fsum``."""
    r = len(d)
    sets = ((np.arange(2**r)[:, None] >> np.arange(r)) & 1).astype(bool)
    mass = np.where(sets, d / (d + t), t / (d + t)).prod(axis=1)
    count = sets.sum(axis=1)
    loo = [math.fsum(mass[count - sets[:, j] <= p - 1]) for j in range(r)]
    return math.fsum(mass[count <= p - 1]), math.fsum(mass[count == p]), np.array(loo)


def success_weights_exact(d) -> dict:
    """``w_j = d_j e_(p-1)(d_-j) / e_p(d)`` for every p = 1 .. r, keyed by p,
    with e_k the elementary symmetric polynomials, in mpmath at 50 digits.
    ``e_(p-1)(d_-j)`` is the coefficient of a product, from the
    coefficients of the terms before j and of those after it; every
    operation adds or multiplies positive numbers."""
    with mp.workdps(50):
        x = [mp.mpf(float(v)) for v in d]
        r = len(x)

        def coefficients(terms):
            # e_0 .. e_len(terms) of each prefix of terms, the empty one first
            out = [[mp.mpf(1)]]
            for v in terms:
                e = out[-1]
                out.append([a + v * b for a, b in zip(e + [0], [0] + e)])
            return out

        before, after = coefficients(x), coefficients(x[::-1])[::-1]
        weights = {}
        for p in range(1, r + 1):
            w = []
            for j in range(r):
                a, b = before[j], after[j + 1]
                lo, hi = max(0, p - len(b)), min(len(a), p)
                w.append(x[j] * mp.fsum(a[i] * b[p - 1 - i] for i in range(lo, hi)))
            weights[p] = np.array([float(v / before[r][p]) for v in w])
        return weights


NODE_SPECTRA = [
    np.array([3.0, 1.9, 1.2, 0.7, 0.25]),
    np.logspace(0.5, -6, 12),
    np.array([2.0, 2.0, 2.0, 1e-3, 1e-3, 1e-7, 5.0, 0.4, 0.4]),
]


class TestCountPass:
    # the per-node count law and the weights of the leave-one-out identity
    # against enumeration of every success set, at t over 16 decades

    @pytest.mark.parametrize("d", NODE_SPECTRA, ids=[f"r={len(d)}" for d in NODE_SPECTRA])
    def test_node_values_match_enumeration(self, d):
        t = d.max() * np.logspace(-8, 8, 17)
        ratios = haar._count_ratios(d)
        for p in range(1, len(d) + 1):
            w = haar._success_weights(ratios, d, p)
            below, at_p = haar._count_cdfs(ratios, p, t)
            rows = haar._node_cdfs(ratios, p, w, t)
            for i, ti in enumerate(t):
                want_below, want_at_p, want_loo = _enumerated_counts(d, p, ti)
                np.testing.assert_allclose(below[i], want_below, rtol=1e-14)
                np.testing.assert_allclose(at_p[i], want_at_p, rtol=1e-14)
                np.testing.assert_allclose(rows[:-1, i], want_loo, rtol=1e-14)
                assert rows[-1, i] == below[i]

    @pytest.mark.parametrize("d", NODE_SPECTRA, ids=[f"r={len(d)}" for d in NODE_SPECTRA])
    def test_weights_sum_to_p_whatever_the_node(self, d):
        r = len(d)
        ratios = haar._count_ratios(d)
        for p in range(1, r + 1):
            w = haar._success_weights(ratios, d, p)
            assert abs(w.sum() - p) <= 1e-14 * p
            assert (w > 0).all() and (w <= 1).all()
        # one success falls on j with odds d_j; at p = r every term succeeds
        np.testing.assert_allclose(haar._success_weights(ratios, d, 1), d / d.sum(), rtol=1e-14)
        assert np.array_equal(haar._success_weights(ratios, d, r), np.ones(r))

    @pytest.mark.parametrize(
        "d",
        NODE_SPECTRA + [np.logspace(0.0, -14.0, 80)],
        ids=[f"r={len(d)}" for d in NODE_SPECTRA] + ["14-decades"],
    )
    def test_weights_match_the_coefficients(self, d):
        # against 50 digits at every p, with ties and over 14 decades
        ratios = haar._count_ratios(d)
        for p, want in success_weights_exact(d).items():
            got = haar._success_weights(ratios, d, p)
            np.testing.assert_allclose(got, want, rtol=1e-15, err_msg=f"p={p}")


def leave_one_out_pass(d, p: int, t):
    """The map's CDF rows at the nodes t, as :func:`singcov.haar._node_cdfs`
    gives them, by a pass per node that needs no weights: a prefix pass
    stores the law of the first j terms at the counts ``0 .. p - 1``, a
    suffix pass carries the CDF of the terms after j, reversed, and each
    ``Pr[N_-j <= p - 1]`` is the dot product of the two. Nodes go a few at
    a time, by the ``8 (r + 1) p`` bytes of the prefix."""
    r = len(d)
    per = max(1, 2**21 // (8 * (r + 1) * p))
    out = np.empty((r + 1, len(t)))
    for a in range(0, len(t), per):
        ti = t[a : a + per]
        success = d[:, None] / (d[:, None] + ti)
        failure = ti / (d[:, None] + ti)
        prefix = np.zeros((r + 1, p, len(ti)))
        prefix[0, 0] = 1.0
        for j in range(r):
            np.multiply(prefix[j], failure[j], out=prefix[j + 1])
            prefix[j + 1, 1:] += prefix[j, :-1] * success[j]
        out[r, a : a + per] = prefix[r].sum(axis=0)
        suffix = np.ones((p, len(ti)))  # suffix[a]: Pr[count after term j <= p - 1 - a]
        for j in range(r - 1, -1, -1):
            out[j, a : a + per] = np.einsum("an,an->n", prefix[j], suffix)
            suffix[:-1] = suffix[:-1] * failure[j] + suffix[1:] * success[j]
            suffix[-1] *= failure[j]
    return out


def forward_count_pass(d, p: int, t):
    """``Pr[N <= p - 1]`` and ``Pr[N = p]`` at the nodes t, as
    :func:`singcov.haar._count_cdfs` gives them, by a forward pass per node
    over the eigenvalues: it carries the law of the count of the first j
    terms at the counts ``0 .. p`` (mass above p never returns), and then
    sums the counts below p in order."""
    success = d[:, None] / (d[:, None] + t)
    failure = t / (d[:, None] + t)
    law = np.zeros((p + 1, len(t)))
    law[0] = 1.0
    moved = np.empty((p, len(t)))
    for j in range(len(d)):
        top = min(j + 1, p)  # the first j terms reach the counts 0 .. j
        np.multiply(law[:top], success[j], out=moved[:top])
        law[: top + 1] *= failure[j]
        law[1 : top + 1] += moved[:top]
    return np.add.accumulate(law[:p])[-1], law[p]


# (spectrum, p) at the ends of the map's range: 600 eigenvalues over 3.5
# decades with p near r, 14 decades at half the rank, and p = r - 1 on a
# singular K
RANGE_CASES = [
    (np.geomspace(3.0, 1e-3, 600), 550),
    (np.logspace(0.0, -14.0, 80), 40),
    (np.append(np.linspace(3.0, 1.0, 300), 0.0), 299),
]
RANGE_IDS = ["geomspace-600", "14-decades", "p=r-1"]


def map_eigenvalues(monkeypatch) -> list:
    """The eigenvalues that the map hands to :func:`singcov.haar._count_ratios`,
    recorded as they pass, for a reference node function to read; the
    ratios, and the weights made from them, stay the map's own."""
    seen = []
    ratios = haar._count_ratios
    monkeypatch.setattr(haar, "_count_ratios", lambda d: seen.append(d) or ratios(d))
    return seen


class TestRangeAgainstLeaveOneOutPass:
    @pytest.mark.parametrize("d, p", RANGE_CASES, ids=RANGE_IDS)
    def test_map_converges_and_matches_the_reference_pass(self, monkeypatch, d, p):
        spec = invcov_spectrum(np.diag(d), p)
        r = len(spec.lambdas)
        assert abs(math.fsum(d[:r] * spec.lambdas) - p) <= 1e-13 * p
        # the reference reads the map's eigenvalues, not their ratios
        seen = map_eigenvalues(monkeypatch)
        monkeypatch.setattr(
            haar, "_node_cdfs", lambda ratios, p, w, t: leave_one_out_pass(seen[-1], p, t)
        )
        ref = invcov_spectrum(np.diag(d), p)
        np.testing.assert_allclose(spec.lambdas, ref.lambdas, rtol=1e-13)
        assert math.isnan(spec.mu) == math.isnan(ref.mu)
        if not math.isnan(ref.mu):
            assert abs(spec.mu - ref.mu) <= 1e-13 * ref.mu


class TestCountLawAgainstForwardPass:
    # the count law from the ratios e_k / e_(k-1) against a forward pass
    # over the eigenvalues at every node, at t over 16 decades; each node's
    # law sums to 1, and values below 2^-60 of it are left out, as the
    # map's window leaves them out

    @pytest.mark.parametrize(
        "d, p",
        [(d, len(d)) for d in NODE_SPECTRA] + RANGE_CASES,
        ids=[f"r={len(d)}" for d in NODE_SPECTRA] + RANGE_IDS,
    )
    def test_node_values_match_the_forward_pass(self, d, p):
        d = d[d > 0]
        r = len(d)
        t = d.max() * np.logspace(-8, 8, 17)
        ratios = haar._count_ratios(d)
        # every count up to r = 119, about 60 spread over 1 .. r above that,
        # and the case's own p
        for q in sorted({*range(1, r + 1, max(1, r // 60)), p, r}):
            for got, want in zip(haar._count_cdfs(ratios, q, t), forward_count_pass(d, q, t)):
                seen = want > 2.0**-60
                np.testing.assert_allclose(got[seen], want[seen], rtol=1e-14, err_msg=f"p={q}")

    @pytest.mark.parametrize("d, p", RANGE_CASES, ids=RANGE_IDS)
    def test_map_matches_the_forward_pass_map(self, monkeypatch, d, p):
        spec = invcov_spectrum(np.diag(d), p)
        # the reference reads the map's eigenvalues, not their ratios
        seen = map_eigenvalues(monkeypatch)
        monkeypatch.setattr(
            haar, "_count_cdfs", lambda ratios, p, t: forward_count_pass(seen[-1], p, t)
        )
        ref = invcov_spectrum(np.diag(d), p)
        np.testing.assert_allclose(spec.lambdas, ref.lambdas, rtol=1e-14)
        assert math.isnan(spec.mu) == math.isnan(ref.mu)
        if not math.isnan(ref.mu):
            assert abs(spec.mu - ref.mu) <= 1e-14 * ref.mu


def full_window_levels(d, p: int, kernel: bool):
    """The map's trapezoid levels, as :func:`singcov.haar._map_levels` yields
    them, on a grid that runs on to ``_PAD`` above ``log sum_i d_i``: the
    nodes above ``t_hi`` take ``t / (t + c)^2`` with no count law, and the
    closed-form tail ``1 / (t_top + c)`` from the last node, at half
    weight, ends the sums. The window below, the halvings, the chunks and
    the ``np.longdouble`` sums are those of the map."""
    r = len(d)
    c = np.append(d, 0.0) if kernel else d
    step = haar._COARSE_STEP
    low = np.log(d.min()) - haar._PAD
    top = int(np.ceil((np.log(d.sum()) + haar._PAD - low) / step))
    coarse = low + step * np.arange(top + 1)
    t = np.exp(coarse)
    mean = (d[:, None] / (d[:, None] + t)).sum(axis=0)
    bound = p * np.log(mean) - math.lgamma(p + 1)
    t_hi, t_top = t[int(np.argmax(bound <= np.log(haar._NEGLIGIBLE)))], t[-1]
    ratios = haar._count_ratios(d)
    w = haar._success_weights(ratios, d, p)
    wide = haar._chunk_draws(8 * (2 * r + 1 + 4 * len(c)))

    def integrands(s):
        t = np.exp(s)
        f = t / (t + c[:, None]) ** 2
        inside = int(np.searchsorted(t, t_hi, side="right"))
        if inside:
            f[:, :inside] *= haar._node_cdfs(ratios, p, w, t[:inside])[: len(c)]
        return f

    def fold(total, s):
        for a in range(0, len(s), wide):
            f = integrands(s[a : a + wide]).astype(np.longdouble)
            f[:, 0] += total
            total = np.add.accumulate(f, axis=1)[:, -1]
        return total

    f = np.hstack([integrands(coarse[a : a + wide]) for a in range(0, len(coarse), wide)])
    f[:, -1] /= 2
    tail = 1.0 / (t_top + c)
    cover = step * np.cumsum(f, axis=1) <= haar._NEGLIGIBLE * (step * f.sum(axis=1) + tail)[:, None]
    lo = max(int(np.argmin(cover.all(axis=0))) - 1, 0)
    total = f[:, lo:].sum(axis=1, dtype=np.longdouble)
    nodes = top - lo
    yield step, (step * total + tail).astype(np.float64)
    for _ in range(haar._MAX_HALVINGS):
        total = fold(total, coarse[lo] + step * (np.arange(nodes) + 0.5))
        step, nodes = step / 2, 2 * nodes
        yield step, (step * total + tail).astype(np.float64)


def sample_covariance(m: int, n: int):
    """A sample covariance of n observations of the power-decay truth
    (alpha = 0.5) of size m, drawn at seed 7."""
    return sample_gaussian_covariance(PowerToeplitz(m, 0.5).matrix(), n, RandomSource(7))


# (K, p): the README's sample-covariance shapes, every range case, I_1100 at
# p = 550, and diag([1e6] + 149 eigenvalues in [0.5, 3]) at p = 45, whose top
# eigenvalue lies far above t_hi, so that its whole integrand sits in the
# closed-form tail
TAIL_CASES = [
    (sample_covariance(100, 75), 25),
    (sample_covariance(100, 75), 50),
    (sample_covariance(400, 300), 100),
    *((np.diag(d), p) for d, p in RANGE_CASES),
    (np.eye(1100), 550),
    (np.diag(np.append(1e6, np.random.default_rng(11).uniform(0.5, 3.0, 149))), 45),
]
TAIL_IDS = ["100x75,p=25", "100x75,p=50", "400x300,p=100", *RANGE_IDS, "I_1100", "one-large"]


class TestTailAgainstFullWindow:
    # the sums end at t_hi with the closed-form tail and its Euler-Maclaurin
    # corrections, where the full window ran on to log sum_i d_i + _PAD

    @pytest.mark.parametrize("k, p", TAIL_CASES, ids=TAIL_IDS)
    def test_map_matches_the_full_window_levels(self, monkeypatch, k, p):
        spec = invcov_spectrum(k, p)
        monkeypatch.setattr(haar, "_map_levels", full_window_levels)
        ref = invcov_spectrum(k, p)
        np.testing.assert_allclose(spec.lambdas, ref.lambdas, rtol=1e-15)
        assert math.isnan(spec.mu) == math.isnan(ref.mu)
        if not math.isnan(ref.mu):
            assert abs(spec.mu - ref.mu) <= 1e-15 * ref.mu

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32])
    def test_tail_matches_a_half_line_trapezoid_sum(self, h):
        # c = 0 (the kernel), far below t_hi, near it, and far above it; at
        # c = t_hi itself g is even about s_hi and every correction is 0.
        # 1e3 t_hi keeps g's peak 35 below the end of the sum, whose own
        # uncorrected tail 1 / (t_top + c) is then exact to 1e-18
        s_hi = 2.5
        t_hi = math.exp(s_hi)
        c = np.array([0.0, 1e-6 * t_hi, t_hi / 4, 1e3 * t_hi])
        t = np.exp(s_hi + h * np.arange(round(haar._PAD / h) + 1))
        g = t / (t + c[:, None]) ** 2
        g[:, [0, -1]] /= 2
        want = [h * math.fsum(row) + 1.0 / (t[-1] + ci) for row, ci in zip(g, c)]
        np.testing.assert_allclose(haar._tail_series(t_hi, c)(h), want, rtol=1e-15)
