"""Unit tests for the shared linear algebra and sampling layer."""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_hermitian, random_psd

from singcov.linalg import (
    GRAM_SCHMIDT_MAX_ENTRIES,
    HERMITIAN_TOL,
    EmpiricalSpectralDistribution,
    RandomSource,
    WelfordAccumulator,
    _inv_batch_hermitian,
    block_pinv_correction,
    block_pinv_update,
    default_rank_tol,
    eig_hermitian,
    esd,
    frobenius_norm,
    hermitize,
    load_matrix_csv,
    numeric_rank,
    pseudoinverse,
    require_hermitian,
    sample_complex_gaussian,
    sample_gaussian_covariance,
    sample_haar_stiefel_batch,
    save_density_csv,
    save_esd_csv,
    save_matrix_csv,
)
from singcov.toeplitz import PowerToeplitz


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7).generator.standard_normal(5)
        b = RandomSource(7).generator.standard_normal(5)
        assert np.array_equal(a, b)

    def test_substreams_are_independent_and_reproducible(self):
        root = RandomSource(7)
        s0 = root.substream(0).generator.standard_normal(4)
        s1 = root.substream(1).generator.standard_normal(4)
        again = RandomSource(7).substream(0).generator.standard_normal(4)
        assert np.array_equal(s0, again)
        assert not np.array_equal(s0, s1)

    def test_nested_substreams_differ_from_flat(self):
        root = RandomSource(3)
        nested = root.substream(1).substream(2).generator.standard_normal(3)
        flat = root.substream(1).generator.standard_normal(3)
        assert not np.array_equal(nested, flat)

    def test_sampled_covariance_stays_on_philox(self):
        # the sampled K of the experiments and benchmarks comes from the
        # Philox stream of the seed and its spawn key, bit for bit
        sigma = PowerToeplitz(200, 0.5).matrix()
        k = sample_gaussian_covariance(sigma, 150, RandomSource(0).substream(0))
        seq = np.random.SeedSequence(0, spawn_key=(0,))
        philox = SimpleNamespace(generator=np.random.Generator(np.random.Philox(seq)))
        assert np.array_equal(k, sample_gaussian_covariance(sigma, 150, philox))


class TestWelford:
    def test_matches_numpy_mean_and_sem(self):
        g = RandomSource(11).generator
        data = g.standard_normal((500, 3, 3)) + 1j * g.standard_normal((500, 3, 3))
        acc = WelfordAccumulator()
        # add_batch overwrites its batch, so each folds a copy
        acc.add_batch(data[:200].copy())
        acc.add_batch(data[200:].copy())
        assert acc.count == 500
        np.testing.assert_allclose(acc.mean, data.mean(axis=0), atol=1e-12)
        sem = np.sqrt(np.abs(data - data.mean(axis=0)) ** 2).std(axis=0)
        var = (np.abs(data - data.mean(axis=0)) ** 2).sum(axis=0) / 499
        np.testing.assert_allclose(acc.stderr(), np.sqrt(var / 500), rtol=1e-10)


    def test_integer_and_read_only_batches_are_folded_from_copies(self):
        ints = np.arange(12).reshape(4, 3)
        frozen = np.broadcast_to(np.array([1.0 + 2.0j, -1.0j]), (5, 2))
        for batch in (ints, frozen):
            want = batch.copy()
            acc = WelfordAccumulator()
            acc.add_batch(batch)
            assert np.array_equal(batch, want)
            np.testing.assert_allclose(acc.mean, want.mean(axis=0), rtol=1e-15)
            var = (np.abs(want - want.mean(axis=0)) ** 2).sum(axis=0) / (len(want) - 1)
            np.testing.assert_allclose(acc.stderr(), np.sqrt(var / len(want)), rtol=1e-12)

    def test_add_moments_folds_like_add_batch(self):
        g = RandomSource(12).generator
        data = g.standard_normal((300, 2, 2)) + 1j * g.standard_normal((300, 2, 2))
        batched, folded = WelfordAccumulator(), WelfordAccumulator()
        for part in (data[:120], data[120:]):
            batched.add_batch(part.copy())
            mean = part.mean(axis=0)
            dev = part - mean
            folded.add_moments(len(part), mean, (dev.real**2 + dev.imag**2).sum(axis=0))
        assert folded.count == batched.count == 300
        assert np.array_equal(folded.mean, batched.mean)
        assert np.array_equal(folded.stderr(), batched.stderr())
        var = (np.abs(data - data.mean(axis=0)) ** 2).sum(axis=0) / 299
        np.testing.assert_allclose(folded.stderr(), np.sqrt(var / 300), rtol=1e-10)


class TestBlockInverse:
    def test_inverse_and_frobenius_condition(self):
        w = np.stack([random_psd(4, 4, 13) + np.eye(4), np.diag([1.0, 2.0, 4.0, 1e-3])])
        inv, cond = _inv_batch_hermitian(w)
        np.testing.assert_allclose(inv, np.linalg.inv(w), rtol=1e-12)
        want = [np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)) for a in w]
        np.testing.assert_allclose(cond, want, rtol=1e-12)

    def test_frobenius_condition_of_strided_stack(self):
        # the conjugate transposes of a stack are a view with swapped strides
        w = np.stack([random_hermitian(4, 15 + i) + 5 * np.eye(4) for i in range(3)])
        w = np.swapaxes(w.conj(), 1, 2)
        assert not w.flags.c_contiguous
        _, cond = _inv_batch_hermitian(w)
        want = [np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)) for a in w]
        np.testing.assert_allclose(cond, want, rtol=1e-12)

    def test_exactly_singular_block_falls_back_to_eigendecomposition(self):
        w = np.stack([np.diag([2.0, 0.0, 1.0]), random_psd(3, 3, 14) + np.eye(3)])
        inv, cond = _inv_batch_hermitian(w)
        assert cond[0] == np.inf
        np.testing.assert_allclose(inv[0], np.diag([0.5, 0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(inv[1], np.linalg.inv(w[1]), rtol=1e-12)
        assert np.isfinite(cond[1])

    def test_fallback_inverts_regular_blocks_by_lu(self):
        # blocks 1, 4 and 5 have a zero eigenvalue, so LU refuses the stack;
        # the others keep their LU inverses and condition numbers bit for bit
        w = np.stack([random_psd(5, 5, 20 + i) + np.eye(5) for i in range(8)])
        singular = [1, 4, 5]
        for i in singular:
            w[i] = np.diag([2.0, 0.0, 1.0, 0.5, 0.0 if i == 5 else 3.0])
        regular = np.setdiff1d(np.arange(8), singular)
        inv, cond = _inv_batch_hermitian(w)
        want_inv, want_cond = _inv_batch_hermitian(w[regular])
        assert np.array_equal(inv[regular], want_inv)
        assert np.array_equal(cond[regular], want_cond)
        for i in singular:
            # the pseudoinverse of each singular block, its zero eigenvalue left out
            assert cond[i] == np.inf
            np.testing.assert_allclose(inv[i], np.linalg.pinv(w[i]), atol=1e-14)

    def test_singular_blocks_hold_a_few_blocks_at_once(self):
        # a whole stack's eigenvectors and their products held about four
        # stacks more; a few blocks at a time hold the inverse's stack alone
        w = np.stack([np.diag(np.append(np.arange(1.0, 16.0), 0.0))] * 400).astype(complex)
        tracemalloc.start()
        try:
            inv, cond = _inv_batch_hermitian(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cond == np.inf).all()
        assert peak <= 1.25 * w.nbytes, f"peak {peak / w.nbytes:.2f} stacks"


class TestHaarSampling:
    def test_rows_orthonormal(self, rng):
        phi = sample_haar_stiefel_batch(3, 6, 50, rng)
        assert phi.shape == (50, 3, 6)
        gram = np.einsum("bik,bjk->bij", phi, phi.conj())
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), (50, 3, 3)), atol=1e-12)

    def test_projector_mean_is_p_over_m(self, rng):
        # E(Phi* Phi) = (p/m) I is the simplest Haar moment
        p, m, n = 2, 5, 20000
        phi = sample_haar_stiefel_batch(p, m, n, rng)
        proj = np.einsum("bpi,bpj->ij", phi.conj(), phi) / n
        np.testing.assert_allclose(proj, (p / m) * np.eye(m), atol=0.01)

    def test_determinism_per_substream(self):
        a = sample_haar_stiefel_batch(2, 4, 3, RandomSource(5))
        b = sample_haar_stiefel_batch(2, 4, 3, RandomSource(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "m, p, gram_schmidt",
        [(1, 1, True), (5, 2, True), (5, 5, True), (12, 4, True), (80, 1, True),
         (20, 4, True), (27, 3, False), (9, 9, False), (100, 2, False),
         (18, 9, False), (17, 9, False), (100, 1, False), (200, 1, False),
         (100, 50, False)],
    )
    def test_frames_are_phase_fixed_qr_of_the_gaussian_stack(self, m, p, gram_schmidt):
        # (20, 4) is the last size on the Gram-Schmidt branch; every larger
        # frame, tall or square, takes LAPACK, which must give the QR's own bits
        assert (m * p <= GRAM_SCHMIDT_MAX_ENTRIES) == gram_schmidt
        count = 2000
        phi = sample_haar_stiefel_batch(p, m, count, RandomSource(21))
        q, r = np.linalg.qr(sample_complex_gaussian((count, m, p), RandomSource(21)))
        d = np.einsum("bii->bi", r)
        want = np.swapaxes(q * (d / np.abs(d))[:, None, :], 1, 2).conj()
        assert phi.shape == (count, p, m)
        if gram_schmidt:
            assert np.abs(phi - want).max() <= 1e-12
        else:
            assert np.array_equal(phi, want)

    @pytest.mark.parametrize(
        "m, p, lapack",
        [(20, 4, False), (80, 1, False), (8, 8, False), (18, 9, True), (27, 3, True),
         (100, 1, True), (100, 50, True), (17, 9, True), (9, 9, True), (100, 51, True)],
    )
    def test_frames_above_gram_schmidt_limit_call_qr(self, monkeypatch, m, p, lapack):
        # every frame of more than GRAM_SCHMIDT_MAX_ENTRIES entries, tall or
        # not, is LAPACK's; no smaller one calls it
        assert (m * p > GRAM_SCHMIDT_MAX_ENTRIES) == lapack

        def refuse(*args, **kwargs):
            raise RuntimeError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        if lapack:
            with pytest.raises(RuntimeError, match="np.linalg.qr called"):
                sample_haar_stiefel_batch(p, m, 4, RandomSource(23))
        else:
            assert sample_haar_stiefel_batch(p, m, 4, RandomSource(23)).shape == (4, p, m)

    def test_gram_schmidt_square_frames_are_unitary(self):
        m = 8
        assert m * m <= GRAM_SCHMIDT_MAX_ENTRIES
        phi = sample_haar_stiefel_batch(m, m, 20_000, RandomSource(22))
        for gram in (phi @ np.swapaxes(phi, 1, 2).conj(), np.swapaxes(phi, 1, 2).conj() @ phi):
            assert np.linalg.norm(gram - np.eye(m), axis=(1, 2)).max() <= 1e-13


class TestEigAndPinv:
    def test_eig_descending_and_reconstructs(self):
        k = random_hermitian(6, 1)
        dec = eig_hermitian(k)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        np.testing.assert_allclose(dec.reconstruct(), k, atol=1e-10)

    def test_pinv_penrose_identities(self):
        k = random_psd(6, 3, 2)
        kp = pseudoinverse(k)
        np.testing.assert_allclose(k @ kp @ k, k, atol=1e-10)
        np.testing.assert_allclose(kp @ k @ kp, kp, atol=1e-10)
        np.testing.assert_allclose(k @ kp, (k @ kp).conj().T, atol=1e-10)

    def test_pinv_of_invertible_is_inverse(self):
        k = random_psd(4, 4, 3) + np.eye(4)
        np.testing.assert_allclose(pseudoinverse(k), np.linalg.inv(k), atol=1e-10)


class TestBlockPinv:
    def test_independent_column_branch(self):
        g = RandomSource(4).generator
        a = g.standard_normal((6, 3)) + 1j * g.standard_normal((6, 3))
        col = g.standard_normal(6) + 1j * g.standard_normal(6)
        full = np.hstack([a, col[:, None]])
        got = block_pinv_update(a, col)
        np.testing.assert_allclose(got, np.linalg.pinv(full.conj().T @ full), atol=1e-10)

    def test_dependent_column_branch(self):
        g = RandomSource(5).generator
        a = g.standard_normal((6, 3)) + 1j * g.standard_normal((6, 3))
        col = a @ (g.standard_normal(3) + 1j * g.standard_normal(3))
        full = np.hstack([a, col[:, None]])
        got = block_pinv_update(a, col)
        np.testing.assert_allclose(got, np.linalg.pinv(full.conj().T @ full), atol=1e-9)

    def test_zero_column(self):
        g = RandomSource(6).generator
        a = g.standard_normal((5, 2))
        got = block_pinv_update(a, np.zeros(5))
        full = np.hstack([a, np.zeros((5, 1))])
        np.testing.assert_allclose(got, np.linalg.pinv(full.conj().T @ full), atol=1e-10)

    def test_rejects_mismatched_column(self):
        # a stack of blocks is no single pair either, and must not broadcast
        for block, col in [(np.ones((4, 2)), np.ones(5)), (np.ones((3, 6, 2)), np.ones((3, 6)))]:
            with pytest.raises(ValueError, match="incompatible shapes"):
                block_pinv_correction(block, col)


class TestEsd:
    def test_cdf_steps(self):
        dist = EmpiricalSpectralDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.25
        assert dist.cdf(2.5) == 0.5
        assert dist.cdf(4.0) == 1.0

    def test_kolmogorov_distance_to_itself_jump(self):
        vals = np.array([0.0, 1.0])
        dist = EmpiricalSpectralDistribution(vals)
        # against a continuous uniform cdf on [0,1]
        ks = dist.kolmogorov_distance(lambda x: np.clip(x, 0.0, 1.0))
        assert abs(ks - 0.5) <= 1e-12

    def test_esd_of_matrix(self):
        k = np.diag([3.0, 1.0, 2.0])
        dist = esd(k)
        np.testing.assert_allclose(dist.eigenvalues, [1.0, 2.0, 3.0])


class TestGaussianCovariance:
    def test_rank_and_psd(self):
        a = random_psd(8, 8, 9) + np.eye(8)
        k = sample_gaussian_covariance(a, 5, RandomSource(1))
        w = np.linalg.eigvalsh(k)
        assert (w > -1e-10).all()
        assert (w > 1e-10).sum() == 5

    def test_mean_converges_to_truth(self):
        a = np.diag([2.0, 1.0, 0.5])
        draws = [
            sample_gaussian_covariance(a, 400, RandomSource(100 + i)) for i in range(20)
        ]
        np.testing.assert_allclose(np.mean(draws, axis=0), a, atol=0.05)

    def test_rejects_non_psd_truth(self):
        with pytest.raises(ValueError, match="sigma must be positive semidefinite"):
            sample_gaussian_covariance(np.diag([1.0, -0.5]), 3, RandomSource(0))


# A 2x2 complex matrix, written as the exchange format always has: 17
# significant digits (so 0.1 keeps its binary error), a signed zero kept,
# LF after the header and CRLF after every other line.
GOLDEN_MATRIX = np.array([[0.1, complex(-0.0, 2.5)], [complex(0.0, -2.5), 1e-300]])
GOLDEN_MATRIX_BYTES = b"m=2\n0.10000000000000001,0,-0,2.5\r\n0,-2.5,1e-300,0\r\n"


class TestCsvRoundtrip:
    def test_matrix_roundtrip_exact(self, tmp_path):
        k = random_hermitian(5, 31)
        path = tmp_path / "k.csv"
        save_matrix_csv(path, k)
        # the same bytes as formatting each entry on its own
        rows = [",".join("%.17g" % x for z in row for x in (z.real, z.imag)) for row in k]
        assert path.read_bytes() == ("m=5\n" + "".join(r + "\r\n" for r in rows)).encode()
        back = load_matrix_csv(path)
        assert np.array_equal(back, k)

    def test_matrix_golden_bytes(self, tmp_path):
        path = tmp_path / "k.csv"
        save_matrix_csv(path, GOLDEN_MATRIX)
        assert path.read_bytes() == GOLDEN_MATRIX_BYTES
        assert np.array_equal(load_matrix_csv(path), GOLDEN_MATRIX)

    def test_roundtrip_keeps_signed_zeros(self, tmp_path):
        path = tmp_path / "k.csv"
        save_matrix_csv(path, GOLDEN_MATRIX)
        back = load_matrix_csv(path).view(np.float64)
        assert np.array_equal(np.signbit(back), np.signbit(GOLDEN_MATRIX.view(np.float64)))

    def test_fortran_order_writes_same_bytes(self, tmp_path):
        k = random_hermitian(4, 32)
        c_path, f_path = tmp_path / "c.csv", tmp_path / "f.csv"
        save_matrix_csv(c_path, np.ascontiguousarray(k))
        save_matrix_csv(f_path, np.asfortranarray(k))
        assert f_path.read_bytes() == c_path.read_bytes()
        save_matrix_csv(f_path, np.asfortranarray(GOLDEN_MATRIX))
        assert f_path.read_bytes() == GOLDEN_MATRIX_BYTES

    def test_loads_lf_file_with_shortest_floats(self, tmp_path):
        # the layout perfbench/checks.write_matrix_csv writes: LF endings, repr floats
        k = random_hermitian(4, 33)
        path = tmp_path / "k.csv"
        lines = [f"m={k.shape[0]}"]
        lines += [",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in k]
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load_matrix_csv(path), k)

    def test_esd_golden_bytes(self, tmp_path):
        path = tmp_path / "esd.csv"
        save_esd_csv(path, EmpiricalSpectralDistribution(np.array([-0.0, 0.1])))
        assert path.read_bytes() == b"index,eigenvalue\r\n0,-0\r\n1,0.10000000000000001\r\n"

    def test_density_golden_bytes(self, tmp_path):
        path = tmp_path / "density.csv"
        save_density_csv(path, [0.5, 1 / 3], [np.inf, 0.1])
        assert path.read_bytes() == (
            b"abscissa,density\r\n0.5,inf\r\n0.33333333333333331,0.10000000000000001\r\n"
        )

    def test_esd_and_density_files(self, tmp_path):
        dist = esd(np.diag([1.0, 2.0]))
        esd_path = tmp_path / "esd.csv"
        save_esd_csv(esd_path, dist)
        rows = esd_path.read_text().strip().splitlines()
        assert rows[0] == "index,eigenvalue"
        assert len(rows) == 3
        den_path = tmp_path / "density.csv"
        save_density_csv(den_path, np.array([0.5, 1.5]), np.array([0.25, 0.75]))
        rows = den_path.read_text().strip().splitlines()
        assert rows[0] == "abscissa,density"

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n1,2\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "m=2\n1,0,2,0\r\n",  # a missing row
            "m=2\n1,0,2,0\r\n2,0,1\r\n",  # a short row
            "m=2\n1,0,2,0\r\n2,0,x,0\r\n",  # a non-numeric field
            "m=2\n# note\r\n1,0,2,0\r\n2,0,1,0\r\n",  # a comment line
            "m=2\n",  # header only
            "m=2\n\r\n\r\n",  # header and blank lines
            "m=0\n",  # header only, of an empty matrix
        ],
        ids=["missing-row", "short-row", "non-numeric", "comment", "header-only",
             "blank-lines", "empty-matrix"],
    )
    def test_load_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError):
            load_matrix_csv(path)


def test_hermitian_tolerance_is_the_module_constant():
    drift = np.array([[1.0, 0.0], [0.0, 1.0]])
    drift[0, 1] = 0.5 * HERMITIAN_TOL
    assert np.array_equal(require_hermitian(drift), drift)
    drift[0, 1] = 2.0 * HERMITIAN_TOL
    with pytest.raises(ValueError, match=f"within tolerance {HERMITIAN_TOL}"):
        require_hermitian(drift)


def test_rank_tol_reduces_over_last_axis():
    lam = np.array([[1.0, -4.0, 2.0], [0.0, 0.0, 0.0]])
    eps = np.finfo(np.float64).eps
    np.testing.assert_array_equal(default_rank_tol(lam, 3), [[12.0 * eps], [0.0]])
    np.testing.assert_array_equal(default_rank_tol(lam[0], 3), [12.0 * eps])


def test_numeric_rank_counts_eigenvalues_above_the_cutoff():
    # the cutoff is m * eps * max|w| = 12 eps: values below it, negative ones
    # included, do not count
    eps = np.finfo(np.float64).eps
    ascending = np.array([-1e-3, 0.0, 10.0 * eps, 20.0 * eps, 0.5, 2.0])
    assert numeric_rank(ascending) == 3
    assert numeric_rank(ascending[::-1]) == 3
    assert numeric_rank(np.zeros(4)) == 0


def test_require_hermitian_rejects_drift():
    k = np.array([[1.0, 0.5], [0.6, 2.0]])
    with pytest.raises(ValueError):
        require_hermitian(k)
    with pytest.raises(ValueError, match=re.escape("k must be nonempty, got shape (0, 0)")):
        require_hermitian(np.zeros((0, 0)), "k")
    sym = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert np.array_equal(require_hermitian(sym), sym)


def test_frobenius_norm_matches_numpy():
    k = random_hermitian(4, 77)
    assert abs(frobenius_norm(k) - np.linalg.norm(k)) <= 1e-12


def test_hermitize_is_projection():
    g = RandomSource(8).generator
    z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    h = hermitize(z)
    np.testing.assert_allclose(h, h.conj().T)
    np.testing.assert_allclose(hermitize(h), h)
