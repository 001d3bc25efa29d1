import numpy as np
import pytest
import scipy.linalg

from lsvd.errors import ConvergenceFailureError, ToleranceUnachievableError
from lsvd.lindblad import build_superoperator
from lsvd.models import FMO_DEFAULT_T_END, RPM_DEFAULT_T_END, builtin_model
from lsvd.numerics import DEFAULT_TOL, expm, svd
from lsvd.pipeline import _real_generator

from conftest import random_complex, random_unitary


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.array([0.3, -1.2 + 0.5j, 2.0j])
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-12)

    def test_nilpotent_series_truncates(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm(a), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 8)
        a *= 5.0 / np.linalg.norm(a)
        np.testing.assert_allclose(
            expm(a) @ expm(-a), np.eye(8), atol=10 * DEFAULT_TOL
        )

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_semigroup_property(self, seed):
        rng = np.random.default_rng(seed)
        gen = random_complex(rng, 6)
        gen /= np.linalg.norm(gen)
        t1, t2 = rng.uniform(0.2, 2.0, size=2)
        np.testing.assert_allclose(
            expm(gen * (t1 + t2)), expm(gen * t1) @ expm(gen * t2), atol=10 * DEFAULT_TOL
        )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_against_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 12)
        a *= rng.uniform(0.5, 30.0) / np.linalg.norm(a)
        reference = scipy.linalg.expm(a)
        np.testing.assert_allclose(expm(a), reference, atol=1e-11 * np.linalg.norm(reference))

    def test_real_input_stays_real(self, rng):
        a = rng.normal(size=(6, 6))
        assert expm(a).dtype == np.float64
        assert expm(np.zeros((3, 3))).dtype == np.float64
        assert expm(a.astype(complex)).dtype == np.complex128
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a), rtol=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
            expm(np.zeros((2, 3)))

    def test_bad_tol_raises(self):
        with pytest.raises(ValueError):
            expm(np.eye(2), tol=0.0)

    def test_tolerance_unachievable_reports_residual(self):
        with pytest.raises(
            ToleranceUnachievableError, match=r"achievable relative residual \d\.\d{3}e\+\d+"
        ):
            expm(np.eye(2) * 1e30)

    @pytest.mark.parametrize(
        "name, t",
        [
            ("fmo3", FMO_DEFAULT_T_END),
            ("fmo7", FMO_DEFAULT_T_END),
            ("rpm", RPM_DEFAULT_T_END),
            ("rpm-dissipative", RPM_DEFAULT_T_END),
        ],
    )
    def test_documented_bound_on_bundled_models(self, name, t):
        model, _ = builtin_model(name)
        # the column-stacked generator and its real Hermitian-basis form
        for generator in (build_superoperator(model), _real_generator(model)):
            a = generator * t
            # s as documented: the smallest s >= 0 with ||a||_1 / 2**s <= 0.5
            squarings = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / 0.5))))
            reference = scipy.linalg.expm(a)
            result = expm(a)
            assert result.dtype == a.dtype
            relative = np.linalg.norm(result - reference) / np.linalg.norm(reference)
            assert relative <= max(1, squarings) * DEFAULT_TOL


class TestSvd:
    def test_diagonal_positive(self):
        u, sigma, vdag = svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(sigma, [2.0, 1.0])
        np.testing.assert_allclose((u * sigma) @ vdag, np.diag([2.0, 1.0]), atol=1e-14)

    def test_unitary_has_unit_singular_values(self, rng):
        q = random_unitary(rng, 8)
        _, sigma, _ = svd(q)
        np.testing.assert_allclose(sigma, np.ones(8), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64, 128])
    def test_reconstruction_unitarity_ordering(self, n):
        rng = np.random.default_rng(n)
        a = random_complex(rng, n)
        u, sigma, vdag = svd(a)
        assert np.all(sigma >= 0)
        assert np.all(np.diff(sigma) <= 0)
        np.testing.assert_allclose(
            (u * sigma) @ vdag, a, atol=DEFAULT_TOL * np.linalg.norm(a)
        )
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=DEFAULT_TOL)
        np.testing.assert_allclose(vdag @ vdag.conj().T, np.eye(n), atol=DEFAULT_TOL)

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_real_input_gives_real_factors(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        u, sigma, vdag = svd(a)
        assert u.dtype == vdag.dtype == sigma.dtype == np.float64
        assert np.all(np.diff(sigma) <= 0)
        np.testing.assert_allclose(
            (u * sigma) @ vdag, a, atol=DEFAULT_TOL * np.linalg.norm(a)
        )
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=DEFAULT_TOL)
        np.testing.assert_allclose(vdag @ vdag.T, np.eye(n), atol=DEFAULT_TOL)

    def test_complex_input_gives_complex_factors(self, rng):
        u, sigma, vdag = svd(random_complex(rng, 4))
        assert u.dtype == vdag.dtype == np.complex128
        assert sigma.dtype == np.float64

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(3, 2\)"):
            svd(np.zeros((3, 2)))

    def test_impossible_tol_raises_with_residual(self, rng):
        a = random_complex(rng, 16)
        with pytest.raises(
            ConvergenceFailureError, match=r"residual \d\.\d{3}e-\d+ > tol 1\.000e-30"
        ):
            svd(a, tol=1e-30)
