import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg

import lsvd
import lsvd.numerics
from lsvd.errors import LsvdError
from lsvd.lindblad import build_superoperator
from lsvd.models import (
    FMO_DEFAULT_T_END,
    RPM_DEFAULT_T_END,
    RPMParams,
    builtin_model,
    default_theta_grid,
    rpm_model,
)
from lsvd.numerics import DEFAULT_TOL, expm, svd
from lsvd.pipeline import _decoupled_blocks, _real_generator

from conftest import random_complex, random_unitary

# The documented scaling target of expm: Higham's theta_13 for the [13/13]
# Padé approximant.
THETA_13 = 5.371920351148152


def documented_squarings(a) -> int:
    """The documented s: the smallest s >= 0 with ||a||_1 / 2**s <= theta_13."""
    return max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / THETA_13))))


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

    def test_tolerance_unachievable_reports_residual(self):
        with pytest.raises(
            LsvdError, match=r"achievable relative residual \d\.\d{3}e\+\d+"
        ):
            expm(np.eye(2) * 1e30)

    @pytest.mark.parametrize(
        "a", [[[800.0]], [[[1.0]], [[800.0]]], [[400.0, 400.0j], [-400.0j, 400.0]]],
        ids=["real", "one-slice-of-a-stack", "complex"],
    )
    def test_overflow_refused_naming_the_norm(self, a):
        # exp(800) is past float64: refused by name, and no numpy overflow
        # warning escapes on the way
        with pytest.raises(LsvdError, match=r"^matrix 1-norm 8\.000e\+02: exp overflows float64"):
            expm(a)

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
            reference = scipy.linalg.expm(a)
            result = expm(a)
            assert result.dtype == a.dtype
            relative = np.linalg.norm(result - reference) / np.linalg.norm(reference)
            assert relative <= max(1, documented_squarings(a)) * DEFAULT_TOL

    @pytest.mark.parametrize(
        "name, t, size",
        [
            ("rpm", RPM_DEFAULT_T_END, 8),
            ("rpm-dissipative", RPM_DEFAULT_T_END, 8),
            ("fmo7", FMO_DEFAULT_T_END, 14),
            ("rpm-sweep-theta0", RPM_DEFAULT_T_END, 32),
        ],
    )
    def test_documented_bound_against_mpmath(self, name, t, size):
        # a 40-digit reference that shares nothing with numpy's or scipy's
        # expm, on one decoupled block of the real generator
        if name == "rpm-sweep-theta0":
            # the sweep's blocks come from the union of its three anchors'
            # patterns, and its member at theta = 0 is the first anchor
            generators = [
                _real_generator(rpm_model(replace(RPMParams(), theta=theta))[0])
                for theta in (0.0, np.pi, np.pi / 2)
            ]
        else:
            generators = [_real_generator(builtin_model(name)[0])]
        generator = generators[0]
        block = next(c for c in _decoupled_blocks(*generators) if c.size == size)
        a = generator[np.ix_(block, block)] * t
        with mpmath.workdps(40):
            reference = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
        relative = np.linalg.norm(expm(a) - reference) / np.linalg.norm(reference)
        assert relative <= max(1, documented_squarings(a)) * DEFAULT_TOL


class TestStackedExpm:
    """A stack is exponentiated matrix by matrix: each slice gets the
    squarings it would get alone."""

    @staticmethod
    def mixed_stack(rng):
        model, _ = builtin_model("rpm")
        generator = _real_generator(model)
        block = _decoupled_blocks(generator)[0]
        slow = generator[np.ix_(block, block)] * RPM_DEFAULT_T_END  # t = 1 ms
        small = rng.normal(size=slow.shape)
        small *= 3.0 / np.linalg.norm(small, 1)  # below theta_13: no squaring
        return np.stack([np.zeros_like(slow), slow, small, slow / 7.0])

    def test_each_slice_is_bitwise_its_own_call(self, rng):
        stack = self.mixed_stack(rng)
        # after the zero matrix: the compass block needs 13 squarings, the small one none
        assert [documented_squarings(matrix) for matrix in stack[1:]] == [13, 0, 10]
        result = expm(stack)
        assert result.shape == stack.shape and result.dtype == np.float64
        for matrix, stacked in zip(stack, result):
            np.testing.assert_array_equal(stacked, expm(matrix))
        np.testing.assert_array_equal(result[0], np.eye(stack.shape[-1]))
        deeper = expm(stack.reshape((2, 2) + stack.shape[1:]))
        np.testing.assert_array_equal(deeper.reshape(stack.shape), result)

    def test_equal_squarings_square_the_whole_stack(self):
        # eight sweep orientations of the 34x34 compass block, each needing
        # the same squarings
        generators = [
            _real_generator(rpm_model(replace(RPMParams(), theta=float(theta)))[0])
            for theta in default_theta_grid()[:8]
        ]
        block = _decoupled_blocks(*generators)[0]
        stack = np.stack([g[np.ix_(block, block)] for g in generators]) * RPM_DEFAULT_T_END
        assert block.size == 34
        assert {documented_squarings(matrix) for matrix in stack} == {13}
        result = expm(stack)
        for matrix, stacked in zip(stack, result):
            np.testing.assert_array_equal(stacked, expm(matrix))

    def test_field_is_kept(self, rng):
        real = rng.normal(size=(3, 5, 5))
        assert expm(real).dtype == np.float64
        complex_stack = real + 1j * rng.normal(size=real.shape)
        result = expm(complex_stack)
        assert result.dtype == np.complex128
        for matrix, stacked in zip(complex_stack, result):
            np.testing.assert_array_equal(stacked, expm(matrix))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pade_is_bitwise_the_one_expression(self, rng, field):
        # the buffered evaluation against the [13/13] approximant written as
        # one expression per sum, squarings and all
        stack = rng.normal(size=(5, 12, 12))
        if field == "complex":
            stack = stack + 1j * rng.normal(size=stack.shape)
        # 1-norms from below theta_13 to 2**6 times it
        stack *= np.array([0.5, 5.0, 40.0, 200.0, 300.0])[:, None, None] / np.linalg.norm(
            stack, 1, axis=(-2, -1), keepdims=True
        )
        squarings = [documented_squarings(matrix) for matrix in stack]
        c, eye = lsvd.numerics._PADE_13, np.eye(stack.shape[-1])
        b = stack / 2.0 ** np.array(squarings)[:, None, None]
        b2 = b @ b
        b4 = b2 @ b2
        b6 = b4 @ b2
        odd = b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2) + c[7] * b6 + c[5] * b4 + c[3] * b2
        u = b @ (odd + c[1] * eye)
        v = b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2) + c[6] * b6 + c[4] * b4 + c[2] * b2 + eye
        want = np.linalg.solve(v - u, v + u)
        for j, count in enumerate(squarings):
            for _ in range(count):
                want[j] = want[j] @ want[j]
        assert squarings == [0, 0, 3, 6, 6]
        assert np.array_equal(expm(stack), want)

    def test_one_non_finite_slice_rejected(self, rng):
        stack = self.mixed_stack(rng)
        stack[2, 3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            expm(stack)

    def test_one_slice_over_the_squaring_cap_rejected(self, rng):
        stack = self.mixed_stack(rng)
        stack[3] *= 1e30
        norm = f"{np.linalg.norm(stack[3], 1):.3e}".replace("+", r"\+")
        with pytest.raises(LsvdError, match=f"matrix 1-norm {norm} would need"):
            expm(stack)


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

    @pytest.mark.parametrize("shape", [(5, 7, 7), (2, 3, 4, 4)], ids=["real", "complex"])
    def test_stack_matches_per_matrix_calls(self, rng, shape):
        stack = rng.normal(size=shape)
        if len(shape) == 4:
            stack = stack + 1j * rng.normal(size=shape)
        u, sigma, vdag = svd(stack)
        assert u.shape == vdag.shape == shape and sigma.shape == shape[:-1]
        for index in np.ndindex(shape[:-2]):
            one = svd(stack[index])
            for stacked, single in zip((u, sigma, vdag), one):
                np.testing.assert_array_equal(stacked[index], single)

    @staticmethod
    def perturb_one_matrix(monkeypatch, j, factor, scale):
        real_svd = np.linalg.svd

        def perturbed(m):
            u, sigma, vdag = real_svd(m)
            factors = {"u": u, "sigma": sigma}
            factors[factor] = factors[factor].copy()
            factors[factor][j] *= scale
            return factors["u"], factors["sigma"], vdag

        monkeypatch.setattr(np.linalg, "svd", perturbed)

    @pytest.mark.parametrize("j", [0, 3])
    def test_one_corrupted_matrix_rejected(self, rng, monkeypatch, j):
        stack = rng.normal(size=(4, 6, 6))
        self.perturb_one_matrix(monkeypatch, j, "u", 1.0 + 1e-9)
        with pytest.raises(LsvdError, match="accuracy contract missed"):
            svd(stack)
        monkeypatch.undo()
        svd(stack)

    def test_each_matrix_checked_against_its_own_norm(self, rng, monkeypatch):
        # a 1e-9 relative error in the smallest matrix would vanish against
        # the norm of the whole stack
        stack = rng.normal(size=(3, 6, 6)) * np.array([1e6, 1e-6, 1.0])[:, None, None]
        self.perturb_one_matrix(monkeypatch, 1, "sigma", 1.0 + 1e-9)
        with pytest.raises(
            LsvdError, match=r"residual 1\.000e-09 > tol 1\.000e-12"
        ):
            svd(stack)

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(3), np.array([[1.0, 2.0j], [3.0, 4.0]])],
        ids=["closed-form", "lapack", "complex"],
    )
    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_checks_hold_at_the_edges_of_float64(self, a, magnitude):
        # entries whose squares overflow or underflow are checked, and
        # factored, as the unit-sized matrix would be
        u, sigma, vdag = svd(magnitude * a)
        np.testing.assert_allclose(sigma / magnitude, svd(a)[1], rtol=1e-14, atol=0)
        np.testing.assert_allclose((u * (sigma / magnitude)) @ vdag, a, rtol=0, atol=1e-14)

    def test_tiny_matrix_checked_against_its_own_norm(self, rng, monkeypatch):
        # its squared norm underflows, so it must not pass as the zero matrix
        real_svd = np.linalg.svd

        def tripled(m):
            u, sigma, vdag = real_svd(m)
            return u, 3.0 * sigma, vdag

        monkeypatch.setattr(np.linalg, "svd", tripled)
        with pytest.raises(LsvdError, match=r"accuracy contract missed: residual 2\.000e\+00"):
            svd(1e-170 * rng.normal(size=(3, 3)))

    def test_lapack_failure_is_reported(self, rng, monkeypatch):
        def not_converging(a):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", not_converging)
        with pytest.raises(LsvdError, match="^SVD did not converge: SVD did not converge$"):
            svd(rng.normal(size=(3, 3)))

    def test_non_finite_matrix_in_stack_rejected(self, rng):
        stack = rng.normal(size=(4, 6, 6))
        stack[2, 1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            svd(stack)


def small_stack(kind, size, rng, count=2000):
    """``count`` real ``size`` x ``size`` matrices of one ``kind``."""
    signs = rng.choice([-1.0, 1.0], size=(count, 1, 1))
    if kind == "random":
        return rng.normal(size=(count, size, size))
    if kind == "rank-deficient":
        left = rng.normal(size=(count, size, 1))
        left[::2] = 0.0  # rank 0 as well as 1
        return left @ rng.normal(size=(count, 1, size))
    if kind == "zero":
        return np.zeros((count, size, size)) * signs  # signed zeros
    if kind == "equal-sigma":
        # scaled rotations and reflections: every singular value is the scale
        scale = rng.uniform(0.1, 10.0, (count, 1, 1))
        if size == 1:
            return scale * signs
        angle = rng.uniform(-4.0, 4.0, count)
        cos, sin = np.cos(angle), np.sin(angle)
        rotation = np.stack([cos, -sin, sin, cos], axis=-1).reshape(count, 2, 2)
        rotation[:, :, 1] *= signs[:, 0]  # a reflection where the sign is negative
        return scale * rotation
    if kind == "negative-determinant":
        stack = rng.normal(size=(count, size, size))
        stack[np.linalg.det(stack) > 0, 0] *= -1.0
        return stack
    assert kind == "badly-scaled"
    return rng.normal(size=(count, size, size)) * 10.0 ** rng.uniform(-8, 3, (count, size, size))


class TestSmallSvd:
    """Real 1 x 1 and 2 x 2 matrices are factored in closed form, not by
    LAPACK, under the same checks."""

    KINDS = [
        "random", "rank-deficient", "zero", "equal-sigma", "negative-determinant", "badly-scaled",
    ]

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_lapack_within_the_contract(self, monkeypatch, kind, size):
        stack = small_stack(kind, size, np.random.default_rng([size, self.KINDS.index(kind)]))
        lapack_u, lapack_sigma, lapack_vdag = np.linalg.svd(stack)
        monkeypatch.setattr(np.linalg, "svd", None)  # the closed form must not need it
        u, sigma, vdag = svd(stack)
        assert u.dtype == sigma.dtype == vdag.dtype == np.float64
        assert np.all(sigma >= 0) and np.all(np.diff(sigma, axis=-1) <= 0)
        norm = np.maximum(np.linalg.norm(stack, axis=(-2, -1)), np.finfo(float).tiny)

        def relative(defect):
            return np.linalg.norm(defect, axis=(-2, -1)) / norm

        product = (u * sigma[:, None, :]) @ vdag
        lapack = (lapack_u * lapack_sigma[:, None, :]) @ lapack_vdag
        assert relative(product - stack).max() <= DEFAULT_TOL
        assert relative(product - lapack).max() <= DEFAULT_TOL
        assert (np.abs(sigma - lapack_sigma).max(axis=-1) / norm).max() <= DEFAULT_TOL
        eye = np.eye(size)
        assert np.linalg.norm(np.swapaxes(u, -1, -2) @ u - eye, axis=(-2, -1)).max() <= DEFAULT_TOL
        assert np.linalg.norm(vdag @ np.swapaxes(vdag, -1, -2) - eye, axis=(-2, -1)).max() <= DEFAULT_TOL

    @pytest.mark.parametrize("j", [0, 5])
    def test_one_corrupted_matrix_rejected(self, rng, monkeypatch, j):
        stack = rng.normal(size=(8, 2, 2))
        real_small_svd = lsvd.numerics._small_svd

        def perturbed(m):
            u, sigma, vdag = real_small_svd(m)
            u[j] *= 1.0 + 1e-9
            return u, sigma, vdag

        monkeypatch.setattr(lsvd.numerics, "_small_svd", perturbed)
        with pytest.raises(LsvdError, match="accuracy contract missed"):
            svd(stack)
        monkeypatch.undo()
        svd(stack)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_only_real_input_takes_the_closed_form(self, rng, monkeypatch, field):
        stack = rng.normal(size=(3, 2, 2))
        if field == "complex":
            stack = stack + 1j * rng.normal(size=(3, 2, 2))
        lapack_calls = []
        real_lapack = np.linalg.svd

        def recording(m):
            lapack_calls.append(m.shape)
            return real_lapack(m)

        monkeypatch.setattr(np.linalg, "svd", recording)
        u, _, _ = svd(stack)
        assert lapack_calls == ([(3, 2, 2)] if field == "complex" else [])
        assert u.dtype == (np.complex128 if field == "complex" else np.float64)


class TestEmptyInput:
    @pytest.mark.parametrize("entry", ["expm", "svd"])
    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0), (2, 0, 0)])
    def test_refused_before_any_reduction(self, entry, shape):
        message = re.escape(f"matrix has no entries, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(lsvd, entry)(np.zeros(shape))
