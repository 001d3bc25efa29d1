import numpy as np
import pytest
import scipy.linalg

from lsvd.circuit import build_svd_circuit, run_exact
from lsvd.dilation import dilate
from lsvd.errors import SigmaOutOfRangeError
from lsvd.lindblad import build_superoperator, propagator
from lsvd.models import FMOParams, fmo_model

from conftest import random_complex, random_unitary


def padded(m, n):
    """m ⊕ I in dimension n, built without the package."""
    m = np.asarray(m)
    return scipy.linalg.block_diag(m, np.eye(n - m.shape[0]))


def dilated_diagonal(sigma_plus):
    """The 2n diagonal entries diag(Sigma_+, Sigma_-), success branch first."""
    return np.concatenate([sigma_plus, sigma_plus.conj()])


def reconstruction(circuit):
    return (circuit.u * (circuit.sigma * circuit.scale)) @ circuit.vdag


class TestPad:
    """``build_svd_circuit`` pads the SVD factors, never the matrix."""

    def test_power_of_two_unchanged(self, rng):
        m = random_complex(rng, 8)
        circuit = build_svd_circuit(m)
        assert circuit.n == 8
        np.testing.assert_allclose(reconstruction(circuit), m, atol=1e-10)

    def test_25_pads_to_32(self, rng):
        m = random_complex(rng, 25)
        circuit = build_svd_circuit(m)
        assert circuit.n == 32
        np.testing.assert_allclose(reconstruction(circuit), padded(m, 32), atol=1e-10)
        for factor in (circuit.u, circuit.vdag):
            np.testing.assert_array_equal(factor[25:, 25:], np.eye(7))
            np.testing.assert_array_equal(factor[:25, 25:], np.zeros((25, 7)))
            np.testing.assert_array_equal(factor[25:, :25], np.zeros((7, 25)))

    def test_padding_states_invariant_and_decoupled(self, rng):
        m = random_complex(rng, 5)
        circuit = build_svd_circuit(m)
        v = np.zeros(16, dtype=complex)
        v[:5] = rng.normal(size=5)
        v /= np.linalg.norm(v)
        conditioned, _ = run_exact(circuit, v)
        np.testing.assert_allclose(conditioned[5:], np.zeros(3), atol=1e-12)
        w = np.zeros(16, dtype=complex)
        w[6] = 1.0
        conditioned, _ = run_exact(circuit, w)
        np.testing.assert_allclose(conditioned * circuit.scale, w[:8], atol=1e-10)

    def test_1x1_pads_to_2x2(self):
        circuit = build_svd_circuit([[0.5]])
        assert circuit.n == 2
        np.testing.assert_allclose(reconstruction(circuit), np.diag([0.5, 1.0]), atol=1e-10)

    def test_5x5_real_input_keeps_float64_factors(self, rng):
        m = rng.normal(size=(5, 5))
        circuit = build_svd_circuit(m)
        assert circuit.u.dtype == np.float64
        assert circuit.vdag.dtype == np.float64
        np.testing.assert_allclose(reconstruction(circuit), padded(m, 8), atol=1e-10)

    def test_sigma_descending_then_padding_entries(self, rng):
        m = 3.0 * random_complex(rng, 5)
        circuit = build_svd_circuit(m)
        assert circuit.scale > 1.0
        assert np.all(np.diff(circuit.sigma[:5]) <= 0)
        np.testing.assert_array_equal(circuit.sigma[5:], np.full(3, 1.0 / circuit.scale))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
            build_svd_circuit(np.zeros((2, 3)))


class TestDecompose:
    """The SVD and scaling step inside ``build_svd_circuit``."""

    def test_identity(self):
        circuit = build_svd_circuit(np.eye(8))
        assert circuit.scale == 1.0
        np.testing.assert_allclose(circuit.sigma, np.ones(8))

    def test_scaling_rule(self):
        circuit = build_svd_circuit(np.diag([2.0, 0.5]))
        assert circuit.scale == 2.0
        np.testing.assert_allclose(circuit.sigma, [1.0, 0.25])

    def test_contractive_input_not_rescaled(self):
        circuit = build_svd_circuit(np.diag([0.7, 0.2]))
        assert circuit.scale == 1.0
        np.testing.assert_allclose(circuit.sigma, [0.7, 0.2])

    def test_5x5_pads_to_8(self, rng):
        m = random_complex(rng, 5)
        circuit = build_svd_circuit(m)
        assert (circuit.n, circuit.k, circuit.d) == (8, 3, 4)
        np.testing.assert_allclose(reconstruction(circuit), padded(m, 8), atol=1e-10)

    def test_fmo3_propagator_reconstruction(self):
        model, _ = fmo_model(FMOParams.default(3))
        m = propagator(build_superoperator(model), 500.0)
        circuit = build_svd_circuit(m)
        reference = padded(m, 32)
        recon = reconstruction(circuit)
        assert np.linalg.norm(recon - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_unitary_input_keeps_unit_sigma(self, rng):
        circuit = build_svd_circuit(random_unitary(rng, 16))
        assert circuit.scale == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(circuit.sigma, np.ones(16), atol=1e-10)


class TestDilate:
    def test_unit_sigma_gives_identity(self):
        sigma_plus = dilate(np.ones(4))
        np.testing.assert_allclose(np.diag(dilated_diagonal(sigma_plus)), np.eye(8), atol=1e-15)

    def test_zero_sigma_gives_plus_minus_i(self):
        sigma_plus = dilate([0.0])
        np.testing.assert_allclose(sigma_plus, [1j])
        np.testing.assert_allclose(sigma_plus.conj(), [-1j])

    def test_three_four_five(self):
        sigma_plus = dilate([0.6])
        assert sigma_plus[0] == pytest.approx(0.6 + 0.8j, abs=1e-15)
        assert sigma_plus.conj()[0] == pytest.approx(0.6 - 0.8j, abs=1e-15)
        assert abs(sigma_plus[0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_unit_modulus_and_branch_average(self, seed):
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(0.0, 1.0, size=16))[::-1]
        sigma_plus = dilate(sigma)
        np.testing.assert_allclose(np.abs(sigma_plus), np.ones(16), atol=1e-12)
        # the postselected branch must reproduce diag(sigma) exactly
        np.testing.assert_array_equal(0.5 * (sigma_plus + sigma_plus.conj()), sigma)

    def test_block_diagonal_layout(self):
        diagonal = dilated_diagonal(dilate([1.0, 0.6]))
        assert diagonal.shape == (4,)
        np.testing.assert_allclose(diagonal[:2], [1.0, 0.6 + 0.8j], atol=1e-15)
        np.testing.assert_allclose(diagonal[2:], [1.0, 0.6 - 0.8j], atol=1e-15)
        np.testing.assert_allclose(diagonal[:2] + diagonal[2:], 2 * np.array([1.0, 0.6]))
        matrix = np.diag(diagonal)
        np.testing.assert_allclose(matrix.conj().T @ matrix, np.eye(4), atol=1e-14)

    def test_slack_clamped(self):
        sigma_plus = dilate([1.0 + 1e-13])
        assert sigma_plus[0] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(SigmaOutOfRangeError):
            dilate([1.5])
        with pytest.raises(SigmaOutOfRangeError):
            dilate([-0.1])
