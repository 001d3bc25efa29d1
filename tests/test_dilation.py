import numpy as np
import pytest

from lsvd.circuit import build_svd_circuit
from lsvd.dilation import dilate, pad_to_power_of_two
from lsvd.errors import SigmaOutOfRangeError
from lsvd.lindblad import build_superoperator, propagator
from lsvd.models import FMOParams, fmo_model

from conftest import random_complex, random_unitary


class TestPad:
    def test_power_of_two_unchanged(self, rng):
        m = random_complex(rng, 4)
        np.testing.assert_array_equal(pad_to_power_of_two(m), m)

    def test_25_pads_to_32(self, rng):
        m = random_complex(rng, 25)
        padded = pad_to_power_of_two(m)
        assert padded.shape == (32, 32)
        np.testing.assert_array_equal(padded[:25, :25], m)
        np.testing.assert_array_equal(padded[25:, 25:], np.eye(7))
        np.testing.assert_array_equal(padded[:25, 25:], np.zeros((25, 7)))
        np.testing.assert_array_equal(padded[25:, :25], np.zeros((7, 25)))

    def test_padding_states_invariant_and_decoupled(self, rng):
        m = random_complex(rng, 5)
        padded = pad_to_power_of_two(m)
        v = np.zeros(8, dtype=complex)
        v[:5] = rng.normal(size=5)
        np.testing.assert_array_equal((padded @ v)[5:], np.zeros(3))
        w = np.zeros(8, dtype=complex)
        w[6] = 1.0
        np.testing.assert_array_equal(padded @ w, w)

    def test_1x1_pads_to_2x2(self):
        padded = pad_to_power_of_two([[0.5]])
        np.testing.assert_array_equal(padded, np.diag([0.5, 1.0]))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            pad_to_power_of_two(np.zeros((2, 3)))


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
        recon = (circuit.u * (circuit.sigma * circuit.scale)) @ circuit.vdag
        np.testing.assert_allclose(recon, pad_to_power_of_two(m), atol=1e-10)

    def test_fmo3_propagator_reconstruction(self):
        model, _ = fmo_model(FMOParams.default(3))
        m = pad_to_power_of_two(propagator(build_superoperator(model), 500.0))
        circuit = build_svd_circuit(m)
        recon = (circuit.u * (circuit.sigma * circuit.scale)) @ circuit.vdag
        assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)

    def test_unitary_input_keeps_unit_sigma(self, rng):
        circuit = build_svd_circuit(random_unitary(rng, 16))
        assert circuit.scale == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(circuit.sigma, np.ones(16), atol=1e-10)


class TestDilate:
    def test_unit_sigma_gives_identity(self):
        dilated = dilate(np.ones(4))
        np.testing.assert_allclose(np.diag(dilated.diagonal), np.eye(8), atol=1e-15)

    def test_zero_sigma_gives_plus_minus_i(self):
        dilated = dilate([0.0])
        np.testing.assert_allclose(dilated.sigma_plus, [1j])
        np.testing.assert_allclose(dilated.sigma_minus, [-1j])

    def test_three_four_five(self):
        dilated = dilate([0.6])
        assert dilated.sigma_plus[0] == pytest.approx(0.6 + 0.8j, abs=1e-15)
        assert dilated.sigma_minus[0] == pytest.approx(0.6 - 0.8j, abs=1e-15)
        assert abs(dilated.sigma_plus[0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_unit_modulus_and_branch_average(self, seed):
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(0.0, 1.0, size=16))[::-1]
        dilated = dilate(sigma)
        np.testing.assert_allclose(np.abs(dilated.sigma_plus), np.ones(16), atol=1e-12)
        np.testing.assert_allclose(np.abs(dilated.sigma_minus), np.ones(16), atol=1e-12)
        # the postselected branch must reproduce diag(sigma) exactly
        np.testing.assert_array_equal(
            0.5 * (dilated.sigma_plus + dilated.sigma_minus), sigma
        )

    def test_block_diagonal_layout(self):
        dilated = dilate([1.0, 0.6])
        diagonal = dilated.diagonal
        assert diagonal.shape == (4,)
        np.testing.assert_array_equal(diagonal[:2], dilated.sigma_plus)
        np.testing.assert_array_equal(diagonal[2:], dilated.sigma_minus)
        np.testing.assert_allclose(diagonal[:2] + diagonal[2:], 2 * np.array([1.0, 0.6]))
        matrix = np.diag(diagonal)
        np.testing.assert_allclose(matrix.conj().T @ matrix, np.eye(4), atol=1e-14)

    def test_slack_clamped(self):
        dilated = dilate([1.0 + 1e-13])
        assert dilated.sigma_plus[0] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(SigmaOutOfRangeError):
            dilate([1.5])
        with pytest.raises(SigmaOutOfRangeError):
            dilate([-0.1])
