import numpy as np
import pytest
import scipy.linalg

import lsvd.circuit
from lsvd.circuit import (
    apply_circuit,
    as_unitary,
    build_svd_circuit,
    estimate_resources,
    run_exact,
)
from lsvd.dilation import dilate
from lsvd.errors import BlockIdentityViolationError, ConvergenceFailureError
from lsvd.lindblad import build_superoperator, classical_evolve, propagator, vectorize
from lsvd.models import FMOParams, fmo_model

from conftest import random_complex, random_model, random_unitary


def ancilla_zero_input(system_state, n):
    state = np.zeros(2 * n, dtype=complex)
    state[: len(system_state)] = system_state
    return state


class TestBuild:
    def test_identity_passthrough(self):
        circuit = build_svd_circuit(np.eye(4))
        block = as_unitary(circuit)[:4, :4]
        np.testing.assert_allclose(block, np.eye(4), atol=1e-12)

    def test_random_unitary_block_and_unit_success(self, rng):
        q = random_unitary(rng, 4)
        circuit = build_svd_circuit(q)
        np.testing.assert_allclose(as_unitary(circuit)[:4, :4], q, atol=1e-10)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        _, success = run_exact(circuit, ancilla_zero_input(psi, 4))
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_single_sigma_amplitudes_by_hand(self):
        circuit = build_svd_circuit(np.diag([0.6, 1.0]))
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        final = apply_circuit(circuit, state)
        assert final[0] == pytest.approx(0.6, abs=1e-12)
        assert final[1] == pytest.approx(0.0, abs=1e-12)
        assert final[2] == pytest.approx(0.8j, abs=1e-12)
        assert final[3] == pytest.approx(0.0, abs=1e-12)

    def test_qubit_bookkeeping(self):
        circuit = build_svd_circuit(np.eye(32))
        assert circuit.k == 5
        assert circuit.d == 6
        assert circuit.n == 32

    def test_op_sequence_and_unitarity(self, rng):
        # a complex propagator, and a real one whose factors stay real
        for m in (random_complex(rng, 8), rng.normal(size=(8, 8))):
            circuit = build_svd_circuit(m)
            n = circuit.n
            sigma_plus = dilate(circuit.sigma)
            hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
            ops = [
                np.kron(np.eye(2), circuit.vdag),
                np.kron(hadamard, np.eye(n)),
                np.diag(np.concatenate([sigma_plus, sigma_plus.conj()])),
                np.kron(hadamard, np.eye(n)),
                np.kron(np.eye(2), circuit.u),
            ]
            composed = np.eye(2 * n, dtype=complex)
            for op in ops:
                np.testing.assert_allclose(op.conj().T @ op, np.eye(2 * n), atol=1e-10)
                composed = op @ composed
            applied = np.column_stack(
                [apply_circuit(circuit, column) for column in np.eye(2 * n)]
            )
            np.testing.assert_allclose(applied, composed, atol=1e-12)
            probe = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            np.testing.assert_allclose(
                apply_circuit(circuit, probe), composed @ probe, atol=1e-12
            )

    def test_corrupt_factors_rejected(self, monkeypatch):
        # a factorization that reconstructs its input exactly but whose u is
        # not unitary must still be caught by the one SVD check
        u = np.diag([2.0, 0.5, 1.0, 1.0]).astype(complex)
        sigma = np.array([0.9, 0.5, 0.3, 0.1])
        vdag = np.eye(4, dtype=complex)
        monkeypatch.setattr(np.linalg, "svd", lambda m: (u, sigma, vdag))
        with pytest.raises(ConvergenceFailureError):
            build_svd_circuit(u * sigma)

    def test_branch_average_violation_rejected(self, monkeypatch):
        def off_by_1e_6(sigma):
            return dilate(sigma) + 1e-6

        monkeypatch.setattr(lsvd.circuit, "dilate", off_by_1e_6)
        with pytest.raises(BlockIdentityViolationError, match="branch average"):
            build_svd_circuit(np.diag([0.9, 0.5, 0.3, 0.1]))

    def test_probe_violation_rejected(self, monkeypatch):
        def off_by_1e_6(circuit, state):
            return apply_circuit(circuit, state) + 1e-6

        monkeypatch.setattr(lsvd.circuit, "apply_circuit", off_by_1e_6)
        with pytest.raises(BlockIdentityViolationError, match="ancilla-0 block"):
            build_svd_circuit(np.diag([0.9, 0.5, 0.3, 0.1]))


class TestRunExact:
    def test_contraction_success_probability(self):
        circuit = build_svd_circuit(np.diag([0.5, 0.5, 0.5, 0.5]))
        state = ancilla_zero_input(np.full(4, 0.5, dtype=complex), 4)
        conditioned, success = run_exact(circuit, state)
        assert success == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(conditioned, np.full(4, 0.25), atol=1e-12)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_conditioned_times_scale_recovers_propagator(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 3, n_channels=2)
        superop = build_superoperator(model)
        t = rng.uniform(0.0, 5.0 / np.linalg.norm(superop))
        m = propagator(superop, t)
        m_padded = scipy.linalg.block_diag(m, np.eye(7))
        circuit = build_svd_circuit(m)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        conditioned, success = run_exact(circuit, ancilla_zero_input(psi, 16))
        np.testing.assert_allclose(
            conditioned * circuit.scale, m_padded @ psi, atol=1e-8
        )
        assert 0.0 <= success <= 1.0
        assert success == pytest.approx(
            np.linalg.norm(m_padded @ psi / circuit.scale) ** 2, abs=1e-12
        )

    def test_success_unity_iff_unitary(self, rng):
        q = random_unitary(rng, 8)
        circuit = build_svd_circuit(q)
        assert np.all(np.abs(dilate(circuit.sigma).real - 1.0) < 1e-10)
        contraction = build_svd_circuit(q * 0.9)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        _, success = run_exact(contraction, ancilla_zero_input(psi, 8))
        assert success < 1.0 - 1e-10

    def test_success_invariant_under_extra_padding(self, rng):
        model = random_model(rng, 2, n_channels=1)
        m = propagator(build_superoperator(model), 0.7)
        small = build_svd_circuit(m)
        big_matrix = np.eye(8, dtype=complex)
        big_matrix[:4, :4] = m
        big = build_svd_circuit(big_matrix)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        _, success_small = run_exact(small, ancilla_zero_input(psi, 4))
        _, success_big = run_exact(big, ancilla_zero_input(psi, 8))
        assert success_small == pytest.approx(success_big, abs=1e-10)

    def test_fmo3_matches_classical_oracle_entrywise(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        superop = build_superoperator(model)
        t = 1000.0
        circuit = build_svd_circuit(propagator(superop, t))
        v0 = vectorize(rho0)
        state = ancilla_zero_input(v0 / np.linalg.norm(v0), 32)
        conditioned, _ = run_exact(circuit, state)
        reconstructed = conditioned[:25] * circuit.scale * np.linalg.norm(v0)
        oracle = classical_evolve(model, rho0, [t], store_states=True).states[0]
        np.testing.assert_allclose(reconstructed, vectorize(oracle), atol=1e-10)

    def test_dimension_mismatch(self, rng):
        circuit = build_svd_circuit(np.eye(4))
        with pytest.raises(ValueError, match="input has length 4, expected 8"):
            run_exact(circuit, np.zeros(4))

    def test_unnormalized_input_rejected(self):
        circuit = build_svd_circuit(np.eye(4))
        with pytest.raises(ValueError, match="normalized"):
            run_exact(circuit, np.full(8, 0.9, dtype=complex))


class TestResources:
    def test_total_for_six_qubits(self):
        assert estimate_resources(6).total == 36 * 2**11 == 73728

    def test_diagonal_for_eight_qubits(self):
        assert estimate_resources(8).diagonal_gates == 512

    def test_smallest_register(self):
        assert estimate_resources(2).unitary_gates_each == 4

    @pytest.mark.parametrize("d", range(2, 11))
    def test_closed_forms(self, d):
        est = estimate_resources(d)
        assert est.diagonal_gates == 2 ** (d + 1)
        assert est.unitary_gates_each == (d - 1) ** 2 * 2 ** (2 * d - 2)
        assert est.total == d**2 * 2 ** (2 * d - 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            estimate_resources(1)
