import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import lsvd
import lsvd.circuit
from lsvd.circuit import (
    _dilate,
    build_svd_circuit,
    estimate_resources,
    run_exact,
)
from lsvd.errors import LsvdError
from lsvd.lindblad import build_superoperator, propagator, vectorize
from lsvd.models import FMOParams, builtin_model, fmo_model

from conftest import (
    as_unitary,
    dense_u,
    dense_vdag,
    dilated,
    random_complex,
    random_model,
    random_unitary,
    reference_states,
)


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
        _, success = run_exact(circuit, psi)
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_single_sigma_amplitudes_by_hand(self):
        circuit = build_svd_circuit(np.diag([0.6, 1.0]))
        conditioned, success = run_exact(circuit, [1.0, 0.0])
        assert conditioned[0] == pytest.approx(0.6, abs=1e-12)
        assert conditioned[1] == pytest.approx(0.0, abs=1e-12)
        assert success == pytest.approx(0.36, abs=1e-12)
        # the full program from |0>|0>: the discarded branch holds i sqrt(1 - 0.6²)
        final = as_unitary(circuit)[:, 0]
        np.testing.assert_allclose(final[:2], conditioned, rtol=0, atol=1e-12)
        assert final[2] == pytest.approx(0.8j, abs=1e-12)
        assert final[3] == pytest.approx(0.0, abs=1e-12)

    def test_qubit_bookkeeping(self):
        circuit = build_svd_circuit(np.eye(32))
        assert circuit.n == 32

    def test_op_sequence_and_unitarity(self, rng):
        # a complex propagator, and a real one whose factors stay real
        for m in (random_complex(rng, 8), rng.normal(size=(8, 8))):
            circuit = build_svd_circuit(m)
            n = circuit.n
            sigma_plus = dilated(circuit.sigma)
            hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
            ops = [
                np.kron(np.eye(2), dense_vdag(circuit)),
                np.kron(hadamard, np.eye(n)),
                np.diag(np.concatenate([sigma_plus, sigma_plus.conj()])),
                np.kron(hadamard, np.eye(n)),
                np.kron(np.eye(2), dense_u(circuit)),
            ]
            composed = np.eye(2 * n, dtype=complex)
            for op in ops:
                np.testing.assert_allclose(op.conj().T @ op, np.eye(2 * n), atol=1e-10)
                composed = op @ composed
            np.testing.assert_allclose(as_unitary(circuit), composed, atol=1e-12)
            # run_exact is the ancilla-0 block: on each system basis state, and a probe
            columns, _ = run_exact(circuit, np.eye(n))
            np.testing.assert_allclose(columns.T, composed[:n, :n], atol=1e-12)
            probe = rng.normal(size=n) + 1j * rng.normal(size=n)
            probe /= np.linalg.norm(probe)
            np.testing.assert_allclose(
                run_exact(circuit, probe)[0], composed[:n, :n] @ probe, atol=1e-12
            )

    def test_corrupt_factors_rejected(self, monkeypatch):
        # a factorization that reconstructs its input exactly but whose u is
        # not unitary must still be caught by the one SVD check
        u = np.diag([2.0, 0.5, 1.0, 1.0]).astype(complex)
        sigma = np.array([0.9, 0.5, 0.3, 0.1])
        vdag = np.eye(4, dtype=complex)

        def corrupt_svd(m):
            # factors shaped like the stacked run numpy is handed
            return (
                np.broadcast_to(u, m.shape),
                np.broadcast_to(sigma, m.shape[:-1]),
                np.broadcast_to(vdag, m.shape),
            )

        monkeypatch.setattr(np.linalg, "svd", corrupt_svd)
        with pytest.raises(LsvdError, match="accuracy contract missed"):
            build_svd_circuit(u * sigma)

    def test_branch_average_violation_rejected(self, monkeypatch):
        def off_by_1e_6(sigma):
            return _dilate(sigma) + 1e-6

        monkeypatch.setattr(lsvd.circuit, "_dilate", off_by_1e_6)
        with pytest.raises(LsvdError, match="ancilla-0 block"):
            build_svd_circuit(np.diag([0.9, 0.5, 0.3, 0.1]))

    def test_probe_violation_rejected(self, monkeypatch):
        def off_by_1e_6(circuit, state):
            conditioned, success = run_exact(circuit, state)
            return conditioned + 1e-6, success

        monkeypatch.setattr(lsvd.circuit, "run_exact", off_by_1e_6)
        with pytest.raises(LsvdError, match="ancilla-0 block"):
            build_svd_circuit(np.diag([0.9, 0.5, 0.3, 0.1]))

    def test_nan_factor_rejected(self, monkeypatch):
        # a NaN deviation must fail the check, not compare false against it
        def nan_in_u(run):
            u, sigma, vdag = lsvd.numerics.svd(run)
            u = u.copy()
            u[..., 0, 0] = np.nan
            return u, sigma, vdag

        monkeypatch.setattr(lsvd.circuit, "svd", nan_in_u)
        message = "^ancilla-0 block deviates from the scaled propagator by nan$"
        with pytest.raises(LsvdError, match=message):
            build_svd_circuit(np.diag([0.9, 0.5, 0.3, 0.1]))

    def test_probes_are_drawn_once_per_register_size(self):
        probes = lsvd.circuit._probes(16)
        assert lsvd.circuit._probes(16) is probes
        assert not probes.flags.writeable
        # the draw they were taken from, as every run makes it
        rng = random.Random(lsvd.circuit._PROBE_SEED)
        draws = np.array([rng.random() for _ in range(2 * 2 * 16)]).reshape(2, 2, 16) * 2 - 1
        want = draws[:, 0] + 1j * draws[:, 1]
        want /= np.linalg.norm(want, axis=-1, keepdims=True)
        np.testing.assert_array_equal(probes, want)
        assert lsvd.circuit._probes(32).shape == (2, 32)

    @pytest.mark.parametrize(
        "other",
        [lambda run: 2.0 * run, lambda run: np.swapaxes(run, -1, -2)],
        ids=["doubled", "transposed"],
    )
    def test_valid_factors_of_another_matrix_rejected(self, rng, monkeypatch, other):
        # each passes the SVD's own checks; the transpose even has the same
        # singular values, so only a reference built from the input shows it
        def factors_of_other(run):
            return lsvd.numerics.svd(other(run))

        monkeypatch.setattr(lsvd.circuit, "svd", factors_of_other)
        with pytest.raises(LsvdError, match="ancilla-0 block deviates from the scaled propagator"):
            build_svd_circuit(rng.normal(size=(3, 3)), rng.normal(size=(2, 2)))


class TestBlocks:
    @staticmethod
    def padded_product(circuit):
        return (dense_u(circuit) * (circuit.sigma * circuit.scale)) @ dense_vdag(circuit)

    @pytest.mark.parametrize("sizes", [[5, 3, 1], [4, 4], [1, 1, 1], [2, 7]])
    def test_matches_the_dense_direct_sum(self, rng, sizes):
        blocks = [rng.normal(size=(s, s)) for s in sizes]
        split = build_svd_circuit(*blocks)
        dense = build_svd_circuit(scipy.linalg.block_diag(*blocks))
        dim = sum(sizes)
        assert split.n == dense.n
        assert split.scale == pytest.approx(dense.scale, rel=1e-14)
        np.testing.assert_allclose(
            np.sort(split.sigma[:dim])[::-1], dense.sigma[:dim], atol=1e-14, rtol=0
        )
        offset = 0
        for block in blocks:
            segment = split.sigma[offset : offset + block.shape[0]]
            assert np.all(np.diff(segment) <= 0.0)
            own = np.linalg.svd(block, compute_uv=False) / split.scale
            np.testing.assert_allclose(segment, own, atol=1e-14, rtol=0)
            offset += block.shape[0]
        np.testing.assert_array_equal(split.sigma[dim:], 1.0 / split.scale)
        np.testing.assert_allclose(
            self.padded_product(split), self.padded_product(dense), atol=1e-12, rtol=0
        )
        assert dense_u(split).dtype == dense_vdag(split).dtype == np.float64

    def test_one_complex_block_makes_complex_factors(self, rng):
        blocks = [rng.normal(size=(2, 2)), random_complex(rng, 3)]
        circuit = build_svd_circuit(*blocks)
        assert dense_u(circuit).dtype == dense_vdag(circuit).dtype == np.complex128
        np.testing.assert_allclose(
            self.padded_product(circuit)[:5, :5], scipy.linalg.block_diag(*blocks), atol=1e-12
        )

    def test_no_block_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            build_svd_circuit()

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([np.eye(2), np.zeros(3)], r"matrix must be 2-D, got shape \(3,\)"),
            ([np.eye(3), np.zeros((2, 3))], r"matrix must be square, got shape \(2, 3\)"),
            ([np.eye(2), np.full((2, 2), np.nan)], "non-finite"),
        ],
        ids=["1-d", "non-square", "non-finite"],
    )
    def test_malformed_block_rejected(self, blocks, message):
        # every block is checked on its own, whatever run it would join
        with pytest.raises(ValueError, match=message):
            build_svd_circuit(*blocks)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0)])
    def test_empty_block_rejected(self, shape):
        with pytest.raises(ValueError, match=r"matrix has no entries, got shape \("):
            build_svd_circuit(np.zeros(shape))


def random_stack(rng, points, sizes):
    """One stack of ``points`` random real matrices per block size."""
    return [rng.normal(size=(points, size, size)) for size in sizes]


class TestStacked:
    """A stack of propagators is one circuit with a leading point axis."""

    SIZES = [5, 3, 1]

    def test_each_point_matches_its_own_circuit(self, rng):
        blocks = random_stack(rng, 4, self.SIZES)
        stacked = build_svd_circuit(*blocks)
        state = np.full(9, 1.0 / 3.0, dtype=complex)
        conditioned, success = run_exact(stacked, state)
        assert stacked.sigma.shape == (4, 16)
        assert stacked.scale.shape == success.shape == (4,)
        assert conditioned.shape == (4, 16)
        for j in range(4):
            single = build_svd_circuit(*(block[j] for block in blocks))
            np.testing.assert_array_equal(stacked.sigma[j], single.sigma)
            assert stacked.scale[j] == single.scale
            np.testing.assert_array_equal(dense_u(stacked)[j], dense_u(single))
            np.testing.assert_array_equal(dense_vdag(stacked)[j], dense_vdag(single))
            one_conditioned, one_success = run_exact(single, state)
            np.testing.assert_array_equal(conditioned[j], one_conditioned)
            assert success[j] == one_success

    def test_per_point_inputs(self, rng):
        blocks = random_stack(rng, 3, self.SIZES)
        circuit = build_svd_circuit(*blocks)
        states = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        conditioned, _ = run_exact(circuit, states)
        for j in range(3):
            single = build_svd_circuit(*(block[j] for block in blocks))
            want = as_unitary(single)[:16, :16] @ states[j]
            np.testing.assert_allclose(conditioned[j], want, atol=1e-12)
        states[1] *= 1.5
        with pytest.raises(ValueError, match="normalized, got norm 1.5"):
            run_exact(circuit, states)

    def test_probe_violation_at_one_point_rejected(self, rng, monkeypatch):
        def one_point_off(circuit, state):
            conditioned, success = run_exact(circuit, state)
            conditioned[..., 2, :] += 1e-6  # point 2 of 4, whatever leads
            return conditioned, success

        monkeypatch.setattr(lsvd.circuit, "run_exact", one_point_off)
        with pytest.raises(LsvdError, match="ancilla-0 block"):
            build_svd_circuit(*random_stack(rng, 4, self.SIZES))

    def test_real_run_dropping_the_imaginary_part_rejected(self, rng, monkeypatch):
        # the probes are complex; the in-run reference never calls _on_system,
        # so a real run that loses their imaginary part cannot agree with it
        on_system = lsvd.circuit._on_system

        def real_part_only(runs, blocks):
            if not np.iscomplexobj(runs[0]):
                blocks = blocks.real.astype(np.complex128)
            return on_system(runs, blocks)

        monkeypatch.setattr(lsvd.circuit, "_on_system", real_part_only)
        with pytest.raises(LsvdError, match="ancilla-0 block"):
            build_svd_circuit(*random_stack(rng, 4, self.SIZES))

    def test_branch_average_violation_at_one_point_rejected(self, rng, monkeypatch):
        def one_point_off(sigma):
            out = _dilate(sigma)
            if out.ndim == 2:
                out[1] += 1e-6
            return out

        monkeypatch.setattr(lsvd.circuit, "_dilate", one_point_off)
        build_svd_circuit(*(block[0] for block in random_stack(rng, 4, self.SIZES)))
        with pytest.raises(LsvdError, match="ancilla-0 block"):
            build_svd_circuit(*random_stack(rng, 4, self.SIZES))


class TestRunExact:
    def test_contraction_success_probability(self):
        circuit = build_svd_circuit(np.diag([0.5, 0.5, 0.5, 0.5]))
        state = np.full(4, 0.5, dtype=complex)
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
        conditioned, success = run_exact(circuit, psi)
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
        assert np.all(np.abs(_dilate(circuit.sigma).real - 1.0) < 1e-10)
        contraction = build_svd_circuit(q * 0.9)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        _, success = run_exact(contraction, psi)
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
        _, success_small = run_exact(small, psi)
        _, success_big = run_exact(big, psi)
        assert success_small == pytest.approx(success_big, abs=1e-10)

    def test_fmo3_matches_classical_oracle_entrywise(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        superop = build_superoperator(model)
        t = 1000.0
        circuit = build_svd_circuit(propagator(superop, t))
        v0 = vectorize(rho0)
        state = v0 / np.linalg.norm(v0)
        conditioned, _ = run_exact(circuit, state)
        reconstructed = conditioned[:25] * circuit.scale * np.linalg.norm(v0)
        reference = reference_states(model, rho0, [t])[0]
        np.testing.assert_allclose(reconstructed, vectorize(reference), atol=1e-10)

    @pytest.mark.parametrize("points", [(), (3,)], ids=["one-point", "stacked"])
    def test_system_state_runs_as_the_register_padded_by_hand(self, rng, points):
        # 9 system amplitudes of a 16-row register, one state per point
        circuit = build_svd_circuit(*(rng.normal(size=points + (s, s)) for s in (5, 3, 1)))
        system = rng.normal(size=points + (9,)) + 1j * rng.normal(size=points + (9,))
        system /= np.linalg.norm(system, axis=-1, keepdims=True)
        register = np.zeros(points + (32,), dtype=complex)
        register[..., :9] = system
        want = (as_unitary(circuit) @ register[..., None])[..., :16, 0]
        conditioned, success = run_exact(circuit, system)
        # the dense operator rounds its products differently, by a few ulps
        np.testing.assert_allclose(conditioned, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(success, np.sum(np.abs(want) ** 2, axis=-1), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(success, np.square(conditioned.view(np.float64)).sum(axis=-1))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "points, states",
        [((), ()), ((3,), (3,)), ((3,), (2, 1))],
        ids=["one-point", "stacked", "probe-axis"],
    )
    def test_half_register_run_is_the_full_program(self, rng, field, points, states):
        # run_exact runs the ancilla-0 half alone; the dense five-op operator,
        # point by point on the register padded by hand, is its reference
        def block(s):
            m = rng.normal(size=points + (s, s))
            return m + 1j * rng.normal(size=m.shape) if field == "complex" else m

        circuit = build_svd_circuit(block(5), block(3), block(3), block(1))
        system = rng.normal(size=states + (12,)) + 1j * rng.normal(size=states + (12,))
        system /= np.linalg.norm(system, axis=-1, keepdims=True)
        register = np.zeros(states + (32,), dtype=complex)
        register[..., :12] = system
        full = (as_unitary(circuit) @ register[..., None])[..., 0]
        conditioned, success = run_exact(circuit, system)
        assert conditioned.shape == full.shape[:-1] + (16,)
        np.testing.assert_allclose(conditioned, full[..., :16], rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            success, 1.0 - np.sum(np.abs(full[..., 16:]) ** 2, axis=-1), rtol=0, atol=1e-14
        )

    def test_dimension_mismatch(self, rng):
        circuit = build_svd_circuit(np.eye(4))
        message = "^system state has length 8, more than the register's 4$"
        with pytest.raises(ValueError, match=message):
            run_exact(circuit, np.zeros(8))

    def test_unnormalized_input_rejected(self):
        circuit = build_svd_circuit(np.eye(4))
        with pytest.raises(ValueError, match="normalized"):
            run_exact(circuit, np.full(4, 0.9, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_input_rejected(self, bad):
        # refused by name, before a reduction can warn or NaN can pass the
        # norm check; one bad point of a batch is enough
        circuit = build_svd_circuit(np.eye(4))
        states = np.zeros((2, 4), dtype=complex)
        states[:, 0] = 1.0
        states[1, 3] = bad
        with pytest.raises(ValueError, match="^input state must be finite$"):
            run_exact(circuit, states)


def test_readme_one_point_by_hand():
    # the README's batch-of-one snippet, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    snippet = readme.split("One point by hand:\n\n```python\n", 1)[1].split("```", 1)[0]
    model, _ = builtin_model("fmo3")
    namespace = {"np": np, "lsvd": lsvd, "model": model}
    exec(snippet, namespace)
    ground = np.zeros((model.dim, model.dim))
    ground[0, 0] = 1.0
    reference = reference_states(model, ground, [100.0])[0]
    np.testing.assert_allclose(namespace["vec_rho_t"], vectorize(reference), atol=1e-12)
    assert namespace["success"] == pytest.approx(
        np.linalg.norm(namespace["conditioned"]) ** 2, abs=1e-15
    )
    np.testing.assert_allclose(
        namespace["populations"], np.real(np.diag(reference)), atol=0.02
    )


class TestResources:
    def test_total_for_six_qubits(self):
        assert estimate_resources(6)["total"] == 36 * 2**11 == 73728

    def test_diagonal_for_eight_qubits(self):
        assert estimate_resources(8)["diagonal_gates"] == 512

    def test_smallest_register(self):
        assert estimate_resources(2)["unitary_gates_each"] == 4

    @pytest.mark.parametrize("d", range(2, 11))
    def test_closed_forms(self, d):
        est = estimate_resources(d)
        assert est["diagonal_gates"] == 2 ** (d + 1)
        assert est["unitary_gates_each"] == (d - 1) ** 2 * 2 ** (2 * d - 2)
        assert est["total"] == d**2 * 2 ** (2 * d - 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            estimate_resources(1)

    def test_keys_in_table_order(self):
        # the resources table and the run metadata keep this column order
        assert list(estimate_resources(3)) == [
            "qubits", "diagonal_gates", "unitary_gates_each", "total",
        ]
