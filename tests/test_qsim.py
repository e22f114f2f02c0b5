"""Statevector simulator: gates, registers, marginals, sampling."""

import dataclasses

import numpy as np
import pytest

from qxtalk.cost import CostReport
from qxtalk.ingest import AmplitudeVector
from qxtalk.qsim import (
    GATE_KINDS,
    MAX_QUBITS,
    GateSpec,
    RegisterLayout,
    StateVector,
    Topology,
    apply_gate,
    bitstring_to_index,
    from_amplitudes,
    index_to_bitstring,
    marginal_probabilities,
    run_circuit,
    sample_counts,
    tensor,
)


def basis(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits=n, amplitudes=amps)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits=n, amplitudes=amps)


def random_gate(rng, n):
    kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
    target = int(rng.integers(n))
    if kind in ("CRX", "CNOT"):
        control = int(rng.integers(n))
        while control == target:
            control = int(rng.integers(n))
        angle = float(rng.uniform(0, 2 * np.pi)) if kind == "CRX" else None
        return GateSpec(kind=kind, target=target, control=control, angle=angle)
    if kind == "H":
        return GateSpec(kind=kind, target=target)
    return GateSpec(kind=kind, target=target, angle=float(rng.uniform(0, 2 * np.pi)))


class TestBitstrings:
    def test_qubit_zero_is_first_character(self):
        # "110": qubit0=1, qubit1=1, qubit2=0 -> binary value 0b011 = 3
        assert bitstring_to_index("110") == 3
        assert index_to_bitstring(3, 3) == "110"

    def test_round_trip_all_widths(self):
        for d in range(1, MAX_QUBITS + 1):
            for index in range(0, 1 << d, max(1, (1 << d) // 64)):
                assert bitstring_to_index(index_to_bitstring(index, d)) == index

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            bitstring_to_index("01a")


class TestGates:
    def test_crx_pi_on_active_control(self):
        # control qubit 0 set: CRX(pi) maps |11> -> -i|01>
        out = apply_gate(basis(2, 3), GateSpec(kind="CRX", target=1, control=0, angle=np.pi))
        assert np.allclose(out.amplitudes, [0, -1j, 0, 0])

    def test_crx_identity_on_inactive_control(self):
        out = apply_gate(basis(2, 2), GateSpec(kind="CRX", target=1, control=0, angle=np.pi))
        assert np.allclose(out.amplitudes, basis(2, 2).amplitudes)

    def test_crx_half_angle_split(self):
        out = apply_gate(basis(2, 1), GateSpec(kind="CRX", target=1, control=0, angle=np.pi / 2))
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        assert np.allclose(out.amplitudes, [0, c, 0, -1j * s])

    def test_cnot_swaps_target_on_active_control(self):
        out = apply_gate(basis(2, 2), GateSpec(kind="CNOT", target=0, control=1))
        assert np.allclose(out.amplitudes, basis(2, 3).amplitudes)

    def test_hadamard(self):
        out = apply_gate(basis(1, 0), GateSpec(kind="H", target=0))
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_rx_matches_matrix(self):
        theta = 1.234
        out = apply_gate(basis(1, 0), GateSpec(kind="RX", target=0, angle=theta))
        assert np.allclose(out.amplitudes, [np.cos(theta / 2), -1j * np.sin(theta / 2)])

    def test_ry_matches_matrix(self):
        theta = 0.77
        out = apply_gate(basis(1, 0), GateSpec(kind="RY", target=0, angle=theta))
        assert np.allclose(out.amplitudes, [np.cos(theta / 2), np.sin(theta / 2)])

    def test_rz_phases(self):
        theta = 0.4
        plus = apply_gate(basis(1, 0), GateSpec(kind="H", target=0))
        out = apply_gate(plus, GateSpec(kind="RZ", target=0, angle=theta))
        expected = plus.amplitudes * np.array([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(out.amplitudes, expected)

    def test_gate_acts_on_named_qubit_only(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 3)
        out = apply_gate(psi, GateSpec(kind="RX", target=1, angle=0.9))
        # marginals of untouched qubits are preserved
        for q in (0, 2):
            before = marginal_probabilities(psi, [q]).probabilities
            after = marginal_probabilities(out, [q]).probabilities
            assert np.allclose(before, after)

    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            psi = random_state(rng, 5)
            topo = Topology(tuple(random_gate(rng, 5) for _ in range(12)))
            out = run_circuit(psi, topo)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_run_circuit_applies_first_to_last(self):
        psi = basis(2, 1)
        topo = Topology(
            (
                GateSpec(kind="CRX", target=1, control=0, angle=np.pi),  # |01> -> -i|11>
                GateSpec(kind="CNOT", target=0, control=1),  # -> -i|10>
            )
        )
        out = run_circuit(psi, topo)
        assert np.allclose(out.amplitudes, [0, 0, -1j, 0])
        # reversed order gives a different state
        rev = run_circuit(psi, Topology(tuple(reversed(topo.gates))))
        assert not np.allclose(out.amplitudes, rev.amplitudes)


class TestGateSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateSpec(kind="CZ", target=0, control=1)

    def test_crx_requires_control_and_angle(self):
        with pytest.raises(ValueError):
            GateSpec(kind="CRX", target=0, angle=1.0)
        with pytest.raises(ValueError):
            GateSpec(kind="CRX", target=0, control=1)

    def test_control_equalling_target_rejected(self):
        with pytest.raises(ValueError):
            GateSpec(kind="CNOT", target=1, control=1)

    def test_single_qubit_gates_reject_control(self):
        with pytest.raises(ValueError):
            GateSpec(kind="RX", target=0, control=1, angle=0.5)

    def test_hadamard_rejects_angle(self):
        with pytest.raises(ValueError):
            GateSpec(kind="H", target=0, angle=0.5)

    def test_frozen(self):
        gate = GateSpec(kind="RX", target=0, angle=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.angle = 1.0

    def test_out_of_range_qubit_caught_at_application(self):
        with pytest.raises(ValueError):
            apply_gate(basis(2, 0), GateSpec(kind="RX", target=5, angle=0.3))


@pytest.mark.parametrize("make", [
    lambda v: GateSpec(kind="CRX", target=1, control=0, angle=v),
    lambda v: Topology((GateSpec(kind="RX", target=0, angle=v),)),
    lambda v: RegisterLayout(n_ct1=1, n_ct2=int(v)),
    lambda v: CostReport.from_parts(v, 0.5),
], ids=["GateSpec", "Topology", "RegisterLayout", "CostReport"])
def test_value_records_compare_and_hash_by_value(make):
    """These records are cache keys and compared in tests, so they keep value equality and hashing."""
    a, b, other = make(1.0), make(1.0), make(2.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


class TestRegisters:
    def test_layout_qubit_partition(self):
        layout = RegisterLayout(n_ct1=2, n_ct2=3)
        assert list(layout.ct1_qubits) == [0, 1]
        assert list(layout.ct2_qubits) == [2, 3, 4]
        assert layout.num_qubits == 5

    def test_layout_cap(self):
        with pytest.raises(ValueError):
            RegisterLayout(n_ct1=8, n_ct2=5)

    def test_tensor_places_ct1_on_low_bits(self):
        a1 = AmplitudeVector(num_qubits=1, amplitudes=np.array([0.6, 0.8]))
        a2 = AmplitudeVector(num_qubits=1, amplitudes=np.array([0.0, 1.0]))
        joint = tensor(
            from_amplitudes(a1), from_amplitudes(a2), RegisterLayout(n_ct1=1, n_ct2=1)
        )
        assert np.allclose(joint.amplitudes, [0, 0, 0.6, 0.8])

    def test_tensor_checks_sizes(self):
        a = from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([1.0, 0.0])))
        with pytest.raises(ValueError):
            tensor(a, a, RegisterLayout(n_ct1=2, n_ct2=1))

    def test_marginals_factor_back(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            v1 = rng.uniform(0.01, 1, size=1 << n1)
            v1 /= np.linalg.norm(v1)
            v2 = rng.uniform(0.01, 1, size=1 << n2)
            v2 /= np.linalg.norm(v2)
            layout = RegisterLayout(n_ct1=n1, n_ct2=n2)
            joint = tensor(
                from_amplitudes(AmplitudeVector(num_qubits=n1, amplitudes=v1)),
                from_amplitudes(AmplitudeVector(num_qubits=n2, amplitudes=v2)),
                layout,
            )
            m1 = marginal_probabilities(joint, list(layout.ct1_qubits)).probabilities
            m2 = marginal_probabilities(joint, list(layout.ct2_qubits)).probabilities
            assert np.abs(m1 - v1**2).max() < 1e-12
            assert np.abs(m2 - v2**2).max() < 1e-12


class TestMarginals:
    def test_single_qubit_hand_case(self):
        amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        psi = StateVector(num_qubits=2, amplitudes=amps)
        m = marginal_probabilities(psi, [0]).probabilities
        assert np.allclose(m, [0.5, 0.5])

    def test_marginal_bit_order_follows_listed_qubits(self):
        # state |q1=1, q0=0> -> marginal over (0, 1) puts q0 in bit 0
        psi = basis(2, 2)
        m = marginal_probabilities(psi, [0, 1]).probabilities
        assert np.allclose(m, [0, 0, 1, 0])

    def test_requires_ascending_qubits(self):
        psi = basis(2, 0)
        with pytest.raises(ValueError):
            marginal_probabilities(psi, [1, 0])

    def test_rejects_duplicates(self):
        psi = basis(2, 0)
        with pytest.raises(ValueError):
            marginal_probabilities(psi, [0, 0])

    def test_entangled_state_marginal(self):
        # Bell-like state (|00> + |11>)/sqrt(2)
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        psi = StateVector(num_qubits=2, amplitudes=amps)
        for q in (0, 1):
            assert np.allclose(marginal_probabilities(psi, [q]).probabilities, [0.5, 0.5])


class TestSampling:
    def test_counts_total_and_determinism(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng, 3)
        h1 = sample_counts(psi, [0, 1, 2], nshots=4096, seed=11)
        h2 = sample_counts(psi, [0, 1, 2], nshots=4096, seed=11)
        assert h1.total() == 4096
        assert h1.counts == h2.counts
        h3 = sample_counts(psi, [0, 1, 2], nshots=4096, seed=12)
        assert h3.counts != h1.counts

    def test_sampling_matches_marginal_in_expectation(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 3)
        h = sample_counts(psi, [0, 1], nshots=200_000, seed=0)
        probs = marginal_probabilities(psi, [0, 1]).probabilities
        for index, p in enumerate(probs):
            observed = h.counts.get(index_to_bitstring(index, 2), 0) / 200_000
            assert abs(observed - p) < 0.01

    def test_deterministic_state_single_bin(self):
        h = sample_counts(basis(2, 3), [0, 1], nshots=100, seed=0)
        assert h.counts == {"11": 100}


class TestStateVectorValidation:
    def test_norm_checked(self):
        with pytest.raises(ValueError):
            StateVector(num_qubits=1, amplitudes=np.array([1.0, 1.0], dtype=complex))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            StateVector(num_qubits=2, amplitudes=np.array([1.0, 0.0], dtype=complex))

    def test_qubit_cap(self):
        amps = np.zeros(1 << 13, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            StateVector(num_qubits=13, amplitudes=amps)
