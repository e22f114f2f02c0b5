"""Angle optimization, ablation table, network export."""

import dataclasses

import numpy as np
import pytest

from qxtalk.cost import Problem, evaluate
from qxtalk.ingest import AmplitudeVector, TargetDistribution
from qxtalk.qsim import GateSpec, RegisterLayout, Topology, from_amplitudes, tensor
from qxtalk.search import gate_for_pair
from qxtalk.tune import contribution_analysis, export_network, optimize_angles, with_angles


def single_pair_problem(p_flip):
    """CT1 = |1>, CT2 = |0>; best single CRX(0->1) flips CT2 with probability p."""
    layout = RegisterLayout(n_ct1=1, n_ct2=1)
    init = tensor(
        from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([0.0, 1.0]))),
        from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([1.0, 0.0]))),
        layout,
    )
    return Problem(
        initial_state=init,
        layout=layout,
        target_ct1=TargetDistribution(num_qubits=1, probabilities=np.array([0.0, 1.0])),
        target_ct2=TargetDistribution(num_qubits=1, probabilities=np.array([1 - p_flip, p_flip])),
    )


def random_problem(rng, n1=2, n2=2):
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)
    def rand(n):
        v = rng.uniform(0.05, 1, size=1 << n)
        v /= np.linalg.norm(v)
        return from_amplitudes(AmplitudeVector(num_qubits=n, amplitudes=v))
    t1 = rng.uniform(0.05, 1, size=1 << n1)
    t1 /= t1.sum()
    t2 = rng.uniform(0.05, 1, size=1 << n2)
    t2 /= t2.sum()
    return Problem(
        initial_state=tensor(rand(n1), rand(n2), layout),
        layout=layout,
        target_ct1=TargetDistribution(num_qubits=n1, probabilities=t1),
        target_ct2=TargetDistribution(num_qubits=n2, probabilities=t2),
    )


GENE_MAP = {0: "a", 1: "b", 2: "c", 3: "d"}


class TestOptimizeAngles:
    def test_recovers_known_flip_probability(self):
        p = 0.3
        problem = single_pair_problem(p)
        topo = Topology((GateSpec(kind="CRX", target=1, control=0, angle=np.pi / 2),))
        circuit, report = optimize_angles(problem, topo)
        assert report.total < 1e-6
        # sin^2(theta / 2) = p has four solutions in [0, 4*pi); any of them fits.
        assert abs(np.sin(circuit.gates[0].angle / 2) ** 2 - p) < 1e-4

    def test_angles_wrapped_to_unit_circle(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)), gate_for_pair((3, 1))))
        circuit, report = optimize_angles(problem, topo)
        assert circuit is not topo
        # The searched gates, each at its wrapped angle as a Python float; 4*pi is the period of a CRX angle.
        assert [(g.kind, g.control, g.target) for g in circuit] == [(g.kind, g.control, g.target) for g in topo]
        assert all(type(g.angle) is float and 0 <= g.angle < 4 * np.pi for g in circuit)
        # reported cost is evaluated at the returned (wrapped) angles
        assert evaluate(problem, circuit).total == report.total

    def test_empty_topology_shortcut(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng)
        circuit, report = optimize_angles(problem, Topology(()))
        assert len(circuit) == 0
        assert report.total == evaluate(problem, Topology(())).total

    def test_custom_start_vector(self):
        """The topology's own angle is the first start; here it is already optimal and stands."""
        p = 0.42
        problem = single_pair_problem(p)
        topo = Topology((GateSpec(kind="CRX", target=1, control=0, angle=2 * np.arcsin(np.sqrt(p))),))
        circuit, report = optimize_angles(problem, topo)
        assert report.total < 1e-6
        # No end point beats the first start, so the circuit is the topology itself.
        assert circuit is topo and report == evaluate(problem, topo)

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    @pytest.mark.parametrize("strategy", ["local", "multi-epoch"])
    def test_reported_cost_is_evaluate_at_the_returned_angles(self, synth4, strategy, mode):
        """Every point's circuit is scored in one stack of runs; the winner's cost keeps,
        bit for bit, what evaluate() gives the returned circuit."""
        problem = dataclasses.replace(synth4.problem, eval_mode=mode)
        topology = synth4.search(strategy).topology
        assert len(topology) > 0
        circuit, report = optimize_angles(problem, topology)
        assert report == evaluate(problem, circuit)

    def test_non_rotation_gate_rejected(self):
        problem = single_pair_problem(0.3)
        topo = Topology((GateSpec(kind="CNOT", target=1, control=0),))
        with pytest.raises(ValueError):
            optimize_angles(problem, topo)
        with pytest.raises(ValueError):
            optimize_angles(problem, Topology((GateSpec(kind="H", target=0),)))


class TestContributionAnalysis:
    def analysis(self, seed=3):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)), gate_for_pair((2, 3)), gate_for_pair((1, 3))))
        circuit = with_angles(topo, [1.1, 0.7, 2.0])
        return problem, circuit, contribution_analysis(problem, circuit, GENE_MAP)

    def test_rows_match_prefix_evaluations(self):
        problem, circuit, table = self.analysis()
        for i, row in enumerate(table.rows, start=1):
            assert row.kl_after_prefix == evaluate(problem, Topology(circuit.gates[:i])).total
            assert row.angle == [1.1, 0.7, 2.0][i - 1]

    def test_deltas_telescope(self):
        problem, circuit, table = self.analysis()
        assert table.rows[0].kl_delta == pytest.approx(
            table.rows[0].kl_after_prefix - table.baseline_kl, abs=1e-15
        )
        for prev, row in zip(table.rows, table.rows[1:]):
            assert row.kl_delta == pytest.approx(
                row.kl_after_prefix - prev.kl_after_prefix, abs=1e-15
            )
        total = sum(r.kl_delta for r in table.rows)
        final = table.rows[-1].kl_after_prefix
        assert abs(total - (final - table.baseline_kl)) < 1e-12

    def test_percent_formula(self):
        _, _, table = self.analysis()
        for row in table.rows:
            assert row.percent_contribution == pytest.approx(
                100.0 * abs(row.kl_delta) / table.baseline_kl
            )

    def test_one_scoring_call_of_every_prefix(self, monkeypatch):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        kernel = problem.kernel
        calls = []
        divergences = kernel.divergences
        monkeypatch.setattr(kernel, "divergences", lambda states: calls.append(len(states)) or divergences(states))
        topo = Topology((gate_for_pair((0, 2)), gate_for_pair((2, 3)), gate_for_pair((1, 3))))
        contribution_analysis(problem, with_angles(topo, [1.1, 0.7, 2.0]), GENE_MAP)
        assert calls == [len(topo) + 1]

    def test_gene_map_labels(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        circuit = Topology((gate_for_pair((0, 2)),))
        gene_map = {0: "Lgals1", 1: "x", 2: "Ptprc", 3: "y"}
        table = contribution_analysis(problem, circuit, gene_map)
        assert table.rows[0].source == "Lgals1"
        assert table.rows[0].target == "Ptprc"

    def test_gene_map_missing_qubit(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)),))
        with pytest.raises(ValueError, match="qubit"):
            contribution_analysis(problem, topo, {0: "a"})


class TestExportNetwork:
    def test_edge_classes(self):
        layout = RegisterLayout(n_ct1=2, n_ct2=2)
        topo = Topology(
            (
                gate_for_pair((0, 1)),  # inside CT1
                gate_for_pair((2, 3)),  # inside CT2
                gate_for_pair((0, 2)),  # CT1 -> CT2
                gate_for_pair((3, 1)),  # CT2 -> CT1
            )
        )
        gene_map = {0: "a", 1: "b", 2: "c", 3: "d"}
        edges = export_network(with_angles(topo, np.array([0.1, 0.2, 0.3, 0.4])), gene_map, layout)
        assert [e.edge_class for e in edges] == [
            "intracellular-ct1",
            "intracellular-ct2",
            "intercellular",
            "intercellular",
        ]
        assert edges[2].source == "a" and edges[2].target == "c"
        assert [e.angle for e in edges] == [0.1, 0.2, 0.3, 0.4]
        assert all(type(e.angle) is float for e in edges)

    def test_non_rotation_gate_rejected(self):
        layout = RegisterLayout(n_ct1=1, n_ct2=1)
        with pytest.raises(ValueError, match="non-rotation gate CNOT"):
            export_network(Topology((GateSpec(kind="CNOT", target=1, control=0),)), {0: "a", 1: "b"}, layout)


def test_tuning_and_vqe_solves_hash_no_gates(synth4, monkeypatch):
    """Each tuning and VQE solve builds its own sweep plans and looks none up by its gates."""
    from qxtalk import search

    topology = synth4.search("multi-epoch").topology
    qp = search.build_qubo(np.random.default_rng(3).normal(1.0, 1.0, size=(4, 4)), 1.0)
    hashed = []
    gate_hash = GateSpec.__hash__
    monkeypatch.setattr(GateSpec, "__hash__", lambda gate: hashed.append(gate) or gate_hash(gate))
    optimize_angles(synth4.problem, topology)
    for seed in (0, 1):
        search.solve_qubo_heuristic(qp, mode="vqe", seed=seed)
    assert hashed == []
