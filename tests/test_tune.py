"""Angle optimization, ablation table, network export."""

import dataclasses

import numpy as np
import pytest

from qxtalk.cost import Problem, evaluate
from qxtalk.ingest import AmplitudeVector, TargetDistribution
from qxtalk.qsim import GateSpec, RegisterLayout, Topology, from_amplitudes, tensor
from qxtalk.search import gate_for_pair
from qxtalk.tune import (
    AngleVector,
    contribution_analysis,
    export_network,
    optimize_angles,
)


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
        angles, report = optimize_angles(problem, topo)
        assert report.total < 1e-6
        # sin^2(theta / 2) = p has four solutions in [0, 4*pi); any of them fits.
        assert abs(np.sin(float(angles.values[0]) / 2) ** 2 - p) < 1e-4

    def test_angles_wrapped_to_unit_circle(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)), gate_for_pair((3, 1))))
        angles, report = optimize_angles(problem, topo)
        # 4*pi is the period of a CRX angle.
        assert np.all(angles.values >= 0) and np.all(angles.values < 4 * np.pi)
        # reported cost is evaluated at the returned (wrapped) angles
        replayed = Topology(
            tuple(
                GateSpec(kind=g.kind, target=g.target, control=g.control, angle=a)
                for g, a in zip(topo.gates, angles.values)
            )
        )
        assert evaluate(problem, replayed).total == report.total

    def test_empty_topology_shortcut(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng)
        angles, report = optimize_angles(problem, Topology(()))
        assert len(angles.values) == 0
        assert report.total == evaluate(problem, Topology(())).total

    def test_custom_start_vector(self):
        """The topology's own angle is the first start; here it is already optimal."""
        p = 0.42
        problem = single_pair_problem(p)
        topo = Topology((GateSpec(kind="CRX", target=1, control=0, angle=2 * np.arcsin(np.sqrt(p))),))
        angles, report = optimize_angles(problem, topo)
        assert report.total < 1e-6

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    @pytest.mark.parametrize("strategy", ["local", "multi-epoch"])
    def test_reported_cost_is_evaluate_at_the_returned_angles(self, synth4, strategy, mode):
        """Every point is scored in one stack of runs at 1-D angle vectors; the winner's
        cost keeps, bit for bit, what evaluate() gives the topology at its angles."""
        problem = dataclasses.replace(synth4.problem, eval_mode=mode)
        topology = synth4.search(strategy).topology
        assert len(topology) > 0
        angles, report = optimize_angles(problem, topology)
        retuned = Topology(tuple(dataclasses.replace(g, angle=float(a)) for g, a in zip(topology, angles.values)))
        assert report == evaluate(problem, retuned)

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
        angles = AngleVector(values=np.array([1.1, 0.7, 2.0]))
        return problem, topo, angles, contribution_analysis(problem, topo, angles, GENE_MAP)

    def test_rows_match_prefix_evaluations(self):
        problem, topo, angles, table = self.analysis()
        for i, row in enumerate(table.rows, start=1):
            prefix = Topology(
                tuple(
                    GateSpec(kind=g.kind, target=g.target, control=g.control, angle=a)
                    for g, a in zip(topo.gates[:i], angles.values[:i])
                )
            )
            assert row.kl_after_prefix == evaluate(problem, prefix).total
            assert row.angle == angles.values[i - 1]

    def test_deltas_telescope(self):
        problem, topo, angles, table = self.analysis()
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
        _, _, _, table = self.analysis()
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
        contribution_analysis(problem, topo, AngleVector(values=np.array([1.1, 0.7, 2.0])), GENE_MAP)
        assert calls == [len(topo) + 1]

    def test_gene_map_labels(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)),))
        angles = AngleVector(values=np.array([1.0]))
        gene_map = {0: "Lgals1", 1: "x", 2: "Ptprc", 3: "y"}
        table = contribution_analysis(problem, topo, angles, gene_map)
        assert table.rows[0].source == "Lgals1"
        assert table.rows[0].target == "Ptprc"

    def test_gene_map_missing_qubit(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)),))
        with pytest.raises(ValueError, match="qubit"):
            contribution_analysis(problem, topo, AngleVector(values=np.array([1.0])), {0: "a"})

    def test_angle_count_checked(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        topo = Topology((gate_for_pair((0, 2)),))
        with pytest.raises(ValueError):
            contribution_analysis(problem, topo, AngleVector(values=np.zeros(2)), GENE_MAP)


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
        angles = AngleVector(values=np.array([0.1, 0.2, 0.3, 0.4]))
        gene_map = {0: "a", 1: "b", 2: "c", 3: "d"}
        edges = export_network(topo, angles, gene_map, layout)
        assert [e.edge_class for e in edges] == [
            "intracellular-ct1",
            "intracellular-ct2",
            "intercellular",
            "intercellular",
        ]
        assert edges[2].source == "a" and edges[2].target == "c"
        assert edges[3].angle == pytest.approx(0.4)

    def test_angle_count_checked(self):
        layout = RegisterLayout(n_ct1=1, n_ct2=1)
        topo = Topology((gate_for_pair((0, 1)),))
        with pytest.raises(ValueError):
            export_network(topo, AngleVector(values=np.zeros(2)), {0: "a", 1: "b"}, layout)


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
