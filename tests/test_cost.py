"""Divergence objective and circuit evaluation in exact and shots modes."""

import dataclasses
import math

import numpy as np
import pytest

from qxtalk.cost import CostReport, Problem, evaluate, kl_divergence
from qxtalk.ingest import AmplitudeVector, TargetDistribution
from qxtalk.qsim import (
    GateSpec,
    RegisterLayout,
    Topology,
    from_amplitudes,
    marginal_probabilities,
    run_circuit,
    tensor,
)
from qxtalk.search import gate_for_pair


def dist(values):
    values = np.asarray(values, dtype=np.float64)
    n = int(np.log2(len(values)))
    return TargetDistribution(num_qubits=n, probabilities=values)


def product_state(rng, n1, n2):
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)
    v1 = rng.uniform(0.05, 1, size=1 << n1)
    v1 /= np.linalg.norm(v1)
    v2 = rng.uniform(0.05, 1, size=1 << n2)
    v2 /= np.linalg.norm(v2)
    joint = tensor(
        from_amplitudes(AmplitudeVector(num_qubits=n1, amplitudes=v1)),
        from_amplitudes(AmplitudeVector(num_qubits=n2, amplitudes=v2)),
        layout,
    )
    return layout, joint


def make_problem(rng, n1=2, n2=2, **kwargs):
    layout, joint = product_state(rng, n1, n2)
    t1 = rng.uniform(0.05, 1, size=1 << n1)
    t1 /= t1.sum()
    t2 = rng.uniform(0.05, 1, size=1 << n2)
    t2 /= t2.sum()
    return Problem(
        initial_state=joint,
        layout=layout,
        target_ct1=dist(t1),
        target_ct2=dist(t2),
        **kwargs,
    )


class TestKlDivergence:
    def test_log_two(self):
        assert kl_divergence(dist([1.0, 0.0]), dist([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-6
        )

    def test_quarter_three_quarters(self):
        assert kl_divergence(dist([0.25, 0.75]), dist([0.5, 0.5])) == pytest.approx(
            0.130812, abs=1e-6
        )

    def test_self_divergence_bounded_by_smoothing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            p = rng.uniform(0, 1, size=1 << n)
            p /= p.sum()
            d = kl_divergence(dist(p), dist(p))
            assert abs(d) <= 2 * 1e-9 * (1 << n)

    def test_zero_p_terms_contribute_nothing(self):
        # mass only where q is tiny: D = ln(1/q'_0)
        d = kl_divergence(dist([1.0, 0.0]), dist([1.0, 0.0]))
        assert d == pytest.approx(0.0, abs=1e-8)

    def test_smoothing_keeps_zero_q_finite(self):
        d = kl_divergence(dist([0.0, 1.0]), dist([1.0, 0.0]))
        assert math.isfinite(d)
        assert d == pytest.approx(math.log(1e9), rel=1e-3)

    def test_asymmetry(self):
        p, q = dist([0.9, 0.1]), dist([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(dist([1.0, 0.0]), dist([0.25, 0.25, 0.25, 0.25]))

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(0, 1, size=8)
            p /= p.sum()
            q = rng.uniform(0, 1, size=8)
            q /= q.sum()
            assert kl_divergence(dist(p), dist(q)) > -1e-8


class TestEvaluate:
    def test_total_is_sum_of_registers(self):
        rng = np.random.default_rng(0)
        problem = make_problem(rng)
        report = evaluate(problem, Topology(()))
        assert report.total == pytest.approx(report.kl_ct1 + report.kl_ct2)

    def test_reachable_target_scores_near_zero(self):
        rng = np.random.default_rng(7)
        layout, joint = product_state(rng, 2, 2)
        topo = Topology((gate_for_pair((0, 2)), gate_for_pair((3, 1))))
        out = run_circuit(joint, topo)
        t1 = marginal_probabilities(out, [0, 1])
        t2 = marginal_probabilities(out, [2, 3])
        problem = Problem(initial_state=joint, layout=layout, target_ct1=t1, target_ct2=t2)
        assert evaluate(problem, topo).total == pytest.approx(0.0, abs=1e-7)
        assert evaluate(problem, Topology(())).total > 0.01

    def test_register_split_attribution(self):
        # a gate purely inside CT2 cannot change kl_ct1
        rng = np.random.default_rng(12)
        problem = make_problem(rng)
        base = evaluate(problem, Topology(()))
        moved = evaluate(problem, Topology((gate_for_pair((2, 3)),)))
        assert moved.kl_ct1 == pytest.approx(base.kl_ct1, abs=1e-12)
        assert moved.kl_ct2 != pytest.approx(base.kl_ct2)

    def test_shots_mode_deterministic_per_problem_seed(self):
        rng = np.random.default_rng(21)
        problem_a = make_problem(rng, eval_mode="shots", nshots=2048, shots_seed=5)
        topo = Topology((gate_for_pair((0, 2)),))
        r1 = evaluate(problem_a, topo)
        r2 = evaluate(problem_a, topo)
        assert r1.total == r2.total

    def test_shots_mode_seed_changes_value(self):
        rng = np.random.default_rng(21)
        kwargs = {}
        problems = []
        for seed in (5, 6):
            rng2 = np.random.default_rng(21)
            problems.append(make_problem(rng2, eval_mode="shots", nshots=2048, shots_seed=seed))
        topo = Topology((gate_for_pair((0, 2)),))
        assert evaluate(problems[0], topo).total != evaluate(problems[1], topo).total

    def test_shots_mode_approaches_exact(self):
        rng = np.random.default_rng(33)
        exact_problem = make_problem(rng)
        rng = np.random.default_rng(33)
        shots_problem = make_problem(rng, eval_mode="shots", nshots=500_000, shots_seed=0)
        topo = Topology((gate_for_pair((1, 2)),))
        exact = evaluate(exact_problem, topo).total
        noisy = evaluate(shots_problem, topo).total
        assert abs(exact - noisy) < 0.02

    def test_settings_changed_after_an_evaluation_take_effect(self):
        rng = np.random.default_rng(21)
        problem = make_problem(rng)
        topo = Topology((gate_for_pair((0, 2)),))
        exact = evaluate(problem, topo)
        # A problem is frozen, so its kernel cannot go stale; a replaced one scores with its own settings.
        sampled = evaluate(dataclasses.replace(problem, eval_mode="shots", nshots=64), topo)
        rng = np.random.default_rng(21)
        assert sampled == evaluate(make_problem(rng, eval_mode="shots", nshots=64), topo)
        assert sampled != exact
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.eval_mode = "shots"
        assert evaluate(problem, topo) == exact

    def test_problem_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_problem(rng, eval_mode="guess")
        with pytest.raises(ValueError):
            make_problem(rng, nshots=0)

    def test_target_size_must_match_layout(self):
        rng = np.random.default_rng(0)
        layout, joint = product_state(rng, 2, 2)
        with pytest.raises(ValueError):
            Problem(
                initial_state=joint,
                layout=layout,
                target_ct1=dist([0.5, 0.5]),
                target_ct2=dist([0.25, 0.25, 0.25, 0.25]),
            )


class TestCostReport:
    def test_from_parts(self):
        report = CostReport.from_parts(0.25, 0.5)
        assert report.total == pytest.approx(0.75)
        assert report.kl_ct1 == 0.25
        assert report.kl_ct2 == 0.5
