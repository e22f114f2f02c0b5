"""Topology search: local phases, multi-epoch construction, QUBO pipeline."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxtalk import search
from qxtalk._kernel import Kernel
from qxtalk.cost import Problem, evaluate
from qxtalk.ingest import AmplitudeVector, StateHistogram, TargetDistribution, amplitudes
from qxtalk.prune import CandidateSet
from qxtalk.qsim import (
    GateSpec,
    RegisterLayout,
    Topology,
    from_amplitudes,
    marginal_probabilities,
    run_circuit,
    tensor,
)
from qxtalk.search import (
    DEFAULT_KL_TOL,
    EXACT_SOLVER_MAX_VARS,
    SEARCH_ANGLE,
    History,
    QuboProblem,
    SearchConfig,
    best_deletion,
    best_insertion,
    best_permutation_addition,
    build_kl_matrix,
    build_qubo,
    gate_for_pair,
    local_search,
    multi_epoch,
    occam_select,
    order_selected,
    qubo_energy,
    qubo_search,
    solve_qubo_exact,
    solve_qubo_heuristic,
)


def product_problem(rng, n1, n2, targets=None):
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)

    def rand(n):
        v = rng.uniform(0.05, 1, size=1 << n)
        v /= np.linalg.norm(v)
        return from_amplitudes(AmplitudeVector(num_qubits=n, amplitudes=v))

    init = tensor(rand(n1), rand(n2), layout)
    if targets is None:
        t1 = rng.uniform(0.05, 1, size=1 << n1)
        t1 /= t1.sum()
        t2 = rng.uniform(0.05, 1, size=1 << n2)
        t2 /= t2.sum()
    else:
        t1, t2 = targets
    return Problem(
        initial_state=init,
        layout=layout,
        target_ct1=TargetDistribution(num_qubits=n1, probabilities=t1),
        target_ct2=TargetDistribution(num_qubits=n2, probabilities=t2),
    )


def reachable_problem(rng, n1, n2, hidden_pairs):
    """Problem whose targets are the marginals after a hidden candidate circuit."""
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)

    def rand(n):
        counts = rng.integers(0, 20, size=1 << n)
        if counts.sum() == 0:
            counts[0] = 1
        h = StateHistogram(
            num_genes=n,
            counts={
                format(i, f"0{n}b")[::-1]: int(c) for i, c in enumerate(counts) if c
            },
        )
        return from_amplitudes(amplitudes(h))

    init = tensor(rand(n1), rand(n2), layout)
    out = run_circuit(init, Topology(tuple(gate_for_pair(p) for p in hidden_pairs)))
    t1 = marginal_probabilities(out, list(layout.ct1_qubits))
    t2 = marginal_probabilities(out, list(layout.ct2_qubits))
    return Problem(initial_state=init, layout=layout, target_ct1=t1, target_ct2=t2)


def exhaustive_best(problem, cands, max_len=4):
    best = evaluate(problem, Topology(())).total
    for k in range(1, min(max_len, len(cands.pairs)) + 1):
        for combo in itertools.permutations(cands.pairs, k):
            topo = Topology(tuple(gate_for_pair(p) for p in combo))
            best = min(best, evaluate(problem, topo).total)
    return best


class TestGateForPair:
    def test_default_search_angle(self):
        gate = gate_for_pair((2, 5))
        assert gate.kind == "CRX"
        assert gate.control == 2 and gate.target == 5
        assert gate.angle == SEARCH_ANGLE


class TestRowsScored:
    def test_counts_every_call(self):
        rng = np.random.default_rng(0)
        problem = product_problem(rng, 1, 2)
        topo = Topology((gate_for_pair((0, 1)),))
        evaluate(problem, topo)
        evaluate(problem, topo)
        evaluate(problem, Topology(()))
        assert problem.kernel.rows_scored == 3


class TestKernelExtend:
    def test_bad_pairs_rejected_like_gates(self):
        kernel = product_problem(np.random.default_rng(1), 1, 2).kernel  # 3 qubits
        with pytest.raises(ValueError, match=r"gate CRX addresses qubit 3 outside 0\.\.2"):
            kernel.extend(kernel.start(), [0, 0], [(0, 1), (0, 3)])
        with pytest.raises(ValueError, match="control and target qubits must differ"):
            kernel.extend(kernel.start(), [0], [(1, 1)])


class TestBestInsertion:
    def test_nine_evaluations_for_two_gate_seq(self):
        rng = np.random.default_rng(1)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(
            pairs=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)], threshold_used=0.01
        )
        seq = Topology((gate_for_pair((0, 1)), gate_for_pair((0, 2))))
        history = History()
        best_insertion(problem, seq, cands, history)
        assert problem.kernel.rows_scored == len(history) == 9  # 3 unused gates x 3 positions

    def test_empty_seq_reduces_to_best_single(self):
        rng = np.random.default_rng(2)
        problem = reachable_problem(rng, 1, 2, [(0, 1)])
        cands = CandidateSet(pairs=[(0, 1), (1, 2), (2, 0)], threshold_used=0.01)
        best = best_insertion(problem, Topology(()), cands, History()).best()
        topo, report = best.topology, best.cost
        assert len(topo) == 1
        singles = [
            evaluate(problem, Topology((gate_for_pair(p),))).total for p in cands.pairs
        ]
        assert report.total == min(singles)

    def test_no_unused_gates_is_noop(self):
        rng = np.random.default_rng(3)
        problem = product_problem(rng, 1, 2)
        cands = CandidateSet(pairs=[(0, 1)], threshold_used=0.01)
        seq = Topology((gate_for_pair((0, 1)),))
        history = History()
        assert best_insertion(problem, seq, cands, history) is None
        assert problem.kernel.rows_scored == len(history) == 0

    def test_returns_best_even_if_worse_than_current(self):
        # targets equal the initial marginals: every insertion hurts
        rng = np.random.default_rng(4)
        layout = RegisterLayout(n_ct1=1, n_ct2=1)
        init = tensor(
            from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([0.6, 0.8]))),
            from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([0.8, 0.6]))),
            layout,
        )
        problem = Problem(
            initial_state=init,
            layout=layout,
            target_ct1=TargetDistribution(num_qubits=1, probabilities=np.array([0.36, 0.64])),
            target_ct2=TargetDistribution(num_qubits=1, probabilities=np.array([0.64, 0.36])),
        )
        current = evaluate(problem, Topology(())).total
        best = best_insertion(
            problem, Topology(()), CandidateSet(pairs=[(0, 1)], threshold_used=0.01), History()
        ).best()
        assert len(best.topology) == 1
        assert best.cost.total > current


class TestBestPermutationAddition:
    def test_twelve_evaluations_for_four_unused(self):
        rng = np.random.default_rng(5)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 1), (0, 2), (1, 2), (2, 3)], threshold_used=0.01)
        history = History()
        best_permutation_addition(problem, Topology(()), cands, 2, history)
        assert problem.kernel.rows_scored == len(history) == 12  # 4 * 3 ordered pairs

    def test_insufficient_unused_is_noop(self):
        rng = np.random.default_rng(6)
        problem = product_problem(rng, 1, 2)
        cands = CandidateSet(pairs=[(0, 1)], threshold_used=0.01)
        history = History()
        assert best_permutation_addition(problem, Topology(()), cands, 2, history) is None
        assert problem.kernel.rows_scored == len(history) == 0

    def test_n_one_appends_best_single(self):
        rng = np.random.default_rng(7)
        problem = reachable_problem(rng, 1, 2, [(1, 2)])
        cands = CandidateSet(pairs=[(0, 1), (1, 2)], threshold_used=0.01)
        best = best_permutation_addition(problem, Topology(()), cands, 1, History()).best()
        appended = [
            evaluate(problem, Topology((gate_for_pair(p),))).total for p in cands.pairs
        ]
        assert best.cost.total == min(appended)
        assert len(best.topology) == 1

    def test_n_validated(self):
        rng = np.random.default_rng(8)
        problem = product_problem(rng, 1, 2)
        with pytest.raises(ValueError):
            best_permutation_addition(
                problem, Topology(()), CandidateSet(pairs=[(0, 1)], threshold_used=0.01), 0, History()
            )


class TestBestDeletion:
    def test_redundant_copy_removed(self):
        # target produced by a single CRX(pi/2); a duplicated gate overshoots
        rng = np.random.default_rng(9)
        problem = reachable_problem(rng, 1, 2, [(0, 1)])
        gate = gate_for_pair((0, 1))
        doubled = Topology((gate, gate))
        best = best_deletion(problem, doubled, History()).best()
        assert len(best.topology) == 1
        assert best.cost.total < evaluate(problem, doubled).total
        assert best.cost.total == pytest.approx(0.0, abs=1e-7)

    def test_beneficial_gate_removal_raises_cost(self):
        rng = np.random.default_rng(10)
        problem = reachable_problem(rng, 1, 2, [(0, 1)])
        seq = Topology((gate_for_pair((0, 1)),))
        best = best_deletion(problem, seq, History()).best()
        assert len(best.topology) == 0
        assert best.cost.total > evaluate(problem, seq).total

    def test_empty_seq_is_noop(self):
        rng = np.random.default_rng(11)
        problem = product_problem(rng, 1, 2)
        history = History()
        assert best_deletion(problem, Topology(()), history) is None
        assert problem.kernel.rows_scored == len(history) == 0


class TestLocalSearch:
    def test_empty_candidates_returns_baseline(self):
        rng = np.random.default_rng(12)
        problem = product_problem(rng, 1, 2)
        result = local_search(problem, CandidateSet(pairs=[], threshold_used=0.01))
        assert len(result.topology) == 0
        assert result.cost.total == evaluate(problem, Topology(())).total
        assert [h.phase for h in result.history] == ["baseline"]

    def test_single_beneficial_candidate_selected(self):
        rng = np.random.default_rng(13)
        problem = reachable_problem(rng, 1, 2, [(0, 2)])
        cands = CandidateSet(pairs=[(0, 2)], threshold_used=0.01)
        result = local_search(problem, cands)
        # exhaustive over the 2 possible sequences: empty or the one gate
        assert [(g.control, g.target) for g in result.topology] == [(0, 2)]
        assert result.cost.total == pytest.approx(0.0, abs=1e-7)

    def test_synergy_found_by_pair_phase(self):
        # with a large kl_tol single insertions are rejected, only the
        # two-gate permutation addition clears the acceptance bar
        rng = np.random.default_rng(18)
        problem = reachable_problem(rng, 2, 2, [(0, 2), (2, 3)])
        cands = CandidateSet(pairs=[(0, 2), (2, 3)], threshold_used=0.01)
        base = evaluate(problem, Topology(())).total
        singles = [
            evaluate(problem, Topology((gate_for_pair(p),))).total for p in cands.pairs
        ]
        pair_cost = evaluate(
            problem, Topology((gate_for_pair((0, 2)), gate_for_pair((2, 3))))
        ).total
        kl_tol = 0.1
        assert min(singles) > base - kl_tol  # no single clears the bar
        assert pair_cost < base - kl_tol  # the ordered pair does
        result = local_search(problem, cands, SearchConfig(kl_tol=kl_tol))
        assert [(g.control, g.target) for g in result.topology] == [(0, 2), (2, 3)]
        assert any(h.phase == "addition" for h in result.history)

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3), (3, 0)], threshold_used=0.01)
        a = local_search(problem, cands)
        b = local_search(problem, cands)
        assert a.topology.gates == b.topology.gates
        assert a.cost.total == b.cost.total
        assert a.evaluations == b.evaluations

    def test_cost_never_above_baseline(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            problem = product_problem(rng, 2, 2)
            cands = CandidateSet(pairs=[(0, 2), (1, 3), (2, 0)], threshold_used=0.01)
            result = local_search(problem, cands)
            assert result.cost.total <= evaluate(problem, Topology(())).total

    def test_max_depth_caps_length(self):
        rng = np.random.default_rng(17)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(
            pairs=[(0, 2), (2, 1), (1, 3), (3, 0), (0, 3), (2, 3)], threshold_used=0.01
        )
        result = local_search(problem, cands, SearchConfig(max_depth=1))
        assert len(result.topology) <= 1

    def test_history_phases_labelled(self):
        rng = np.random.default_rng(18)
        problem = reachable_problem(rng, 2, 2, [(0, 2), (3, 1)])
        cands = CandidateSet(pairs=[(0, 2), (3, 1), (1, 2)], threshold_used=0.01)
        result = local_search(problem, cands)
        phases = [b.phase for b in result.history.batches]
        assert phases[0] == "baseline"
        assert set(phases[1:]) == {"insertion", "addition", "deletion"}


class TestOccamSelect:
    def history(self, *entries):
        """A history of (length, cost) entries."""
        history = History()
        for length, cost in entries:
            history.add("x", (), ([cost], [0.0]), [tuple((i, i + 1) for i in range(length))])
        return history

    def test_hand_case_prefers_short(self):
        history = self.history((0, 0.50), (1, 0.48), (3, 0.475))
        chosen = history[occam_select(history, kl_tol=0.01)]
        assert len(chosen.topology) == 1  # 0.475 gains only 0.005 over 0.48

    def test_longer_displaces_when_clearly_better(self):
        history = self.history((0, 0.50), (1, 0.48), (3, 0.40))
        chosen = history[occam_select(history, kl_tol=0.01)]
        assert len(chosen.topology) == 3

    def test_first_of_equal_lengths_wins_ties(self):
        history = self.history((2, 0.48), (0, 0.50), (1, 0.48), (1, 0.48))
        assert occam_select(history, kl_tol=0.01) == 2

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            occam_select(History(), kl_tol=0.01)


class TestMultiEpoch:
    def test_all_singles_worse_returns_empty(self):
        # target equals the initial marginals; every gate can only hurt
        rng = np.random.default_rng(19)
        layout = RegisterLayout(n_ct1=1, n_ct2=1)
        init = tensor(
            from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([0.6, 0.8]))),
            from_amplitudes(AmplitudeVector(num_qubits=1, amplitudes=np.array([0.28, 0.96]))),
            layout,
        )
        problem = Problem(
            initial_state=init,
            layout=layout,
            target_ct1=TargetDistribution(num_qubits=1, probabilities=np.array([0.36, 0.64])),
            target_ct2=TargetDistribution(
                num_qubits=1, probabilities=np.array([0.28**2, 0.96**2])
            ),
        )
        result = multi_epoch(problem, CandidateSet(pairs=[(0, 1), (1, 0)], threshold_used=0.01))
        assert len(result.topology) == 0

    def test_recovers_hidden_pair(self):
        rng = np.random.default_rng(20)
        problem = reachable_problem(rng, 2, 2, [(0, 2), (2, 3)])
        cands = CandidateSet(pairs=[(0, 2), (2, 3), (1, 3)], threshold_used=0.01)
        result = multi_epoch(problem, cands)
        assert result.cost.total < 0.01

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3)], threshold_used=0.01)
        a = multi_epoch(problem, cands)
        b = multi_epoch(problem, cands)
        assert a.topology.gates == b.topology.gates
        assert a.evaluations == b.evaluations

    def test_shuffle_seed_changes_epoch_order_not_safety(self):
        rng = np.random.default_rng(22)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3), (3, 0)], threshold_used=0.01)
        base = evaluate(problem, Topology(())).total
        for seed in (0, 1, 2):
            result = multi_epoch(problem, cands, SearchConfig(shuffle_seed=seed))
            assert result.cost.total <= base

    def test_epoch_start_entries_recorded(self):
        rng = np.random.default_rng(23)
        problem = reachable_problem(rng, 2, 2, [(0, 2)])
        cands = CandidateSet(pairs=[(0, 2), (1, 3)], threshold_used=0.01)
        result = multi_epoch(problem, cands)
        assert any(h.phase == "epoch-start" for h in result.history)

    def test_occam_invariant_on_history(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            problem = product_problem(rng, 2, 2)
            cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3)], threshold_used=0.01)
            result = multi_epoch(problem, cands)
            tol = DEFAULT_KL_TOL
            for h in result.history:
                if h.cost.total <= result.cost.total + tol:
                    assert len(h.topology) >= len(result.topology)

    def test_n_epochs_limits_starts(self):
        rng = np.random.default_rng(25)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3), (3, 0)], threshold_used=0.01)
        full = multi_epoch(problem, cands, SearchConfig(n_epochs=4))
        short = multi_epoch(problem, cands, SearchConfig(n_epochs=1))
        starts_full = sum(1 for h in full.history if h.phase == "epoch-start")
        starts_short = sum(1 for h in short.history if h.phase == "epoch-start")
        assert starts_full <= 4
        assert starts_short <= 1


class TestDefaultPanel:
    """The 4-gene synthetic panel that ``qxtalk run --synthetic`` searches."""

    @pytest.mark.parametrize("strategy,evaluations,entries", [
        ("local", 2907, 2907),
        ("multi-epoch", 5773, 5773),
        ("qubo-annealing", 22891, 22891),
    ])
    def test_evaluations_and_history_lengths(self, synth4, strategy, evaluations, entries):
        result = synth4.search(strategy)
        assert (result.evaluations, len(result.history)) == (evaluations, entries)

    def test_multi_epoch_builds_one_topology(self, synth4, monkeypatch):
        """Scored rows stay columns: the only ``Topology`` built is the result."""
        built = []

        class Counted(Topology):
            def __post_init__(self):
                built.append(self.gates)
                super().__post_init__()

        monkeypatch.setattr(search, "Topology", Counted)
        result = multi_epoch(synth4.problem, synth4.candidates())
        assert built == [result.topology.gates]

    def test_eight_gate_ordering_keeps_its_stacks_bounded(self, synth4, monkeypatch):
        """All 8! orderings are scored, and no extension stack outgrows the budget."""
        kernel = synth4.problem.kernel
        sizes = []
        extend = type(kernel).extend

        def counted(self, states, parents, pairs):
            out = extend(self, states, parents, pairs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(type(kernel), "extend", counted)
        result = order_selected(synth4.problem, synth4.candidates().pairs[:8])
        assert result.evaluations == len(result.history) == math.factorial(8)
        assert max(sizes) <= search._stack_rows(kernel) < math.factorial(8)
        assert result.cost.total == result.history.totals().min()

    def test_scored_stacks_keep_to_a_small_budget(self, synth4, monkeypatch):
        """Under a 4-state budget every scored stack holds at most 4 states, except
        where one unit of work is larger: one insertion candidate's L + 1 positions,
        or a whole deletion batch.  The search result does not change."""
        problem, cands = synth4.problem, synth4.candidates()
        kernel = problem.kernel
        want = local_search(problem, cands)
        monkeypatch.setattr(search, "_STACK_BYTES", 4 * (16 << kernel.n))
        rows = search._stack_rows(kernel)
        sizes = []
        divergences = Kernel.divergences

        def counting(self, states):
            sizes.append(len(states))
            return divergences(self, states)

        monkeypatch.setattr(Kernel, "divergences", counting)
        history = History()
        best_insertion(problem, Topology(tuple(map(gate_for_pair, cands.pairs[:2]))), cands, history)
        build_kl_matrix(problem, cands, history)
        got = local_search(problem, cands)
        history.batches += got.history.batches
        assert (got.topology, got.cost, got.evaluations) == (want.topology, want.cost, want.evaluations)
        # Each batch here is scored in stacks of its own, one after another.
        stacks = iter(sizes)
        for batch in history.batches:
            floor = {"insertion": len(batch.appended[0]), "deletion": len(batch.appended)}.get(batch.phase, 0)
            left = len(batch.total)
            while left > 0:
                size = next(stacks)
                assert size <= max(rows, floor), (batch.phase, size, rows, floor)
                left -= size
            assert left == 0
        assert next(stacks, None) is None
        assert rows == 4 < len(cands.pairs)


class TestBuildKlMatrix:
    def test_single_candidate(self):
        rng = np.random.default_rng(26)
        problem = product_problem(rng, 1, 2)
        cands = CandidateSet(pairs=[(0, 1)], threshold_used=0.01)
        m = build_kl_matrix(problem, cands, History())
        assert m.shape == (1, 1)
        assert m[0, 0] == evaluate(problem, Topology((gate_for_pair((0, 1)),))).total

    def test_entries_match_direct_two_gate_evaluation(self):
        rng = np.random.default_rng(27)
        problem = product_problem(rng, 2, 2)
        pairs = [(0, 2), (2, 1), (1, 3)]
        cands = CandidateSet(pairs=pairs, threshold_used=0.01)
        m = build_kl_matrix(problem, cands, History())
        for i, j in ((0, 1), (1, 2), (2, 0)):
            direct = evaluate(
                problem, Topology((gate_for_pair(pairs[i]), gate_for_pair(pairs[j])))
            ).total
            assert m[i, j] == direct

    def test_order_matters_off_diagonal(self):
        rng = np.random.default_rng(28)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1)], threshold_used=0.01)
        m = build_kl_matrix(problem, cands, History())
        assert m[0, 1] != m[1, 0]

    def test_evaluation_count_is_n_squared(self):
        rng = np.random.default_rng(29)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3)], threshold_used=0.01)
        before = problem.kernel.rows_scored
        history = History()
        build_kl_matrix(problem, cands, history)
        assert problem.kernel.rows_scored - before == len(history) == 9
        assert [b.phase for b in history.batches] == ["pairwise", "pairwise"]


class TestBuildQubo:
    def test_diagonal_from_baseline(self):
        qp = build_qubo(np.array([[0.25]]), baseline=0.30)
        assert qp.q[0, 0] == pytest.approx(-0.05, abs=1e-11)

    def test_coupling_isolates_synergy(self):
        m = np.array([[0.25, 0.18], [0.50, 0.26]])
        qp = build_qubo(m, baseline=0.30)
        # Q_12 = (0.18 - 0.30) - (-0.05) - (-0.04) = -0.03
        assert qp.q[0, 1] == pytest.approx(-0.03, abs=1e-11)
        assert qp.q[1, 0] == qp.q[0, 1]

    def test_pair_identity_exact_in_floats(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            baseline = float(rng.uniform(0.1, 10))
            m = rng.uniform(0, 10, size=(n, n))
            qp = build_qubo(m, baseline)
            for i in range(n):
                for j in range(i + 1, n):
                    lhs = qp.q[i, i] + qp.q[j, j] + qp.q[i, j] + qp.baseline
                    assert lhs == min(qp.kl_matrix[i, j], qp.kl_matrix[j, i])

    def test_snapped_matrix_close_to_input(self):
        rng = np.random.default_rng(31)
        m = rng.uniform(0, 40, size=(4, 4))
        qp = build_qubo(m, 1.0)
        assert np.abs(qp.kl_matrix - m).max() < 1e-10

    def test_all_infinite_pair_costs_get_penalty(self):
        m = np.array([[0.25, np.inf], [np.inf, 0.28]])
        qp = build_qubo(m, baseline=0.30)
        assert qp.q[0, 1] == qp.penalty
        assert qp.penalty == pytest.approx(10 * 0.05, abs=1e-11)

    def test_nan_gives_way_to_the_other_ordering(self):
        m = np.array([[0.2, np.nan], [0.1, 0.3]])
        for matrix in (m, m.T):
            qp = build_qubo(matrix, baseline=0.5)
            # Q_01 = (0.1 - 0.5) - (0.2 - 0.5) - (0.3 - 0.5) = 0.1
            assert qp.q[0, 1] == pytest.approx(0.1, abs=1e-11)
            assert qp.q[0, 1] != qp.penalty

    def test_transposed_matrix_gives_the_same_qubo(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = rng.uniform(0, 5, size=(n, n))
            m[rng.random((n, n)) < 0.2] = np.nan
            m[rng.random((n, n)) < 0.1] = np.inf
            qp, qt = build_qubo(m, 1.0), build_qubo(m.T, 1.0)
            assert np.array_equal(qp.q, qt.q)
            assert qp.penalty == qt.penalty

    def test_all_zero_matrix_penalty_floor(self):
        qp = build_qubo(np.zeros((3, 3)), baseline=0.0)
        assert qp.penalty == 1.0

    def test_penalty_exceeds_max_entry(self):
        rng = np.random.default_rng(32)
        m = rng.uniform(0, 5, size=(5, 5))
        m[1, 3] = np.inf
        m[3, 1] = np.inf
        qp = build_qubo(m, 2.0)
        off = qp.q[~np.eye(5, dtype=bool)]
        assert qp.penalty > np.abs(qp.q[np.isfinite(qp.q) & (np.abs(qp.q) != qp.penalty)]).max()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            build_qubo(np.zeros((2, 3)), 0.1)

    def test_non_finite_baseline_rejected(self):
        with pytest.raises(ValueError):
            build_qubo(np.zeros((2, 2)), math.inf)


class TestQuboEnergy:
    def test_two_variable_hand_case(self):
        m = np.array([[0.25, 0.18], [0.50, 0.26]])
        qp = build_qubo(m, baseline=0.30)
        assert qubo_energy(qp, np.array([1, 1])) == pytest.approx(-0.12, abs=1e-11)
        assert qubo_energy(qp, np.array([0, 0])) == 0.0
        assert qubo_energy(qp, np.array([1, 0])) == pytest.approx(-0.05, abs=1e-11)

    def test_matches_definition_on_random_instances(self):
        rng = np.random.default_rng(33)
        qp = build_qubo(rng.uniform(0, 3, size=(6, 6)), 1.0)
        for _ in range(20):
            x = rng.integers(0, 2, size=6)
            direct = sum(qp.q[i, i] * x[i] for i in range(6)) + sum(
                qp.q[i, j] * x[i] * x[j] for i in range(6) for j in range(i + 1, 6)
            )
            assert qubo_energy(qp, x) == pytest.approx(direct, abs=1e-12)


class TestSolveQuboExact:
    def test_all_positive_diagonal_stays_empty(self):
        qp = QuboProblem(size=3, q=np.diag([1.0, 2.0, 3.0]), baseline=0.0, penalty=30.0)
        x, e = solve_qubo_exact(qp)
        assert np.array_equal(x, [0, 0, 0])
        assert e == 0.0

    def test_negative_diagonal_fills(self):
        qp = QuboProblem(size=4, q=np.diag([-1.0] * 4), baseline=0.0, penalty=10.0)
        x, e = solve_qubo_exact(qp)
        assert np.array_equal(x, [1, 1, 1, 1])
        assert e == -4.0

    def test_two_variable_hand_case(self):
        m = np.array([[0.25, 0.18], [0.50, 0.26]])
        qp = build_qubo(m, baseline=0.30)
        x, e = solve_qubo_exact(qp)
        assert np.array_equal(x, [1, 1])
        assert e == pytest.approx(-0.12, abs=1e-11)

    def test_tie_breaks_to_smallest_integer(self):
        qp = QuboProblem(size=3, q=np.zeros((3, 3)), baseline=0.0, penalty=1.0)
        x, e = solve_qubo_exact(qp)
        assert np.array_equal(x, [0, 0, 0])
        assert e == 0.0

    def test_matches_numpy_enumeration(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            qp = build_qubo(rng.normal(1.0, 1.0, size=(n, n)), 1.0)
            x, e = solve_qubo_exact(qp)
            states = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
            diag = np.diag(qp.q)
            off = qp.q - np.diag(diag)
            energies = states @ diag + 0.5 * np.einsum("si,ij,sj->s", states, off, states)
            assert e == pytest.approx(energies.min(), abs=1e-9)
            assert e <= qubo_energy(qp, states[int(np.argmin(energies))]) + 1e-12

    def test_twenty_two_variables_beat_every_probe(self):
        # At the cap the table spans many row blocks; the returned energy is its x's own.
        rng = np.random.default_rng(35)
        qp = build_qubo(rng.normal(1.0, 0.6, size=(22, 22)), 1.0)
        x, e = solve_qubo_exact(qp)
        assert x.dtype == np.int64 and e == qubo_energy(qp, x)
        for probe in rng.integers(0, 2, size=(2000, 22)):
            assert e <= qubo_energy(qp, probe)

    def test_zero_variables(self):
        x, e = solve_qubo_exact(QuboProblem(size=0, q=np.zeros((0, 0)), baseline=0.0, penalty=1.0))
        assert (x.dtype, x.shape, type(e), e.hex()) == (np.int64, (0,), float, "0x0.0p+0")

    def test_one_zero_variable(self):
        x, e = solve_qubo_exact(QuboProblem(size=1, q=np.zeros((1, 1)), baseline=0.0, penalty=1.0))
        assert (x.dtype, x.tolist(), type(e), e.hex()) == (np.int64, [0], float, "0x0.0p+0")

    def test_size_cap(self):
        qp = QuboProblem(size=23, q=np.zeros((23, 23)), baseline=0.0, penalty=1.0)
        with pytest.raises(ValueError):
            solve_qubo_exact(qp)


class TestSolveQuboHeuristic:
    def test_single_variable_all_modes(self):
        qp = QuboProblem(size=1, q=np.array([[-1.0]]), baseline=0.0, penalty=10.0)
        for mode in ("annealing", "vqe", "qaoa"):
            results = solve_qubo_heuristic(qp, mode=mode, seed=0, top_k=1)
            x, e = results[0]
            assert np.array_equal(x, [1])
            assert e == pytest.approx(-1.0, abs=1e-9)

    def test_annealing_matches_exact_on_random_instances(self):
        rng = np.random.default_rng(36)
        for trial in range(5):
            n = int(rng.integers(2, 11))
            qp = build_qubo(rng.normal(1.5, 1.0, size=(n, n)), 1.5)
            _, exact_e = solve_qubo_exact(qp)
            best = solve_qubo_heuristic(qp, mode="annealing", seed=trial)[0]
            assert best[1] == exact_e

    def test_results_sorted_and_distinct(self):
        rng = np.random.default_rng(37)
        qp = build_qubo(rng.normal(1.0, 1.0, size=(6, 6)), 1.0)
        results = solve_qubo_heuristic(qp, mode="annealing", seed=0, top_k=4)
        energies = [e for _, e in results]
        assert energies == sorted(energies)
        states = {tuple(x) for x, _ in results}
        assert len(states) == len(results)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 5), data=st.data(), top_k=st.integers(1, 8))
    def test_annealing_ranks_visited_states_as_a_full_sort(self, n, data, top_k):
        """The top_k (energy, index) pairs of the visited states, ties broken by the lower index."""
        energies = st.sampled_from([-1.5, -0.25, 0.0, 2.0])  # few values, so most draws tie
        visited = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1), energies, min_size=1))
        qp = QuboProblem(size=n, q=np.zeros((n, n)), baseline=0.0, penalty=1.0)
        with mock.patch.object(search, "_anneal", return_value=visited):
            got = solve_qubo_heuristic(qp, mode="annealing", top_k=top_k)
        want = sorted((e, i) for i, e in visited.items())[:top_k]
        assert [(x.tolist(), e) for x, e in got] == [(search._bits(i, n).tolist(), e) for e, i in want]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(38)
        qp = build_qubo(rng.normal(1.0, 1.0, size=(8, 8)), 1.0)
        for mode in ("annealing", "vqe", "qaoa"):
            if mode != "annealing" and qp.size > 12:
                continue
            a = solve_qubo_heuristic(qp, mode=mode, seed=3)
            b = solve_qubo_heuristic(qp, mode=mode, seed=3)
            assert [(tuple(x), e) for x, e in a] == [(tuple(x), e) for x, e in b]

    def test_variational_size_cap(self):
        qp = QuboProblem(size=13, q=np.zeros((13, 13)), baseline=0.0, penalty=1.0)
        for mode in ("vqe", "qaoa"):
            with pytest.raises(ValueError):
                solve_qubo_heuristic(qp, mode=mode, seed=0)

    def test_mode_validated(self):
        qp = QuboProblem(size=2, q=np.zeros((2, 2)), baseline=0.0, penalty=1.0)
        with pytest.raises(ValueError):
            solve_qubo_heuristic(qp, mode="quantum", seed=0)

    def test_degenerate_states_rank_in_index_order(self):
        # Permuting the variables leaves this QUBO unchanged, so every state
        # of one Hamming weight has the same QAOA probability; rounding must
        # not decide their order.
        n = 4
        q = np.full((n, n), 0.75)
        np.fill_diagonal(q, -1.0)
        qp = QuboProblem(size=n, q=q, baseline=0.0, penalty=1.0)
        results = solve_qubo_heuristic(qp, mode="qaoa", seed=0, top_k=1 << n)
        indices = [int(x @ (1 << np.arange(n))) for x, _ in results]
        assert sorted(indices) == list(range(1 << n))
        for weight in range(n + 1):
            same = [i for i in indices if bin(i).count("1") == weight]
            assert same == sorted(same)

    def test_top_k_ties_within_rounding_break_to_lower_index(self):
        ulp = np.spacing(0.3)
        probs = np.array([0.1, 0.3, 0.3 + ulp, 0.3 - ulp])
        energies = np.arange(4, dtype=np.float64)
        top = search._top_k_probable(probs, energies, 2, 3)
        assert [e for _, e in top] == [1.0, 2.0, 3.0]
        assert [x.tolist() for x, _ in top] == [[1, 0], [0, 1], [1, 1]]

    def test_top_k_validated(self):
        qp = QuboProblem(size=2, q=np.zeros((2, 2)), baseline=0.0, penalty=1.0)
        with pytest.raises(ValueError):
            solve_qubo_heuristic(qp, mode="annealing", seed=0, top_k=0)


class TestOrderSelected:
    def test_single_gate(self):
        rng = np.random.default_rng(39)
        problem = product_problem(rng, 1, 2)
        result = order_selected(problem, [(0, 1)])
        assert [(g.control, g.target) for g in result.topology] == [(0, 1)]

    def test_three_gates_match_brute_force(self):
        rng = np.random.default_rng(40)
        problem = product_problem(rng, 2, 2)
        gates = [(0, 2), (2, 1), (1, 3)]
        result = order_selected(problem, gates)
        best = min(
            evaluate(problem, Topology(tuple(gate_for_pair(p) for p in combo))).total
            for combo in itertools.permutations(gates)
        )
        assert result.cost.total == best
        assert len(result.history) == 6

    def test_large_set_delegates_and_never_loses_to_identity(self):
        rng = np.random.default_rng(41)
        problem = product_problem(rng, 3, 3)
        gates = [(i, j) for i in range(3) for j in range(3, 6)]  # 9 gates
        result = order_selected(problem, gates)
        identity = Topology(tuple(gate_for_pair(p) for p in gates))
        assert result.cost.total <= evaluate(problem, identity).total

    def test_empty_selection(self):
        rng = np.random.default_rng(42)
        problem = product_problem(rng, 1, 2)
        result = order_selected(problem, [])
        assert len(result.topology) == 0


class TestQuboSearch:
    def test_empty_candidates(self):
        rng = np.random.default_rng(43)
        problem = product_problem(rng, 1, 2)
        result = qubo_search(problem, CandidateSet(pairs=[], threshold_used=0.01))
        assert len(result.topology) == 0

    def test_never_worse_than_baseline(self):
        rng = np.random.default_rng(44)
        for solver in ("annealing", "exact"):
            problem = product_problem(rng, 2, 2)
            cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3)], threshold_used=0.01)
            result = qubo_search(problem, cands, solver=solver)
            assert result.cost.total <= evaluate(problem, Topology(())).total

    def test_recovers_hidden_interaction(self):
        rng = np.random.default_rng(45)
        problem = reachable_problem(rng, 2, 2, [(0, 2)])
        cands = CandidateSet(pairs=[(0, 2), (1, 3), (3, 1)], threshold_used=0.01)
        result = qubo_search(problem, cands, solver="exact")
        assert result.cost.total < 0.01
        assert (0, 2) in [(g.control, g.target) for g in result.topology]

    def test_exact_cap_checked_before_any_evaluation(self, monkeypatch):
        rng = np.random.default_rng(48)
        problem = product_problem(rng, 3, 3)
        count = EXACT_SOLVER_MAX_VARS + 1
        pairs = [(c, t) for c in range(6) for t in range(6) if c != t][:count]
        scored = []
        divergences = Kernel.divergences

        def counting(self, states):
            scored.append(len(states))
            return divergences(self, states)

        monkeypatch.setattr(Kernel, "divergences", counting)
        cands = CandidateSet(pairs=pairs, threshold_used=0.01)
        with pytest.raises(ValueError, match=rf"capped at {EXACT_SOLVER_MAX_VARS}\b.*got {count}\b"):
            qubo_search(problem, cands, solver="exact")
        assert scored == []

    def test_solver_name_validated(self, monkeypatch):
        rng = np.random.default_rng(46)
        problem = product_problem(rng, 1, 2)
        cands = CandidateSet(pairs=[(0, 1)], threshold_used=0.01)
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1].pairs))
            return build_kl_matrix(*args, **kwargs)

        monkeypatch.setattr(search, "build_kl_matrix", counting)
        with pytest.raises(ValueError, match="unknown solver mode 'magic'"):
            qubo_search(problem, cands, solver="magic")
        for solver in ("annealing", "vqe", "qaoa"):
            with pytest.raises(ValueError, match="top_k must be >= 1"):
                qubo_search(problem, cands, solver=solver, top_k=0)
        assert calls == []

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        problem = product_problem(rng, 2, 2)
        cands = CandidateSet(pairs=[(0, 2), (2, 1), (1, 3)], threshold_used=0.01)
        a = qubo_search(problem, cands, solver="annealing", seed=5)
        b = qubo_search(problem, cands, solver="annealing", seed=5)
        assert a.topology.gates == b.topology.gates
        assert a.cost.total == b.cost.total


def small_benchmark_problem(rng):
    """Random 3-4 qubit instance with a reachable target and <=4 candidates."""
    n1 = int(rng.integers(1, 3))
    n2 = int(rng.integers(1, 3))
    if n1 + n2 < 3:
        n2 = 3 - n1
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)

    def rand_state(k):
        counts = rng.integers(0, 20, size=1 << k)
        if counts.sum() == 0:
            counts[0] = 1
        h = StateHistogram(
            num_genes=k,
            counts={
                format(i, f"0{k}b")[::-1]: int(c) for i, c in enumerate(counts) if c
            },
        )
        return from_amplitudes(amplitudes(h))

    init = tensor(rand_state(n1), rand_state(n2), layout)
    n = layout.num_qubits
    all_pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    k = int(rng.integers(2, 5))
    idx = rng.choice(len(all_pairs), size=k, replace=False)
    pairs = [all_pairs[i] for i in idx]
    depth = int(rng.integers(1, 3))
    seq_idx = rng.choice(k, size=min(depth, k), replace=False)
    out = run_circuit(init, Topology(tuple(gate_for_pair(pairs[i]) for i in seq_idx)))
    problem = Problem(
        initial_state=init,
        layout=layout,
        target_ct1=marginal_probabilities(out, list(layout.ct1_qubits)),
        target_ct2=marginal_probabilities(out, list(layout.ct2_qubits)),
    )
    return problem, CandidateSet(pairs=pairs, threshold_used=0.01)


class TestStrategiesAgainstOracle:
    def test_all_three_reach_near_optimum_on_small_instances(self):
        scfg = SearchConfig()
        rng = np.random.default_rng(2)
        for trial in range(6):
            problem, cands = small_benchmark_problem(rng)
            opt = exhaustive_best(problem, cands)
            for result in (
                local_search(problem, cands, scfg),
                multi_epoch(problem, cands, scfg),
                qubo_search(problem, cands, scfg, solver="annealing", seed=trial),
            ):
                assert result.cost.total <= opt + DEFAULT_KL_TOL


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.kl_tol == 0.01
        assert cfg.eps_prune == 1e-4
        assert cfg.n_choose == 2
        assert cfg.max_depth == 12

    def test_validation(self):
        assert SearchConfig(n_epochs=0).n_epochs == 0
        for key in ("kl_tol", "eps_prune"):
            for bad in (-1.0, math.nan):
                with pytest.raises(ValueError, match=f"tolerances must be non-negative, got {key} = "):
                    SearchConfig(**{key: bad})
        with pytest.raises(ValueError):
            SearchConfig(n_choose=0)
        with pytest.raises(ValueError):
            SearchConfig(max_depth=0)
        with pytest.raises(ValueError, match="n_epochs must be >= 0"):
            SearchConfig(n_epochs=-1)
        with pytest.raises(ValueError, match="shuffle_seed must be >= 0"):
            SearchConfig(shuffle_seed=-1)
