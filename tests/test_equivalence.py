"""The in-place batched kernel against the reference simulator.

``qsim.apply_gate``, ``marginal_probabilities`` and ``kl_divergence`` are
the reference.  Every fast path is checked against them, or against
``evaluate`` scoring one full topology at a time:

* kernel gate application against ``apply_gate``, to 1e-12;
* every batched extension, insertion, addition, deletion and pair-matrix
  score, bit for bit against ``evaluate`` on the full topology, including
  the evaluation counts and tie-breaks of the phases and of the ordering of
  a selected gate set;
* local search against a copy of its object-path form, whose helpers each
  returned one topology: the same topology, cost bits and accepted moves, and
  the same count less that form's no-op rows;
* the annealer against its state-at-a-time form (tuple keys, a fresh
  ``qubo_energy`` per new state): the same visited states in the same
  order, bit-identical energies and the same top-k;
* the tuning objective, tuning and ablation against an oracle built from
  the reference functions alone, and the kernel's adjoint gradients against
  the four-term parameter-shift rule on that oracle;
* the VQE and QAOA states against their gate-level construction: VQE bit
  for bit, and QAOA, whose cost layer is one diagonal phase rather than
  the gate-level RZ/CNOT-RZ-CNOT circuit, to 1e-12 with the same top-k;
  and their adjoint energy gradients against the two-term shift rule on
  every gate of that construction, through the chain rule;
* QAOA's mixer, one phase in the Walsh-Hadamard basis, against the same
  circuit with n RX gates per layer: states and gradients to 1e-12, and
  the same selected assignments from the solver;
* the QUBO energy table, built in row blocks from its two halves, against
  the einsum over every assignment: every entry and the exact solver's
  assignment and energy, bit for bit;
* the single-bit-flip delta-rho prune against a scan of the dense density
  matrix difference: the same pairs in the same order, and on real
  amplitudes the same entries bit for bit.

Where ``apply_gate`` selects single amplitudes (one qubit, or a controlled
gate on two) it multiplies numpy scalars, which round differently from the
array loops the kernel uses; bit-for-bit comparisons with the reference
therefore start at three qubits, and the 1e-12 one covers every size.
"""

import dataclasses
import functools
import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qxtalk import _kernel, qsim, search
from qxtalk.cost import DEFAULT_SMOOTHING, CostReport, Problem, evaluate, kl_divergence
from qxtalk.ingest import TargetDistribution
from qxtalk.prune import CandidateSet, delta_rho, extract_candidates
from qxtalk.qsim import (
    GateSpec,
    RegisterLayout,
    StateVector,
    Topology,
    apply_gate,
    bitstring_to_index,
    marginal_probabilities,
    sample_counts,
)
from qxtalk.search import (
    QuboProblem,
    best_deletion,
    best_insertion,
    best_permutation_addition,
    build_kl_matrix,
    build_qubo,
    gate_for_pair,
    local_search,
    multi_epoch,
    order_selected,
    qubo_energy,
    qubo_search,
    solve_qubo_heuristic,
)
from qxtalk.tune import ANGLE_PERIOD, AngleVector, contribution_analysis, optimize_angles

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


def random_state(rng, n, sparsity=0.0):
    """Unit-norm complex amplitudes; a ``sparsity`` share of them is zero."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < sparsity] = 0.0
    if not amps.any():
        amps[0] = 1.0
    return amps / np.linalg.norm(amps)


def random_distribution(rng, n):
    values = rng.uniform(0.0, 1.0, size=1 << n) * (rng.random(1 << n) < 0.8)
    if not values.any():
        values[0] = 1.0
    return TargetDistribution(num_qubits=n, probabilities=values / values.sum())


@st.composite
def gates(draw, n):
    kinds = ("CRX", "CNOT", "RX", "RY", "RZ", "H") if n > 1 else ("RX", "RY", "RZ", "H")
    kind = draw(st.sampled_from(kinds))
    target = draw(st.integers(0, n - 1))
    control = None
    if kind in ("CRX", "CNOT"):
        control = draw(st.integers(0, n - 1).filter(lambda q: q != target))
    angle = draw(ANGLES) if kind in ("CRX", "RX", "RY", "RZ") else None
    return GateSpec(kind=kind, target=target, control=control, angle=angle)


@st.composite
def problems(draw, min_qubits=2, max_qubits=7):
    """A problem with a sparse entangled initial state and sparse targets, in either eval mode."""
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(max(1, min_qubits - n1), max_qubits - n1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = RegisterLayout(n_ct1=n1, n_ct2=n2)
    shots = draw(st.booleans())
    return Problem(
        initial_state=StateVector(layout.num_qubits, random_state(rng, layout.num_qubits, 0.4)),
        layout=layout,
        target_ct1=random_distribution(rng, n1),
        target_ct2=random_distribution(rng, n2),
        eval_mode="shots" if shots else "exact",
        nshots=64,
        shots_seed=draw(st.integers(0, 1000)),
    )


@st.composite
def pair_lists(draw, n, min_size=0, max_size=5):
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    return draw(st.lists(st.sampled_from(pairs), min_size=min_size, max_size=max_size, unique=True))


# --- reference oracle: apply_gate + marginal_probabilities + kl_divergence ---


def oracle_cost(problem: Problem, gates) -> CostReport:
    state = problem.initial_state
    for gate in gates:
        state = apply_gate(state, gate)
    parts = []
    for offset, (qubits, target) in enumerate(
        ((problem.layout.ct1_qubits, problem.target_ct1), (problem.layout.ct2_qubits, problem.target_ct2))
    ):
        p = marginal_probabilities(state, qubits)
        if problem.eval_mode == "shots":
            hist = sample_counts(state, qubits, problem.nshots, problem.shots_seed + offset)
            probs = np.zeros(1 << hist.num_genes)
            for bits, count in hist.counts.items():
                probs[bitstring_to_index(bits)] = count / problem.nshots
            p = TargetDistribution(num_qubits=hist.num_genes, probabilities=probs)
        parts.append(kl_divergence(p, target))
    return CostReport.from_parts(*parts)


def first_lowest(scored):
    """The first (topology, report) with the lowest total, as every search phase picks."""
    best = None
    for topology, report in scored:
        if best is None or report.total < best[1].total:
            best = (topology, report)
    return best


# --- gate application -------------------------------------------------------


@EXAMPLES
@given(data=st.data())
def test_kernel_gates_match_apply_gate(data):
    n = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sequence = data.draw(st.lists(gates(n), max_size=10))
    refs = [StateVector(n, random_state(rng, n)) for _ in range(3)]
    states = np.stack([r.amplitudes for r in refs])
    for gate in sequence:
        _kernel.apply(states, n, gate.kind, gate.target, gate.control,
                      None if gate.angle is None else _kernel.rotation(gate.kind, gate.angle))
        refs = [apply_gate(r, gate) for r in refs]
    for row, ref in zip(states, refs):
        assert np.max(np.abs(row - ref.amplitudes), initial=0.0) <= 1e-12


# --- batched search phases, bit for bit against evaluate ---------------------


def stack_budget(data, n):
    """A drawn stack budget: the module's, or a few states, down to one."""
    states = data.draw(st.sampled_from([None, 1, 2, 3, 7]))
    return mock.patch.object(search, "_STACK_BYTES", states * (16 << n) if states else search._STACK_BYTES)


@EXAMPLES
@given(data=st.data())
def test_extensions_and_deletions_score_like_evaluate(data):
    problem = data.draw(problems())
    n = problem.layout.num_qubits
    seqs = [Topology(tuple(gate_for_pair(p) for p in data.draw(pair_lists(n, max_size=4))))
            for _ in range(data.draw(st.integers(1, 3)))]
    pairs = data.draw(pair_lists(n, min_size=1, max_size=6))
    parents = data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=len(pairs), max_size=len(pairs)))
    kernel = problem.kernel
    stack = np.concatenate([kernel.run(s.gates) for s in seqs])
    extended = kernel.reports(kernel.extend(stack, parents, pairs, search.SEARCH_ANGLE))
    assert extended == [
        evaluate(problem, Topology(seqs[r].gates + (gate_for_pair(p),))) for r, p in zip(parents, pairs)
    ]
    seq = seqs[0]
    if len(seq):
        shorter = kernel.reports(kernel.deletions(seq.gates))
        assert shorter == [
            evaluate(problem, Topology(seq.gates[:r] + seq.gates[r + 1 :])) for r in range(len(seq))
        ]


@EXAMPLES
@given(data=st.data())
def test_phases_match_topology_at_a_time_scoring(data):
    problem = data.draw(problems(max_qubits=6))
    n = problem.layout.num_qubits
    cands = CandidateSet(pairs=data.draw(pair_lists(n, min_size=1, max_size=5)), threshold_used=0.01)
    seq = Topology(tuple(gate_for_pair(p) for p in data.draw(pair_lists(n, max_size=3))))
    unused = [p for p in cands.pairs if p not in {(g.control, g.target) for g in seq}]

    def topology(pairs):
        return Topology(tuple(gate_for_pair(p) for p in pairs))

    def scored(add, want):
        """The history ``add`` fills: the topologies of ``want`` in order, each scored
        bit for bit like ``evaluate``, one scored kernel row per row."""
        history = search.History()
        before = problem.kernel.rows_scored
        returned = add(history)
        assert problem.kernel.rows_scored - before == len(history) == len(want)
        assert [e.topology for e in history] == want
        for e in history:
            assert cost_bits(e.cost) == cost_bits(evaluate(problem, e.topology))
        return history, returned

    def check(phase, want):
        """The phase adds one batch and returns it, or None and no batch when ``want``
        is empty; the batch's best row is its first lowest."""
        history, batch = scored(phase, want)
        if not want:
            assert batch is None and not history.batches
            return
        assert len(history.batches) == 1 and history.batches[0] is batch
        assert (batch.best().topology, batch.best().cost) == first_lowest((e.topology, e.cost) for e in history)

    with stack_budget(data, n):
        check(lambda history: best_insertion(problem, seq, cands, history),
              [Topology(seq.gates[:pos] + (gate_for_pair(p),) + seq.gates[pos:])
               for p in unused for pos in range(len(seq) + 1)])
        for k in (1, 2, 3):
            check(lambda history: best_permutation_addition(problem, seq, cands, k, history),
                  [Topology(seq.gates + topology(combo).gates) for combo in itertools.permutations(unused, k)])
        check(lambda history: best_deletion(problem, seq, history),
              [Topology(seq.gates[:r] + seq.gates[r + 1 :]) for r in range(len(seq))])

        history, m = scored(lambda history: build_kl_matrix(problem, cands, history),
                            [topology([p]) for p in cands.pairs]
                            + [topology([a, b]) for a in cands.pairs for b in cands.pairs if a != b])
    assert [b.phase for b in history.batches] == ["pairwise", "pairwise"]
    assert m.tolist() == [[evaluate(problem, topology([a] if a == b else [a, b])).total for b in cands.pairs]
                          for a in cands.pairs]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(problem=problems(max_qubits=6), data=st.data())
def test_every_search_history_entry_scores_like_evaluate(problem, data):
    n = problem.layout.num_qubits
    cands = CandidateSet(pairs=data.draw(pair_lists(n, min_size=1, max_size=4)), threshold_used=0.01)
    for result in (
        local_search(problem, cands),
        multi_epoch(problem, cands),
        qubo_search(problem, cands, solver="annealing"),
    ):
        for entry in result.history:
            assert entry.cost == evaluate(problem, entry.topology)
        assert result.cost == evaluate(problem, result.topology)


@EXAMPLES
@given(data=st.data())
def test_ordering_matches_topology_at_a_time_scoring(data):
    problem = data.draw(problems(max_qubits=6))
    gates = data.draw(pair_lists(problem.layout.num_qubits, min_size=1, max_size=5))
    topologies = [Topology(tuple(gate_for_pair(p) for p in combo)) for combo in itertools.permutations(gates)]
    result = order_selected(problem, gates)
    assert [(e.topology, e.cost) for e in result.history] == [(t, evaluate(problem, t)) for t in topologies]
    assert result.evaluations == len(topologies)
    assert (result.topology, result.cost) == first_lowest((e.topology, e.cost) for e in result.history)


# --- lockstep search paths against their serial forms -------------------------
#
# Serial copies of three search paths as they were before they moved in
# lockstep: multi_epoch growing one epoch at a time, the ordering walk depth
# first with every leaf its own batch, and the pairwise matrix row by row.
# A score does not depend on its batch, so the lockstep forms must match them
# bit for bit, also with the stack budget cut down to a few states, where
# rounds are split and the walk recurses group by group.


def extend_one(kernel, state, pairs):
    return kernel.extend(state.reshape(1, -1), [0] * len(pairs), pairs, search.SEARCH_ANGLE)


def serial_permutations(kernel, state, pairs, depth):
    if depth == 0:
        return kernel.divergences(state)
    children = extend_one(kernel, state, pairs)
    if depth == 1:
        return kernel.divergences(children)
    parts = [serial_permutations(kernel, children[i : i + 1], pairs[:i] + pairs[i + 1 :], depth - 1)
             for i in range(len(pairs))]
    return tuple(np.concatenate(register) for register in zip(*parts))


def serial_kl_matrix(problem, cands):
    kernel = problem.kernel
    n = len(cands.pairs)
    m = np.zeros((n, n), dtype=np.float64)
    singles = extend_one(kernel, kernel.start(), cands.pairs)
    for i in range(n):
        states = extend_one(kernel, singles[i], cands.pairs)
        states[i] = singles[i]
        kl_ct1, kl_ct2 = kernel.divergences(states)
        m[i] = kl_ct1 + kl_ct2
    return m


def serial_multi_epoch(problem, cands, cfg):
    kernel = problem.kernel
    scored = kernel.rows_scored
    history = search.History()
    empty = kernel.start()
    base = float(history.add("baseline", (), kernel.divergences(empty), [()]).total[0])
    best = base
    order = np.random.default_rng(cfg.shuffle_seed).permutation(len(cands.pairs))
    for e in range(min(cfg.n_epochs or len(cands.pairs), len(cands.pairs))):
        pair = cands.pairs[int(order[e])]
        state = extend_one(kernel, empty, [pair])
        total = float(history.add("epoch-start", (), kernel.divergences(state), [(pair,)]).total[0])
        if total >= base:
            continue
        held = (pair,)
        while len(held) < cfg.max_depth:
            unused = [p for p in cands.pairs if p not in held]
            if not unused:
                break
            states = extend_one(kernel, state, unused)
            batch = history.add("forward", held, kernel.divergences(states), [(p,) for p in unused])
            i = int(np.argmin(batch.total))
            if batch.total[i] >= total:
                break
            held, total, state = held + (unused[i],), float(batch.total[i]), states[i : i + 1]
        if total < best:
            # Refinement lists each row as its whole shortened sequence.
            while held:
                shorter = [held[:r] + held[r + 1 :] for r in range(len(held))]
                deletions = kernel.deletions(tuple(gate_for_pair(p) for p in held))
                batch = history.add("refine", (), kernel.divergences(deletions), shorter)
                i = int(np.argmin(batch.total))
                if batch.total[i] >= total - search.REFINE_FRACTION * cfg.kl_tol:
                    break
                held, total = shorter[i], float(batch.total[i])
            best = total
    chosen = history[search.occam_select(history, cfg.kl_tol)]
    assert kernel.rows_scored - scored == len(history)
    return search.SearchResult(chosen.topology, chosen.cost, history)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def cost_bits(cost):
    return bits([cost.kl_ct1, cost.kl_ct2, cost.total])


def batch_bits(history):
    return [(b.phase, b.parent, b.appended, bits(b.kl_ct1), bits(b.kl_ct2), bits(b.total)) for b in history.batches]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_multi_epoch_matches_its_serial_form(data):
    problem = data.draw(problems(max_qubits=6))
    n = problem.layout.num_qubits
    cands = CandidateSet(pairs=data.draw(pair_lists(n, min_size=1, max_size=8)), threshold_used=0.01)
    cfg = search.SearchConfig(
        kl_tol=data.draw(st.sampled_from([0.0, 1e-3, 0.01, 0.1])),
        n_epochs=data.draw(st.integers(0, len(cands.pairs))),
        max_depth=data.draw(st.integers(1, 8)),
        shuffle_seed=data.draw(st.integers(0, 50)),
    )
    want = serial_multi_epoch(problem, cands, cfg)
    with stack_budget(data, n):
        got = multi_epoch(problem, cands, cfg)
    assert batch_bits(got.history) == batch_bits(want.history)
    assert got.evaluations == want.evaluations
    assert (got.topology, bits([got.cost.kl_ct1, got.cost.kl_ct2])) == (
        want.topology, bits([want.cost.kl_ct1, want.cost.kl_ct2]))


@EXAMPLES
@given(data=st.data())
def test_breadth_first_orderings_match_the_depth_first_walk(data):
    problem = data.draw(problems(max_qubits=6))
    n = problem.layout.num_qubits
    kernel = problem.kernel
    state = kernel.run(tuple(gate_for_pair(p) for p in data.draw(pair_lists(n, max_size=3))))
    pairs = data.draw(pair_lists(n, min_size=1, max_size=6))
    depth = data.draw(st.integers(0, len(pairs)))
    want = serial_permutations(kernel, state, pairs, depth)
    with stack_budget(data, n):
        got = search._score(kernel, search._permutations(kernel, state, pairs, depth))
    assert [bits(kl) for kl in got] == [bits(kl) for kl in want]
    assert len(got[0]) == math.perm(len(pairs), depth)


@EXAMPLES
@given(data=st.data())
def test_pairwise_matrix_matches_its_row_by_row_form(data):
    problem = data.draw(problems(max_qubits=6))
    n = problem.layout.num_qubits
    cands = CandidateSet(pairs=data.draw(pair_lists(n, min_size=1, max_size=8)), threshold_used=0.01)
    want = serial_kl_matrix(problem, cands)
    before = problem.kernel.rows_scored
    history = search.History()
    with stack_budget(data, n):
        got = build_kl_matrix(problem, cands, history)
    assert bits(got) == bits(want)
    assert problem.kernel.rows_scored - before == len(history) == len(cands.pairs) ** 2


# --- local search against its object-path form ------------------------------
#
# A copy of local_search and its three helpers as they were when each helper
# returned one (Topology, CostReport) and the search recorded only accepted
# moves.  A helper with nothing to score then returned the incumbent itself,
# scored again by ``evaluate``: a no-op row that could never be accepted.


def object_path_insertion(problem, seq, cands):
    unused = search._unused(seq.gates, cands)
    if not unused:
        return seq, evaluate(problem, seq)
    kernel = problem.kernel
    prefix = kernel.start()
    by_pos = []
    for pos in range(len(seq) + 1):
        states = kernel.extend(prefix, [0] * len(unused), unused, search.SEARCH_ANGLE)
        for gate in seq.gates[pos:]:
            kernel.apply(states, gate)
        by_pos.append(kernel.divergences(states))
        if pos < len(seq):
            kernel.apply(prefix, seq.gates[pos])
    kl = np.array(by_pos)  # (position, register, candidate)
    i, pos = divmod(int(np.argmin((kl[:, 0] + kl[:, 1]).T)), len(seq) + 1)
    topology = Topology(gates=seq.gates[:pos] + (gate_for_pair(unused[i]),) + seq.gates[pos:])
    return topology, CostReport.from_parts(float(kl[pos, 0, i]), float(kl[pos, 1, i]))


def object_path_addition(problem, seq, cands, n):
    unused = search._unused(seq.gates, cands)
    if len(unused) < n:
        return seq, evaluate(problem, seq)
    kl_ct1, kl_ct2 = serial_permutations(problem.kernel, problem.kernel.run(seq.gates), unused, n)
    i = int(np.argmin(kl_ct1 + kl_ct2))
    combo = list(itertools.permutations(unused, n))[i]
    return (Topology(seq.gates + tuple(gate_for_pair(p) for p in combo)),
            CostReport.from_parts(float(kl_ct1[i]), float(kl_ct2[i])))


def object_path_deletion(problem, seq):
    if len(seq) == 0:
        return seq, evaluate(problem, seq)
    kl_ct1, kl_ct2 = problem.kernel.divergences(problem.kernel.deletions(seq.gates))
    i = int(np.argmin(kl_ct1 + kl_ct2))
    return Topology(seq.gates[:i] + seq.gates[i + 1 :]), CostReport.from_parts(float(kl_ct1[i]), float(kl_ct2[i]))


def object_path_local_search(problem, cands, cfg):
    """(topology, cost, scored rows, no-op rows, accepted (phase, topology, cost) moves)."""
    scored = problem.kernel.rows_scored
    seq = Topology(())
    cost = evaluate(problem, seq)
    moves, noops = [], 0
    improved = True
    while improved:
        improved = False
        cand_seq, cand_cost = object_path_insertion(problem, seq, cands)
        noops += cand_seq is seq
        if len(cand_seq) <= cfg.max_depth and cand_cost.total < cost.total - cfg.kl_tol:
            seq, cost = cand_seq, cand_cost
            moves.append(("insertion", seq, cost))
            improved = True
        cand_seq, cand_cost = object_path_addition(problem, seq, cands, cfg.n_choose)
        noops += cand_seq is seq
        if len(cand_seq) <= cfg.max_depth and cand_cost.total < cost.total - cfg.kl_tol:
            seq, cost = cand_seq, cand_cost
            moves.append(("addition", seq, cost))
            improved = True
        cand_seq, cand_cost = object_path_deletion(problem, seq)
        noops += cand_seq is seq
        if len(cand_seq) < len(seq) and cand_cost.total < cost.total - cfg.eps_prune:
            seq, cost = cand_seq, cand_cost
            moves.append(("deletion", seq, cost))
            improved = True
    return seq, cost, problem.kernel.rows_scored - scored, noops, moves


def accepted_moves(result, cands, cfg):
    """The moves local search took, replayed from its batches: each batch after the
    baseline scores the moves from the incumbent of its time, and its best row is
    adopted under the acceptance rule."""
    best = result.history.batches[0].best()
    moves = []
    for batch in result.history.batches[1:]:
        held = tuple((g.control, g.target) for g in best.topology)
        if batch.phase == "insertion":
            unused = [p for p in cands.pairs if p not in held]
            assert (batch.parent, batch.appended) == (
                (), [held[:pos] + (p,) + held[pos:] for p in unused for pos in range(len(held) + 1)])
        elif batch.phase == "addition":
            assert batch.parent == held
        else:
            assert (batch.parent, batch.appended) == ((), [held[:r] + held[r + 1 :] for r in range(len(held))])
        move = batch.best()
        tol = cfg.eps_prune if batch.phase == "deletion" else cfg.kl_tol
        if len(move.topology) <= cfg.max_depth and move.cost.total < best.cost.total - tol:
            best = move
            moves.append((batch.phase, move.topology, move.cost))
    assert (best.topology, best.cost) == (result.topology, result.cost)
    return moves


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_local_search_matches_its_object_path_form(data):
    problem = data.draw(problems(max_qubits=6))
    n = problem.layout.num_qubits
    cands = CandidateSet(pairs=data.draw(pair_lists(n, max_size=8)), threshold_used=0.01)
    # Small tolerances, so that some draws accept a deletion after a few insertions.
    cfg = search.SearchConfig(
        kl_tol=data.draw(st.sampled_from([0.0, 1e-3, 0.01])),
        eps_prune=data.draw(st.sampled_from([0.0, 1e-4, 0.05])),
        n_choose=data.draw(st.integers(1, 3)),
        max_depth=data.draw(st.integers(1, 8)),
    )
    topology, cost, scored, noops, moves = object_path_local_search(problem, cands, cfg)
    before = problem.kernel.rows_scored
    with stack_budget(data, n):
        got = local_search(problem, cands, cfg)
    assert (got.topology, cost_bits(got.cost)) == (topology, cost_bits(cost))
    assert [(phase, t, cost_bits(c)) for phase, t, c in accepted_moves(got, cands, cfg)] == [
        (phase, t, cost_bits(c)) for phase, t, c in moves]
    assert got.evaluations == len(got.history) == problem.kernel.rows_scored - before == scored - noops


# --- the annealer against its state-at-a-time form ---------------------------


def oracle_anneal(qp, seed, restarts, sweeps):
    """Annealing that keys states by bit tuples and scores each new one with ``qubo_energy``."""
    rng = np.random.default_rng(seed)
    n = qp.size
    diag = np.diag(qp.q)
    off = qp.q - np.diag(diag)
    scale = max(1.0, float(np.abs(qp.q).max()))
    t_hot, t_cold = 2.0 * scale, 1e-3 * scale
    seen = {}
    for _ in range(restarts):
        x = rng.integers(0, 2, size=n).astype(np.float64)
        seen.setdefault(tuple(int(v) for v in x), qubo_energy(qp, x))
        for sweep in range(sweeps):
            frac = sweep / max(sweeps - 1, 1)
            temp = t_hot * (t_cold / t_hot) ** frac
            for i in rng.permutation(n):
                delta = (1.0 - 2.0 * x[i]) * (diag[i] + off[i] @ x)
                if delta < 0 or rng.random() < math.exp(-delta / temp):
                    x[i] = 1.0 - x[i]
                    key = tuple(int(v) for v in x)
                    if key not in seen:
                        seen[key] = qubo_energy(qp, x)
    return seen


@st.composite
def qubo_instances(draw):
    """A compiled pair-cost matrix with costs up to 10 and about one in seven infinite."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.0, 10.0, size=(n, n))
    m[rng.random((n, n)) < 0.15] = math.inf
    try:
        return build_qubo(m, draw(st.floats(0.0, 10.0)))
    except ValueError:  # penalties past the exact-sum headroom; see test_qubo_headroom_is_checked
        reject()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(qp=qubo_instances(), seed=st.integers(0, 2**32 - 1), top_k=st.integers(1, 6))
def test_annealing_matches_state_at_a_time_oracle(qp, seed, top_k):
    restarts, sweeps = 3, 40
    oracle = oracle_anneal(qp, seed, restarts, sweeps)
    visited = search._anneal(qp, seed, restarts, sweeps)
    # The same states in the same visiting order, each with the same energy bits.
    assert list(visited.items()) == [(sum(b << i for i, b in enumerate(k)), e) for k, e in oracle.items()]
    ranked = sorted(oracle.items(), key=lambda kv: (kv[1], sum(b << i for i, b in enumerate(kv[0]))))
    with mock.patch.multiple(search, ANNEAL_RESTARTS=restarts, ANNEAL_SWEEPS=sweeps):
        top = solve_qubo_heuristic(qp, "annealing", seed=seed, top_k=top_k)
    assert [(x.tolist(), e) for x, e in top] == [(list(k), e) for k, e in ranked[:top_k]]


@pytest.mark.parametrize("n", [64, 70])
def test_annealing_decodes_indices_past_64_bits(n):
    """Gates 0..63 pay off and the rest do not, so the best states set bit 63 and no higher one."""
    rng = np.random.default_rng(n)
    single = np.array([0.5] * 64 + [2.0] * (n - 64))
    # Pair costs of single_i + single_j - 1 plus a little: couplings near 0 and never negative.
    m = single[:, None] + single[None, :] - 1.0 + rng.uniform(0.0, 0.01, size=(n, n))
    np.fill_diagonal(m, single)
    qp = build_qubo(m, 1.0)
    restarts, sweeps, top_k = 2, 20, 8
    oracle = oracle_anneal(qp, 0, restarts, sweeps)
    ranked = sorted(oracle.items(), key=lambda kv: (kv[1], sum(b << i for i, b in enumerate(kv[0]))))
    with mock.patch.multiple(search, ANNEAL_RESTARTS=restarts, ANNEAL_SWEEPS=sweeps):
        top = solve_qubo_heuristic(qp, "annealing", seed=0, top_k=top_k)
    assert [(x.tolist(), e) for x, e in top] == [(list(k), e) for k, e in ranked[:top_k]]
    assert top[0][0][63] == 1 and not top[0][0][64:].any()


def test_qubo_headroom_is_checked():
    """|Q| must sum to less than 2^53 grid units, where every energy sum is exact."""
    unit = 2.0**-40
    for a, fails in ((4096.0 - unit, False), (4096.0, True)):
        # Q_ii = a and Q_01 = 2a - 2a = 0, so |Q| sums to 2a, or 2^53 units at a = 4096.
        m = np.array([[a, 2 * a], [2 * a, a]])
        if fails:
            with pytest.raises(ValueError, match=r"2\^53\.0 grid units.*only below 2\^53"):
                build_qubo(m, 0.0)
        else:
            assert np.abs(build_qubo(m, 0.0).q).sum() == 2 * a
    with pytest.raises(ValueError, match=r"2\^53\.0 grid units"):
        QuboProblem(size=1, q=np.array([[-8192.0]]), baseline=0.0, penalty=1.0)


def test_qubo_entries_must_lie_on_the_grid():
    """Off the 2^-40 grid, energies updated flip by flip could drift from ``qubo_energy``."""
    unit = 2.0**-40
    QuboProblem(size=2, q=np.array([[unit, 3 * unit], [3 * unit, -5.0]]), baseline=0.0, penalty=1.0)
    for q in ([[0.1]], [[0.0, unit / 2], [unit / 2, 0.0]]):
        with pytest.raises(ValueError, match=r"multiples of 2\^-40"):
            QuboProblem(size=len(q), q=np.array(q), baseline=0.0, penalty=1.0)


# --- the QUBO energy table against the chunked einsum walk -------------------


def chunked_energies(qp, indices):
    """E(x) for each assignment in ``indices``, one three-index einsum over their bits."""
    diag = np.diag(qp.q)
    off = qp.q - np.diag(diag)
    bits = search._bits(indices, qp.size).astype(np.float64)
    return bits @ diag + 0.5 * np.einsum("ki,ij,kj->k", bits, off, bits)


def chunked_exact(qp):
    """The exhaustive minimum walked in index chunks of 2^16; ties go to the smallest index."""
    best_energy, best_index, total = math.inf, 0, 1 << qp.size
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        energies = chunked_energies(qp, idx)
        local = int(np.argmin(energies))
        if energies[local] < best_energy:
            best_energy, best_index = float(energies[local]), int(idx[local])
    return search._bits(best_index, qp.size), best_energy


@st.composite
def grid_qubos(draw, max_size=16):
    """A symmetric Q on the 2^-40 grid: random units, a few values (signed zeros among them),
    all zeros, a constant diagonal, or a few values with one variable's row repeated as another's."""
    n = draw(st.sampled_from(range(max_size + 1)))
    kind = draw(st.sampled_from(["units", "few", "zeros", "diagonal", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "units":
        q = rng.integers(-(2**30), 2**30, size=(n, n)) * (rng.random((n, n)) < 0.7) / 2.0**40
    elif kind == "zeros":
        q = np.full((n, n), rng.choice([0.0, -0.0]))
    elif kind == "diagonal":
        q = np.diag(np.full(n, rng.choice([-1.5, -0.0, 0.0, 2.0])))
    else:
        q = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(n, n))
    q = np.where(np.tri(n, dtype=bool), q.T, q)  # mirrored, not summed, so -0.0 stays
    if kind == "repeated" and n >= 2:
        i, j = rng.choice(n, size=2, replace=False)
        q[j], q[:, j] = q[i], q[:, i]
        q[j, j], q[i, j], q[j, i] = q[i, i], q[i, i], q[i, i]
    return QuboProblem(size=n, q=q, baseline=0.0, penalty=1.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(qp=grid_qubos(), budget=st.sampled_from([1, 100, 4096, search._STACK_BYTES]))
def test_energy_table_matches_chunked_walk(qp, budget):
    """Every entry, the exact solver's assignment and its energy, byte for byte, with the
    table in row blocks of at most ``budget`` bytes (or one row)."""
    want = chunked_energies(qp, np.arange(1 << qp.size))
    with mock.patch.object(search, "_STACK_BYTES", budget):
        blocks = list(search._energy_blocks(qp))
        x, energy = search.solve_qubo_exact(qp)
    width = 1 << (qp.size + 1) // 2
    assert [first for first, _ in blocks] == list(itertools.accumulate([0] + [b.size for _, b in blocks[:-1]]))
    assert all(b.shape[1] == width and (len(b) == 1 or b.nbytes <= budget) for _, b in blocks)
    assert np.concatenate([b for _, b in blocks], axis=None).tobytes() == want.tobytes()
    want_x, want_energy = chunked_exact(qp)
    assert (x.dtype, x.tobytes(), energy.hex()) == (want_x.dtype, want_x.tobytes(), want_energy.hex())


# --- tuning and ablation against the reference oracle ------------------------


def crx_topology(data, n, max_size=4):
    pairs = data.draw(pair_lists(n, min_size=1, max_size=max_size))
    return Topology(tuple(GateSpec("CRX", target, control, data.draw(ANGLES)) for control, target in pairs))


@EXAMPLES
@given(data=st.data())
def test_tuning_objective_matches_oracle(data):
    problem = data.draw(problems(min_qubits=3))
    topology = crx_topology(data, problem.layout.num_qubits)
    theta = np.array([data.draw(ANGLES) for _ in topology.gates])
    kernel = problem.kernel
    retuned = tuple(GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, theta))
    assert kernel.reports(kernel.run(topology.gates, theta))[0] == oracle_cost(problem, retuned)
    # 24 vector runs scored as one stack in shots mode: each row is sampled as the row-by-row oracle samples it.
    problem = dataclasses.replace(problem, eval_mode="shots")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.uniform(-2 * math.pi, 2 * math.pi, (24, len(theta)))
    reports = problem.kernel.reports(np.concatenate([problem.kernel.run(topology.gates, row) for row in stack]))
    assert reports == [oracle_cost(problem, at_angles(topology, row)) for row in stack]


@EXAMPLES
@given(data=st.data())
def test_ablation_matches_oracle(data):
    problem = data.draw(problems(min_qubits=3))
    topology = crx_topology(data, problem.layout.num_qubits)
    angles = AngleVector(values=np.array([data.draw(ANGLES) for _ in topology.gates]))
    gene_map = {q: f"q{q}" for q in range(problem.layout.num_qubits)}
    table = contribution_analysis(problem, topology, angles, gene_map)
    tuned = [GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, angles.values)]
    assert table.baseline_kl == oracle_cost(problem, []).total
    assert [row.kl_after_prefix for row in table.rows] == [
        oracle_cost(problem, tuned[:i]).total for i in range(1, len(tuned) + 1)
    ]


def rotation_topology(data, n, max_size=5):
    """A sequence of CRX, RX, RY and RZ gates at random angles."""
    rotations = gates(n).filter(lambda g: g.angle is not None)
    return Topology(tuple(data.draw(st.lists(rotations, min_size=1, max_size=max_size))))


def at_angles(topology, theta):
    return [GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, theta)]


def oracle_marginals(problem, gates):
    state = problem.initial_state
    for gate in gates:
        state = apply_gate(state, gate)
    return [marginal_probabilities(state, qubits).probabilities
            for qubits in (problem.layout.ct1_qubits, problem.layout.ct2_qubits)]


# Four-term parameter-shift rule, exact for every probability under the
# frequencies 1/2 and 1 of CRX, RX, RY and RZ angles.
SHIFTS = (math.pi / 2, 3 * math.pi / 2)
SHIFT_WEIGHTS = ((math.sqrt(2) + 1) / (4 * math.sqrt(2)), -(math.sqrt(2) - 1) / (4 * math.sqrt(2)))


def shift_rule_gradient(problem, topology, theta):
    """d KL / d theta by the chain rule: d KL / d p = log(p / q) + 1 on the terms with
    p > 0, times d p / d theta from the shift rule on the oracle's marginals."""
    slopes = []
    for p, target in zip(oracle_marginals(problem, at_angles(topology, theta)),
                         (problem.target_ct1, problem.target_ct2)):
        q = target.probabilities + DEFAULT_SMOOTHING
        q = q / q.sum()
        slopes.append(np.where(p > 0, np.log(np.where(p > 0, p, 1.0) / q) + 1.0, 0.0))
    grad = np.zeros(len(theta))
    for i in range(len(theta)):
        for shift, weight in zip(SHIFTS, SHIFT_WEIGHTS):
            up, down = theta.copy(), theta.copy()
            up[i] += shift
            down[i] -= shift
            for slope, p_up, p_down in zip(slopes, oracle_marginals(problem, at_angles(topology, up)),
                                           oracle_marginals(problem, at_angles(topology, down))):
                grad[i] += weight * float(slope @ (p_up - p_down))
    return grad


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gradients_match_parameter_shift_oracle(data):
    problem = data.draw(problems(max_qubits=8))
    topology = rotation_topology(data, problem.layout.num_qubits)
    theta = np.array([[data.draw(ANGLES) for _ in topology.gates] for _ in range(2)])
    costs, grads = problem.kernel.sweep(topology.gates)(theta)
    # The gradient follows the exact cost in either eval mode.
    problem = dataclasses.replace(problem, eval_mode="exact")
    for row, cost, grad in zip(theta, costs, grads):
        assert abs(cost - oracle_cost(problem, at_angles(topology, row)).total) <= 1e-12
        assert np.max(np.abs(grad - shift_rule_gradient(problem, topology, row))) <= 1e-9


@EXAMPLES
@given(m=st.integers(1, 8), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_kl_rows_share_one_log_ratio(m, rows, seed):
    """One log ratio serves the KL rows and the gradient weights: the rows keep the bits of
    ``kl_divergence``, and the ratio those of log(where(p > 0, p / q, 1)), on rows with and
    without zero entries."""
    rng = np.random.default_rng(seed)
    target = random_distribution(rng, m)
    q = _kernel._smoothed(target)
    p = np.stack([random_distribution(rng, m).probabilities if rng.random() < 0.5
                  else np.abs(random_state(rng, m)) ** 2 for _ in range(rows)])
    kl, ratio = _kernel._kl_rows(p, q)
    assert same_bits(kl, [kl_divergence(TargetDistribution(m, row), target) for row in p])
    assert same_bits(ratio, np.log(np.where(p > 0, p / q, 1.0)))


@EXAMPLES
@given(data=st.data())
def test_gradient_rows_match_one_row_calls(data):
    problem = data.draw(problems())
    topology = rotation_topology(data, problem.layout.num_qubits)
    theta = np.array([[data.draw(ANGLES) for _ in topology.gates] for _ in range(data.draw(st.integers(1, 5)))])
    kernel = problem.kernel
    sweep = kernel.sweep(topology.gates)
    assert np.array_equal(sweep.run(theta), np.vstack([kernel.run(topology.gates, r) for r in theta]))
    costs, grads = sweep(theta)
    for row, cost, grad in zip(theta, costs, grads):
        one_cost, one_grad = sweep(row[None])
        assert (cost, grad.tolist()) == (one_cost[0], one_grad[0].tolist())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cost_has_period_four_pi(data):
    problem = data.draw(problems())
    topology = rotation_topology(data, problem.layout.num_qubits)
    theta = np.array([data.draw(st.floats(-8 * math.pi, 8 * math.pi)) for _ in topology.gates])
    kernel = problem.kernel
    wrapped = kernel.reports(kernel.run(topology.gates, np.mod(theta, ANGLE_PERIOD)))[0]
    assert abs(wrapped.total - kernel.reports(kernel.run(topology.gates, theta))[0].total) <= 1e-12


def test_two_pi_is_not_a_crx_period():
    """CRX(theta + 2*pi) is CRX(theta) then Z on the control, which a later gate turns into a cost."""
    layout = RegisterLayout(n_ct1=1, n_ct2=1)
    problem = Problem(
        initial_state=StateVector(2, np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)),
        layout=layout,
        target_ct1=TargetDistribution(num_qubits=1, probabilities=np.array([0.7, 0.3])),
        target_ct2=TargetDistribution(num_qubits=1, probabilities=np.array([0.6, 0.4])),
    )
    topology = Topology((GateSpec(kind="CRX", target=1, control=0, angle=0.0),
                         GateSpec(kind="RY", target=0, angle=0.0)))
    theta = np.array([2.5 * math.pi, math.pi / 2])
    kernel = problem.kernel

    def cost(angles):
        return kernel.reports(kernel.run(topology.gates, angles))[0].total

    assert abs(cost(np.mod(theta, ANGLE_PERIOD)) - cost(theta)) <= 1e-12
    assert abs(cost(np.mod(theta, 2 * math.pi)) - cost(theta)) > 1e-3


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data(), mode=st.sampled_from(["exact", "shots"]))
def test_optimize_angles_replays_and_never_exceeds_the_start(data, mode):
    problem = data.draw(problems(min_qubits=3, max_qubits=6))
    problem = dataclasses.replace(problem, eval_mode=mode)
    topology = rotation_topology(data, problem.layout.num_qubits, max_size=4)
    angles, report = optimize_angles(problem, topology)
    assert report == oracle_cost(problem, at_angles(topology, angles.values))
    assert report.total <= oracle_cost(problem, topology.gates).total


# --- variational solver states against their gate-level construction --------


# Each gate-level circuit is a list of (gate, parameter index or None, d angle / d parameter).


def vqe_circuit(params, n):
    theta = params.reshape(3, n)
    tagged = []
    for layer in range(3):
        tagged += [(GateSpec(kind="RY", target=i, angle=float(theta[layer, i])), layer * n + i, 1.0)
                   for i in range(n)]
        if layer < 2:
            tagged += [(GateSpec(kind="CNOT", target=i + 1, control=i), None, 0.0) for i in range(n - 1)]
    zeros = np.zeros(1 << n, dtype=np.complex128)
    zeros[0] = 1.0
    return StateVector(n, zeros), tagged


def ising_coefficients(qp):
    """Map x_i = (1 - z_i) / 2, giving field and coupling terms over spins."""
    diag = np.diag(qp.q)
    off = qp.q - np.diag(diag)
    return -diag / 2.0 - off.sum(axis=1) / 4.0, off / 4.0


def qaoa_circuit(params, n, h, j):
    """RZ(2 gamma h_i), CNOT-RZ(2 gamma J_ab)-CNOT and RX(2 beta) per layer, from |+>^n."""
    tagged = []
    for layer in range(2):
        gamma, beta = float(params[2 * layer]), float(params[2 * layer + 1])
        for i in range(n):
            if h[i] != 0.0:
                tagged.append((GateSpec(kind="RZ", target=i, angle=2.0 * gamma * h[i]), 2 * layer, 2.0 * h[i]))
        for a in range(n):
            for b in range(a + 1, n):
                if j[a, b] != 0.0:
                    cnot = (GateSpec(kind="CNOT", target=b, control=a), None, 0.0)
                    rz = GateSpec(kind="RZ", target=b, angle=2.0 * gamma * j[a, b])
                    tagged += [cnot, (rz, 2 * layer, 2.0 * j[a, b]), cnot]
        tagged += [(GateSpec(kind="RX", target=i, angle=2.0 * beta), 2 * layer + 1, 2.0) for i in range(n)]
    return StateVector(n, np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)), tagged


def gate_level_probabilities(initial, tagged):
    state = initial
    for gate, _, _ in tagged:
        state = apply_gate(state, gate)
    return state.probabilities()


def gate_level_vqe(params, n):
    return gate_level_probabilities(*vqe_circuit(params, n))


def gate_level_qaoa(params, n, h, j):
    return gate_level_probabilities(*qaoa_circuit(params, n, h, j))


def shift_rule_energy_gradient(initial, tagged, n_params, energies):
    """d <E> / d parameter: for each gate, the two-term shift rule at +-pi/2 on its
    angle, times d angle / d parameter, summed over the gates a parameter drives."""
    grad = np.zeros(n_params)
    for k, (gate, param, slope) in enumerate(tagged):
        if param is None:
            continue
        for sign in (1.0, -1.0):
            shifted = list(tagged)
            shifted[k] = (GateSpec(gate.kind, gate.target, gate.control, gate.angle + sign * math.pi / 2), param, slope)
            grad[param] += sign * slope * float(gate_level_probabilities(initial, shifted) @ energies) / 2.0
    return grad


def random_qubo(rng, n):
    q = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
    q = np.round(q * 2.0**40) / 2.0**40  # QuboProblem takes entries on its 2^-40 grid
    qp = QuboProblem(size=n, q=q + q.T, baseline=0.0, penalty=1.0)
    return qp, np.concatenate([block for _, block in search._energy_blocks(qp)], axis=None)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_variational_states_match_gate_level(n, seed):
    rng = np.random.default_rng(seed)
    qp, energies = random_qubo(rng, n)
    vqe_params = rng.uniform(-math.pi, math.pi, size=3 * n)
    qaoa_params = rng.uniform(-math.pi, math.pi, size=4)
    vqe_state = search._vqe_sweep(n, energies).run(vqe_params[None])[0]
    assert np.array_equal(np.abs(vqe_state) ** 2, gate_level_vqe(vqe_params, n))
    fast = np.abs(search._qaoa_state(qaoa_params, n, energies)) ** 2
    oracle = gate_level_qaoa(qaoa_params, n, *ising_coefficients(qp))
    assert np.max(np.abs(fast - oracle)) <= 1e-12
    top = search._top_k_probable(fast, energies, n, 4)
    top_oracle = search._top_k_probable(oracle, energies, n, 4)
    assert [x.tolist() for x, _ in top] == [x.tolist() for x, _ in top_oracle]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_energy_gradients_match_shift_rule_on_gate_level(n, seed):
    rng = np.random.default_rng(seed)
    qp, energies = random_qubo(rng, n)
    vqe_params = rng.uniform(-math.pi, math.pi, size=(1, 3 * n))
    qaoa_params = rng.uniform(-math.pi, math.pi, size=(1, 4))
    cost, grad = search._vqe_sweep(n, energies)(vqe_params)
    initial, tagged = vqe_circuit(vqe_params[0], n)
    assert abs(cost[0] - gate_level_probabilities(initial, tagged) @ energies) <= 1e-9
    assert np.max(np.abs(grad[0] - shift_rule_energy_gradient(initial, tagged, 3 * n, energies))) <= 1e-9
    cost, grad = search._qaoa_gradients(qaoa_params, n, energies)
    initial, tagged = qaoa_circuit(qaoa_params[0], n, *ising_coefficients(qp))
    assert abs(cost[0] - gate_level_probabilities(initial, tagged) @ energies) <= 1e-9
    assert np.max(np.abs(grad[0] - shift_rule_energy_gradient(initial, tagged, 4, energies))) <= 1e-9


@EXAMPLES
@given(n=st.integers(1, 8), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_energy_gradient_rows_match_one_row_calls(n, rows, seed):
    rng = np.random.default_rng(seed)
    _, energies = random_qubo(rng, n)
    qaoa = lambda p: search._qaoa_gradients(p, n, energies)
    for gradients, size in ((search._vqe_sweep(n, energies), 3 * n), (qaoa, 4)):
        params = rng.uniform(-math.pi, math.pi, size=(rows, size))
        costs, grads = gradients(params)
        for row, cost, grad in zip(params, costs, grads):
            one_cost, one_grad = gradients(row[None])
            assert (cost, grad.tolist()) == (one_cost[0], one_grad[0].tolist())


# --- the block update against a copy of the separate lo/hi update ------------
# The kernel's earlier gate update built each gate's 2x2 entries per call and
# updated the target = 0 and target = 1 views of the state apart, as
# ``apply_gate`` does.  The copy below, with its adjoint sweep and variational
# circuits, pins the block update bit for bit: every amplitude, cost and
# gradient has the same 64 bits.


@functools.lru_cache(maxsize=None)
def lohi_fold(n, target, control):
    qubits = sorted((target,) if control is None else (target, control), reverse=True)
    shape, width = [], n
    for q in qubits:
        shape += [1 << (width - 1 - q), 2]
        width = q
    shape.append(1 << width)
    lo = [slice(None)] * len(shape)
    if control is not None:
        lo[2 * qubits.index(control) + 1] = 1
    hi = list(lo)
    lo[2 * qubits.index(target) + 1] = 0
    hi[2 * qubits.index(target) + 1] = 1
    return tuple(shape), (Ellipsis, *lo), (Ellipsis, *hi)


def lohi_apply(states, n, kind, target, control=None, angle=None):
    shape, lo, hi = lohi_fold(n, target, control)
    psi = states.reshape(states.shape[:-1] + shape)
    if kind == "CNOT":
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0
        return
    a0, a1 = psi[lo], psi[hi]
    if kind == "H":
        m00, m01, m10, m11 = tuple(qsim._H_MATRIX.ravel())
    elif np.ndim(angle) == 0:
        m00, m01, m10, m11 = qsim._rotation_entries(kind, float(angle))
    else:
        half = np.asarray(angle, dtype=np.float64).reshape((-1,) + (1,) * (a0.ndim - 1)) / 2.0
        m00, m01, m10, m11 = qsim._half_angle_entries(kind, np.cos(half), np.sin(half))
    new0 = m00 * a0 + m01 * a1
    new1 = m10 * a0 + m11 * a1
    psi[lo] = new0
    psi[hi] = new1


def lohi_overlap(psi, lam, n, gate):
    shape, lo, hi = lohi_fold(n, gate.target, gate.control)
    fold = (len(psi),) + shape
    psi, lam = psi.reshape(fold), lam.reshape(fold)
    a0, a1, l0, l1 = psi[lo], psi[hi], np.conj(lam[lo]), np.conj(lam[hi])
    if gate.kind in ("CRX", "RX"):
        terms = (l0 * a1 + l1 * a0).imag
    elif gate.kind == "RY":
        terms = (l1 * a0 - l0 * a1).real
    else:
        terms = (l0 * a0 - l1 * a1).imag
    return terms.reshape(len(terms), -1).sum(axis=1)


def lohi_sweep(pair, n, gates, angles):
    rows = len(angles)
    undo = -np.concatenate([angles, angles])
    grads = np.empty(angles.shape)
    col = angles.shape[1]
    for gate in reversed(gates):
        if gate.angle is None:
            lohi_apply(pair, n, gate.kind, gate.target, gate.control)
            continue
        col -= 1
        grads[:, col] = lohi_overlap(pair[:rows], pair[rows:], n, gate)
        lohi_apply(pair, n, gate.kind, gate.target, gate.control, undo[:, col])
    return grads


def lohi_vqe_state(params, n):
    psi = np.zeros(params.shape[:-1] + (1 << n,), dtype=np.complex128)
    psi[..., 0] = 1.0
    column = 0
    for gate in search._vqe_gates(n):
        if gate.kind == "CNOT":
            lohi_apply(psi, n, "CNOT", gate.target, gate.control)
        else:
            lohi_apply(psi, n, "RY", gate.target, angle=params[..., column])
            column += 1
    return psi


def lohi_qaoa_state(params, n, energies):
    psi = np.full(params.shape[:-1] + (1 << n,), 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    for layer in range(2):
        psi *= np.exp(-1j * params[..., 2 * layer, None] * energies)
        for i in range(n):
            lohi_apply(psi, n, "RX", i, angle=2.0 * params[..., 2 * layer + 1])
    return psi


def lohi_energy_pair(states, energies):
    """<E> of each state in an (S, 2**n) stack, and the states stacked over their cotangents E * psi."""
    return (np.abs(states) ** 2 * energies).sum(axis=1), np.concatenate([states, energies * states])


def lohi_vqe_gradients(params, n, energies):
    costs, pair = lohi_energy_pair(lohi_vqe_state(params, n), energies)
    return costs, lohi_sweep(pair, n, search._vqe_gates(n), params)


def lohi_qaoa_gradients(params, n, energies):
    rows = len(params)
    costs, pair = lohi_energy_pair(lohi_qaoa_state(params, n, energies), energies)
    mixer = [GateSpec(kind="RX", target=i, angle=0.0) for i in range(n)]
    grads = np.empty(params.shape)
    for layer in (1, 0):
        gamma, beta = params[:, 2 * layer], params[:, 2 * layer + 1]
        rx = lohi_sweep(pair, n, mixer, np.repeat(2.0 * beta[:, None], n, axis=1))
        grads[:, 2 * layer + 1] = 2.0 * rx.sum(axis=1)
        grads[:, 2 * layer] = 2.0 * (np.conj(pair[rows:]) * energies * pair[:rows]).imag.sum(axis=1)
        pair *= np.exp(1j * np.tile(gamma, 2)[:, None] * energies)
    return costs, grads


def same_bits(a, b):
    """Equal arrays down to the sign of each zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_update_matches_lohi_update(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = np.stack([random_state(rng, n) for _ in range(rows)])
    expected = states.copy()
    for gate in data.draw(st.lists(gates(n), min_size=1, max_size=8)):
        angle = gate.angle
        if angle is not None and data.draw(st.booleans()):  # one angle per row
            angle = np.array([data.draw(ANGLES) for _ in range(rows)])
        entries = None if angle is None else _kernel.rotation(gate.kind, angle)
        _kernel.apply(states, n, gate.kind, gate.target, gate.control, entries)
        lohi_apply(expected, n, gate.kind, gate.target, gate.control, angle)
        assert same_bits(states, expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_and_sweep_match_lohi_sweep(data):
    """A ``Sweep`` on any gate list, at a drawn real weight per row and basis state: it runs
    the lo/hi update's final states, ``weigh`` sees them, its costs come back as they are,
    and the gradients are the lo/hi sweep's on (psi, w * psi)."""
    n = data.draw(st.integers(2, 12))
    rows = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sequence = data.draw(st.lists(gates(n), min_size=1, max_size=8))
    theta = np.array([[data.draw(ANGLES) for g in sequence if g.angle is not None] for _ in range(rows)])
    theta = theta.reshape(rows, -1)
    initial = np.stack([random_state(rng, n) for _ in range(rows)])
    weights = rng.normal(size=(rows, 1 << n))
    seen, costs = [], rng.normal(size=rows)

    def weigh(states):
        seen.append(states.copy())
        return costs, weights

    sweep = _kernel.Sweep(n, tuple(sequence), initial, weigh)
    expected, column = initial.copy(), 0
    for gate in sequence:
        lohi_apply(expected, n, gate.kind, gate.target, gate.control, None if gate.angle is None else theta[:, column])
        column += gate.angle is not None
    assert same_bits(sweep.run(theta), expected)
    got_costs, grads = sweep(theta)
    assert len(seen) == 1 and same_bits(seen[0], expected) and got_costs is costs
    assert same_bits(grads, lohi_sweep(np.concatenate([expected, weights * expected]), n, sequence, theta))


@EXAMPLES
@given(n=st.integers(1, 8), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_variational_gradients_match_lohi_sweep(n, rows, seed):
    rng = np.random.default_rng(seed)
    _, energies = random_qubo(rng, n)
    vqe = rng.uniform(-math.pi, math.pi, size=(rows, 3 * n))
    sweep = search._vqe_sweep(n, energies)
    for params in (vqe, vqe[0][None]):
        assert same_bits(sweep.run(params), lohi_vqe_state(params, n))
    for got, want in zip(sweep(vqe), lohi_vqe_gradients(vqe, n, energies)):
        assert same_bits(got, want)


# --- QAOA in the Walsh-Hadamard basis against the RX-by-RX circuit ------------
# The mixer is one phase between two transforms, not n RX gates, so its sums
# run in another order: states and gradients agree to 1e-12 with the lo/hi
# circuit above, and the solver picks the same assignments.


@pytest.mark.parametrize("n", range(1, search.VARIATIONAL_MAX_VARS + 1))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_qaoa_matches_lohi_circuit(n, rows, seed):
    rng = np.random.default_rng(seed)
    _, energies = random_qubo(rng, n)
    qaoa = rng.uniform(-math.pi, math.pi, size=(rows, 4))
    for params in (qaoa, qaoa[0]):
        assert np.max(np.abs(search._qaoa_state(params, n, energies) - lohi_qaoa_state(params, n, energies))) <= 1e-12
    for got, want in zip(search._qaoa_gradients(qaoa, n, energies), lohi_qaoa_gradients(qaoa, n, energies)):
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n", range(1, search.VARIATIONAL_MAX_VARS + 1))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_qaoa_solver_selects_like_lohi_circuit(n, seed):
    qp, _ = random_qubo(np.random.default_rng(seed), n)
    fast = solve_qubo_heuristic(qp, "qaoa", top_k=4)
    with mock.patch.object(search, "_qaoa_state", lohi_qaoa_state), \
            mock.patch.object(search, "_qaoa_gradients", lohi_qaoa_gradients):
        slow = solve_qubo_heuristic(qp, "qaoa", top_k=4)
    assert [x.tolist() for x, _ in fast] == [x.tolist() for x, _ in slow]
    assert [e for _, e in fast] == [e for _, e in slow]


@pytest.mark.parametrize("n", range(search.VARIATIONAL_MAX_VARS + 1))
def test_walsh_factors_are_sylvester_matrices(n):
    factors = search._walsh(n)[1:]
    assert [len(w) for w in factors] == [1 << (n + 1) // 2, 1 << n // 2]
    for w in factors:
        signs = [[(-1.0) ** bin(j & k).count("1") for k in range(len(w))] for j in range(len(w))]
        assert np.array_equal(w, signs) and not w.flags.writeable
        assert np.array_equal(w @ w, len(w) * np.eye(len(w)))
    assert search._walsh(n)[0].tolist() == [bin(k).count("1") for k in range(1 << n)]


# --- prune: single-bit-flip entries against the dense delta-rho --------------


def dense_candidates(mono: np.ndarray, co: np.ndarray, n: int, threshold: float):
    """The dense rho_co - rho_mono and its row-major scan for candidate pairs."""
    dr = np.outer(co, np.conj(co)) - np.outer(mono, np.conj(mono))
    pairs, seen = [], set()
    for row, col in np.argwhere(np.abs(dr) > threshold):
        r, c = int(row), int(col)
        diff = r ^ c
        if r == c or diff & (diff - 1):
            continue
        target = diff.bit_length() - 1
        for control in range(n):
            if control != target and (r & c) >> control & 1 and (control, target) not in seen:
                seen.add((control, target))
                pairs.append((control, target))
    return dr, pairs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 10),
    data=st.data(),
    real=st.booleans(),
    sparsity=st.sampled_from([0.0, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.01, 1.0),
)
def test_prune_matches_dense_delta_rho(n, data, real, sparsity, seed, fraction):
    n1 = data.draw(st.integers(max(1, n - 8), min(8, n - 1)))
    layout = RegisterLayout(n_ct1=n1, n_ct2=n - n1)
    rng = np.random.default_rng(seed)
    mono, co = (random_state(rng, n, sparsity) for _ in range(2))
    if real:
        mono, co = (v.real / np.linalg.norm(v.real) for v in (mono, co))
    dr = delta_rho(StateVector(n, mono), StateVector(n, co))
    flips = np.arange(1 << n)[:, None] ^ (1 << np.arange(n))
    threshold = fraction * float(np.abs(dr).max() or 1.0)
    dense, dense_pairs = dense_candidates(mono.astype(complex), co.astype(complex), n, threshold)
    assert extract_candidates(dr, layout, threshold).pairs == dense_pairs
    gathered = np.take_along_axis(dense, flips, axis=1)
    if real:
        assert np.array_equal(dr, gathered)
    else:  # numpy may multiply complex broadcasts and outer products in different loops
        assert np.max(np.abs(dr - gathered)) <= 1e-15


# --- sweep plans owned by one optimization ---------------------------------


def test_optimizations_in_threads_match_one_thread(synth4):
    """Four tunings of one shared problem and two VQE solves, in six threads that may
    switch every microsecond, each equal the single-thread result bit for bit.  On one
    sweep, writing into the costs and gradients it returned changes no later result,
    and a plan used again after one of another row count gives the results it gave first."""
    problem, topology = synth4.problem, synth4.search("multi-epoch").topology
    qp = search.build_qubo(np.random.default_rng(3).normal(1.0, 1.0, size=(6, 6)), 1.0)
    jobs = [lambda: optimize_angles(problem, topology)] * 4 + [lambda: search.solve_qubo_heuristic(qp, "vqe")] * 2
    expected = [job() for job in jobs]
    results = [None] * len(jobs)

    def work(i):
        results[i] = jobs[i]()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (angles, report), (want_angles, want_report) in zip(results[:4], expected[:4]):
        assert same_bits(angles.values, want_angles.values) and report == want_report
    for top, want in zip(results[4:], expected[4:]):
        assert [(bits.tolist(), energy) for bits, energy in top] == [(bits.tolist(), e) for bits, e in want]

    sweep = problem.kernel.sweep(topology.gates)
    theta = np.random.default_rng(0).uniform(-2 * math.pi, 2 * math.pi, (3, len(topology)))
    first = [array.copy() for array in sweep(theta)]
    for rows in (theta, theta[:1], theta):
        costs, grads = sweep(rows)
        assert same_bits(costs, first[0][: len(rows)]) and same_bits(grads, first[1][: len(rows)])
        costs[:], grads[:] = np.nan, np.nan


# --- BFGS on the active starts only, against the loop that gathers them ------


def gathering_bfgs(value_and_grad, x, seen):
    """BFGS as it ran when every round gathered the active starts out of arrays of all
    of them.  ``seen`` collects the branches taken: Armijo backtracks, steps that fail
    the curvature test (sy <= 1e-12), uphill resets of a start that goes on, and starts
    that stop in different rounds."""
    x = x.copy()
    rows, size = x.shape
    f, g = value_and_grad(x)
    inverse = np.repeat(np.eye(size)[None], rows, axis=0)
    direction = -g
    step = np.ones(rows)
    active = np.ones(rows, dtype=bool)
    stopped = np.full(rows, -1)
    for round_ in range(_kernel.MAX_ROUNDS):
        active &= np.abs(g).max(axis=1) >= _kernel.GRAD_TOL
        stopped[~active & (stopped < 0)] = round_
        act = np.flatnonzero(active)
        if not act.size:
            break
        step[act] = np.minimum(step[act], _kernel.MAX_STEP / np.abs(direction[act]).max(axis=1))
        trial = x[act] + step[act, None] * direction[act]
        f_trial, g_trial = value_and_grad(trial)
        slope = (g[act] * direction[act]).sum(axis=1)
        ok = f_trial <= f[act] + _kernel.ARMIJO * step[act] * slope
        back = act[~ok]
        if back.size:
            seen.add("backtrack")
        step[back] /= 2.0
        active[back[step[back] * np.abs(direction[back]).max(axis=1) < _kernel.STEP_TOL]] = False
        acc = act[ok]
        s, y = trial[ok] - x[acc], g_trial[ok] - g[acc]
        sy = (s * y).sum(axis=1)
        curved = sy > 1e-12
        if not curved.all():
            seen.add("not curved")
        if curved.any():
            c = acc[curved]
            rho = 1.0 / sy[curved]
            v = np.eye(size) - rho[:, None, None] * s[curved, :, None] * y[curved, None, :]
            inverse[c] = v @ inverse[c] @ v.transpose(0, 2, 1) + rho[:, None, None] * (
                s[curved, :, None] * s[curved, None, :]
            )
        active[acc[f[acc] - f_trial[ok] < _kernel.DROP_TOL]] = False
        x[acc], f[acc], g[acc] = trial[ok], f_trial[ok], g_trial[ok]
        direction[acc] = -np.einsum("kij,kj->ki", inverse[acc], g[acc])
        uphill = acc[(direction[acc] * g[acc]).sum(axis=1) >= 0]
        if (np.abs(g[uphill]).max(axis=1, initial=0.0) >= _kernel.GRAD_TOL).any():
            seen.add("uphill")
        inverse[uphill] = np.eye(size)
        direction[uphill] = -g[uphill]
        step[acc] = 1.0
        stopped[~active & (stopped < 0)] = round_
    if len(set(stopped[stopped >= 0].tolist())) > 1:
        seen.add("staggered stops")
    return x, f


def check_bfgs(value_and_grad, starts, seen):
    want = gathering_bfgs(value_and_grad, starts, seen)
    got = _kernel.bfgs(value_and_grad, starts)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_bfgs_matches_gathering_loop_on_quartics():
    """Ill-conditioned quadratic-plus-quartic costs, indefinite ones among them (whose
    inverse Hessians can lose definiteness in rounding, so that a start turns uphill),
    some floored so that a trial can land where the gradient is exactly zero."""
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(size=st.integers(1, 6), rows=st.integers(1, 8), cond=st.floats(0, 16), scale=st.floats(-2, 3),
           indefinite=st.booleans(), floored=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def check(size, rows, cond, scale, indefinite, floored, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        a = (q * np.logspace(0, cond, size) * np.where(indefinite & (rng.random(size) < 0.5), -1, 1)) @ q.T
        b, c, floor = rng.normal(size=size), 10.0 ** rng.uniform(-8, 1), -10.0 ** rng.uniform(-1, 2)

        def value_and_grad(x):
            cost = 0.5 * np.einsum("ki,ij,kj->k", x, a, x) + x @ b + c * (x**4).sum(axis=1)
            grad = x @ a + b + 4 * c * x**3
            if floored:
                return np.maximum(cost, floor), np.where((cost < floor)[:, None], 0.0, grad)
            return cost, grad

        with np.errstate(all="ignore"):
            check_bfgs(value_and_grad, rng.normal(size=(rows, size)) * 10.0**scale, seen)

    check()
    assert seen == {"backtrack", "not curved", "uphill", "staggered stops"}


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bfgs_matches_gathering_loop_on_tuning(data):
    problem = data.draw(problems(max_qubits=6))
    topology = rotation_topology(data, problem.layout.num_qubits, max_size=6)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    starts = rng.uniform(0.0, 2 * math.pi, (data.draw(st.integers(1, 8)), len(topology)))
    check_bfgs(problem.kernel.sweep(topology.gates), starts, set())


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), rows=st.integers(1, 4), width=st.sampled_from([0.2, math.pi]),
       seed=st.integers(0, 2**32 - 1))
def test_bfgs_matches_gathering_loop_on_energies(n, rows, width, seed):
    rng = np.random.default_rng(seed)
    _, energies = random_qubo(rng, n)
    check_bfgs(search._vqe_sweep(n, energies), rng.uniform(-width, width, (rows, 3 * n)), set())
    check_bfgs(lambda p: search._qaoa_gradients(p, n, energies), rng.uniform(-width, width, (rows, 4)), set())
