"""The in-place batched kernel against the reference simulator.

``qsim.apply_gate``, ``marginal_probabilities`` and ``kl_divergence`` are
the reference.  Every fast path is checked against them, or against
``evaluate`` scoring one full topology at a time:

* kernel gate application against ``apply_gate``, to 1e-12;
* every batched extension, insertion, addition, deletion and pair-matrix
  score, bit for bit against ``evaluate`` on the full topology, including
  the evaluation counts and tie-breaks of the phases;
* the tuning objective, tuning and ablation against an oracle built from
  the reference functions alone;
* the VQE and QAOA states against their gate-level construction: VQE bit
  for bit, and QAOA, whose cost layer is one diagonal phase rather than
  the gate-level RZ/CNOT-RZ-CNOT circuit, to 1e-12 with the same top-k;
* the single-bit-flip delta-rho prune against a scan of the dense density
  matrix difference: the same pairs in the same order, and on real
  amplitudes the same entries bit for bit.

Where ``apply_gate`` selects single amplitudes (one qubit, or a controlled
gate on two) it multiplies numpy scalars, which round differently from the
array loops the kernel uses; bit-for-bit comparisons with the reference
therefore start at three qubits, and the 1e-12 one covers every size.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qxtalk import _kernel, search
from qxtalk.cost import CostReport, Problem, evaluate, kl_divergence
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
    Evaluator,
    QuboProblem,
    best_deletion,
    best_insertion,
    best_permutation_addition,
    build_kl_matrix,
    gate_for_pair,
    local_search,
    multi_epoch,
    qubo_search,
)
from qxtalk.tune import (
    EVALS_PER_ANGLE,
    TWO_PI,
    AngleVector,
    contribution_analysis,
    minimize_simplex,
    optimize_angles,
)

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
        parts.append(kl_divergence(p, target, problem.smoothing))
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
        _kernel.apply(states, n, gate.kind, gate.target, gate.control, gate.angle)
        refs = [apply_gate(r, gate) for r in refs]
    for row, ref in zip(states, refs):
        assert np.max(np.abs(row - ref.amplitudes), initial=0.0) <= 1e-12


# --- batched search phases, bit for bit against evaluate ---------------------


@EXAMPLES
@given(data=st.data())
def test_extensions_and_deletions_score_like_evaluate(data):
    problem = data.draw(problems())
    n = problem.layout.num_qubits
    seq = Topology(tuple(gate_for_pair(p) for p in data.draw(pair_lists(n, max_size=4))))
    pairs = data.draw(pair_lists(n, min_size=1, max_size=6))
    kernel = problem.kernel
    extended = kernel.reports(kernel.extend(kernel.run(seq.gates), pairs, search.SEARCH_ANGLE))
    assert extended == [evaluate(problem, Topology(seq.gates + (gate_for_pair(p),))) for p in pairs]
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

    def scored(topologies):
        return [(t, evaluate(problem, t)) for t in topologies]

    def check(phase, want, count):
        ev = Evaluator(problem)
        assert phase(ev) == want
        assert ev.calls == count

    if unused:
        inserted = scored(
            Topology(seq.gates[:pos] + (gate_for_pair(p),) + seq.gates[pos:])
            for p in unused
            for pos in range(len(seq) + 1)
        )
        check(lambda ev: best_insertion(problem, seq, cands, evaluator=ev),
              first_lowest(inserted), len(inserted))
    for k in (1, 2):
        if len(unused) >= k:
            added = scored(
                Topology(seq.gates + tuple(gate_for_pair(p) for p in combo))
                for combo in itertools.permutations(unused, k)
            )
            check(lambda ev: best_permutation_addition(problem, seq, cands, k, evaluator=ev),
                  first_lowest(added), len(added))
    if len(seq):
        removed = scored(Topology(seq.gates[:r] + seq.gates[r + 1 :]) for r in range(len(seq)))
        check(lambda ev: best_deletion(problem, seq, evaluator=ev), first_lowest(removed), len(removed))

    m, _ = build_kl_matrix(problem, cands, baseline=0.0)
    want = [
        [evaluate(problem, Topology((gate_for_pair(a),) if a == b else (gate_for_pair(a), gate_for_pair(b)))).total
         for b in cands.pairs]
        for a in cands.pairs
    ]
    assert m.tolist() == want


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


# --- tuning and ablation against the reference oracle ------------------------


def crx_topology(data, n, max_size=4):
    pairs = data.draw(pair_lists(n, min_size=1, max_size=max_size))
    return Topology(tuple(gate_for_pair(p, angle=data.draw(ANGLES)) for p in pairs))


@EXAMPLES
@given(data=st.data())
def test_tuning_objective_matches_oracle(data):
    problem = data.draw(problems(min_qubits=3))
    topology = crx_topology(data, problem.layout.num_qubits)
    theta = np.array([data.draw(ANGLES) for _ in topology.gates])
    kernel = problem.kernel
    retuned = tuple(GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, theta))
    assert kernel.reports(kernel.run(topology.gates, theta))[0] == oracle_cost(problem, retuned)


@EXAMPLES
@given(data=st.data())
def test_ablation_matches_oracle(data):
    problem = data.draw(problems(min_qubits=3))
    topology = crx_topology(data, problem.layout.num_qubits)
    angles = AngleVector(values=np.array([data.draw(ANGLES) for _ in topology.gates]))
    table = contribution_analysis(problem, topology, angles)
    tuned = [GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, angles.values)]
    assert table.baseline_kl == oracle_cost(problem, []).total
    assert [row.kl_after_prefix for row in table.rows] == [
        oracle_cost(problem, tuned[:i]).total for i in range(1, len(tuned) + 1)
    ]


def test_optimize_angles_matches_oracle_optimization():
    rng = np.random.default_rng(7)
    layout = RegisterLayout(n_ct1=2, n_ct2=2)
    problem = Problem(
        initial_state=StateVector(4, random_state(rng, 4, 0.3)),
        layout=layout,
        target_ct1=random_distribution(rng, 2),
        target_ct2=random_distribution(rng, 2),
    )
    topology = Topology((gate_for_pair((0, 2)), gate_for_pair((3, 1))))

    def objective(theta):
        return oracle_cost(
            problem, [GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, theta)]
        ).total

    best, _, _ = minimize_simplex(objective, np.zeros(2), max_evals=EVALS_PER_ANGLE * 2)
    wrapped = np.mod(best, TWO_PI)
    angles, report = optimize_angles(problem, topology)
    assert angles.values.tolist() == wrapped.tolist()
    assert report == oracle_cost(
        problem, [GateSpec(g.kind, g.target, g.control, float(a)) for g, a in zip(topology.gates, wrapped)]
    )


# --- variational solver states against their gate-level construction --------


def gate_level_vqe(params, n):
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    state = StateVector(n, amps)
    theta = params.reshape(3, n)
    for layer in range(2):
        for i in range(n):
            state = apply_gate(state, GateSpec(kind="RY", target=i, angle=float(theta[layer, i])))
        for i in range(n - 1):
            state = apply_gate(state, GateSpec(kind="CNOT", target=i + 1, control=i))
    for i in range(n):
        state = apply_gate(state, GateSpec(kind="RY", target=i, angle=float(theta[2, i])))
    return state.probabilities()


def ising_coefficients(qp):
    """Map x_i = (1 - z_i) / 2, giving field and coupling terms over spins."""
    diag = np.diag(qp.q)
    off = qp.q - np.diag(diag)
    return -diag / 2.0 - off.sum(axis=1) / 4.0, off / 4.0


def gate_level_qaoa(params, n, h, j):
    state = StateVector(n, np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128))
    for layer in range(2):
        gamma, beta = float(params[2 * layer]), float(params[2 * layer + 1])
        for i in range(n):
            if h[i] != 0.0:
                state = apply_gate(state, GateSpec(kind="RZ", target=i, angle=2.0 * gamma * h[i]))
        for a in range(n):
            for b in range(a + 1, n):
                if j[a, b] != 0.0:
                    state = apply_gate(state, GateSpec(kind="CNOT", target=b, control=a))
                    state = apply_gate(state, GateSpec(kind="RZ", target=b, angle=2.0 * gamma * j[a, b]))
                    state = apply_gate(state, GateSpec(kind="CNOT", target=b, control=a))
        for i in range(n):
            state = apply_gate(state, GateSpec(kind="RX", target=i, angle=2.0 * beta))
    return state.probabilities()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_variational_states_match_gate_level(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
    qp = QuboProblem(size=n, q=q + q.T, baseline=0.0, penalty=1.0)
    vqe_params = rng.uniform(-math.pi, math.pi, size=3 * n)
    qaoa_params = rng.uniform(-math.pi, math.pi, size=4)
    assert np.array_equal(np.abs(search._vqe_state(vqe_params, n)) ** 2, gate_level_vqe(vqe_params, n))
    energies = search._energies(qp, np.arange(1 << n))
    fast = np.abs(search._qaoa_state(qaoa_params, n, energies)) ** 2
    oracle = gate_level_qaoa(qaoa_params, n, *ising_coefficients(qp))
    assert np.max(np.abs(fast - oracle)) <= 1e-12
    top = search._top_k_probable(fast, energies, n, 4)
    top_oracle = search._top_k_probable(oracle, energies, n, 4)
    assert [x.tolist() for x, _ in top] == [x.tolist() for x, _ in top_oracle]


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
