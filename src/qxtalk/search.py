"""Discrete topology search over candidate controlled-rotation gates.

Three strategy families share one evaluation contract (cost = summed
per-register KL):

* ``local_search``   -- iterative phases of best single insertion, n-wise
  permutation addition and best deletion, adopting improvements immediately.
* ``multi_epoch``    -- shuffled restarts with greedy forward construction,
  backward refinement of new champions, and a final parsimony selection
  over the full evaluation history.
* ``qubo_search``    -- pairwise KL interactions compiled into a QUBO,
  solved exactly, by simulated annealing, or variationally (VQE/QAOA on
  the simulator), with a classical ordering stage for the selected set.

All tie-breaks follow candidate order, then position, so results are
deterministic given the problem, the candidate order and the seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .cost import CostReport, Problem, evaluate
from .prune import CandidateSet
from .qsim import GateSpec, Topology
from .tune import minimize_simplex

SEARCH_ANGLE = math.pi / 2.0
DEFAULT_KL_TOL = 0.01
DEFAULT_EPS_PRUNE = 1e-4
REFINE_FRACTION = 0.3
EXACT_SOLVER_MAX_VARS = 22
VARIATIONAL_MAX_VARS = 12


@dataclass
class SearchConfig:
    """Shared knobs for all strategies; defaults follow the reference setup."""

    kl_tol: float = DEFAULT_KL_TOL
    eps_prune: float = DEFAULT_EPS_PRUNE
    n_choose: int = 2
    n_epochs: int | None = None  # None -> one epoch per candidate
    max_depth: int = 12
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.kl_tol < 0 or self.eps_prune < 0:
            raise ValueError("tolerances must be non-negative")
        if self.n_choose < 1:
            raise ValueError("n_choose must be >= 1")
        if self.n_epochs is not None and self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1 when given")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class HistoryEntry:
    topology: Topology
    cost: CostReport
    phase: str


@dataclass
class SearchResult:
    topology: Topology
    cost: CostReport
    evaluations: int
    history: list[HistoryEntry]


class Evaluator:
    """Counts scored topologies; no caching, so counts reflect real work.

    Batched phases build their final states on the problem's kernel and
    score them with :meth:`score`, which counts one evaluation per state.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.calls = 0

    @property
    def kernel(self):
        return self.problem.kernel

    def __call__(self, topology: Topology) -> CostReport:
        self.calls += 1
        return evaluate(self.problem, topology)

    def score(self, states: np.ndarray) -> list[CostReport]:
        self.calls += len(states)
        return self.kernel.reports(states)


def gate_for_pair(pair: tuple[int, int], angle: float = SEARCH_ANGLE) -> GateSpec:
    control, target = pair
    return GateSpec(kind="CRX", target=target, control=control, angle=angle)


def _pair_of(gate: GateSpec) -> tuple[int, int]:
    return (gate.control, gate.target)


def _unused(seq: Topology, cands: CandidateSet) -> list[tuple[int, int]]:
    used = {_pair_of(g) for g in seq}
    return [p for p in cands.pairs if p not in used]


def _lowest(scored: list[tuple[Topology, CostReport]]) -> int:
    """Index of the entry with the lowest total; the first one wins ties."""
    return min(range(len(scored)), key=lambda i: scored[i][1].total)


def _extensions(
    ev: Evaluator, seq: Topology, state: np.ndarray, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, list[tuple[Topology, CostReport]]]:
    """``seq`` followed by each pair's search gate, scored from ``seq``'s final state."""
    states = ev.kernel.extend(state, pairs, SEARCH_ANGLE)
    scored = [
        (Topology(gates=seq.gates + (gate_for_pair(p),)), r) for p, r in zip(pairs, ev.score(states))
    ]
    return states, scored


def _deletions(ev: Evaluator, seq: Topology) -> list[tuple[Topology, CostReport]]:
    """``seq`` without each of its gates in turn, scored in one batch."""
    reports = ev.score(ev.kernel.deletions(seq.gates))
    return [
        (Topology(gates=seq.gates[:pos] + seq.gates[pos + 1 :]), r) for pos, r in enumerate(reports)
    ]


def best_insertion(
    problem: Problem,
    seq: Topology,
    cands: CandidateSet,
    evaluator: Evaluator | None = None,
) -> tuple[Topology, CostReport]:
    """Best (unused gate, position) insertion, regardless of acceptance.

    The caller applies the kl_tol acceptance rule; ties are broken by
    candidate order, then by lower insertion index.
    """
    ev = evaluator or Evaluator(problem)
    unused = _unused(seq, cands)
    if not unused:
        return seq, ev(seq)
    kernel = ev.kernel
    prefix = kernel.start()
    by_pos = []
    for pos in range(len(seq) + 1):
        states = kernel.extend(prefix, unused, SEARCH_ANGLE)
        for gate in seq.gates[pos:]:
            kernel.apply(states, gate)
        by_pos.append(ev.score(states))
        if pos < len(seq):
            kernel.apply(prefix, seq.gates[pos])
    scored = [
        (Topology(gates=seq.gates[:pos] + (gate_for_pair(pair),) + seq.gates[pos:]), reports[i])
        for i, pair in enumerate(unused)
        for pos, reports in enumerate(by_pos)
    ]
    return scored[_lowest(scored)]


def best_permutation_addition(
    problem: Problem,
    seq: Topology,
    cands: CandidateSet,
    n: int,
    evaluator: Evaluator | None = None,
) -> tuple[Topology, CostReport]:
    """Best ordered n-tuple of unused gates appended to the sequence.

    With fewer than n unused candidates this is a no-op (returns the
    current sequence and its cost).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ev = evaluator or Evaluator(problem)
    unused = _unused(seq, cands)
    if len(unused) < n:
        return seq, ev(seq)
    base = ev.kernel.run(seq.gates)
    scored = []
    # itertools.permutations(unused, n) order: each (n-1)-prefix in turn, then
    # every remaining candidate as the last gate, in candidate order.
    for head in itertools.permutations(unused, n - 1):
        prefix = Topology(gates=seq.gates + tuple(gate_for_pair(p) for p in head))
        state = base.copy()
        for gate in prefix.gates[len(seq):]:
            ev.kernel.apply(state, gate)
        scored += _extensions(ev, prefix, state, [p for p in unused if p not in head])[1]
    return scored[_lowest(scored)]


def best_deletion(
    problem: Problem,
    seq: Topology,
    evaluator: Evaluator | None = None,
) -> tuple[Topology, CostReport]:
    """Best single-gate removal; no-op on an empty sequence."""
    ev = evaluator or Evaluator(problem)
    if len(seq) == 0:
        return seq, ev(seq)
    scored = _deletions(ev, seq)
    return scored[_lowest(scored)]


def local_search(problem: Problem, cands: CandidateSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Iterative local search: insertion, n-wise addition, deletion until stable.

    Insertions and additions must beat the incumbent by more than kl_tol;
    deletions by more than eps_prune.  Improvements are adopted
    immediately and the loop ends after a full pass without change.
    """
    cfg = cfg or SearchConfig()
    ev = Evaluator(problem)
    seq = Topology(())
    cost = ev(seq)
    history = [HistoryEntry(seq, cost, "baseline")]
    improved = True
    while improved:
        improved = False
        cand_seq, cand_cost = best_insertion(problem, seq, cands, ev)
        if len(cand_seq) <= cfg.max_depth and cand_cost.total < cost.total - cfg.kl_tol:
            seq, cost = cand_seq, cand_cost
            history.append(HistoryEntry(seq, cost, "insertion"))
            improved = True
        cand_seq, cand_cost = best_permutation_addition(problem, seq, cands, cfg.n_choose, ev)
        if len(cand_seq) <= cfg.max_depth and cand_cost.total < cost.total - cfg.kl_tol:
            seq, cost = cand_seq, cand_cost
            history.append(HistoryEntry(seq, cost, "addition"))
            improved = True
        cand_seq, cand_cost = best_deletion(problem, seq, ev)
        if len(cand_seq) < len(seq) and cand_cost.total < cost.total - cfg.eps_prune:
            seq, cost = cand_seq, cand_cost
            history.append(HistoryEntry(seq, cost, "deletion"))
            improved = True
    return SearchResult(topology=seq, cost=cost, evaluations=ev.calls, history=history)


def occam_select(history: list[HistoryEntry], kl_tol: float) -> HistoryEntry:
    """Most parsimonious history entry: scanning by ascending length, a longer
    sequence only displaces the incumbent when it wins by more than kl_tol."""
    if not history:
        raise ValueError("history is empty")
    ordered = sorted(history, key=lambda e: len(e.topology))
    incumbent = ordered[0]
    for entry in ordered[1:]:
        if entry.cost.total < incumbent.cost.total - kl_tol:
            incumbent = entry
    return incumbent


def _greedy_forward(
    ev: Evaluator,
    seq: Topology,
    cost: CostReport,
    cands: CandidateSet,
    max_depth: int,
    history: list[HistoryEntry],
) -> tuple[Topology, CostReport]:
    state = ev.kernel.run(seq.gates)
    while len(seq) < max_depth:
        unused = _unused(seq, cands)
        if not unused:
            break
        states, scored = _extensions(ev, seq, state, unused)
        history.extend(HistoryEntry(t, r, "forward") for t, r in scored)
        i = _lowest(scored)
        if scored[i][1].total >= cost.total:
            break
        (seq, cost), state = scored[i], states[i : i + 1]
    return seq, cost


def _greedy_removal(
    ev: Evaluator,
    seq: Topology,
    cost: CostReport,
    delta: float,
    history: list[HistoryEntry],
) -> tuple[Topology, CostReport]:
    while len(seq) >= 1:
        scored = _deletions(ev, seq)
        history.extend(HistoryEntry(t, r, "refine") for t, r in scored)
        i = _lowest(scored)
        if scored[i][1].total >= cost.total - delta:
            break
        seq, cost = scored[i]
    return seq, cost


def multi_epoch(problem: Problem, cands: CandidateSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Shuffled-restart greedy construction with parsimony-based final selection.

    Each epoch grows a sequence from one shuffled candidate (only when
    that start already beats the empty baseline), refines new champions
    backwards with margin 0.3 * kl_tol, and finally picks the shortest
    history entry whose cost is not beaten by more than kl_tol.
    """
    cfg = cfg or SearchConfig()
    ev = Evaluator(problem)
    empty = Topology(())
    base = ev(empty)
    history = [HistoryEntry(empty, base, "baseline")]
    best_seq, best_cost = empty, base
    rng = np.random.default_rng(cfg.shuffle_seed)
    order = rng.permutation(len(cands.pairs))
    epochs = min(cfg.n_epochs if cfg.n_epochs is not None else len(cands.pairs), len(cands.pairs))
    for e in range(epochs):
        pair = cands.pairs[int(order[e])]
        start = Topology(gates=(gate_for_pair(pair),))
        start_cost = ev(start)
        history.append(HistoryEntry(start, start_cost, "epoch-start"))
        if start_cost.total >= base.total:
            continue
        path_seq, path_cost = _greedy_forward(ev, start, start_cost, cands, cfg.max_depth, history)
        if path_cost.total < best_cost.total:
            best_seq, best_cost = path_seq, path_cost
            ref_seq, ref_cost = _greedy_removal(
                ev, path_seq, path_cost, REFINE_FRACTION * cfg.kl_tol, history
            )
            if ref_cost.total < best_cost.total:
                best_seq, best_cost = ref_seq, ref_cost
    chosen = occam_select(history, cfg.kl_tol)
    return SearchResult(
        topology=chosen.topology, cost=chosen.cost, evaluations=ev.calls, history=history
    )


# --- QUBO-based selection -------------------------------------------------


@dataclass
class QuboProblem:
    """Symmetric QUBO matrix with the baseline cost and non-finite penalty.

    ``kl_matrix`` keeps the (grid-snapped) pairwise cost matrix the QUBO was
    compiled from, so the algebraic relation between Q entries and pair
    costs stays checkable on the instance itself.
    """

    size: int
    q: np.ndarray
    baseline: float
    penalty: float
    kl_matrix: np.ndarray | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.shape != (self.size, self.size):
            raise ValueError(f"expected a {self.size}x{self.size} matrix, got {self.q.shape}")
        if not np.array_equal(self.q, self.q.T):
            raise ValueError("QUBO matrix must be symmetric")
        if not np.all(np.isfinite(self.q)):
            raise ValueError("QUBO matrix must be finite after penalty substitution")


def build_kl_matrix(
    problem: Problem,
    cands: CandidateSet,
    evaluator: Evaluator | None = None,
    baseline: float | None = None,
) -> tuple[np.ndarray, float]:
    """Pairwise cost matrix: diagonal = single-gate cost, (i, j) = G_i then G_j."""
    ev = evaluator or Evaluator(problem)
    n = len(cands.pairs)
    if baseline is None:
        baseline = ev(Topology(())).total
    m = np.zeros((n, n), dtype=np.float64)
    singles = ev.kernel.extend(ev.kernel.start(), cands.pairs, SEARCH_ANGLE)
    for i in range(n):
        states = ev.kernel.extend(singles[i], cands.pairs, SEARCH_ANGLE)
        states[i] = singles[i]
        m[i] = [r.total for r in ev.score(states)]
    return m, float(baseline)


# Cost values are snapped to this dyadic grid before QUBO compilation.  On
# the grid every Q entry and every few-term sum of entries is an exact
# double, so Q_ii + Q_jj + Q_ij + baseline reproduces min(M_ij, M_ji)
# bit-for-bit.  The spacing (2^-40 ~ 9e-13) is far below both the search
# tolerance and the numerical noise of the cost itself.
_GRID = float(1 << 40)


def _snap(value: float) -> float:
    if not math.isfinite(value):
        return value
    return round(value * _GRID) / _GRID


def build_qubo(m: np.ndarray, baseline: float) -> QuboProblem:
    """Compile the pairwise cost matrix into a QUBO.

    Q_ii = M_ii - L0; for i < j the coupling uses the cheaper ordering:
    Q_ij = (min(M_ij, M_ji) - L0) - Q_ii - Q_jj.  All inputs are first
    snapped to a fixed dyadic grid and the algebra done in integer grid
    units, which keeps the identity Q_ii + Q_jj + Q_ij + L0 = min(M_ij,
    M_ji) exact in double arithmetic.  Non-finite entries are replaced by
    a penalty of 10x the largest finite magnitude.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("cost matrix must be square")
    if not math.isfinite(baseline):
        raise ValueError("baseline cost must be finite")
    n = m.shape[0]
    snapped = np.array([[_snap(v) for v in row] for row in m], dtype=np.float64)
    base = _snap(float(baseline))
    base_units = round(base * _GRID)

    def units(value: float) -> int | None:
        return round(value * _GRID) if math.isfinite(value) else None

    q_units: list[list[int | None]] = [[0] * n for _ in range(n)]
    for i in range(n):
        diag = units(snapped[i, i])
        q_units[i][i] = None if diag is None else diag - base_units
    for i in range(n):
        for j in range(i + 1, n):
            pair_best = min(snapped[i, j], snapped[j, i])
            pair_units = units(pair_best)
            if pair_units is None or q_units[i][i] is None or q_units[j][j] is None:
                coupling = None
            else:
                coupling = pair_units - base_units - q_units[i][i] - q_units[j][j]
            q_units[i][j] = q_units[j][i] = coupling
    q = np.array(
        [[math.nan if u is None else u / _GRID for u in row] for row in q_units],
        dtype=np.float64,
    )
    finite = np.abs(q[np.isfinite(q)])
    max_abs = float(finite.max()) if finite.size else 0.0
    penalty = 10.0 * max_abs if max_abs > 0 else 1.0
    q[~np.isfinite(q)] = penalty
    return QuboProblem(size=n, q=q, baseline=base, penalty=penalty, kl_matrix=snapped)


def _split(qp: QuboProblem) -> tuple[np.ndarray, np.ndarray]:
    """Q's diagonal and its off-diagonal part."""
    diag = np.diag(qp.q)
    return diag, qp.q - np.diag(diag)


def qubo_energy(qp: QuboProblem, x: np.ndarray) -> float:
    """E(x) = sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j."""
    x = np.asarray(x, dtype=np.float64)
    diag, off = _split(qp)
    return float(x @ diag + 0.5 * x @ off @ x)


def _bit_block(indices: np.ndarray, n: int) -> np.ndarray:
    return ((indices[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.float64)


def _energies(qp: QuboProblem, indices: np.ndarray) -> np.ndarray:
    """E(x) for each assignment in ``indices`` (bit i of an index is x_i)."""
    diag, off = _split(qp)
    bits = _bit_block(indices, qp.size)
    return bits @ diag + 0.5 * np.einsum("ki,ij,kj->k", bits, off, bits)


def solve_qubo_exact(qp: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over all assignments (<= 22 variables).

    Energy ties resolve to the assignment with the smallest integer value
    (bit i of the integer is x_i).
    """
    n = qp.size
    if n > EXACT_SOLVER_MAX_VARS:
        raise ValueError(f"exact solver is capped at {EXACT_SOLVER_MAX_VARS} variables, got {n}")
    best_energy = math.inf
    best_index = 0
    chunk = 1 << 16
    total = 1 << n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        energies = _energies(qp, idx)
        local = int(np.argmin(energies))
        if energies[local] < best_energy:
            best_energy = float(energies[local])
            best_index = int(idx[local])
    x = ((best_index >> np.arange(n, dtype=np.int64)) & 1).astype(np.int64)
    return x, best_energy


def _anneal(qp: QuboProblem, seed: int, restarts: int, sweeps: int) -> dict[tuple[int, ...], float]:
    rng = np.random.default_rng(seed)
    n = qp.size
    diag, off = _split(qp)
    scale = max(1.0, float(np.abs(qp.q).max()))
    t_hot, t_cold = 2.0 * scale, 1e-3 * scale
    seen: dict[tuple[int, ...], float] = {}
    for _ in range(restarts):
        x = rng.integers(0, 2, size=n).astype(np.float64)
        energy = qubo_energy(qp, x)
        seen.setdefault(tuple(int(v) for v in x), energy)
        for sweep in range(sweeps):
            frac = sweep / max(sweeps - 1, 1)
            temp = t_hot * (t_cold / t_hot) ** frac
            for i in rng.permutation(n):
                delta = (1.0 - 2.0 * x[i]) * (diag[i] + off[i] @ x)
                if delta < 0 or rng.random() < math.exp(-delta / temp):
                    x[i] = 1.0 - x[i]
                    energy += delta
                    key = tuple(int(v) for v in x)
                    if key not in seen:
                        seen[key] = qubo_energy(qp, x)
    return seen


def _vqe_state(params: np.ndarray, n: int) -> np.ndarray:
    """Amplitudes after two entangling layers of RY rotations + CNOT chains, plus a final RY layer."""
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    theta = params.reshape(3, n)
    for layer in range(2):
        for i in range(n):
            _kernel.apply(psi, n, "RY", i, angle=float(theta[layer, i]))
        for i in range(n - 1):
            _kernel.apply(psi, n, "CNOT", i + 1, control=i)
    for i in range(n):
        _kernel.apply(psi, n, "RY", i, angle=float(theta[2, i]))
    return psi


def _qaoa_state(params: np.ndarray, n: int, energies: np.ndarray) -> np.ndarray:
    """Amplitudes of the depth-2 alternating cost/mixer circuit.

    The cost layer exp(-i gamma H) is diagonal in the computational basis,
    so it is applied as one phase per basis state, exp(-i gamma E(x)).
    That equals the gate-level RZ/CNOT-RZ-CNOT circuit on the Ising image of
    the QUBO up to a global phase (Farhi, Goldstone & Gutmann, 2014).
    """
    psi = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    for layer in range(2):
        gamma, beta = float(params[2 * layer]), float(params[2 * layer + 1])
        psi *= np.exp(-1j * gamma * energies)
        for i in range(n):
            _kernel.apply(psi, n, "RX", i, angle=2.0 * beta)
    return psi


def _top_k_probable(probs: np.ndarray, energies: np.ndarray, n: int, k: int) -> list[tuple[np.ndarray, float]]:
    """The k most probable assignments; ties break to the lower basis index.

    Probabilities are ranked rounded to 12 decimals, so states of equal
    probability that differ only by rounding keep index order.
    """
    order = np.argsort(-np.round(probs, 12), kind="stable")[:k]
    out = []
    for idx in order:
        bits = ((int(idx) >> np.arange(n, dtype=np.int64)) & 1).astype(np.int64)
        out.append((bits, float(energies[int(idx)])))
    return out


def solve_qubo_heuristic(
    qp: QuboProblem,
    mode: str,
    seed: int = 0,
    top_k: int = 4,
    restarts: int = 12,
    sweeps: int = 200,
) -> list[tuple[np.ndarray, float]]:
    """Heuristic QUBO solvers.

    ``annealing`` returns the top_k distinct lowest-energy assignments
    found by restarted geometric-schedule simulated annealing.  ``vqe``
    and ``qaoa`` run seeded variational circuits on the statevector
    simulator (capped at 12 variables) and return the top_k most probable
    assignments of the optimized state with their classical energies.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    n = qp.size
    if mode == "annealing":
        seen = _anneal(qp, seed, restarts, sweeps)
        ranked = sorted(
            seen.items(), key=lambda kv: (kv[1], sum(b << i for i, b in enumerate(kv[0])))
        )
        return [(np.array(bits, dtype=np.int64), energy) for bits, energy in ranked[:top_k]]
    if mode not in ("vqe", "qaoa"):
        raise ValueError(f"unknown solver mode {mode!r}")
    if n > VARIATIONAL_MAX_VARS:
        raise ValueError(
            f"variational solvers are capped at {VARIATIONAL_MAX_VARS} variables, got {n}"
        )
    energies = _energies(qp, np.arange(1 << n, dtype=np.int64))
    rng = np.random.default_rng(seed)
    if mode == "vqe":
        n_params = 3 * n
        make_state = lambda p: _vqe_state(p, n)
    else:
        n_params = 4
        make_state = lambda p: _qaoa_state(p, n, energies)

    def objective(params: np.ndarray) -> float:
        return float(np.abs(make_state(params)) ** 2 @ energies)

    best_params, best_val = None, math.inf
    for _ in range(2):
        x0 = rng.uniform(-0.2, 0.2, size=n_params)
        params, val, _ = minimize_simplex(objective, x0, max_evals=300 * n_params)
        if val < best_val:
            best_params, best_val = params, val
    probs = np.abs(make_state(best_params)) ** 2
    return _top_k_probable(probs, energies, n, top_k)


def order_selected(problem: Problem, gates: list[tuple[int, int]], cfg: SearchConfig | None = None) -> SearchResult:
    """Best ordering of a selected gate set.

    Up to 8 gates every permutation is scored; larger sets delegate to
    multi_epoch restricted to the set, guarded so the result never loses
    to the identity ordering.
    """
    cfg = cfg or SearchConfig()
    ev = Evaluator(problem)
    if not gates:
        empty = Topology(())
        report = ev(empty)
        return SearchResult(empty, report, ev.calls, [HistoryEntry(empty, report, "ordering")])
    if len(gates) <= 8:
        history = []
        best: tuple[Topology, CostReport] | None = None
        for combo in itertools.permutations(gates):
            topo = Topology(gates=tuple(gate_for_pair(p) for p in combo))
            report = ev(topo)
            history.append(HistoryEntry(topo, report, "ordering"))
            if best is None or report.total < best[1].total:
                best = (topo, report)
        return SearchResult(best[0], best[1], ev.calls, history)
    identity = Topology(gates=tuple(gate_for_pair(p) for p in gates))
    id_report = ev(identity)
    history = [HistoryEntry(identity, id_report, "ordering")]
    sub = CandidateSet(pairs=list(gates), threshold_used=0.0)
    inner = multi_epoch(problem, sub, cfg)
    history.extend(inner.history)
    evals = ev.calls + inner.evaluations
    if inner.cost.total <= id_report.total:
        return SearchResult(inner.topology, inner.cost, evals, history)
    return SearchResult(identity, id_report, evals, history)


def qubo_search(
    problem: Problem,
    cands: CandidateSet,
    cfg: SearchConfig | None = None,
    solver: str = "annealing",
    seed: int = 0,
    top_k: int = 4,
) -> SearchResult:
    """Three-stage QUBO strategy: compile, solve, then order each candidate set.

    The baseline empty circuit always competes, so the returned cost never
    exceeds it.
    """
    # Bad arguments and size caps fail before the pairwise matrix is built.
    if solver not in ("exact", "annealing", "vqe", "qaoa"):
        raise ValueError(f"unknown solver mode {solver!r}")
    if solver != "exact" and top_k < 1:
        raise ValueError("top_k must be >= 1")
    if solver == "exact" and len(cands.pairs) > EXACT_SOLVER_MAX_VARS:
        raise ValueError(
            f"exact solver is capped at {EXACT_SOLVER_MAX_VARS} variables, "
            f"got {len(cands.pairs)} candidates"
        )
    if solver in ("vqe", "qaoa") and len(cands.pairs) > VARIATIONAL_MAX_VARS:
        raise ValueError(
            f"variational solvers are capped at {VARIATIONAL_MAX_VARS} variables, "
            f"got {len(cands.pairs)} candidates"
        )
    cfg = cfg or SearchConfig()
    ev = Evaluator(problem)
    empty = Topology(())
    base = ev(empty)
    history = [HistoryEntry(empty, base, "baseline")]
    evals = ev.calls
    if not cands.pairs:
        return SearchResult(empty, base, evals, history)
    m, l0 = build_kl_matrix(problem, cands, evaluator=ev, baseline=base.total)
    qp = build_qubo(m, l0)
    if solver == "exact":
        solutions = [solve_qubo_exact(qp)]
    else:
        solutions = solve_qubo_heuristic(qp, solver, seed=seed, top_k=top_k)
    evals = ev.calls
    best_topology, best_cost = empty, base
    for bits, _ in solutions:
        selected = [cands.pairs[i] for i in range(len(cands.pairs)) if bits[i]]
        if not selected:
            continue
        ordered = order_selected(problem, selected, cfg)
        evals += ordered.evaluations
        history.extend(ordered.history)
        if ordered.cost.total < best_cost.total:
            best_topology, best_cost = ordered.topology, ordered.cost
    return SearchResult(best_topology, best_cost, evals, history)
