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

Every scored row goes through one entry, ``_score``: it takes the rows in order, as
stacks of final states or as (parent, pair) extensions that it builds itself, returns
their (kl_ct1, kl_ct2), and ``History.add`` records them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernel
from .cost import CostReport, Problem
from .prune import CandidateSet
from .qsim import GateSpec, Topology

SEARCH_ANGLE = _kernel.SEARCH_ANGLE
DEFAULT_KL_TOL = 0.01
DEFAULT_EPS_PRUNE = 1e-4
REFINE_FRACTION = 0.3
EXACT_SOLVER_MAX_VARS = 22
VARIATIONAL_MAX_VARS = 12
# Restarts and sweeps per restart of the annealing solver.
ANNEAL_RESTARTS = 12
ANNEAL_SWEEPS = 200
# The stacks of states (16 * 2**n bytes each) that a batched search step extends and scores,
# and the row blocks of the QUBO energy table, hold at most this many bytes.  A step is split
# down to one walk node's children, one insertion candidate's rows or one deletion batch.
_STACK_BYTES = 1 << 20


@dataclass(eq=False, repr=False)
class SearchConfig:
    """Shared knobs for all strategies; defaults follow the reference setup."""

    kl_tol: float = DEFAULT_KL_TOL
    eps_prune: float = DEFAULT_EPS_PRUNE
    n_choose: int = 2
    n_epochs: int = 0  # 0 -> one epoch per candidate
    max_depth: int = 12
    shuffle_seed: int = 0

    def __post_init__(self):
        for key in ("kl_tol", "eps_prune"):
            if not getattr(self, key) >= 0:  # NaN fails this too
                raise ValueError(f"tolerances must be non-negative, got {key} = {getattr(self, key)}")
        if self.n_choose < 1:
            raise ValueError("n_choose must be >= 1")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be >= 0 (0 means one epoch per candidate)")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.shuffle_seed < 0:
            raise ValueError("shuffle_seed must be >= 0")


@dataclass(frozen=True, eq=False, repr=False)
class HistoryEntry:
    """One scored topology, its cost and the search phase that scored it."""

    topology: Topology
    cost: CostReport
    phase: str


@dataclass(frozen=True, eq=False, repr=False)
class Batch:
    """Scored rows that share a phase and a parent sequence of (control, target) pairs.

    Row r is the search gates of the pairs ``parent + appended[r]``.  Rows
    that are not one parent's extensions, such as insertions and deletions,
    each list their whole sequence under an empty parent.
    """

    phase: str
    parent: tuple[tuple[int, int], ...]
    appended: list[tuple[tuple[int, int], ...]]
    kl_ct1: np.ndarray
    kl_ct2: np.ndarray
    total: np.ndarray

    def lengths(self) -> np.ndarray:
        return len(self.parent) + np.fromiter(map(len, self.appended), dtype=np.intp, count=len(self.appended))

    def entry(self, row: int) -> HistoryEntry:
        gates = tuple(map(gate_for_pair, self.parent + self.appended[row]))
        cost = CostReport.from_parts(float(self.kl_ct1[row]), float(self.kl_ct2[row]))
        return HistoryEntry(Topology(gates), cost, self.phase)

    def best(self) -> HistoryEntry:
        """The row with the lowest total; the first one wins ties."""
        return self.entry(int(np.argmin(self.total)))


class History:
    """Every scored topology of a search, one :class:`Batch` per scored batch.

    It reads as a sequence of :class:`HistoryEntry` (``len``, iteration and
    integer indexing), each built on demand.
    """

    def __init__(self):
        self.batches: list[Batch] = []

    def add(self, phase: str, parent, divergences, appended) -> Batch:
        """Record a batch of the rows ``parent + appended[r]``, sequences of (control, target)
        pairs, from their (kl_ct1, kl_ct2) arrays, as ``_score`` returns them."""
        kl_ct1, kl_ct2 = (np.asarray(kl, dtype=np.float64) for kl in divergences)
        batch = Batch(phase, tuple(parent), appended, kl_ct1, kl_ct2, kl_ct1 + kl_ct2)
        self.batches.append(batch)
        return batch

    def totals(self) -> np.ndarray:
        return np.concatenate([b.total for b in self.batches])

    def __len__(self) -> int:
        return sum(len(b.total) for b in self.batches)

    def __iter__(self):
        return (batch.entry(row) for batch in self.batches for row in range(len(batch.total)))

    def __getitem__(self, index: int) -> HistoryEntry:
        index = range(len(self))[index]  # a negative index counts from the end; IndexError past it
        for batch in self.batches:
            if index < len(batch.total):
                return batch.entry(index)
            index -= len(batch.total)


@dataclass(eq=False, repr=False)
class SearchResult:
    """The best topology a search found, its cost and every topology it scored."""

    topology: Topology
    cost: CostReport
    history: History

    @property
    def evaluations(self) -> int:
        """The number of topologies the search scored, one per history entry."""
        return len(self.history)


@lru_cache(maxsize=None)
def gate_for_pair(pair: tuple[int, int]) -> GateSpec:
    """The CRX gate of a (control, target) pair at ``SEARCH_ANGLE``."""
    control, target = pair
    return GateSpec("CRX", target, control, SEARCH_ANGLE)


def _pairs(gates: tuple[GateSpec, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((g.control, g.target) for g in gates)


def _unused(gates: tuple[GateSpec, ...], cands: CandidateSet) -> list[tuple[int, int]]:
    used = set(_pairs(gates))
    return [p for p in cands.pairs if p not in used]


def _stack_rows(kernel) -> int:
    """The number of states in a stack of at most ``_STACK_BYTES``, at least one."""
    return max(1, _STACK_BYTES // (16 << kernel.n))


def _score(kernel, items) -> tuple[np.ndarray, np.ndarray]:
    """(kl_ct1, kl_ct2) of the rows of ``items`` in order, the one scoring call behind every search
    row.  An item is a (k, 2**n) stack of final states, or an extension triple (states, parents,
    pairs) whose row r, row ``parents[r]`` of ``states`` followed by the search gate of ``pairs[r]``,
    is built here, in stacks of at most ``_STACK_BYTES``."""
    step, parts = _stack_rows(kernel), []
    for item in items:
        if isinstance(item, tuple):
            states, parents, pairs = item
            parts += [kernel.divergences(kernel.extend(states, parents[i : i + step], pairs[i : i + step]))
                      for i in range(0, len(parents), step)]
        else:
            parts.append(kernel.divergences(item))
    return tuple(np.concatenate([part[r] for part in parts] or [np.empty(0)]) for r in range(2))


def _permutations(kernel, state: np.ndarray, pairs: list[tuple[int, int]], depth: int):
    """The final state ``state`` followed by each ordered ``depth``-tuple of ``pairs``'
    search gates, in ``itertools.permutations(pairs, depth)`` order, as ``_score`` items.  The
    prefix tree is walked breadth first, so each prefix gate is applied once for every tuple below it."""
    if depth == 0:
        return [state]
    return _walk(kernel, state, np.array(pairs, dtype=np.intp).reshape(-1, 2), np.arange(len(pairs))[None], depth)


def _walk(kernel, states: np.ndarray, table: np.ndarray, unused: np.ndarray, depth: int):
    """The leaves of the ``depth`` levels of the prefix tree below the nodes ``states``, node r
    followed in turn by each pair of ``table`` that row r of ``unused`` indexes, as ``_score``'s
    extension triples.  Children are listed node by node, which keeps the order of
    ``itertools.permutations``.  An inner level that would outgrow ``_STACK_BYTES`` is walked in
    groups of nodes, one group at a time, down to a single node."""
    nodes, width = unused.shape
    parents, pairs = np.repeat(np.arange(nodes), width), table[unused.reshape(-1)]
    if depth == 1:
        yield states, parents, pairs
    elif nodes > 1 and nodes * width > _stack_rows(kernel):
        group = max(1, _stack_rows(kernel) // width)
        for i in range(0, nodes, group):
            yield from _walk(kernel, states[i : i + group], table, unused[i : i + group], depth)
    else:
        # Child (r, j) keeps row r of unused without its column j.
        rest = np.broadcast_to(unused[:, None, :], (nodes, width, width))[:, ~np.eye(width, dtype=bool)]
        children = kernel.extend(states, parents, pairs)
        yield from _walk(kernel, children, table, rest.reshape(nodes * width, width - 1), depth - 1)


def _insertions(kernel, gates: tuple[GateSpec, ...], table: np.ndarray):
    """Each pair of ``table`` inserted at each position of ``gates``, pair-major, as
    stacks of whole pairs under ``_STACK_BYTES``.  A block is built position-major,
    so gate j follows its leading rows (positions 0..j), and is then reordered."""
    positions = len(gates) + 1
    prefixes = kernel.prefixes(gates)
    step = max(1, _stack_rows(kernel) // positions)
    for pairs in np.split(table, range(step, len(table), step)):
        block = kernel.extend(prefixes, np.repeat(np.arange(positions), len(pairs)), np.tile(pairs, (positions, 1)))
        for j, gate in enumerate(gates):
            kernel.apply(block[: (j + 1) * len(pairs)], gate)
        yield block.reshape(positions, len(pairs), -1).swapaxes(0, 1).reshape(len(block), -1)


def _deletions(kernel, phase: str, pairs: tuple[tuple[int, int], ...], history: History) -> Batch:
    """Score every single-gate removal from the pair sequence ``pairs`` as one
    ``phase`` batch of whole shortened sequences added to ``history``."""
    shorter = [pairs[:r] + pairs[r + 1 :] for r in range(len(pairs))]
    return history.add(phase, (), _score(kernel, [kernel.deletions(tuple(map(gate_for_pair, pairs)))]), shorter)


def best_insertion(problem: Problem, seq: Topology, cands: CandidateSet, history: History) -> Batch | None:
    """Score every (unused gate, position) insertion into ``seq``, a sequence of
    search gates, as one "insertion" batch added to ``history``; None when every
    candidate is used.

    Each row is its whole sequence of pairs under an empty parent.  Rows run
    in candidate order, then by insertion index, so the batch's first lowest
    row breaks ties by candidate order, then by the lower index.
    """
    unused = _unused(seq.gates, cands)
    if not unused:
        return None
    divergences = _score(problem.kernel, _insertions(problem.kernel, seq.gates, np.array(unused, dtype=np.intp)))
    held = _pairs(seq.gates)
    appended = [held[:pos] + (pair,) + held[pos:] for pair in unused for pos in range(len(seq) + 1)]
    return history.add("insertion", (), divergences, appended)


def best_permutation_addition(
    problem: Problem, seq: Topology, cands: CandidateSet, n: int, history: History
) -> Batch | None:
    """Score every ordered n-tuple of unused gates appended to ``seq`` as one
    "addition" batch added to ``history``; None with fewer than n unused candidates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    unused = _unused(seq.gates, cands)
    if len(unused) < n:
        return None
    divergences = _score(problem.kernel, _permutations(problem.kernel, problem.kernel.run(seq.gates), unused, n))
    return history.add("addition", _pairs(seq.gates), divergences, list(itertools.permutations(unused, n)))


def best_deletion(problem: Problem, seq: Topology, history: History) -> Batch | None:
    """Score every single-gate removal from ``seq``, a sequence of search gates, as one
    "deletion" batch of whole shortened sequences added to ``history``; None on an empty sequence."""
    if len(seq) == 0:
        return None
    return _deletions(problem.kernel, "deletion", _pairs(seq.gates), history)


def local_search(problem: Problem, cands: CandidateSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Iterative local search: insertion, n-wise addition, deletion until stable.

    Each step takes the first lowest row of its batch.  Insertions and
    additions must beat the incumbent by more than kl_tol; deletions by more
    than eps_prune.  A step whose rows would be longer than max_depth is not
    scored, as none of them could be taken.  Improvements are adopted
    immediately and the loop ends after a full pass without change.  The
    history holds the empty baseline and every batch the steps scored.
    """
    cfg = cfg or SearchConfig()
    history = History()
    best = history.add("baseline", (), _score(problem.kernel, [problem.kernel.start()]), [()]).best()
    # Each step: its batch, the gates it adds to the incumbent and the margin its best row must win by.
    steps = (
        (lambda seq: best_insertion(problem, seq, cands, history), 1, cfg.kl_tol),
        (lambda seq: best_permutation_addition(problem, seq, cands, cfg.n_choose, history), cfg.n_choose, cfg.kl_tol),
        (lambda seq: best_deletion(problem, seq, history), -1, cfg.eps_prune),
    )
    improved = True
    while improved:
        improved = False
        for step, growth, tol in steps:
            if len(best.topology) + growth > cfg.max_depth:
                continue
            batch = step(best.topology)
            if batch is None:
                continue
            move = batch.best()
            if move.cost.total < best.cost.total - tol:
                best, improved = move, True
    return SearchResult(best.topology, best.cost, history)


def occam_select(history: History, kl_tol: float) -> int:
    """Index of the most parsimonious history entry: scanning by ascending length,
    a longer sequence only displaces the incumbent when it wins by more than kl_tol."""
    if not len(history):
        raise ValueError("history is empty")
    totals = history.totals().tolist()
    order = np.argsort(np.concatenate([batch.lengths() for batch in history.batches]), kind="stable").tolist()
    incumbent = order[0]
    for i in order[1:]:
        if totals[i] < totals[incumbent] - kl_tol:
            incumbent = i
    return incumbent


def _greedy_forward(kernel, pairs: list[tuple[int, int]], firsts: np.ndarray, base: float,
                    max_depth: int) -> tuple[list[History], list[tuple]]:
    """Grow one greedy path from the empty sequence, of total ``base``, for each index of
    ``firsts`` into the candidate ``pairs``: its first step ("epoch-start") may append only
    that candidate, each later one ("forward") any unused one.  A step appends its best row
    while that lowers the path's total, up to ``max_depth`` gates.

    A path reads only its own gates and state, so the paths grow in lockstep: each depth
    scores the rows of every growing path together.  Returns each path's history and its
    final (pairs, total).
    """
    table = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    histories = [History() for _ in firsts]
    paths = [((), base)] * len(firsts)
    used = np.arange(len(pairs)) != firsts[:, None]
    growing = np.arange(len(firsts))
    states = kernel.start(len(firsts))
    for depth in range(max_depth):
        counts = (~used[growing]).sum(axis=1)
        growing, states, counts = growing[counts > 0], states[counts > 0], counts[counts > 0]
        if not len(growing):
            break
        rows, cols = np.nonzero(~used[growing])
        kl_ct1, kl_ct2 = _score(kernel, [(states, rows, table[cols])])
        kept, picked = [], []
        phase = "forward" if depth else "epoch-start"
        for row, (path, end, count) in enumerate(zip(growing.tolist(), np.cumsum(counts).tolist(), counts.tolist())):
            block = slice(end - count, end)
            held, path_total = paths[path]
            appended = [(pairs[c],) for c in cols[block].tolist()]
            batch = histories[path].add(phase, held, (kl_ct1[block], kl_ct2[block]), appended)
            i = int(np.argmin(batch.total))
            if batch.total[i] >= path_total:
                continue
            paths[path] = held + appended[i], float(batch.total[i])
            kept.append(row)
            picked.append(cols[end - count + i])
        if not depth:  # a started path has used its first candidate only
            used = ~used
        growing = growing[kept]
        used[growing, picked] = True
        states = kernel.extend(states, kept, table[picked])
    return histories, paths


def _greedy_removal(kernel, pairs: tuple[tuple[int, int], ...], total: float, delta: float, history: History) -> float:
    """Remove the best search gate of ``pairs`` while that lowers the total by more than
    ``delta``; the final total.  Each "refine" row is a whole shortened sequence."""
    while pairs:
        batch = _deletions(kernel, "refine", pairs, history)
        i = int(np.argmin(batch.total))
        if batch.total[i] >= total - delta:
            break
        pairs, total = batch.appended[i], float(batch.total[i])
    return total


def multi_epoch(problem: Problem, cands: CandidateSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Shuffled-restart greedy construction with parsimony-based final selection.

    Each epoch grows a sequence from one shuffled candidate (only when
    that start already beats the empty baseline), refines new champions
    backwards with margin 0.3 * kl_tol, and finally picks the shortest
    history entry whose cost is not beaten by more than kl_tol.  The epochs
    grow in lockstep (``_greedy_forward``) and are then replayed in order
    into the history, refining each new champion.
    """
    cfg = cfg or SearchConfig()
    kernel = problem.kernel
    history = History()
    base = float(history.add("baseline", (), _score(kernel, [kernel.start()]), [()]).total[0])
    rng = np.random.default_rng(cfg.shuffle_seed)
    order = rng.permutation(len(cands.pairs))
    epochs = min(cfg.n_epochs or len(cands.pairs), len(cands.pairs))
    best = base
    # A start that does not beat the baseline (a NaN start does) leaves its epoch empty, which refines nothing.
    for epoch, (path, path_total) in zip(*_greedy_forward(kernel, cands.pairs, order[:epochs], base, cfg.max_depth)):
        history.batches += epoch.batches
        if path_total < best:
            best = _greedy_removal(kernel, path, path_total, REFINE_FRACTION * cfg.kl_tol, history)
    chosen = history[occam_select(history, cfg.kl_tol)]
    return SearchResult(chosen.topology, chosen.cost, history)


# --- QUBO-based selection -------------------------------------------------


# Cost values are snapped to this dyadic grid before QUBO compilation.  While
# |Q| sums to under 2^53 grid units, every sum of Q entries is an exact double
# in any order, so Q_ii + Q_jj + Q_ij + baseline reproduces min(M_ij, M_ji) bit
# for bit, and so does an energy updated flip by flip.  The spacing (2^-40 ~
# 9e-13) is far below both the search tolerance and the noise of the cost.
_GRID = float(1 << 40)


@dataclass(eq=False, repr=False)
class QuboProblem:
    """Symmetric QUBO matrix with the baseline cost and non-finite penalty.

    Q must lie on the 2^-40 grid with |Q| under 2^53 units, or the constructor
    raises ``ValueError``.  ``kl_matrix`` keeps the (grid-snapped) pairwise
    cost matrix the QUBO was compiled from, so the algebraic relation between
    Q entries and pair costs stays checkable on the instance itself.
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
        units = self.q * _GRID
        if not np.array_equal(units, np.round(units)):
            raise ValueError("QUBO entries must be whole multiples of 2^-40")
        total = float(np.abs(units).sum())
        if total >= 2.0**53:
            raise ValueError(f"|Q| sums to 2^{math.log2(total):.1f} grid units of 2^-40; "
                             "QUBO energies are exact only below 2^53")


def build_kl_matrix(problem: Problem, cands: CandidateSet, history: History) -> np.ndarray:
    """Pairwise cost matrix: diagonal = single-gate cost, (i, j) = G_i then G_j.

    Its rows are added to ``history`` as two "pairwise" batches: the single
    gates, then the ordered pairs in row-major order.
    """
    kernel = problem.kernel
    diagonal = np.eye(len(cands.pairs), dtype=bool)
    m = np.empty(diagonal.shape, dtype=np.float64)
    # The depth-1 and depth-2 prefix walks: row-major order over each mask's cells.
    for depth, cells in ((1, diagonal), (2, ~diagonal)):
        divergences = _score(kernel, _permutations(kernel, kernel.start(), cands.pairs, depth))
        m[cells] = history.add("pairwise", (), divergences, list(itertools.permutations(cands.pairs, depth))).total
    return m


def build_qubo(m: np.ndarray, baseline: float) -> QuboProblem:
    """Compile the pairwise cost matrix into a QUBO.

    Q_ii = M_ii - L0; for i < j the coupling uses the cheaper ordering:
    Q_ij = (min(M_ij, M_ji) - L0) - Q_ii - Q_jj.  All inputs are first
    snapped to a fixed dyadic grid and the algebra done in whole grid
    units, which keeps the identity Q_ii + Q_jj + Q_ij + L0 = min(M_ij,
    M_ji) exact in double arithmetic.  A non-finite ordering (NaN or
    +-inf) gives way to the other one; a pair with no finite ordering, and
    every pair of a gate with a non-finite diagonal, gets a penalty of 10x
    the largest finite magnitude.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("cost matrix must be square")
    if not math.isfinite(baseline):
        raise ValueError("baseline cost must be finite")
    units = np.round(m * _GRID)
    base = float(np.round(baseline * _GRID))
    diag = np.diag(units) - base
    with np.errstate(invalid="ignore"):  # inf - inf where a diagonal is infinite
        q = np.fmin(units, units.T) - base - diag[:, None] - diag[None, :]
    np.fill_diagonal(q, diag)
    q /= _GRID
    finite = np.isfinite(q)
    max_abs = float(np.abs(q[finite]).max(initial=0.0))
    penalty = 10.0 * max_abs if max_abs > 0 else 1.0
    q[~finite] = penalty
    return QuboProblem(size=len(q), q=q, baseline=base / _GRID, penalty=penalty, kl_matrix=units / _GRID)


def _split(qp: QuboProblem) -> tuple[np.ndarray, np.ndarray]:
    """Q's diagonal and its off-diagonal part."""
    diag = np.diag(qp.q)
    return diag, qp.q - np.diag(diag)


def qubo_energy(qp: QuboProblem, x: np.ndarray) -> float:
    """E(x) = sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j."""
    x = np.asarray(x, dtype=np.float64)
    diag, off = _split(qp)
    return float(x @ diag + 0.5 * x @ off @ x)


def _bits(indices, n: int) -> np.ndarray:
    """The 0/1 assignment x of an int index of any width, or of each in an int64 array: bit i is x_i."""
    if isinstance(indices, int):
        return np.array([indices >> i & 1 for i in range(n)], dtype=np.int64)
    return (indices[..., None] >> np.arange(n) & 1).astype(np.int64)


def _energy_blocks(qp: QuboProblem):
    """The row-major table of E(x) over every assignment, as (first index, block) pairs
    of row blocks of at most ``_STACK_BYTES``.

    Entry [h, l] is assignment h * 2**a + l, whose a = ceil(n/2) low bits are l:
    E = E_high(h) + E_low(l) + h.C.l, with C the high-by-low block of Q off its
    diagonal.  On ``QuboProblem``'s grid every partial sum is exact, in any order.
    """
    a = (qp.size + 1) // 2
    diag, off = _split(qp)
    low, high = (_bits(np.arange(1 << k), k).astype(np.float64) for k in (a, qp.size - a))
    e_low, e_high = (bits @ diag[part] + 0.5 * (bits @ off[part, part] * bits).sum(axis=1)
                     for bits, part in ((low, slice(a)), (high, slice(a, None))))
    cross, rows = off[a:, :a] @ low.T, max(1, _STACK_BYTES // (8 << a))
    for start in range(0, len(high), rows):
        yield start << a, e_high[start : start + rows, None] + e_low + high[start : start + rows] @ cross


def _check_solver(mode: str, size: int, top_k: int = 1, modes=("exact", "annealing", "vqe", "qaoa")) -> None:
    """The checks of every QUBO solver entry, made before any work: a known
    ``mode``, a ``top_k`` of at least 1 where the mode returns the top k, and
    the mode's cap on the number of variables (the candidates)."""
    if mode not in modes:
        raise ValueError(f"unknown solver mode {mode!r}")
    if mode != "exact" and top_k < 1:
        raise ValueError("top_k must be >= 1")
    if mode == "exact" and size > EXACT_SOLVER_MAX_VARS:
        raise ValueError(f"exact solver is capped at {EXACT_SOLVER_MAX_VARS} variables, got {size} candidates")
    if mode in ("vqe", "qaoa") and size > VARIATIONAL_MAX_VARS:
        raise ValueError(f"variational solvers are capped at {VARIATIONAL_MAX_VARS} variables, got {size} candidates")


def solve_qubo_exact(qp: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over all assignments (<= 22 variables).

    Energy ties resolve to the assignment with the smallest integer value
    (bit i of the integer is x_i).
    """
    _check_solver("exact", qp.size)
    best = (math.inf, 0)
    for first, block in _energy_blocks(qp):  # a later block wins only with a lower energy
        local = int(np.argmin(block))
        best = min(best, (float(block.flat[local]), first + local))
    return _bits(best[1], qp.size), best[0]


def _anneal(qp: QuboProblem, seed: int, restarts: int, sweeps: int) -> dict[int, float]:
    """Energy of each assignment index visited by restarted single-flip annealing.

    A flip's energy change is read from the fields h = diag + off @ x, which
    each accepted flip updates.  ``QuboProblem`` keeps Q on a grid where every
    sum is exact, so the fields and the running energy equal a fresh
    ``qubo_energy`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    n = qp.size
    diag, off = _split(qp)
    scale = max(1.0, float(np.abs(qp.q).max()))
    t_hot, t_cold = 2.0 * scale, 1e-3 * scale
    seen: dict[int, float] = {}
    for _ in range(restarts):
        x = rng.integers(0, 2, size=n)
        index = sum(1 << i for i in np.flatnonzero(x).tolist())
        energy = qubo_energy(qp, x)
        fields = diag + off @ x
        seen.setdefault(index, energy)
        for sweep in range(sweeps):
            frac = sweep / max(sweeps - 1, 1)
            temp = t_hot * (t_cold / t_hot) ** frac
            for i in rng.permutation(n).tolist():
                delta = -fields[i] if index >> i & 1 else fields[i]
                if delta < 0 or rng.random() < math.exp(-delta / temp):
                    index ^= 1 << i
                    energy += delta
                    if index >> i & 1:
                        fields += off[i]
                    else:
                        fields -= off[i]
                    seen.setdefault(index, energy)
    return seen


def _vqe_gates(n: int) -> tuple[GateSpec, ...]:
    """Two entangling layers of RY rotations + CNOT chains, plus a final RY layer.

    Rotation i of the tuple takes parameter i; the angles here are placeholders.
    """
    ry = tuple(GateSpec(kind="RY", target=i, angle=0.0) for i in range(n))
    chain = tuple(GateSpec(kind="CNOT", target=i + 1, control=i) for i in range(n - 1))
    return ry + chain + ry + chain + ry


def _vqe_sweep(n: int, energies: np.ndarray) -> _kernel.Sweep:
    """One VQE solve's sweep: energies (S,), gradients (S, 3n) and states (S, 2**n) at (S, 3n) parameters."""
    weigh = lambda states: ((np.abs(states) ** 2 * energies).sum(axis=1), energies)
    return _kernel.Sweep(n, _vqe_gates(n), np.eye(1, 1 << n), weigh)


@lru_cache(maxsize=None)
def _walsh(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The set bits |k| of each basis index k, and the Sylvester factors W_a, W_b
    (a = ceil(n/2)) of the Walsh-Hadamard transform W = W_a (x) W_b, entries
    (-1)^|j & k|.  W^2 = 2^n I and W X_i W = 2^n Z_i, so sum_i X_i is
    W diag(n - 2|k|) W / 2^n.  Read-only, as every caller shares them."""
    ones = _bits(np.arange(1 << n), n).sum(axis=1)
    arrays = [ones] + [(1.0 - 2.0 * (ones[index[:, None] & index] % 2)).astype(np.complex128)
                       for index in (np.arange(1 << (n + 1) // 2), np.arange(1 << n // 2))]
    for array in arrays:
        array.flags.writeable = False
    return tuple(arrays)


def _walsh_hadamard(states: np.ndarray, n: int, beta: np.ndarray | None = None) -> np.ndarray:
    """W of each state in a stack, as W_a @ psi @ W_b on each state shaped (2^a, 2^b); with
    ``beta``, of each state times its row's mixer phases exp(-i beta (n - 2|k|)) / 2^n."""
    ones, wa, wb = _walsh(n)
    if beta is not None:
        states = states * (np.exp(-1j * beta[..., None] * (n - 2.0 * np.arange(n + 1))) / (1 << n))[..., ones]
    return (wa @ states.reshape(states.shape[:-1] + (len(wa), len(wb))) @ wb).reshape(states.shape)


def _qaoa_state(params: np.ndarray, n: int, energies: np.ndarray, phases: list | None = None) -> np.ndarray:
    """Amplitudes of the depth-2 alternating cost/mixer circuit, at (4,) or (S, 4) parameters;
    ``phases``, when given, gets the phases exp(-i gamma_l E) of each cost layer.

    Layer l applies exp(-i gamma_l H), then RX(2 beta_l) on every qubit, with
    (gamma_l, beta_l) = params[2l : 2l + 2].  The cost layer is diagonal in
    the computational basis, so it is applied as one phase per basis state,
    exp(-i gamma E(x)).  That equals the gate-level RZ/CNOT-RZ-CNOT circuit on
    the Ising image of the QUBO up to a global phase (Farhi, Goldstone &
    Gutmann, 2014).  The mixer is one phase in the Walsh-Hadamard basis.
    """
    psi = np.full(params.shape[:-1] + (1 << n,), 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    phases = [] if phases is None else phases
    for layer in range(2):
        phases.append(np.exp(-1j * params[..., 2 * layer, None] * energies))
        psi = _walsh_hadamard(_walsh_hadamard(psi * phases[-1], n), n, params[..., 2 * layer + 1])
    return psi


def _qaoa_gradients(params: np.ndarray, n: int, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies (S,) and their exact gradients (S, 4) at an (S, 4) parameter stack.

    The sweep runs back through each layer, reading d/d angle = 2 Im <lambda|G psi>
    for each generator G.  beta's, sum_i X_i = W diag(n - 2|k|) W / 2^n, is
    read and undone between transforms by W; gamma's is the diagonal E, undone
    by the conjugate of the forward pass's phase exp(-i gamma E).
    """
    phases = []
    states = _qaoa_state(params, n, energies, phases)
    costs = (np.abs(states) ** 2 * energies).sum(axis=1)
    pair = np.stack([states, energies * states])  # psi over its cotangent lambda = E * psi
    spectrum = n - 2.0 * _walsh(n)[0]
    grads = np.empty(params.shape)
    for layer in (1, 0):
        pair = _walsh_hadamard(pair, n)
        grads[:, 2 * layer + 1] = 2.0 * (np.conj(pair[1]) * spectrum * pair[0]).imag.sum(axis=1) / (1 << n)
        pair = _walsh_hadamard(pair, n, -params[:, 2 * layer + 1])
        grads[:, 2 * layer] = 2.0 * (np.conj(pair[1]) * energies * pair[0]).imag.sum(axis=1)
        if layer:  # nothing reads the states before the first cost layer
            pair *= np.conj(phases[layer])
    return costs, grads


def _top_k_probable(probs: np.ndarray, energies: np.ndarray, n: int, k: int) -> list[tuple[np.ndarray, float]]:
    """The k most probable assignments; ties break to the lower basis index.

    Probabilities are ranked rounded to 12 decimals, so states of equal
    probability that differ only by rounding keep index order.
    """
    order = np.argsort(-np.round(probs, 12), kind="stable")[:k]
    return [(_bits(i, n), float(energies[i])) for i in order.tolist()]


def solve_qubo_heuristic(qp: QuboProblem, mode: str, seed: int = 0, top_k: int = 4) -> list[tuple[np.ndarray, float]]:
    """Heuristic QUBO solvers.

    ``annealing`` returns the top_k distinct lowest-energy assignments
    found by ``ANNEAL_RESTARTS`` restarts of ``ANNEAL_SWEEPS`` sweeps of
    geometric-schedule simulated annealing.  ``vqe``
    and ``qaoa`` run seeded variational circuits on the statevector
    simulator (capped at 12 variables) and return the top_k most probable
    assignments of the optimized state with their classical energies.
    """
    n = qp.size
    _check_solver(mode, n, top_k, ("annealing", "vqe", "qaoa"))
    if mode == "annealing":
        import heapq  # only this branch uses it, so other runs do not import it
        ranked = heapq.nsmallest(top_k, ((e, i) for i, e in _anneal(qp, seed, ANNEAL_RESTARTS, ANNEAL_SWEEPS).items()))
        return [(_bits(i, n), float(e)) for e, i in ranked]
    energies = np.concatenate([block for _, block in _energy_blocks(qp)], axis=None)
    rng = np.random.default_rng(seed)
    if mode == "vqe":
        n_params = 3 * n
        gradients = _vqe_sweep(n, energies)
        make_state = gradients.run
    else:
        n_params = 4
        make_state = lambda p: _qaoa_state(p, n, energies)
        gradients = lambda p: _qaoa_gradients(p, n, energies)
    starts = np.stack([rng.uniform(-0.2, 0.2, size=n_params) for _ in range(2)])
    ends, final = _kernel.bfgs(gradients, starts)
    best = int(np.argmin(final))
    probs = np.abs(make_state(ends[best : best + 1])[0]) ** 2
    return _top_k_probable(probs, energies, n, top_k)


def order_selected(problem: Problem, gates: list[tuple[int, int]], cfg: SearchConfig | None = None) -> SearchResult:
    """Best ordering of a selected gate set.

    Up to 8 gates every permutation is scored, walked as a prefix tree;
    larger sets delegate to multi_epoch restricted to the set, guarded so
    the result never loses to the identity ordering.
    """
    cfg = cfg or SearchConfig()
    kernel = problem.kernel
    history = History()
    if len(gates) <= 8:
        divergences = _score(kernel, _permutations(kernel, kernel.start(), list(gates), len(gates)))
        best = history.add("ordering", (), divergences, list(itertools.permutations(gates))).best()
        return SearchResult(best.topology, best.cost, history)
    identity = _score(kernel, [kernel.run(tuple(gate_for_pair(p) for p in gates))])
    best = history.add("ordering", (), identity, [tuple(gates)]).best()
    inner = multi_epoch(problem, CandidateSet(pairs=list(gates), threshold_used=0.0), cfg)
    history.batches += inner.history.batches
    if inner.cost.total <= best.cost.total:
        best = inner
    return SearchResult(best.topology, best.cost, history)


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
    _check_solver(solver, len(cands.pairs), top_k)
    cfg = cfg or SearchConfig()
    kernel = problem.kernel
    history = History()
    best = history.add("baseline", (), _score(kernel, [kernel.start()]), [()]).best()
    if cands.pairs:
        qp = build_qubo(build_kl_matrix(problem, cands, history), best.cost.total)
        solutions = [solve_qubo_exact(qp)] if solver == "exact" else solve_qubo_heuristic(qp, solver, seed, top_k)
        for bits, _ in solutions:
            selected = [cands.pairs[i] for i in range(len(cands.pairs)) if bits[i]]
            if not selected:
                continue
            ordered = order_selected(problem, selected, cfg)
            history.batches += ordered.history.batches
            if ordered.cost.total < best.cost.total:
                best = ordered
    return SearchResult(best.topology, best.cost, history)
