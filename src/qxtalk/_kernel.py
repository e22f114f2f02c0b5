"""In-place, batched statevector kernel behind every hot loop.

``qsim.apply_gate`` is the public reference: each call copies the state and
returns a new, validated ``StateVector``.  This module works on raw complex
arrays whose last axis holds the 2**n amplitudes of a state and whose leading
axis stacks k states.  A gate updates every stacked state in place, as one
update ``psi = d * psi + o * flip(psi)`` of its block (the control = 1 half,
or the whole state), with flip reversing the target axis and d and o the
diagonal and off-diagonal entries of its 2x2 matrix; or through per-row
index pairs when each state gets a different CRX.  A rotation may take one
angle per stacked state.  Each amplitude gets the products ``m00 * a0 +
m01 * a1`` of ``apply_gate`` with the same matrix, added in either order,
so a state built here holds the same bits as one built gate by gate with
the reference.  The one exception is where ``apply_gate`` selects single
amplitudes (a one-qubit state, or a controlled gate on two qubits): it then
multiplies numpy scalars, which round differently from numpy's array loops,
and the two agree to within a few ulps.

A :class:`Kernel` binds this to one ``Problem``: its initial state, its
targets smoothed once, and the scoring of a (k, 2**n) stack of final states.
Scoring keeps the arithmetic of ``marginal_probabilities`` and
``kl_divergence``, including the summation order of each KL sum, so a score
does not depend on the batch it was computed in and no tie-break can flip.
``Kernel.sweep`` gives the exact gradient of the cost in every angle of a
stack of angle vectors.  It and the VQE solver (with the energy as the cost)
make one call each to :meth:`_Plan.gradients`, a forward and a reverse sweep
on a plan that a :class:`Sweep` builds once per row count (:class:`_Plan`):
the state and psi/lambda buffers, every numpy call of each gate bound to its
block and flipped-block views and to scratch views, and the rotation entries,
set for a round from one cos and sin of the stacked [theta; -theta], the undo
entries broadcast over the psi/lambda pair.
:func:`bfgs` minimizes such a cost from a stack of starts in lockstep, on
arrays of the active starts only, so a round that accepts every trial
updates them whole.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .cost import DEFAULT_SMOOTHING, CostReport
from .qsim import _H_MATRIX, ROTATION_KINDS, GateSpec, _check_qubits, _half_angle_entries, _rotation_entries

# BFGS with Armijo backtracking: a start stops when its largest gradient
# entry, the cost drop of an accepted step or its backtracked step falls
# below these, or after MAX_ROUNDS stacked scorings.
ARMIJO = 1e-4
MAX_STEP = math.pi
GRAD_TOL = 1e-6
DROP_TOL = 1e-12
STEP_TOL = 1e-10
MAX_ROUNDS = 300
SEARCH_ANGLE = math.pi / 2.0
# A gate's block keeps four axes of the folded amplitude axis (see _fold).
_BLOCK_AXES = 4
_H_ENTRIES = (np.diag(_H_MATRIX), _H_MATRIX[0, 1])  # (d, o), as from rotation()


@lru_cache(maxsize=None)
def _fold(n: int, target: int, control: int | None) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """Shape that folds the amplitude axis around a gate's qubits; selectors of
    its block, of the block flipped on its target axis, and of its halves; and
    the shape that lays a pair of entries along that axis.

    Qubit q is bit q of the amplitude index, so the axis that holds it splits
    the 2**(n-1-q) higher states from the 2**q lower ones.  Folding every
    other qubit into three or five axes keeps the strided views small (an
    uncontrolled gate's fold adds a unit axis, so that every block is 4-D).
    """
    qubits = sorted((target,) if control is None else (target, control), reverse=True)
    shape, width = [], n
    for q in qubits:
        shape += [1 << (width - 1 - q), 2]
        width = q
    shape += [1 << width] if control is not None else [1 << width, 1]
    block: list = [slice(None)] * len(shape)
    if control is not None:
        block[2 * qubits.index(control) + 1] = 1
    axis = 2 * qubits.index(target) + 1
    flip = block[:axis] + [slice(None, None, -1)] + block[axis + 1:]
    axis -= control is not None and control > target  # the target's axis in the block
    along = tuple(2 if i == axis else 1 for i in range(_BLOCK_AXES))
    halves = tuple((Ellipsis, half) + (slice(None),) * (_BLOCK_AXES - 1 - axis) for half in (0, 1))
    return tuple(shape), (Ellipsis, *block), (Ellipsis, *flip), halves, along


def rotation(kind: str, angle) -> tuple:
    """The diagonal and off-diagonal entries (d, o) of a rotation at ``angle``,
    each one value for both target halves or, where they differ (RY's o and
    RZ's d, like H's d), a pair along a new last axis.  A float's entries come
    from ``math``; an array's from one numpy cos and sin (bit for bit ``math``'s
    on common platforms, but not required to be), with four unit axes added.
    """
    if np.ndim(angle) == 0:
        m00, m01, m10, m11 = _rotation_entries(kind, float(angle))
    else:
        half = np.asarray(angle, dtype=np.float64).reshape(np.shape(angle) + (1,) * _BLOCK_AXES) / 2.0
        m00, m01, m10, m11 = _half_angle_entries(kind, np.cos(half), np.sin(half))
    if kind == "RY":
        return m00, np.stack([m01, m10], axis=-1)
    if kind == "RZ":
        return np.stack([m00, m11], axis=-1), m01
    return m00, m01


def _gate(states: np.ndarray, n: int, kind: str, target: int, control: int | None, entries: tuple | None,
          scratch: np.ndarray | None = None) -> list[tuple]:
    """The calls (function, operands) that apply one gate in place to a C-contiguous stack of
    states: ``block = d * block + o * flip`` on its block for a rotation's ``entries`` (d, o) or
    H, with ``o * flip`` in (a view of) ``scratch``; or ``block = flip`` for a CNOT."""
    shape, block, flip, _, along = _fold(n, target, control)
    psi = states.reshape(states.shape[:-1] + shape)
    block, flip = psi[block], psi[flip]
    scratch = np.empty(block.shape, np.complex128) if scratch is None else scratch[: block.size].reshape(block.shape)
    if kind == "CNOT":
        return [(np.copyto, (scratch, flip)), (np.copyto, (block, scratch))]
    d, o = _H_ENTRIES if kind == "H" else entries
    if kind == "RY":  # a pair replaces an array's unit axes, lying along the target axis
        o = o.reshape(o.shape[: -1 - _BLOCK_AXES] + along)
    elif kind in ("RZ", "H"):
        d = d.reshape(d.shape[: -1 - _BLOCK_AXES] + along)
    return [(np.multiply, (o, flip, scratch)), (np.multiply, (d, block, block)), (np.add, (block, scratch, block))]


def apply(states: np.ndarray, n: int, kind: str, target: int, control: int | None = None,
          entries: tuple | None = None) -> None:
    """Apply one gate in place to each n-qubit state stacked in ``states``.

    A rotation's ``entries`` come from :func:`rotation`, at one angle for
    every state or at a (k,) array of one angle per row of a (k, 2**n) stack.
    ``states`` must be C-contiguous, so that its folded view writes through
    to it.  Qubits are not range-checked here.
    """
    if not states.flags.c_contiguous:
        raise ValueError("the kernel updates C-contiguous state arrays only")
    for call, operands in _gate(states, n, kind, target, control, entries):
        call(*operands)


def _smoothed(target) -> np.ndarray:
    """The epsilon-smoothed target of ``kl_divergence``."""
    qv = target.probabilities + DEFAULT_SMOOTHING
    return qv / qv.sum()


def _marginals(probs: np.ndarray, axis: int) -> np.ndarray:
    """Row-normalized register marginals of a (k, 2**n_ct2, 2**n_ct1) probability stack."""
    marg = probs.sum(axis=axis)
    return marg / marg.sum(axis=1, keepdims=True)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_KL(p_i || q) for each row p_i, summed exactly as ``kl_divergence`` sums,
    and the log ratio log(p / q) of every entry (0 where p = 0).

    ``kl_divergence`` adds the terms of p > 0 with ``np.sum``, whose pairwise
    grouping depends on how many terms there are.  Rows are therefore summed
    in groups of equal term count, each row over exactly its own terms.
    """
    mask = p > 0
    ratio = np.log(np.where(mask, p / q, 1.0))
    if mask.all():
        return (p * ratio).sum(axis=1), ratio
    terms = (p * ratio)[mask]
    counts = mask.sum(axis=1)
    starts = np.cumsum(counts) - counts
    out = np.empty(len(p), dtype=np.float64)
    # The distinct counts, ascending; np.unique would import numpy.ma.
    for m in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == m)
        out[rows] = terms[starts[rows][:, None] + np.arange(m)].sum(axis=1)
    return out, ratio


def _bind(call, operands):
    """``call`` on ``operands``, a ufunc's (output last) as views numpy iterates over the fewest axes."""
    if isinstance(call, np.ufunc):
        operands = np.nditer(operands, op_flags=[["readonly"]] * (len(operands) - 1) + [["readwrite"]]).itviews
    return partial(call, *operands)


class _Plan:
    """The sweep plan of one gate sequence over ``rows`` stacked states (see the module notes)."""

    def __init__(self, n: int, gates: tuple, rows: int):
        pair = np.empty((2 * rows, 1 << n), dtype=np.complex128)  # the states psi over their lambda
        self.psi, self.lam = pair[:rows], pair[rows:]
        scratch = np.empty(2 * rows << n, dtype=np.complex128)
        kinds = [g.kind for g in gates if g.kind in ROTATION_KINDS]
        self.grads = np.empty((rows, len(kinds)))
        # Per kind, its columns and the entries (d, o) of its rotations at each sweep and row.
        self.kinds = {kind: ([j for j, k in enumerate(kinds) if k == kind], [np.array(e, dtype=np.complex128) for e in
                             rotation(kind, np.zeros((kinds.count(kind), 2, rows)))]) for kind in set(kinds)}
        self._forward, self._reverse, done = [], [], []  # done: the kinds of the rotations so far
        for gate in gates:
            _check_qubits(gate, n)
            entries, overlap = [None, None], []
            if gate.kind in ROTATION_KINDS:
                i = done.count(gate.kind)
                entries = [tuple(e[i, c] if e.ndim else e for e in self.kinds[gate.kind][1]) for c in (0, 1)]
                shape, block, flip, (lo, hi), _ = _fold(n, gate.target, gate.control)
                psi, lam = pair.reshape((2, rows) + shape)
                terms = scratch[: lam[block].size].reshape(lam[block].shape)
                half = scratch[terms.size: terms.size + terms[lo].size].reshape(terms[lo].shape)
                # l0 a1 + l1 a0 (X), l1 a0 - l0 a1 (Y: Im(-i z) = -Re z) or l0 a0 - l1 a1 (Z), l = conj(lambda)
                op, first, second, part = {"RY": (np.subtract, hi, lo, half.real), "RZ": (
                    np.subtract, lo, hi, half.imag)}.get(gate.kind, (np.add, lo, hi, half.imag))
                overlap = [(np.conjugate, (lam[block], terms)),
                           (np.multiply, (terms, psi[block if gate.kind == "RZ" else flip], terms)),
                           (op, (terms[first], terms[second], half)),
                           (np.add.reduce, (part.reshape(rows, -1), 1, None, self.grads[:, len(done)]))]
                done.append(gate.kind)
            forward, undo = (_gate(stack, n, gate.kind, gate.target, gate.control, e, scratch)
                             for stack, e in zip((self.psi, pair.reshape(2, rows, -1)), entries))
            self._forward += [_bind(*call) for call in forward]
            self._reverse[:0] = [_bind(*call) for call in overlap + undo]

    def fill(self, angles: np.ndarray) -> None:
        """Set every rotation's entries at a (rows, R) stack, one angle column per rotation."""
        stacked = np.stack([angles, -angles]).transpose(2, 0, 1)
        for kind, (columns, entries) in self.kinds.items():
            for entry, value in zip(entries, rotation(kind, stacked[columns])):
                entry[...] = value

    def run(self, initial: np.ndarray, angles: np.ndarray) -> np.ndarray:
        """The final states from ``initial`` at a (rows, R) angle stack, left in ``psi``."""
        self.fill(angles)
        self.psi[...] = initial
        for call in self._forward:
            call()
        return self.psi

    def gradients(self, initial: np.ndarray, angles: np.ndarray, weigh) -> tuple[np.ndarray, np.ndarray]:
        """Costs (rows,) and their adjoint gradients (rows, R) at a (rows, R) angle stack.

        ``weigh`` maps the final states to their costs and the weights w of
        each basis state in the cost (for an energy, w = E), whose cotangents
        are lambda = w * psi.  The derivative in the angle of a gate
        exp(-i theta G) is 2 Im <lambda|G|psi>, read after the gate; the sweep
        back then undoes the gate, at -theta, on psi and lambda alike.  A gate
        without an angle (CNOT, H) is its own inverse.
        """
        costs, w = weigh(self.run(initial, angles))
        np.multiply(w, self.psi, out=self.lam)
        for call in self._reverse:
            call()
        return costs, self.grads.copy()


class Sweep:
    """``value_and_grad`` for one :func:`bfgs` optimization: the costs ``weigh`` gives the
    gates run from ``initial``, and their gradients, at an (S, R) angle stack.  It keeps
    its plans, one per row count, to itself, so optimizations in other threads share
    no buffer; bfgs only drops starts, so S starts make at most S plans."""

    def __init__(self, n: int, gates: tuple, initial: np.ndarray, weigh):
        self._n, self._gates, self._initial, self._weigh = n, gates, initial, weigh
        self._plans: dict[int, _Plan] = {}

    def _plan_for(self, rows: int) -> _Plan:
        if rows not in self._plans:
            self._plans[rows] = _Plan(self._n, self._gates, rows)
        return self._plans[rows]

    def run(self, angles: np.ndarray) -> np.ndarray:
        """The final states at an (S, R) angle stack, in a buffer that this sweep's next call overwrites."""
        return self._plan_for(len(angles)).run(self._initial, angles)

    def __call__(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._plan_for(len(angles)).gradients(self._initial, angles, self._weigh)


def bfgs(value_and_grad, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End points and their costs of BFGS runs from each row of an (S, k) start stack.

    ``value_and_grad`` maps an (m, k) stack to its (m,) costs and (m, k)
    gradients.  The starts move in lockstep: every round scores the trial
    point of each active start in one call.  A trial is accepted under the
    Armijo condition; otherwise its step is halved for the next round.
    """
    ends, x = x.copy(), x.copy()
    rows, size = x.shape
    f, g = value_and_grad(x)
    costs, live, eye = f.copy(), np.arange(rows), np.eye(size)  # live: each active row's start
    inverse, direction, step = np.repeat(eye[None], rows, axis=0), -g, np.ones(rows)
    stop = np.zeros(rows, dtype=bool)
    for _ in range(MAX_ROUNDS):
        keep = ~stop & (np.abs(g).max(axis=1) >= GRAD_TOL)
        if not keep.all():
            ends[live], costs[live] = x, f
            live, x, f, g, inverse, direction, step = (a[keep] for a in (live, x, f, g, inverse, direction, step))
            if not len(live):
                break
        step = np.minimum(step, MAX_STEP / np.abs(direction).max(axis=1))
        trial = x + step[:, None] * direction
        f_trial, g_trial = value_and_grad(trial)
        ok = f_trial <= f + ARMIJO * step * (g * direction).sum(axis=1)
        acc = slice(None) if ok.all() else np.flatnonzero(ok)  # a slice takes no gather
        step[~ok] /= 2.0
        stop = np.where(ok, f - f_trial < DROP_TOL, step * np.abs(direction).max(axis=1) < STEP_TOL)

        s, y = trial - x, g_trial - g
        sy = (s * y).sum(axis=1)
        curved = ok & (sy > 1e-12)  # the curvature condition, with a margin against division by ~0
        if curved.any():
            c = slice(None) if curved.all() else np.flatnonzero(curved)
            rho = 1.0 / sy[c]
            v = eye - rho[:, None, None] * s[c, :, None] * y[c, None, :]
            inverse[c] = v @ inverse[c] @ v.transpose(0, 2, 1) + rho[:, None, None] * (s[c, :, None] * s[c, None, :])
        x[acc], f[acc], g[acc] = trial[acc], f_trial[acc], g_trial[acc]
        direction[acc] = -np.einsum("kij,kj->ki", inverse[acc], g[acc])
        uphill = (direction * g).sum(axis=1) >= 0  # only an accepted start's direction changed
        inverse[uphill] = eye
        direction[uphill] = -g[uphill]
        step[acc] = 1.0
    ends[live], costs[live] = x, f
    return ends, costs


class Kernel:
    """One problem's initial state, smoothed targets, and batched gates and scoring."""

    def __init__(self, problem):
        layout = problem.layout
        self.n = layout.num_qubits
        self._split = (1 << layout.n_ct2, 1 << layout.n_ct1)
        self._initial = problem.initial_state.amplitudes.reshape(1, -1).copy()
        self._targets = (_smoothed(problem.target_ct1), _smoothed(problem.target_ct2))
        self._shots = None if problem.eval_mode == "exact" else (problem.nshots, problem.shots_seed)
        self._pair_table: tuple[np.ndarray, np.ndarray] | None = None
        self.rows_scored = 0  # final states scored by divergences(), over the kernel's life

    def start(self, rows: int = 1) -> np.ndarray:
        """``rows`` copies of the initial state, shape (rows, 2**n)."""
        return np.repeat(self._initial, rows, axis=0)

    def apply(self, states: np.ndarray, gate: GateSpec) -> None:
        """Apply a range-checked gate in place, at its own angle."""
        _check_qubits(gate, self.n)
        entries = rotation(gate.kind, gate.angle) if gate.kind in ROTATION_KINDS else None
        apply(states, self.n, gate.kind, gate.target, gate.control, entries)

    def prefixes(self, gates) -> np.ndarray:
        """Row i of an (L + 1, 2**n) stack: the initial state after the first i gates;
        each gate applied once, to the rows that hold it."""
        states = self.start(len(gates) + 1)
        for i, gate in enumerate(gates):
            self.apply(states[i + 1 :], gate)
        return states

    def run(self, gates) -> np.ndarray:
        """The final state (1, 2**n) of a gate sequence."""
        states = self.start()
        for gate in gates:
            self.apply(states, gate)
        return states

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (n, n, 2**(n-2)): entry [c, t] holds the ascending amplitude
        indices with bit c set and bit t clear, and those with both set."""
        if self._pair_table is None:
            n = self.n
            pairs = np.arange(n)
            control, target = (a.reshape(a.shape + (1,)) for a in np.meshgrid(pairs, pairs, indexing="ij"))
            low, high = np.minimum(control, target), np.maximum(control, target)
            # Insert a clear bit at the lower qubit, then at the higher one, into every
            # (n - 2)-bit index; both steps keep the order, so each row ascends.
            idx = np.arange(1 << max(n - 2, 0))
            idx = (idx >> low << (low + 1)) | (idx & ((1 << low) - 1))
            idx = (idx >> high << (high + 1)) | (idx & ((1 << high) - 1))
            lo = idx | (1 << control)
            self._pair_table = (lo, lo | (1 << target))
        return self._pair_table

    def extend(self, states: np.ndarray, parents, pairs) -> np.ndarray:
        """Row r: row ``parents[r]`` of a (k, 2**n) stack followed by CRX(``SEARCH_ANGLE``)
        on the (control, target) pair ``pairs[r]``, as one gather over every row."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        control, target = pairs.T
        bad = (control == target) | ((pairs < 0) | (pairs >= self.n)).any(axis=1)
        if bad.any():
            c, t = pairs[int(np.argmax(bad))].tolist()
            _check_qubits(GateSpec(kind="CRX", target=t, control=c, angle=0.0), self.n)
        out = states[np.asarray(parents, dtype=np.intp)]
        offset = (np.arange(len(out)) * out.shape[1])[:, None]
        lo, hi = (table[control, target] + offset for table in self._table())
        m00, m01, m10, m11 = _rotation_entries("CRX", SEARCH_ANGLE)
        flat = out.reshape(-1)
        a0, a1 = flat.take(lo), flat.take(hi)
        update = m00 * a0
        update += m01 * a1
        flat.put(lo, update)
        a0 *= m10
        a1 *= m11
        a0 += a1
        flat.put(hi, a0)
        return out

    def deletions(self, gates) -> np.ndarray:
        """Row r: the initial state after every gate of ``gates`` except gate r; row r of
        the prefixes of ``gates[:-1]`` followed by gates r + 1 onwards."""
        states = self.prefixes(gates[:-1])[: len(gates)]
        for j in range(1, len(gates)):
            self.apply(states[:j], gates[j])
        return states

    def _register_marginals(self, states: np.ndarray) -> list[np.ndarray]:
        """The (CT1, CT2) marginals of each final state in a (k, 2**n) stack."""
        probs = (np.abs(states) ** 2).reshape((len(states),) + self._split)
        # CT1 holds the low qubits, the last axis, so its marginal sums axis 1.
        return [_marginals(probs, 1 + offset) for offset in range(2)]

    def divergences(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(kl_ct1, kl_ct2) of each final state in a (k, 2**n) stack."""
        self.rows_scored += len(states)
        out = []
        for offset, (marg, target) in enumerate(zip(self._register_marginals(states), self._targets)):
            if self._shots is not None:
                # Every state is sampled with the problem's fixed seed (CT2: seed + 1), rewound per row.
                nshots, seed = self._shots
                rng = np.random.default_rng(seed + offset)
                seeded = rng.bit_generator.state
                draws = []
                for row in marg:
                    rng.bit_generator.state = seeded
                    draws.append(rng.multinomial(nshots, row))
                marg = np.array(draws) / nshots
            out.append(_kl_rows(marg, target)[0])
        return out[0], out[1]

    def reports(self, states: np.ndarray) -> list[CostReport]:
        kl1, kl2 = self.divergences(states)
        return [CostReport.from_parts(float(a), float(b)) for a, b in zip(kl1, kl2)]

    def sweep(self, gates) -> Sweep:
        """One optimization's exact KL totals (S,), in either eval mode, and their adjoint gradients
        (S, L), weighted by :meth:`_weigh`, at an (S, L) stack of angles for L rotation gates."""
        return Sweep(self.n, gates, self._initial, self._weigh)

    def _weigh(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact KL totals of a (k, 2**n) stack of final states, and the weights
        w = log(p / q) of each register marginal (0 where p = 0) broadcast over the state."""
        (kl1, w1), (kl2, w2) = (_kl_rows(marg, target) for marg, target in
                                zip(self._register_marginals(states), self._targets))
        # CT2 indexes the high bits of an amplitude, CT1 the low ones.
        return kl1 + kl2, (w2[:, :, None] + w1[:, None, :]).reshape(len(states), -1)
