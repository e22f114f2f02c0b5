"""Continuous angle optimization and per-gate contribution analysis.

Discrete search fixes every controlled rotation at pi/2; this module
re-optimizes the angle vector with a multi-start BFGS on exact gradients,
then attributes the final KL reduction to individual gates by evaluating
circuit prefixes.

The gradients come from the kernel's adjoint sweep (``Kernel.gradients``),
and every start is scored in one stacked kernel pass per step.  The first
start is the topology's own angles (or a given start); the others are
drawn once from a fixed seed.  theta = 0 is no start, because the encoded
states are real and every angle's first-order effect vanishes there.  Each
end point is wrapped into [0, 4*pi), the period of a CRX angle (CRX at
theta + 2*pi is CRX at theta followed by a Z on the control), and the best
end point is kept only when it beats the first start, so the tuned cost
never exceeds the start's.

``minimize_simplex`` is the derivative-free minimizer of the variational
QUBO solvers in ``search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostReport, Problem, evaluate
from .qsim import GateSpec, RegisterLayout, Topology, ROTATION_KINDS

POLL_STEPS = (0.8, 0.2, 0.05)
IMPROVE_TOL = 1e-6
ANGLE_PERIOD = 4.0 * math.pi
# Starts besides the first, drawn uniformly from [0, 2*pi) with this seed.
RANDOM_STARTS = 7
START_SEED = 0
# BFGS with Armijo backtracking: a start stops when its largest gradient
# entry, the cost drop of an accepted step or its backtracked step falls
# below these, or after MAX_ROUNDS stacked scorings.
ARMIJO = 1e-4
MAX_STEP = math.pi
GRAD_TOL = 1e-6
DROP_TOL = 1e-12
STEP_TOL = 1e-10
MAX_ROUNDS = 300


@dataclass
class AngleVector:
    """Rotation angles, one per gate of a topology; tuning reports them in [0, 4*pi)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("angles must form a 1-D vector")


@dataclass(frozen=True)
class ContributionRow:
    source: str
    target: str
    angle: float
    kl_after_prefix: float
    kl_delta: float
    percent_contribution: float


@dataclass
class ContributionTable:
    baseline_kl: float
    rows: list[ContributionRow]


@dataclass(frozen=True)
class NetworkEdge:
    source: str
    target: str
    angle: float
    edge_class: str


class _BudgetExhausted(Exception):
    pass


class _CountedObjective:
    """Wraps an objective with an evaluation budget and best-point tracking."""

    def __init__(self, fn, max_evals: int):
        self.fn = fn
        self.max_evals = max_evals
        self.evals = 0
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf

    def __call__(self, x: np.ndarray) -> float:
        if self.evals >= self.max_evals:
            raise _BudgetExhausted
        self.evals += 1
        f = float(self.fn(x))
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=np.float64)
        return f


def _nelder_mead(obj: _CountedObjective, x0: np.ndarray, step: float, f_tol: float = 1e-9) -> None:
    """Standard Nelder-Mead descent from x0; best point is tracked by the objective."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = x0.size
    simplex = [np.array(x0, dtype=np.float64)]
    for i in range(n):
        vertex = np.array(x0, dtype=np.float64)
        vertex[i] += step
        simplex.append(vertex)
    values = [obj(v) for v in simplex]
    for _ in range(200 * max(n, 1)):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) < f_tol:
            return
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_r = obj(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_e = obj(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + rho * (simplex[-1] - centroid)
            f_c = obj(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = obj(simplex[i])


def minimize_simplex(
    fn,
    x0: np.ndarray,
    max_evals: int,
    improve_tol: float = IMPROVE_TOL,
    poll_steps: tuple[float, ...] = POLL_STEPS,
    initial_step: float = 0.25,
) -> tuple[np.ndarray, float, int]:
    """Derivative-free minimization: simplex descent with axis-polling restarts.

    Converges when a full polling cycle improves the incumbent by less
    than ``improve_tol``, or when the evaluation budget runs out.
    Returns (best point, best value, evaluations used).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    obj = _CountedObjective(fn, max_evals)
    try:
        obj(x0)
        while True:
            _nelder_mead(obj, obj.best_x, initial_step)
            anchor_f = obj.best_f
            anchor_x = np.array(obj.best_x)
            for step in poll_steps:
                for i in range(x0.size):
                    for sign in (1.0, -1.0):
                        probe = np.array(anchor_x)
                        probe[i] += sign * step
                        obj(probe)
            if obj.best_f >= anchor_f - improve_tol:
                break
    except _BudgetExhausted:
        pass
    return obj.best_x, obj.best_f, obj.evals


def _with_angles(topology: Topology, values: np.ndarray) -> Topology:
    gates = tuple(replace(g, angle=float(a)) for g, a in zip(topology.gates, values))
    return Topology(gates=gates)


def _check_rotations(topology: Topology) -> None:
    for gate in topology:
        if gate.kind not in ROTATION_KINDS:
            raise ValueError(f"cannot tune non-rotation gate {gate.kind}")


def _bfgs(kernel, gates, x: np.ndarray) -> np.ndarray:
    """End points of BFGS runs from each row of an (S, L) start stack, in lockstep.

    Every round scores the trial point of each active start in one
    ``gradients`` call.  A trial is accepted under the Armijo condition;
    otherwise its step is halved for the next round.
    """
    x = x.copy()
    rows, size = x.shape
    f, g = kernel.gradients(gates, x)
    inverse = np.repeat(np.eye(size)[None], rows, axis=0)
    direction = -g
    step = np.ones(rows)
    active = np.ones(rows, dtype=bool)
    for _ in range(MAX_ROUNDS):
        active &= np.abs(g).max(axis=1) >= GRAD_TOL
        act = np.flatnonzero(active)
        if not act.size:
            break
        step[act] = np.minimum(step[act], MAX_STEP / np.abs(direction[act]).max(axis=1))
        trial = x[act] + step[act, None] * direction[act]
        f_trial, g_trial = kernel.gradients(gates, trial)
        slope = (g[act] * direction[act]).sum(axis=1)
        ok = f_trial <= f[act] + ARMIJO * step[act] * slope

        back = act[~ok]
        step[back] /= 2.0
        active[back[step[back] * np.abs(direction[back]).max(axis=1) < STEP_TOL]] = False

        acc = act[ok]
        s, y = trial[ok] - x[acc], g_trial[ok] - g[acc]
        sy = (s * y).sum(axis=1)
        curved = sy > 1e-12  # the curvature condition, with a margin against division by ~0
        if curved.any():
            c = acc[curved]
            rho = 1.0 / sy[curved]
            v = np.eye(size) - rho[:, None, None] * s[curved, :, None] * y[curved, None, :]
            inverse[c] = v @ inverse[c] @ v.transpose(0, 2, 1) + rho[:, None, None] * (
                s[curved, :, None] * s[curved, None, :]
            )
        active[acc[f[acc] - f_trial[ok] < DROP_TOL]] = False
        x[acc], f[acc], g[acc] = trial[ok], f_trial[ok], g_trial[ok]
        direction[acc] = -np.einsum("kij,kj->ki", inverse[acc], g[acc])
        uphill = acc[(direction[acc] * g[acc]).sum(axis=1) >= 0]
        inverse[uphill] = np.eye(size)
        direction[uphill] = -g[uphill]
        step[acc] = 1.0
    return x


def optimize_angles(
    problem: Problem, topology: Topology, start: AngleVector | None = None
) -> tuple[AngleVector, CostReport]:
    """Tune all rotation angles by multi-start BFGS on exact gradients.

    The first start is ``start``, or the topology's own angles when it is
    None; ``RANDOM_STARTS`` more are drawn uniformly from [0, 2*pi).  Each
    start's end point is wrapped into [0, 4*pi).  The wrapped end points and
    the first start itself are scored by the problem's own cost (shots
    included); the lowest wins, the earliest on a tie, with the first start
    listed first.  So the returned angles are wrapped unless the first start
    stands, and the tuned cost never exceeds the first start's.  The
    reported cost is evaluated at exactly the returned angles.
    """
    _check_rotations(topology)
    if len(topology) == 0:
        return AngleVector(values=np.zeros(0)), evaluate(problem, topology)
    if start is None:
        x0 = np.array([g.angle for g in topology], dtype=np.float64)
    else:
        if len(start.values) != len(topology):
            raise ValueError(
                f"start vector has {len(start.values)} angles for {len(topology)} gates"
            )
        x0 = np.asarray(start.values, dtype=np.float64)
    drawn = np.random.default_rng(START_SEED).uniform(0.0, 2.0 * math.pi, (RANDOM_STARTS, len(topology)))
    ends = np.mod(_bfgs(problem.kernel, topology.gates, np.vstack([x0, drawn])), ANGLE_PERIOD)
    points = np.vstack([x0, ends])
    # Scored one topology at a time, the first start gets exactly its evaluate() cost.
    reports = [evaluate(problem, _with_angles(topology, p)) for p in points]
    best = int(np.argmin([r.total for r in reports]))
    return AngleVector(values=points[best]), reports[best]


def _labels(topology: Topology, gene_map: dict[int, str] | None) -> list[tuple[str, str]]:
    def name(q: int) -> str:
        if gene_map is not None:
            try:
                return gene_map[q]
            except KeyError:
                raise ValueError(f"gene map has no entry for qubit {q}") from None
        return f"q{q}"

    out = []
    for gate in topology:
        src = gate.control if gate.control is not None else gate.target
        out.append((name(src), name(gate.target)))
    return out


def percent_of_baseline(delta: float, baseline: float) -> float:
    """Magnitude of one KL step as a percentage of the baseline divergence."""
    return 100.0 * abs(delta) / baseline if baseline > 0 else 0.0


def contribution_analysis(
    problem: Problem,
    topology: Topology,
    angles: AngleVector,
    gene_map: dict[int, str] | None = None,
) -> ContributionTable:
    """Per-gate KL deltas from prefix evaluation at the tuned angles.

    Row i scores the circuit truncated after gate i, read off one running
    state, so the table costs one gate application per row; its delta is the KL
    change versus the previous prefix (row 1 compares to the bare encoded
    state), and the percent column is |delta| / baseline * 100.  The
    deltas telescope to final-minus-baseline by construction.
    """
    if len(angles.values) != len(topology):
        raise ValueError(
            f"got {len(angles.values)} angles for {len(topology)} gates"
        )
    _check_rotations(topology)
    labels = _labels(topology, gene_map)
    kernel = problem.kernel
    state = kernel.start()
    baseline = kernel.reports(state)[0].total
    rows = []
    previous = baseline
    for gate, angle, (src, dst) in zip(topology.gates, angles.values, labels):
        kernel.apply(state, gate, angle)
        kl = kernel.reports(state)[0].total
        delta = kl - previous
        percent = percent_of_baseline(delta, baseline)
        rows.append(
            ContributionRow(
                source=src,
                target=dst,
                angle=float(angle),
                kl_after_prefix=kl,
                kl_delta=delta,
                percent_contribution=percent,
            )
        )
        previous = kl
    return ContributionTable(baseline_kl=baseline, rows=rows)


def export_network(
    topology: Topology,
    angles: AngleVector,
    gene_map: dict[int, str],
    layout: RegisterLayout,
) -> list[NetworkEdge]:
    """Gate list as a gene-level edge list, classed by register membership."""
    if len(angles.values) != len(topology):
        raise ValueError(f"got {len(angles.values)} angles for {len(topology)} gates")
    edges = []
    labels = _labels(topology, gene_map)
    for gate, angle, (src, dst) in zip(topology, angles.values, labels):
        source_q = gate.control if gate.control is not None else gate.target
        in_ct1 = (source_q in layout.ct1_qubits, gate.target in layout.ct1_qubits)
        if all(in_ct1):
            edge_class = "intracellular-ct1"
        elif not any(in_ct1):
            edge_class = "intracellular-ct2"
        else:
            edge_class = "intercellular"
        edges.append(NetworkEdge(source=src, target=dst, angle=float(angle), edge_class=edge_class))
    return edges
