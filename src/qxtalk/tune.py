"""Continuous angle optimization and per-gate contribution analysis.

Discrete search fixes every controlled rotation at pi/2; this module
re-optimizes the angle vector with a derivative-free routine (Nelder-Mead
simplex interleaved with axis-aligned polling restarts), then attributes
the final KL reduction to individual gates by evaluating circuit prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostReport, Problem, evaluate
from .qsim import GateSpec, RegisterLayout, Topology, ROTATION_KINDS

POLL_STEPS = (0.8, 0.2, 0.05)
IMPROVE_TOL = 1e-6
EVALS_PER_ANGLE = 500
TWO_PI = 2.0 * math.pi


@dataclass
class AngleVector:
    """Rotation angles, one per gate of a topology, reported in [0, 2*pi)."""

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


def optimize_angles(
    problem: Problem, topology: Topology, start: AngleVector | None = None
) -> tuple[AngleVector, CostReport]:
    """Tune all rotation angles starting from the identity circuit (theta = 0).

    An explicit ``start`` vector replaces the all-zero start (useful for
    polishing a circuit from its current angles).  The returned angles are
    reduced modulo 2*pi and the reported cost is evaluated at exactly the
    returned angles.
    """
    _check_rotations(topology)
    if len(topology) == 0:
        return AngleVector(values=np.zeros(0)), evaluate(problem, topology)
    kernel = problem.kernel

    def objective(theta: np.ndarray) -> float:
        return kernel.reports(kernel.run(topology.gates, theta))[0].total

    if start is None:
        x0 = np.zeros(len(topology))
    else:
        if len(start.values) != len(topology):
            raise ValueError(
                f"start vector has {len(start.values)} angles for {len(topology)} gates"
            )
        x0 = np.asarray(start.values, dtype=np.float64)
    best_x, _, _ = minimize_simplex(objective, x0, max_evals=EVALS_PER_ANGLE * len(topology))
    wrapped = np.mod(best_x, TWO_PI)
    report = evaluate(problem, _with_angles(topology, wrapped))
    return AngleVector(values=wrapped), report


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
