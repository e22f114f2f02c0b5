"""Continuous angle optimization and per-gate contribution analysis.

Discrete search fixes every controlled rotation at pi/2; this module
re-optimizes the angle vector with a multi-start BFGS on exact gradients,
then attributes the final KL reduction to individual gates by evaluating
circuit prefixes.

The gradients come from the kernel's adjoint sweep (``Kernel.sweep``),
and the kernel's lockstep BFGS scores every start in one stacked pass per
round.  The first start is the topology's own angles; the others are drawn
once from a fixed seed.  theta = 0 is no start, because the encoded states
are real and every angle's first-order effect vanishes there.  Each end
point is wrapped into [0, 4*pi), the period of a CRX angle (CRX at
theta + 2*pi is CRX at theta followed by a Z on the control), and the best
end point is kept only when it beats the first start, so the tuned cost
never exceeds the start's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import bfgs
from .cost import CostReport, Problem, evaluate
from .qsim import RegisterLayout, Topology, ROTATION_KINDS

ANGLE_PERIOD = 4.0 * math.pi
# Starts besides the first, drawn uniformly from [0, 2*pi) with this seed.
RANDOM_STARTS = 7
START_SEED = 0


@dataclass(eq=False, repr=False)
class AngleVector:
    """Rotation angles, one per gate of a topology; tuning reports them in [0, 4*pi)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("angles must form a 1-D vector")


@dataclass(frozen=True, eq=False, repr=False)
class ContributionRow:
    """One gate of the tuned circuit, the cost once it is applied and the change it makes."""

    source: str
    target: str
    angle: float
    kl_after_prefix: float
    kl_delta: float
    percent_contribution: float


@dataclass(eq=False, repr=False)
class ContributionTable:
    """The cost of the bare encoded state and one row per gate of the tuned circuit."""

    baseline_kl: float
    rows: list[ContributionRow]


@dataclass(frozen=True, eq=False, repr=False)
class NetworkEdge:
    """One tuned gate read as a directed gene-to-gene edge."""

    source: str
    target: str
    angle: float
    edge_class: str


def _check_rotations(topology: Topology) -> None:
    for gate in topology:
        if gate.kind not in ROTATION_KINDS:
            raise ValueError(f"cannot tune non-rotation gate {gate.kind}")


def optimize_angles(problem: Problem, topology: Topology) -> tuple[AngleVector, CostReport]:
    """Tune all rotation angles by multi-start BFGS on exact gradients.

    The first start is the topology's own angles; ``RANDOM_STARTS`` more
    are drawn uniformly from [0, 2*pi).  Each start's end point is wrapped
    into [0, 4*pi).  The wrapped end points and the first start itself are
    scored by the problem's own cost (shots included); the lowest wins, the
    earliest on a tie, with the first start listed first.  So the returned
    angles are wrapped unless the first start stands, and the tuned cost
    never exceeds the first start's.  The reported cost is the one
    ``evaluate`` gives the topology at exactly the returned angles.
    """
    _check_rotations(topology)
    if len(topology) == 0:
        return AngleVector(values=np.zeros(0)), evaluate(problem, topology)
    x0 = np.array([g.angle for g in topology], dtype=np.float64)
    drawn = np.random.default_rng(START_SEED).uniform(0.0, 2.0 * math.pi, (RANDOM_STARTS, len(topology)))
    kernel = problem.kernel
    ends, _ = bfgs(kernel.sweep(topology.gates), np.vstack([x0, drawn]))
    ends = np.mod(ends, ANGLE_PERIOD)
    points = np.vstack([x0, ends])
    # Each point is run as a 1-D angle vector, with evaluate()'s math cos and sin,
    # and a score does not depend on its batch, so each gets exactly its evaluate() cost.
    reports = kernel.reports(np.concatenate([kernel.run(topology.gates, p) for p in points]))
    best = int(np.argmin([r.total for r in reports]))
    return AngleVector(values=points[best]), reports[best]


def _labels(topology: Topology, gene_map: dict[int, str]) -> list[tuple[str, str]]:
    def name(q: int) -> str:
        try:
            return gene_map[q]
        except KeyError:
            raise ValueError(f"gene map has no entry for qubit {q}") from None

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
    gene_map: dict[int, str],
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
