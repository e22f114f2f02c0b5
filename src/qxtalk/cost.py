"""KL-divergence objective for two-register circuit fitting.

The cost of a topology is the sum of the per-register divergences between
the circuit's measurement marginals and the interacting-condition targets:
``D(P_CT1 || Q_CT1) + D(P_CT2 || Q_CT2)`` in natural log.  Targets are
smoothed with a small epsilon before the ratio; zero-probability terms on
the P side contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import TargetDistribution
from .qsim import RegisterLayout, StateVector, Topology

DEFAULT_SMOOTHING = 1e-9
DEFAULT_NSHOTS = 8192
EVAL_MODES = ("exact", "shots")


@dataclass(frozen=True, eq=False, repr=False)
class Problem:
    """Fixed initial state, register layout, targets and evaluation settings, frozen
    so that the cached kernel never goes stale (``dataclasses.replace`` makes another)."""

    initial_state: StateVector
    layout: RegisterLayout
    target_ct1: TargetDistribution
    target_ct2: TargetDistribution
    eval_mode: str = "exact"
    nshots: int = DEFAULT_NSHOTS
    shots_seed: int = 0

    def __post_init__(self):
        if self.initial_state.num_qubits != self.layout.num_qubits:
            raise ValueError(
                f"initial state has {self.initial_state.num_qubits} qubits, layout needs "
                f"{self.layout.num_qubits}"
            )
        if self.target_ct1.num_qubits != self.layout.n_ct1:
            raise ValueError("CT1 target size does not match the CT1 register")
        if self.target_ct2.num_qubits != self.layout.n_ct2:
            raise ValueError("CT2 target size does not match the CT2 register")
        if self.eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
        if self.nshots <= 0:
            raise ValueError("nshots must be positive")

    @cached_property
    def kernel(self):
        """The in-place batched simulation and scoring kernel, built on first use."""
        from ._kernel import Kernel  # the kernel module imports CostReport from here

        return Kernel(self)


@dataclass(frozen=True, repr=False)
class CostReport:
    """Total objective plus its per-register parts (total = kl_ct1 + kl_ct2)."""

    total: float
    kl_ct1: float
    kl_ct2: float

    @classmethod
    def from_parts(cls, kl_ct1: float, kl_ct2: float) -> "CostReport":
        return cls(total=kl_ct1 + kl_ct2, kl_ct1=kl_ct1, kl_ct2=kl_ct2)


def kl_divergence(p: TargetDistribution, q: TargetDistribution) -> float:
    """D_KL(p || q) in natural log, with q smoothed by adding ``DEFAULT_SMOOTHING``
    to every state and renormalizing; p(s)=0 terms contribute 0."""
    if p.num_qubits != q.num_qubits:
        raise ValueError("distributions must cover the same number of qubits")
    pv = p.probabilities
    qv = q.probabilities + DEFAULT_SMOOTHING
    qv = qv / qv.sum()
    mask = pv > 0
    return float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))


def evaluate(problem: Problem, topology: Topology) -> CostReport:
    """Run the circuit and score both register marginals against their targets.

    Shots mode reuses the problem's fixed seed (CT2 uses seed + 1), so the
    cost of a given topology is deterministic for a given problem.  Scoring
    goes through the problem's kernel as a batch of one, the same path every
    batched search phase takes, so a topology gets the same bits either way.
    """
    kernel = problem.kernel
    return kernel.reports(kernel.run(topology))[0]
