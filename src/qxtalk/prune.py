"""Candidate-gate extraction from the mono/co density-matrix difference.

Off-diagonal structure of ``|co><co| - |mono><mono|`` localizes which
single-qubit transitions gained or lost coherence between conditions.
Only elements whose two basis states differ in exactly one bit (the
transition target) propose candidates, so :func:`delta_rho` computes
just those n * 2**n entries, psi_r * conj(psi_c) per state, straight from
the amplitudes.  Every above-threshold entry is turned into
control/target qubit pairs: any other qubit that is set in both states
could have gated the transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import RegisterLayout, StateVector


@dataclass
class CandidateSet:
    """Ordered, de-duplicated (control, target) qubit pairs."""

    pairs: list[tuple[int, int]]
    threshold_used: float

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("candidate pairs must be unique")
        for control, target in self.pairs:
            if control == target:
                raise ValueError(f"degenerate candidate pair ({control}, {target})")

    def __len__(self) -> int:
        return len(self.pairs)


def delta_rho(mono: StateVector, co: StateVector) -> np.ndarray:
    """Single-bit-flip entries of rho_co - rho_mono as a (2**n, n) array.

    Entry [r, t] is the density-matrix element (r, r ^ 2**t).
    """
    if mono.num_qubits != co.num_qubits:
        raise ValueError("states must have equal qubit counts")
    n = co.num_qubits
    flips = np.arange(1 << n)[:, None] ^ (1 << np.arange(n))
    a, b = co.amplitudes, mono.amplitudes
    return a[:, None] * np.conj(a[flips]) - b[:, None] * np.conj(b[flips])


def extract_candidates(dr: np.ndarray, layout: RegisterLayout, threshold: float = 0.01) -> CandidateSet:
    """Scan |dr| > threshold single-bit transitions into candidate (control, target) pairs.

    ``dr`` is :func:`delta_rho`'s (2**n, n) array.  The scan visits row r
    in ascending column r ^ 2**t, the row-major order of the full matrix,
    and keeps first-seen order, which downstream search uses for
    deterministic tie-breaking.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n = layout.num_qubits
    dr = np.asarray(dr)
    if dr.shape != (1 << n, n):
        raise ValueError(f"delta-rho shape {dr.shape} does not match a {n}-qubit layout")
    hot = np.abs(dr) > threshold
    is_set = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    # Row r's columns r ^ 2**t ascend over its set bits t from the highest
    # down (c < r), then over its clear bits from the lowest up (c > r).
    scan = np.hstack([(hot & is_set)[:, ::-1], hot & ~is_set])
    targets = np.r_[np.arange(n)[::-1], np.arange(n)]
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for row, k in np.argwhere(scan):
        r, target = int(row), int(targets[k])
        shared = r & ~(1 << target)
        for control in range(n):
            if (shared >> control) & 1:
                pair = (control, target)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return CandidateSet(pairs=pairs, threshold_used=float(threshold))
