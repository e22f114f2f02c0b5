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


@dataclass(eq=False, repr=False)
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
    if not threshold > 0:  # NaN fails this too
        raise ValueError(f"threshold must be positive, got {threshold}")
    n = layout.num_qubits
    dr = np.asarray(dr)
    if dr.shape != (1 << n, n):
        raise ValueError(f"delta-rho shape {dr.shape} does not match a {n}-qubit layout")
    hot = np.abs(dr) > threshold
    bit = np.arange(n)
    is_set = ((np.arange(1 << n)[:, None] >> bit) & 1).astype(bool)
    # Row r's columns r ^ 2**t ascend over its set bits t from the highest
    # down (c < r), then over its clear bits from the lowest up (c > r).
    rows, cols = np.nonzero(np.hstack([(hot & is_set)[:, ::-1], hot & ~is_set]))
    targets = np.concatenate([bit[::-1], bit])[cols]
    # Hot entry i proposes (c, targets[i]) for every other qubit c set in its row.
    proposes = is_set[rows] & (bit != targets[:, None])
    # first[t, c]: the scan index at which pair (c, t) is first proposed.
    first = np.full((n, n), len(rows))
    for t in range(n):
        entries = np.flatnonzero(targets == t)
        if entries.size:
            hits = proposes[entries]
            first[t] = np.where(hits.any(axis=0), entries[hits.argmax(axis=0)], len(rows))
    target, control = np.nonzero(first < len(rows))
    # Pairs of one hot entry come in ascending control order.
    ranked = sorted(zip(first[target, control].tolist(), control.tolist(), target.tolist()))
    pairs = [(c, t) for _, c, t in ranked]
    return CandidateSet(pairs=pairs, threshold_used=float(threshold))
