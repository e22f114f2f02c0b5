"""Dense statevector simulator for small two-register circuits.

Supports up to 12 qubits with the little-endian convention from
``_bits``: qubit 0 is the least-significant bit of the basis index.
Internally a state is reshaped to ``[2] * n`` so qubit k lives on axis
``n - 1 - k``; gates are applied by slicing that axis, which keeps every
operation a pair of vectorized 2x2 updates.

:func:`apply_gate` is the public reference oracle: it never mutates its
input and checks the norm of every state it returns.  The search, tuning,
ablation and VQE loops run on the internal kernel in ``_kernel``
instead, which applies the same 2x2 updates in place to stacks of raw
amplitude arrays; the equivalence tests compare it against this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ._bits import bitstring_to_index, index_to_bitstring, is_integer
from .ingest import AmplitudeVector, StateHistogram, TargetDistribution

__all__ = [
    "MAX_QUBITS",
    "GateSpec",
    "Topology",
    "RegisterLayout",
    "StateVector",
    "bitstring_to_index",
    "index_to_bitstring",
    "from_amplitudes",
    "tensor",
    "apply_gate",
    "run_circuit",
    "marginal_probabilities",
    "sample_counts",
]

MAX_QUBITS = 12
ROTATION_KINDS = ("CRX", "RX", "RY", "RZ")
CONTROLLED_KINDS = ("CRX", "CNOT")
GATE_KINDS = ("CRX", "CNOT", "RX", "RY", "RZ", "H")

_NORM_TOL = 1e-10


@dataclass(frozen=True, repr=False)
class GateSpec:
    """One gate: kind, optional control qubit, target qubit, optional rotation angle (held as a float)."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in CONTROLLED_KINDS:
            if self.control is None:
                raise ValueError(f"{self.kind} requires a control qubit")
            if self.control == self.target:
                raise ValueError("control and target qubits must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} is a single-qubit gate and takes no control")
        for qubit in (self.target, self.control):
            if qubit is not None and not is_integer(qubit):
                raise ValueError(f"{self.kind} qubit indices must be integers, got {qubit!r}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            if not isinstance(self.angle, Real) or isinstance(self.angle, bool):
                raise ValueError(f"{self.kind} angle must be a real number, got {self.angle!r}")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True, repr=False)
class Topology:
    """A gate sequence, applied first-to-last."""

    gates: tuple[GateSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


@dataclass(frozen=True, repr=False)
class RegisterLayout:
    """Two contiguous registers: CT1 on qubits [0, n_ct1), CT2 on [n_ct1, n_ct1 + n_ct2)."""

    n_ct1: int
    n_ct2: int

    def __post_init__(self):
        if self.n_ct1 <= 0 or self.n_ct2 <= 0:
            raise ValueError("both registers must hold at least one qubit")
        if self.num_qubits > MAX_QUBITS:
            raise ValueError(
                f"layout needs {self.num_qubits} qubits, exceeding the cap of {MAX_QUBITS}"
            )

    @property
    def num_qubits(self) -> int:
        return self.n_ct1 + self.n_ct2

    @property
    def ct1_qubits(self) -> range:
        return range(0, self.n_ct1)

    @property
    def ct2_qubits(self) -> range:
        return range(self.n_ct1, self.n_ct1 + self.n_ct2)


@dataclass(eq=False, repr=False)
class StateVector:
    """Complex amplitudes over 2**num_qubits basis states; unit norm enforced."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"statevector norm {norm} deviates from 1 by more than {_NORM_TOL}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def from_amplitudes(amps: AmplitudeVector) -> StateVector:
    """Promote a real amplitude encoding to a statevector."""
    norm = float(np.linalg.norm(amps.amplitudes))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"amplitude norm {norm} deviates from 1 by more than 1e-9")
    return StateVector(num_qubits=amps.num_qubits, amplitudes=amps.amplitudes.astype(np.complex128))


def tensor(ct1: StateVector, ct2: StateVector, layout: RegisterLayout) -> StateVector:
    """Joint product state with CT1 on the low qubits and CT2 on the high qubits."""
    if ct1.num_qubits != layout.n_ct1 or ct2.num_qubits != layout.n_ct2:
        raise ValueError(
            f"register sizes ({ct1.num_qubits}, {ct2.num_qubits}) do not match layout "
            f"({layout.n_ct1}, {layout.n_ct2})"
        )
    # CT1 occupies the low-order bits, so it is the fast index of the Kronecker product.
    joint = np.kron(ct2.amplitudes, ct1.amplitudes)
    return StateVector(num_qubits=layout.num_qubits, amplitudes=joint)


def _axis(qubit: int, n: int) -> int:
    return n - 1 - qubit


def _take(psi: np.ndarray, fixed: dict[int, int], n: int) -> tuple:
    sel: list[slice | int] = [slice(None)] * n
    for qubit, bit in fixed.items():
        sel[_axis(qubit, n)] = bit
    return tuple(sel)


def _rotation_entries(kind: str, angle: float) -> tuple:
    """Row-major entries of a rotation's 2x2 matrix, as Python scalars."""
    half = angle / 2.0
    return _half_angle_entries(kind, math.cos(half), math.sin(half))


def _half_angle_entries(kind: str, c, s) -> tuple:
    """Row-major entries of a rotation's 2x2 matrix from the cosine and sine of its
    half angle, scalars or arrays alike."""
    if kind in ("RX", "CRX"):
        return c, -1j * s, -1j * s, c
    if kind == "RY":
        return c, -s, s, c
    if kind == "RZ":
        return c - 1j * s, 0.0, 0.0, c + 1j * s
    raise ValueError(f"not a rotation kind: {kind}")


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    return np.array(_rotation_entries(kind, angle), dtype=np.complex128).reshape(2, 2)


_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def _check_qubits(gate: GateSpec, n: int) -> None:
    for qubit in (gate.target, gate.control):
        if qubit is not None and not 0 <= qubit < n:
            raise ValueError(f"gate {gate.kind} addresses qubit {qubit} outside 0..{n - 1}")


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply one gate and return the new statevector (the input is not mutated)."""
    n = state.num_qubits
    _check_qubits(gate, n)
    psi = state.amplitudes.reshape([2] * n).copy()
    if gate.kind == "CNOT":
        lo = _take(psi, {gate.control: 1, gate.target: 0}, n)
        hi = _take(psi, {gate.control: 1, gate.target: 1}, n)
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0
    else:
        m = _H_MATRIX if gate.kind == "H" else _rotation_matrix(gate.kind, gate.angle)
        fixed = {gate.control: 1} if gate.kind == "CRX" else {}
        lo = _take(psi, {**fixed, gate.target: 0}, n)
        hi = _take(psi, {**fixed, gate.target: 1}, n)
        a0, a1 = psi[lo], psi[hi]
        new0 = m[0, 0] * a0 + m[0, 1] * a1
        new1 = m[1, 0] * a0 + m[1, 1] * a1
        psi[lo] = new0
        psi[hi] = new1
    return StateVector(num_qubits=n, amplitudes=psi.reshape(-1))


def run_circuit(initial: StateVector, topology: Topology) -> StateVector:
    """Apply a gate sequence first-to-last."""
    state = initial
    for gate in topology:
        state = apply_gate(state, gate)
    return state


def marginal_probabilities(state: StateVector, qubits) -> TargetDistribution:
    """Measurement distribution over a subset of qubits (ascending order required).

    Bit j of the marginal index is the j-th listed qubit, so a register's
    marginal uses the same indexing as its own amplitude encoding.
    """
    kept = list(qubits)
    n = state.num_qubits
    if not kept:
        raise ValueError("at least one qubit required")
    if any(not 0 <= q < n for q in kept):
        raise ValueError(f"qubit indices {kept} outside 0..{n - 1}")
    if any(b <= a for a, b in zip(kept, kept[1:])):
        raise ValueError("qubit indices must be strictly ascending")
    probs = state.probabilities().reshape([2] * n)
    drop = tuple(_axis(q, n) for q in range(n) if q not in kept)
    if drop:
        probs = probs.sum(axis=drop)
    flat = probs.reshape(-1)
    flat = flat / flat.sum()
    return TargetDistribution(num_qubits=len(kept), probabilities=flat)


def sample_counts(state: StateVector, qubits, nshots: int, seed: int) -> StateHistogram:
    """Histogram of ``nshots`` independent measurement draws from the marginal."""
    if nshots <= 0:
        raise ValueError("nshots must be positive")
    marginal = marginal_probabilities(state, qubits)
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(nshots, marginal.probabilities)
    counts = {
        index_to_bitstring(int(i), marginal.num_qubits): int(c)
        for i, c in enumerate(draws)
        if c > 0
    }
    return StateHistogram(num_genes=marginal.num_qubits, counts=counts)

