"""Host-speed probe: a fixed piece of work that does not depend on the program.

``python3 qxbench/calibrate.py`` imports numpy, applies controlled
rotations to a 6-qubit state one small slice at a time and scores its
register marginals, then parses a block of CSV text with ``str.split``.
That is the same kind of work as a ``qxtalk run`` process (interpreter
start, small numpy arrays driven from Python, text parsing), and it imports
nothing from ``qxtalk``, so a change to the program cannot change its time.
The benchmark times it next to the pipeline runs to see how fast the shared
host is running at the moment.  It prints a checksum so the work cannot be
skipped.
"""

from __future__ import annotations

import numpy as np

N_QUBITS = 6
GATE_ROUNDS = 5000
CSV_ROWS = 2000
CSV_COLS = 100


def crx(psi: np.ndarray, control: int, target: int, angle: float) -> np.ndarray:
    psi = psi.reshape([2] * N_QUBITS).copy()
    lo = [slice(None)] * N_QUBITS
    hi = [slice(None)] * N_QUBITS
    lo[control] = hi[control] = 1
    lo[target], hi[target] = 0, 1
    lo, hi = tuple(lo), tuple(hi)
    c, s = np.cos(angle / 2), -1j * np.sin(angle / 2)
    a0, a1 = psi[lo], psi[hi]
    psi[lo], psi[hi] = c * a0 + s * a1, s * a0 + c * a1
    return psi.reshape(-1)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    p, q = p + 1e-9, q + 1e-9
    return float(np.sum(p * np.log(p / q)))


def gates() -> float:
    psi = np.full(2**N_QUBITS, 2 ** (-N_QUBITS / 2), dtype=complex)
    target = np.linspace(1.0, 2.0, 2**3)
    target /= target.sum()
    total = 0.0
    for i in range(GATE_ROUNDS):
        control, tgt = i % N_QUBITS, (i + 1 + i // N_QUBITS) % N_QUBITS
        if control == tgt:
            tgt = (tgt + 1) % N_QUBITS
        psi = crx(psi, control, tgt, 0.1 + 0.001 * i)
        probs = (np.abs(psi) ** 2).reshape(2**3, 2**3)
        total += kl(probs.sum(axis=1), target) + kl(probs.sum(axis=0), target)
    return total


def parse() -> int:
    row = ",".join(str((7 * j) % 10) for j in range(CSV_COLS))
    text = "\n".join([row] * CSV_ROWS)
    values = np.array([[int(x) for x in line.split(",")] for line in text.splitlines()])
    return int(values.sum())


if __name__ == "__main__":
    print(f"{gates():.12f} {parse()}")
