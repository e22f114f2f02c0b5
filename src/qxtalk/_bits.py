"""Bit-order helpers shared by the encoder and the simulator.

Package-wide convention: qubit k contributes bit k of the basis-state
index, i.e. qubit 0 is the least-significant bit.  Bitstrings are written
qubit-0-first, so character k of a bitstring is the value of qubit k.
"""

from numbers import Integral


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, as a qubit index or a count must be; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def bitstring_to_index(bits: str) -> int:
    """Basis-state index of a bitstring (character k -> bit k of the index)."""
    if not bits:
        raise ValueError("empty bitstring")
    index = 0
    for k, ch in enumerate(bits):
        if ch == "1":
            index |= 1 << k
        elif ch != "0":
            raise ValueError(f"bitstring {bits!r} has invalid character {ch!r} at position {k}")
    return index


def index_to_bitstring(index: int, num_bits: int) -> str:
    """Inverse of :func:`bitstring_to_index` for a register of ``num_bits`` qubits."""
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    if not 0 <= index < (1 << num_bits):
        raise ValueError(f"index {index} out of range for {num_bits} bits")
    return "".join("1" if (index >> k) & 1 else "0" for k in range(num_bits))
