"""Bitstring conventions shared across the package: the one labeller of
basis states and the one tabulator of quadratic forms over all of them.

A basis-state index encodes qubit 0 in its least-significant bit. The
string form prints qubit 0 first (leftmost), so asset 0 is the first
character: index 1 on three qubits renders as ``"100"``. Only
``basis_labels`` turns basis-state indices into these labels
(``index_to_string`` is its one-index case).
"""

from __future__ import annotations

import numpy as np

# Largest register that may be tabulated or simulated: a 2^24 table of
# float64 is 128 MiB.
MAX_QUBITS = 24


def basis_labels(indices, num_bits: int) -> list[str]:
    """Labels of many basis-state indices (num_bits <= 64) in one numpy pass:
    bits unpacked lowest first, shifted to ASCII digits, decoded once, sliced."""
    indices = np.asarray(indices, dtype="<u8").reshape(-1)
    low_bytes = indices.view(np.uint8).reshape(-1, 8)[:, : -(-num_bits // 8)]
    bits = np.unpackbits(low_bytes, axis=1, bitorder="little")[:, :num_bits]
    text = (bits + np.uint8(ord("0"))).tobytes().decode("ascii")
    return [text[i * num_bits : (i + 1) * num_bits] for i in range(indices.size)]


def index_to_string(index: int, num_bits: int) -> str:
    return basis_labels([index], num_bits)[0]


def string_to_index(bits: str) -> int:
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def index_to_bits(index: int, num_bits: int) -> np.ndarray:
    return (index >> np.arange(num_bits)) & 1


def bits_to_string(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).astype(int))


def string_to_bits(bits: str) -> np.ndarray:
    return index_to_bits(string_to_index(bits), len(bits))


def quadratic_form_table(quadratic, linear, constant: float) -> np.ndarray:
    """x'Qx + b'x + c for every basis state x, indexed as above.

    Built by prefix recursion: the table over bits 0..k is
    ``[T, T + d_k]`` with ``T`` the table over bits 0..k-1 and
    ``d_k(x) = b_k + Q_kk + sum_{j<k} (Q_jk + Q_kj) x_j``, itself built by
    doubling. Any storage of Q works (full, triangular, non-symmetric).
    Time and extra memory are O(2^m); the limit MAX_QUBITS is checked
    before anything of that size is allocated.
    """
    linear = np.asarray(linear, dtype=float)
    m = linear.size
    if m > MAX_QUBITS:
        raise ValueError(f"refusing to tabulate {m} variables (limit {MAX_QUBITS})")
    quadratic = np.asarray(quadratic, dtype=float)
    pair = quadratic + quadratic.T
    table = np.empty(1 << m)
    table[0] = constant
    delta = np.empty(1 << max(m - 1, 0))
    for k in range(m):
        delta[0] = linear[k] + quadratic[k, k]
        for j in range(k):
            np.add(delta[: 1 << j], pair[j, k], out=delta[1 << j : 2 << j])
        np.add(table[: 1 << k], delta[: 1 << k], out=table[1 << k : 2 << k])
    return table
