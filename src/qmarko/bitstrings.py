"""Bitstring conventions shared across the package: the one labeller of
basis states and the one recursion that tabulates quadratic forms over
all of them.

A basis-state index encodes qubit 0 in its least-significant bit. The
string form prints qubit 0 first (leftmost), so asset 0 is the first
character: index 1 on three qubits renders as ``"100"``. Only
``basis_label_block`` turns basis-state indices into these labels, as one
ASCII block; ``basis_labels`` splits it into strings and
``index_to_string`` is their one-index case.

One prefix recursion serves sums and phases: combined by addition it
gives the form's values (``quadratic_form_table``), combined by
multiplication over unit phases it gives exp(-i*gamma*value)
(``quadratic_form_phases``) without a complex exponential per entry.
"""

from __future__ import annotations

import numpy as np

# Largest register that may be tabulated or simulated: a 2^24 table of
# float64 is 128 MiB.
MAX_QUBITS = 24


def basis_label_block(indices, num_bits: int, end: bytes) -> bytes:
    """Labels of many basis-state indices (num_bits <= 64) as one ASCII block,
    in one numpy pass: per index, its bits unpacked lowest first and shifted
    to the digits "0"/"1", then ``end``."""
    indices = np.asarray(indices, dtype="<u8").reshape(-1)
    low_bytes = indices.view(np.uint8).reshape(-1, 8)[:, : -(-num_bits // 8)]
    rows = np.empty((indices.size, num_bits + len(end)), dtype=np.uint8)
    np.add(np.unpackbits(low_bytes, axis=1, count=num_bits, bitorder="little"), np.uint8(ord("0")),
           out=rows[:, :num_bits])
    rows[:, num_bits:] = np.frombuffer(end, dtype=np.uint8)
    return rows.tobytes()


def basis_labels(indices, num_bits: int) -> list[str]:
    """Labels of many basis-state indices: their block, decoded once and split once."""
    return basis_label_block(indices, num_bits, b"\n").decode("ascii").splitlines()


def index_to_string(index: int, num_bits: int) -> str:
    return basis_labels([index], num_bits)[0]


def string_to_index(bits: str) -> int:
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def index_to_bits(index: int, num_bits: int) -> np.ndarray:
    return (index >> np.arange(num_bits)) & 1


def _prefix_recursion(quadratic, linear, constant, combine, lift, out=None) -> np.ndarray:
    """lift(x'Qx + b'x + c) for every basis state x, where ``lift`` maps
    sums to ``combine``-products (identity for np.add, x -> exp(-i*gamma*x)
    for np.multiply), so only the lifted coefficients are ever evaluated.

    The table over bits 0..k is ``[T, T o lift(d_k)]``, with ``T`` the
    table over bits 0..k-1, ``o`` = ``combine`` and
    ``d_k(x) = b_k + Q_kk + sum_{j<k} (Q_jk + Q_kj) x_j``; lift(d_k) is
    itself built by doubling, in the half of the table it then fills, so
    the table is the only array of size 2^m. Any storage of Q works (full,
    triangular, non-symmetric). Time is O(2^m); the limit MAX_QUBITS is
    checked before anything of that size is allocated. The table is
    written into ``out`` when given (a 2^m array of the lifted dtype).
    """
    linear = np.asarray(linear, dtype=float)
    m = linear.size
    if m > MAX_QUBITS:
        raise ValueError(f"refusing to tabulate {m} variables (limit {MAX_QUBITS})")
    quadratic = np.asarray(quadratic, dtype=float)
    pair = lift(quadratic + quadratic.T)
    own = lift(linear + np.diagonal(quadratic))
    start = lift(np.float64(constant))
    table = np.empty(1 << m, dtype=start.dtype) if out is None else out
    table[0] = start
    for k in range(m):
        delta = table[1 << k : 2 << k]
        delta[0] = own[k]
        for j in range(k):
            combine(delta[: 1 << j], pair[j, k], out=delta[1 << j : 2 << j])
        combine(table[: 1 << k], delta, out=delta)
    return table


def quadratic_form_table(quadratic, linear, constant: float) -> np.ndarray:
    """x'Qx + b'x + c for every basis state x, indexed as above."""
    return _prefix_recursion(quadratic, linear, constant, np.add, np.asarray)


def quadratic_form_phases(
    quadratic, linear, constant: float, gamma: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-i*gamma*(x'Qx + b'x + c)) for every basis state x, indexed as
    above; written into the complex array ``out`` when given."""
    return _prefix_recursion(
        quadratic, linear, constant, np.multiply, lambda terms: np.exp(-1j * gamma * terms), out
    )
