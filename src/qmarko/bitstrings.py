"""Bitstring conventions shared across the package: the one labeller of
basis states and the one recursion that tabulates quadratic forms over
all of them.

A basis-state index encodes qubit 0 in its least-significant bit. The
string form prints qubit 0 first (leftmost), so asset 0 is the first
character: index 1 on three qubits renders as ``"100"``. Only
``basis_label_block`` turns basis-state indices into these labels, as one
ASCII block; ``index_to_string`` is its one-index case.

One prefix recursion serves sums and phases: combined by addition it
gives the form's values (``quadratic_form_table``), combined by
multiplication over unit phases it gives exp(-i*gamma*value)
(``quadratic_form_phases``) without a complex exponential per entry, and
with any per-bit factor and overall scale folded into its coefficients.
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


def index_to_string(index: int, num_bits: int) -> str:
    return basis_label_block([index], num_bits, b"").decode("ascii")


def string_to_index(bits: str) -> int:
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def index_to_bits(index: int, num_bits: int) -> np.ndarray:
    return (index >> np.arange(num_bits)) & 1


def _bit_terms(quadratic, linear, constant):
    """The form's coefficients as the prefix recursion adds them: (Q + Q',
    b + diag(Q), c) as float64. The limit MAX_QUBITS is checked here, before
    anything of size 2^m is allocated."""
    linear = np.asarray(linear, dtype=float)
    if linear.size > MAX_QUBITS:
        raise ValueError(f"refusing to tabulate {linear.size} variables (limit {MAX_QUBITS})")
    quadratic = np.asarray(quadratic, dtype=float)
    return quadratic + quadratic.T, linear + np.diagonal(quadratic), np.float64(constant)


def _prefix_recursion(pair, own, start, combine, out=None) -> np.ndarray:
    """The ``combine``-product over every basis state x of ``start``,
    ``own[k]`` for each set bit k and ``pair[j, k]`` for each set pair j < k:
    for lifted coefficients (see ``_bit_terms``) this is lift(x'Qx + b'x + c),
    where ``lift`` maps sums to ``combine``-products (identity for np.add,
    x -> exp(-i*gamma*x) for np.multiply), so only the lifted coefficients
    are ever evaluated.

    The table over bits 0..k is ``[T, T o d_k]``, with ``T`` the table over
    bits 0..k-1, ``o`` = ``combine`` and ``d_k(x) = own[k] o (o_{j<k, x_j=1}
    pair[j, k])``; d_k is itself built by doubling, in the half of the table
    it then fills, so the table is the only array of size 2^m. Any storage
    of Q works (full, triangular, non-symmetric). Time is O(2^m). The table
    is written into ``out`` when given (a 2^m array of ``start``'s dtype).
    """
    m = own.size
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
    return _prefix_recursion(*_bit_terms(quadratic, linear, constant), np.add)


def quadratic_form_phases(
    quadratic, linear, constant: float, gamma: float, out: np.ndarray | None = None,
    unit: complex = 1.0, scale: float = 1.0,
) -> np.ndarray:
    """scale * unit**popcount(x) * exp(-i*gamma*(x'Qx + b'x + c)) for every
    basis state x, indexed as above; written into the complex array ``out``
    when given. ``unit`` is folded into each bit's lifted term and ``scale``
    into the lifted constant, so neither costs a pass over the table."""
    pair, own, start = (np.exp(-1j * gamma * terms)
                        for terms in _bit_terms(quadratic, linear, constant))
    return _prefix_recursion(pair, unit * own, scale * start, np.multiply, out)
