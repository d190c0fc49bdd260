"""Dense statevector simulation for diagonal Hamiltonians.

The phase-separation step multiplies amplitudes by exp(-i*gamma*E(x))
over the whole register rather than applying gates one by one. The
phases come from the table's bit form by multiplicative doubling
(``bitstrings.quadratic_form_phases``), one complex exponential per
coefficient rather than per amplitude. Both mixers are tensor powers
of one small real unitary (see the real frame below) and run on one
kernel that applies them as dense block gates, one BLAS matmul per block
of BLOCK_QUBITS qubits. ``qaoa._ansatz`` is the one caller that composes
these kernels into an ansatz.

Amplitude index convention: qubit 0 is the least significant bit (see
``bitstrings``). A frame is another qubit order, ``order[i]`` being the
qubit stored at bit i. The conditional mixer's tensor power needs each
(asset, ancilla) pair on adjacent bits, asset low: the pair frame
(``pair_frame``). ``to_frame`` and ``from_frame`` move per-basis-state
arrays between orders with one transpose each; ``frame_table`` carries a
table into a frame (its bit form in O(m^2), its energies once). In the
frame, phase separation and a mixer on the frame's pairs ``[(0, 1), (2,
3), ...]`` need no transpose, so ``qaoa._ansatz`` transposes each state
once, on the way out, instead of twice per layer.

The real frame is a change of phase, not of order. With S = diag(1, i)
on every qubit and R(beta) = [[cos beta, sin beta], [-sin beta, cos
beta]], exp(-i*beta*X) = S R(beta) S^dag, and the same S on both qubits
of a pair makes the conditional mixer's 4x4 unit real too. S is diagonal,
so it commutes with phase separation: an ansatz started from S^dag|+>^m
(``real_frame_uniform``) runs every mixer layer with a real unit
(``apply_real_frame_mixer``) and applies S once, to a state that leaves
it (``from_real_frame``). Probabilities and expectations are the same in
both frames. A real unit acts on the float64 view of the complex
amplitudes, half the multiply-adds of a complex one. The two frames
compose: ``qaoa._ansatz`` runs the conditional mixer in both at once.
Every block kernel writes into a spare buffer (``workspace``) instead of
a new array, and phase separation can build its phases in that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# MAX_QUBITS lives next to the tabulator and is re-exported from here.
from .bitstrings import MAX_QUBITS, quadratic_form_phases, quadratic_form_table
from .encode import IsingHamiltonian


@dataclass
class StateVector:
    """2^m complex amplitudes; mutated in place by phase separation."""

    num_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EnergyTable:
    """Per-basis-state energies of a diagonal Hamiltonian.

    ``form`` is the bit form (Q, b, c) with E(x) = x'Qx + b'x + c, as
    ``energy_table`` fills it; phase separation builds its phases from it
    by multiplicative doubling.
    """

    num_qubits: int
    energies: np.ndarray
    form: tuple[np.ndarray, np.ndarray, float]


def energy_table(hamiltonian: IsingHamiltonian) -> EnergyTable:
    """Tabulate the Hamiltonian's energy for every basis state.

    Substituting z = 1 - 2x turns the Ising form into a quadratic form
    over bits (J_ij z_i z_j = J_ij (1 - 2x_i - 2x_j + 4 x_i x_j)), which
    ``quadratic_form_table`` tabulates in O(2^m) time and extra memory.
    Raises ValueError if an energy overflows.
    """
    m = hamiltonian.num_qubits
    quadratic = np.zeros((m, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), coupling in hamiltonian.couplings.items():
            quadratic[i, j] = 4.0 * coupling
        touching = quadratic.sum(axis=0) + quadratic.sum(axis=1)
        linear = -2.0 * hamiltonian.fields - touching / 2.0
        constant = hamiltonian.offset + hamiltonian.fields.sum() + quadratic.sum() / 4.0
        energies = quadratic_form_table(quadratic, linear, constant)
    if not np.isfinite([energies.min(), energies.max()]).all():  # NaN propagates to both
        raise ValueError("energies must be finite (penalty weight too large?)")
    return EnergyTable(m, energies, (quadratic, linear, constant))


def workspace(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Two 2^m complex buffers for an ansatz to hold its state in one and
    its phases or the next block's output in the other. The qubit count is
    checked against MAX_QUBITS first."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside [1, {MAX_QUBITS}]")
    # Two arrays, not the rows of one: a single 2 x 2^m allocation raised
    # the peak RSS of an 18-qubit sweep by 5 MB (the allocator then kept
    # later 2^m-sized temporaries on its heap).
    return tuple(np.empty(1 << num_qubits, dtype=np.complex128) for _ in range(2))


def _popcount_phases(out: np.ndarray, unit: complex, scale: float) -> np.ndarray:
    """out[x] = scale * unit**popcount(x), by doubling. For unit = +-1j each
    entry is +-scale or +-1j*scale exactly."""
    out[0] = scale
    for k in range(out.size.bit_length() - 1):
        np.multiply(out[: 1 << k], unit, out=out[1 << k : 2 << k])
    return out


def real_frame_uniform(out: np.ndarray) -> np.ndarray:
    """S^dag on every qubit of the uniform superposition, written into
    ``out``: (-i)^popcount(x) / sqrt(2^m)."""
    return _popcount_phases(out, -1j, 1.0 / np.sqrt(out.size))


def from_real_frame(amplitudes: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """S on every qubit, in place: amplitude x times i^popcount(x). The
    phases are built in ``spare``. Qubit order does not matter, since every
    qubit gets the same S."""
    amplitudes *= _popcount_phases(spare, 1j, 1.0)
    return amplitudes


def apply_phase_separation(
    state: StateVector, table: EnergyTable, gamma: float, spare: np.ndarray | None = None
) -> StateVector:
    """Multiply each amplitude by exp(-i*gamma*E(x)); exact diagonal evolution.

    The phases are built in ``spare`` (a 2^m complex buffer) when given,
    else in a new array.
    """
    if table.num_qubits != state.num_qubits:
        raise ValueError(
            f"table has {table.num_qubits} qubits, state has {state.num_qubits}"
        )
    state.amplitudes *= quadratic_form_phases(*table.form, gamma, out=spare)
    return state


# Qubits covered by one dense block gate. Both mixers apply a tensor power
# of one small unitary, so a block of 4 qubits is a 16x16 matrix and each
# block costs one BLAS call over the state. Measured for the real-frame
# layers an ansatz runs (``apply_real_frame_mixer``), at m = 18 with one
# BLAS thread (2-vCPU x86-64 VM, OpenBLAS 0.3, best of 21, widths
# interleaved): widths 2, 3, 4, 5, 6, 8 take 6.3, 4.4, 4.6, 5.3, 7.7,
# 20.1 ms for the standard layer and 5.9, 5.9, 4.4, 4.3, 7.4, 19.2 ms for
# the conditional one in the pair frame (widths 3 and 5 fit one and two
# 2-qubit pairs per block, as 2 and 4 do). A second run agreed within 5%.
# Below 4, passes over the state dominate; above 5, the d^2 multiply-adds
# per amplitude do. At width 4 the lowest block, on complex arithmetic,
# takes about a third of a layer. Small states pay a fixed 0.1-0.2 ms per
# layer for building the gates, more than their arithmetic below m = 10.
BLOCK_QUBITS = 4


def _rx_matrix(beta_angle: float) -> np.ndarray:
    """exp(-i*beta_angle*X) in the real frame: S^dag exp(-i*beta_angle*X) S
    = R(beta_angle), a real rotation."""
    cos_b, sin_b = np.cos(beta_angle), np.sin(beta_angle)
    return np.array([[cos_b, sin_b], [-sin_b, cos_b]])


def _apply_unit_power(
    amplitudes: np.ndarray, unit: np.ndarray, count: int, spare: np.ndarray
) -> np.ndarray:
    """``unit`` tensored ``count`` times, applied to the low qubits.

    Copy k of ``unit`` (a 2^w x 2^w matrix on w qubits) acts on qubits
    [k*w, (k+1)*w); higher qubits are untouched. Copies are grouped into
    blocks of at most BLOCK_QUBITS qubits, whose gate is the Kronecker
    power of ``unit``, a real matrix. The lowest block is one complex GEMM
    over rows of the flat state; each higher block is one batched matmul
    with the block's qubits as the middle axis, on the float64 view of the
    amplitudes (real and imaginary parts are then two more columns). Each
    block writes into the other of ``amplitudes`` and ``spare`` (flat 2^m
    complex arrays); returns the one holding the result, ``amplitudes``
    itself after an even number of blocks.
    """
    width = unit.shape[0].bit_length() - 1
    per_block = max(1, BLOCK_QUBITS // width)
    current, other = amplitudes, spare
    low = 0
    while count > 0:
        copies = min(per_block, count)
        gate = unit
        for _ in range(copies - 1):
            gate = np.kron(gate, unit)
        dim = gate.shape[0]
        if low == 0:
            lowest = gate.T.astype(np.complex128)
            np.matmul(current.reshape(-1, dim), lowest, out=other.reshape(-1, dim))
        else:
            shape = (-1, dim, 2 << low)
            np.matmul(
                gate,
                current.view(np.float64).reshape(shape),
                out=other.view(np.float64).reshape(shape),
            )
        current, other = other, current
        low += copies * width
        count -= copies
    return current


def apply_real_frame_mixer(
    amplitudes: np.ndarray, spare: np.ndarray, beta_angle: float, pair_count: int | None = None
) -> np.ndarray:
    """One mixer layer on a state in the real frame: R(beta_angle) on every
    qubit (the standard mixer) when ``pair_count`` is None, else the real
    pair unit on the pair frame's first ``pair_count`` pairs ``[(0, 1),
    (2, 3), ...]`` (the conditional mixer). Ping-pongs between the two
    buffers as ``_apply_unit_power`` does and returns the one holding the
    result."""
    if pair_count is None:
        unit, count = _rx_matrix(beta_angle), amplitudes.size.bit_length() - 1
    else:
        unit, count = _pair_unit(beta_angle), pair_count
    return _apply_unit_power(amplitudes, unit, count, spare)


def _validate_pairs(num_qubits: int, pairs) -> list[tuple[int, int]]:
    seen: set[int] = set()
    cleaned = []
    for asset_qubit, ancilla_qubit in pairs or []:
        for qubit in (asset_qubit, ancilla_qubit):
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
            if qubit in seen:
                raise ValueError(f"qubit {qubit} appears twice in mixer pairs")
            seen.add(qubit)
        cleaned.append((int(asset_qubit), int(ancilla_qubit)))
    return cleaned


def _pair_unit(beta_angle: float) -> np.ndarray:
    """Rx(asset) . CRx(asset -> ancilla) on one pair in the real frame, as a
    4x4 matrix.

    Each ancilla is rotated only where its asset qubit is 1 (a controlled
    rotation, whatever the ancilla holds), then the asset is rotated: the
    controlled rotation reads the asset bit before the asset rotation
    scrambles it. Basis index 2*ancilla + asset (the ancilla is the higher
    qubit). The projectors commute with S, so the unit is the gate-level
    formula over R(beta_angle).
    """
    rx = _rx_matrix(beta_angle)
    project_0 = np.diag([1.0, 0.0])
    project_1 = np.diag([0.0, 1.0])
    return np.kron(np.eye(2), rx @ project_0) + np.kron(rx, rx @ project_1)


def pair_frame(num_qubits: int, pairs) -> list[int]:
    """The pair-adjacent qubit order for ``pairs``: frame position -> qubit.

    Pair k's asset qubit moves to position 2k and its ancilla to 2k + 1;
    unpaired qubits follow in ascending order. In this frame the pairs are
    ``[(0, 1), (2, 3), ...]``: pairs are disjoint, so their units commute,
    and the conditional mixer layer is the tensor power of ``_pair_unit``
    that ``apply_real_frame_mixer`` applies without a transpose. Raises
    ValueError on a qubit out of range or in two pairs.
    """
    cleaned = _validate_pairs(num_qubits, pairs)
    paired = [qubit for pair in cleaned for qubit in pair]
    return paired + sorted(set(range(num_qubits)) - set(paired))


def _frame_view(values: np.ndarray, order) -> np.ndarray:
    """``values`` as a (2,)*m view whose axes run over the frame's qubits."""
    m = len(order)
    # Axis a of the (2,)*m view holds qubit m-1-a (qubit 0 is the least
    # significant bit), so the frame's axes list its qubits from the top down.
    return values.reshape((2,) * m).transpose([m - 1 - qubit for qubit in reversed(order)])


def to_frame(values: np.ndarray, order) -> np.ndarray:
    """Per-basis-state ``values`` reindexed so that bit i is qubit order[i];
    a new contiguous array."""
    return np.ascontiguousarray(_frame_view(values, order)).reshape(-1)


def from_frame(values: np.ndarray, order) -> np.ndarray:
    """Inverse of ``to_frame``: canonical order is the frame of the inverse
    permutation."""
    return to_frame(values, np.argsort(order))


def frame_table(table: EnergyTable, order) -> EnergyTable:
    """``table`` in the qubit order ``order``: energies reindexed by
    ``to_frame``, and the bit form's Q and b permuted to match (x_order[i]
    is frame bit i), so phase separation in the frame costs what it does
    in place."""
    quadratic, linear, constant = table.form
    form = (quadratic[np.ix_(order, order)], linear[order], constant)
    return EnergyTable(table.num_qubits, to_frame(table.energies, order), form)


def expectation(state: StateVector, table: EnergyTable) -> float:
    """Exact <H> = sum_x |amp_x|^2 E(x) for a diagonal Hamiltonian."""
    if table.num_qubits != state.num_qubits:
        raise ValueError(
            f"table has {table.num_qubits} qubits, state has {state.num_qubits}"
        )
    return float(np.dot(state.probabilities(), table.energies))


def sample_counts(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Counts per basis state of `shots` seeded draws from the measurement
    distribution, indexed like the amplitudes."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    probabilities = state.probabilities()
    return rng.multinomial(shots, probabilities / probabilities.sum())
