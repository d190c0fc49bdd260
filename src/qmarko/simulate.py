"""Dense statevector simulation for diagonal Hamiltonians.

The phase-separation step multiplies amplitudes by exp(-i*gamma*E(x))
directly from a precomputed energy table rather than applying gates one
by one; a textual gate export plus a test-side interpreter covers the
gate-level view. Both mixers are tensor powers of one small unitary and
run on a shared kernel that applies them as dense block gates, one BLAS
matmul per block of BLOCK_QUBITS qubits. Amplitude index convention:
qubit 0 is the least significant bit (see ``bitstrings``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# MAX_QUBITS lives next to the tabulator and is re-exported from here.
from .bitstrings import MAX_QUBITS, basis_labels, quadratic_form_table
from .encode import IsingHamiltonian

if TYPE_CHECKING:  # pragma: no cover
    from .qaoa import QaoaParams

STATE_DUMP_MAX_QUBITS = 12


@dataclass
class StateVector:
    """2^m complex amplitudes; mutated in place by the apply_* operations."""

    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EnergyTable:
    """Per-basis-state energies of a diagonal Hamiltonian."""

    num_qubits: int
    energies: np.ndarray


def energy_table(hamiltonian: IsingHamiltonian) -> EnergyTable:
    """Tabulate the Hamiltonian's energy for every basis state.

    Substituting z = 1 - 2x turns the Ising form into a quadratic form
    over bits (J_ij z_i z_j = J_ij (1 - 2x_i - 2x_j + 4 x_i x_j)), which
    ``quadratic_form_table`` tabulates in O(2^m) time and extra memory.
    """
    m = hamiltonian.num_qubits
    quadratic = np.zeros((m, m))
    for (i, j), coupling in hamiltonian.couplings.items():
        quadratic[i, j] = 4.0 * coupling
    touching = quadratic.sum(axis=0) + quadratic.sum(axis=1)
    linear = -2.0 * hamiltonian.fields - touching / 2.0
    constant = hamiltonian.offset + hamiltonian.fields.sum() + quadratic.sum() / 4.0
    return EnergyTable(m, quadratic_form_table(quadratic, linear, constant))


def uniform_superposition(num_qubits: int) -> StateVector:
    """Equal-amplitude state over all basis states, phase zero."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside [1, {MAX_QUBITS}]")
    size = 1 << num_qubits
    amplitudes = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    return StateVector(num_qubits, amplitudes)


def apply_phase_separation(state: StateVector, table: EnergyTable, gamma: float) -> StateVector:
    """Multiply each amplitude by exp(-i*gamma*E(x)); exact diagonal evolution."""
    if table.num_qubits != state.num_qubits:
        raise ValueError(
            f"table has {table.num_qubits} qubits, state has {state.num_qubits}"
        )
    state.amplitudes *= np.exp(-1j * gamma * table.energies)
    return state


# Qubits covered by one dense block gate. Both mixers apply a tensor power
# of one small unitary, so a block of 4 qubits is a 16x16 matrix and each
# block costs one BLAS call over the state. Measured with one BLAS thread
# (2-vCPU x86-64 VM, OpenBLAS 0.3): widths 2, 3, 4, 5, 6 take 18.6, 8.1,
# 7.5, 8.9, 11.4 ms for the standard layer at m = 18 and 19.3, 17.5, 10.5,
# 10.8, 15.9 ms for the conditional one (a width of 3 fits only one
# 2-qubit pair per block). Below 4, passes over the state dominate; above
# it, the d^2 multiply-adds per amplitude do. Small states pay a fixed
# 0.05-0.2 ms per call for building the gates and permuting, more than
# their arithmetic below m = 10.
BLOCK_QUBITS = 4


def _rx_matrix(beta_angle: float) -> np.ndarray:
    """exp(-i*beta_angle*X), i.e. Rx(2*beta_angle)."""
    cos_b = np.cos(beta_angle)
    misin_b = -1j * np.sin(beta_angle)
    return np.array([[cos_b, misin_b], [misin_b, cos_b]])


def _apply_unit_power(amplitudes: np.ndarray, unit: np.ndarray, count: int) -> np.ndarray:
    """``unit`` tensored ``count`` times, applied to the low qubits.

    Copy k of ``unit`` (a 2^w x 2^w matrix on w qubits) acts on qubits
    [k*w, (k+1)*w); higher qubits are untouched. Copies are grouped into
    blocks of at most BLOCK_QUBITS qubits, whose gate is the Kronecker
    power of ``unit``. The lowest block is one GEMM over rows of the flat
    state; each higher block is one batched matmul with the block's qubits
    as the middle axis. Returns a new flat array; ``amplitudes`` is only
    read, unless ``count`` is 0 and it is returned as is.
    """
    width = unit.shape[0].bit_length() - 1
    per_block = max(1, BLOCK_QUBITS // width)
    current = amplitudes
    low = 0
    while count > 0:
        copies = min(per_block, count)
        gate = unit
        for _ in range(copies - 1):
            gate = np.kron(gate, unit)
        dim = gate.shape[0]
        if low == 0:
            current = current.reshape(-1, dim) @ gate.T
        else:
            current = np.matmul(gate, current.reshape(-1, dim, 1 << low))
        low += copies * width
        count -= copies
    return current.reshape(-1)


def apply_mixer(state: StateVector, beta_angle: float) -> StateVector:
    """exp(-i*beta_angle*X) on every qubit, i.e. Rx(2*beta_angle) each.

    The m rotations act on distinct qubits, so the layer is the tensor
    power Rx^(x m), applied in blocks of BLOCK_QUBITS qubits.
    """
    unit = _rx_matrix(beta_angle)
    state.amplitudes[:] = _apply_unit_power(state.amplitudes, unit, state.num_qubits)
    return state


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
    """Rx(asset) . CRx(asset -> ancilla) on one pair, as a 4x4 matrix.

    Basis index 2*ancilla + asset (the ancilla is the higher qubit).
    """
    rx = _rx_matrix(beta_angle)
    project_0 = np.diag([1.0, 0.0])
    project_1 = np.diag([0.0, 1.0])
    return np.kron(np.eye(2), rx @ project_0) + np.kron(rx, rx @ project_1)


def apply_conditional_mixer(state: StateVector, beta_angle: float, pairs) -> StateVector:
    """Slack-aware mixer layer.

    Each ancilla receives exp(-i*beta_angle*X) only on basis states where
    its paired asset qubit is 1 (a controlled rotation, applied whatever
    the ancilla currently holds); asset qubits then receive the standard
    Rx(2*beta_angle). The controlled rotations read the asset bits before
    the asset rotations scramble them.

    Pairs are disjoint, so gates on different pairs act on different
    qubits and commute: "all controlled rotations, then all asset
    rotations" equals one fused 4x4 unitary per pair. The qubits are
    permuted so that each pair is adjacent (ancilla above asset, unpaired
    qubits on top), the tensor power of that unitary is applied in blocks
    of BLOCK_QUBITS qubits, and the result is permuted back into place.
    """
    cleaned = _validate_pairs(state.num_qubits, pairs)
    if not cleaned:
        return state
    m = state.num_qubits
    paired = [qubit for pair in cleaned for qubit in pair]
    order = paired + sorted(set(range(m)) - set(paired))  # new position -> qubit
    # Axis a of the (2,)*m view holds qubit m-1-a (qubit 0 is the least
    # significant bit), so the new axes list qubits from the top down.
    axes = [m - 1 - qubit for qubit in reversed(order)]
    tensor = state.amplitudes.reshape((2,) * m)
    permuted = np.ascontiguousarray(tensor.transpose(axes)).reshape(-1)
    mixed = _apply_unit_power(permuted, _pair_unit(beta_angle), len(cleaned))
    tensor[...] = mixed.reshape((2,) * m).transpose(np.argsort(axes))
    return state


def expectation(state: StateVector, table: EnergyTable) -> float:
    """Exact <H> = sum_x |amp_x|^2 E(x) for a diagonal Hamiltonian."""
    if table.num_qubits != state.num_qubits:
        raise ValueError(
            f"table has {table.num_qubits} qubits, state has {state.num_qubits}"
        )
    return float(np.dot(state.probabilities(), table.energies))


def sample(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Histogram of `shots` seeded draws from the measurement distribution."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    probabilities = state.probabilities()
    probabilities = probabilities / probabilities.sum()
    counts = rng.multinomial(shots, probabilities)
    drawn = np.flatnonzero(counts)
    return dict(zip(basis_labels(drawn, state.num_qubits), counts[drawn].tolist()))


def dump_state(state: StateVector) -> str:
    """JSON array of (bitstring, re, im) rows for cross-checking small states."""
    if state.num_qubits > STATE_DUMP_MAX_QUBITS:
        raise ValueError(
            f"state dump limited to {STATE_DUMP_MAX_QUBITS} qubits, got {state.num_qubits}"
        )
    labels = basis_labels(np.arange(1 << state.num_qubits), state.num_qubits)
    amplitudes = state.amplitudes
    return json.dumps(list(zip(labels, amplitudes.real.tolist(), amplitudes.imag.tolist())))


def export_circuit_text(
    params: "QaoaParams",
    hamiltonian: IsingHamiltonian,
    mixer: str = "standard",
    pairs=None,
) -> str:
    """Gate list equivalent to the alternating diagonal evolution.

    One line per gate, angles in radians at full precision:
    ``gphase a``, ``rzz i j a``, ``rz i a``, ``rx i a``, ``crx c t a``.
    Layers appear in application order; replaying the list on a uniform
    superposition reproduces the simulated state exactly (including global
    phase, carried by gphase lines).
    """
    m = hamiltonian.num_qubits
    lines = [f"# qubits {m}", f"# p {params.p}", f"# mixer {mixer}"]
    for layer in range(params.p):
        gamma = params.gammas[layer]
        beta_mix = params.beta_mixes[layer]
        if hamiltonian.offset != 0.0:
            lines.append(f"gphase {float(-gamma * hamiltonian.offset)!r}")
        for (i, j), coupling in sorted(hamiltonian.couplings.items()):
            lines.append(f"rzz {i} {j} {float(2.0 * gamma * coupling)!r}")
        for i, field in enumerate(hamiltonian.fields):
            if field != 0.0:
                lines.append(f"rz {i} {float(2.0 * gamma * field)!r}")
        if mixer == "standard":
            for qubit in range(m):
                lines.append(f"rx {qubit} {float(2.0 * beta_mix)!r}")
        elif mixer == "conditional":
            cleaned = _validate_pairs(m, pairs)
            for asset_qubit, ancilla_qubit in cleaned:
                lines.append(f"crx {asset_qubit} {ancilla_qubit} {float(2.0 * beta_mix)!r}")
            for asset_qubit, _ in cleaned:
                lines.append(f"rx {asset_qubit} {float(2.0 * beta_mix)!r}")
        else:
            raise ValueError(f"unknown mixer: {mixer!r}")
    return "\n".join(lines) + "\n"
