"""Independent reference implementations used only by the tests.

Everything here recomputes results through a different route than the
package (explicit loops, dense matrices, one gate at a time) so the two
sides of each equivalence check stay independent. ``final_register`` is
the exception: it replays the package's own ansatz, as a record's
contract says its final state is rebuilt.
"""

from __future__ import annotations

import numpy as np

from qmarko import encode
from qmarko.bitstrings import index_to_bits, index_to_string
from qmarko.encode import IsingHamiltonian, QuboProgram, cardinality_slack_weights
from qmarko.instance import PortfolioInstance, classical_objective, is_feasible
from qmarko.qaoa import _ansatz, labelled_histogram, mixer_pairs
from qmarko.simulate import energy_table


def naive_qubo_energy(program: QuboProgram, bits) -> float:
    total = float(program.constant)
    for i in range(program.num_vars):
        total += program.linear[i] * bits[i]
        for j in range(program.num_vars):
            total += program.quadratic[i, j] * bits[i] * bits[j]
    return total


def naive_ising_energy(hamiltonian: IsingHamiltonian, bits) -> float:
    z = [1.0 - 2.0 * b for b in bits]
    total = float(hamiltonian.offset)
    for i in range(hamiltonian.num_qubits):
        total += hamiltonian.fields[i] * z[i]
    for (i, j), coupling in hamiltonian.couplings.items():
        total += coupling * z[i] * z[j]
    return total


def direct_slack_objective(inst: PortfolioInstance, bits, beta: float) -> float:
    n = inst.n
    w = np.asarray(bits[:n], dtype=float)
    s = np.asarray(bits[n : 2 * n], dtype=float)
    penalty = float(((w - inst.alpha + s) ** 2).sum())
    return (
        inst.q_risk * float(w @ inst.sigma @ w)
        - inst.lambda_weight * float(inst.mu @ w)
        + beta * penalty
    )


def direct_penalty_objective(inst: PortfolioInstance, bits, a_card: float) -> float:
    w = np.asarray(bits, dtype=float)
    return (
        inst.q_risk * float(w @ inst.sigma @ w)
        - inst.lambda_weight * float(inst.mu @ w)
        + a_card * (float(w.sum()) - inst.k) ** 2
    )


def direct_cardinality_objective(inst: PortfolioInstance, bits, a_card: float) -> float:
    n = inst.n
    w = np.asarray(bits[:n], dtype=float)
    weights = cardinality_slack_weights(inst.k)
    slack = float(np.dot(weights, np.asarray(bits[n:], dtype=float)))
    return (
        inst.q_risk * float(w @ inst.sigma @ w)
        - inst.lambda_weight * float(inst.mu @ w)
        + a_card * (float(w.sum()) + slack - inst.k) ** 2
    )


def label_bits(label: str) -> np.ndarray:
    """The bits of a basis label, read character by character: qubit 0 is
    the first character."""
    return np.array([int(ch) for ch in label])


# --- dense matrix reference for the ansatz -------------------------------

def embed_single(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    eye_low = np.eye(1 << qubit, dtype=complex)
    eye_high = np.eye(1 << (num_qubits - 1 - qubit), dtype=complex)
    return np.kron(np.kron(eye_high, op), eye_low)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def dense_reference_ansatz(hamiltonian: IsingHamiltonian, params, mixer: str, pairs=None) -> np.ndarray:
    """From-scratch ansatz evolution via explicit 2^m x 2^m matrices."""
    m = hamiltonian.num_qubits
    energies = np.array(
        [naive_ising_energy(hamiltonian, index_to_bits(x, m)) for x in range(1 << m)]
    )
    return dense_reference_evolution(energies, params, mixer, pairs)


def dense_reference_evolution(energies, params, mixer: str, pairs=None) -> np.ndarray:
    """The ansatz on a diagonal Hamiltonian given by its 2^m energies, via
    explicit 2^m x 2^m matrices."""
    size = len(energies)
    m = size.bit_length() - 1
    state = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    for layer in range(params.p):
        state = np.diag(np.exp(-1j * params.gammas[layer] * energies)) @ state
        rx = rx_matrix(2.0 * params.beta_mixes[layer])
        if mixer == "standard":
            for qubit in range(m):
                state = embed_single(rx, qubit, m) @ state
        elif mixer == "conditional":
            for asset_qubit, ancilla_qubit in pairs:
                controlled = embed_single(_P0, asset_qubit, m) + embed_single(
                    _P1, asset_qubit, m
                ) @ embed_single(rx, ancilla_qubit, m)
                state = controlled @ state
            for asset_qubit, _ in pairs:
                state = embed_single(rx, asset_qubit, m) @ state
        else:
            raise ValueError(mixer)
    return state


# --- gate-by-gate reference for the ansatz ----------------------------------

def _qubit_axis(qubit: int, num_qubits: int) -> int:
    # Qubit 0 is the least significant bit, the last axis of the (2,)*m view.
    return num_qubits - 1 - qubit


def apply_rx(state: np.ndarray, theta: float, qubit: int) -> np.ndarray:
    """Rx(theta) on one qubit, by np.tensordot on the (2,)*m view."""
    m = state.size.bit_length() - 1
    axis = _qubit_axis(qubit, m)
    turned = np.tensordot(rx_matrix(theta), state.reshape((2,) * m), axes=([1], [axis]))
    return np.moveaxis(turned, 0, axis).reshape(-1)


def apply_crx(state: np.ndarray, theta: float, control: int, target: int) -> np.ndarray:
    """Rx(theta) on ``target`` where ``control`` is 1, by np.tensordot on the
    (2,)*m view. The gate's axes are (control out, target out, control in,
    target in)."""
    m = state.size.bit_length() - 1
    gate = np.zeros((2, 2, 2, 2), dtype=complex)
    gate[0, :, 0, :] = np.eye(2)
    gate[1, :, 1, :] = rx_matrix(theta)
    axes = [_qubit_axis(control, m), _qubit_axis(target, m)]
    turned = np.tensordot(gate, state.reshape((2,) * m), axes=([2, 3], axes))
    return np.moveaxis(turned, [0, 1], axes).reshape(-1)


def gate_reference_mixer(state: np.ndarray, beta_mix: float, pairs=None) -> np.ndarray:
    """One mixer layer, one gate at a time: Rx(2*beta_mix) on every qubit
    when ``pairs`` is None, else the conditional mixer, every CRx before
    the asset Rx gates."""
    theta = 2.0 * beta_mix
    if pairs is None:
        for qubit in range(state.size.bit_length() - 1):
            state = apply_rx(state, theta, qubit)
        return state
    for asset_qubit, ancilla_qubit in pairs:
        state = apply_crx(state, theta, asset_qubit, ancilla_qubit)
    for asset_qubit, _ in pairs:
        state = apply_rx(state, theta, asset_qubit)
    return state


def gate_reference_evolution(energies, params, mixer: str, pairs=None) -> np.ndarray:
    """The ansatz on 2^m energies, one gate at a time: the diagonal phases,
    then ``gate_reference_mixer``. No frames and no block gates, so it
    reaches sizes the dense reference cannot."""
    if mixer not in ("standard", "conditional"):
        raise ValueError(mixer)
    energies = np.asarray(energies, dtype=float)
    state = np.full(energies.size, 1.0 / np.sqrt(energies.size), dtype=complex)
    for gamma, beta_mix in zip(params.gammas, params.beta_mixes):
        state = state * np.exp(-1j * gamma * energies)
        state = gate_reference_mixer(state, beta_mix, None if mixer == "standard" else pairs or [])
    return state


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = 1 << num_qubits
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


# --- loop reference for the portfolio picks -------------------------------

def naive_portfolio_picks(inst: PortfolioInstance, marginal, threshold: float):
    """(best_feasible, most_probable, feasible_mass) by looping over every
    selection. Picks are (bitstring, value, probability) tuples or None;
    strict comparisons keep the lowest index on ties."""
    best = most_probable = None
    feasible_mass = 0.0
    for idx in range(1 << inst.n):
        bits = index_to_bits(idx, inst.n)
        pick = (index_to_string(idx, inst.n), classical_objective(inst, bits), float(marginal[idx]))
        if most_probable is None or marginal[idx] > most_probable[2]:
            most_probable = pick
        if not is_feasible(inst, bits):
            continue
        feasible_mass += float(marginal[idx])
        if marginal[idx] > threshold and (best is None or pick[1] < best[1]):
            best = pick
    return best, most_probable, feasible_mass


# --- a record's final register -------------------------------------------

_PROGRAMS = {
    "slack-qaoa": encode.build_slack_ancilla_qubo,
    "penalty-qaoa": encode.build_penalty_qubo,
    "cardinality-slack-qaoa": encode.build_cardinality_slack_qubo,
}


def final_register(record, inst: PortfolioInstance) -> dict[str, float]:
    """The 2^m register probabilities of a QAOA record's final state, keyed
    by m-bit label: ``_ansatz`` on the table of the record's program at
    ``final_beta_penalty``, evaluated at ``final_params``."""
    program = _PROGRAMS[record.method](inst, record.final_beta_penalty)
    pairs = mixer_pairs(program.labels) if record.mixer == "conditional" else None
    table = energy_table(encode.to_ising(program))
    state = _ansatz(table, record.mixer, pairs)(record.final_params)
    return labelled_histogram(state.probabilities())
