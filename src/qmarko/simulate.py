"""Dense statevector simulation of the QAOA ansatz on a diagonal program.

``Ansatz`` is the one ansatz entry point: built from a program and a mixer
name, it runs the p layers of phase separation and mixing for any angles,
in one workspace, with the kernels below.

The phase-separation step multiplies amplitudes by exp(-i*gamma*E(x))
over the whole register rather than applying gates one by one. The
phases come from the program's bit form (Q, b, c) by multiplicative
doubling (``bitstrings.quadratic_form_phases``), one complex exponential
per coefficient rather than per amplitude; the energy table
(``energy_table``) serves the expectation only. Both mixers are tensor
powers of one small real unitary (see the real frame below) and run on one
kernel that applies them as dense block gates of BLOCK_QUBITS qubits, one
pass over the state per block, each a real matmul on the float64 view of
the amplitudes shaped so that it runs near the speed of a copy.

Amplitude index convention: qubit 0 is the least significant bit (see
``bitstrings``). The conditional mixer's tensor power needs each (asset,
ancilla) pair on adjacent bits, asset low, as the slack-ancilla program
lays them out (``encode.build_slack_ancilla_qubo``): its layer is the
pair unit on pairs ``[(0, 1), (2, 3), ...]``, with no transpose.

The ansatz runs in one frame, the real frame, a change of phase. With S = diag(1, i)
on every qubit and R(beta) = [[cos beta, sin beta], [-sin beta, cos
beta]], exp(-i*beta*X) = S R(beta) S^dag, and the same S on both qubits
of a pair makes the conditional mixer's 4x4 unit real too. S is diagonal,
so it commutes with phase separation: an ansatz started from S^dag|+>^m
runs every mixer layer with a real unit (``apply_real_frame_mixer``) and
applies S once, to a state that leaves it (``from_real_frame``).
Probabilities and expectations are the same in both frames, so an
evaluation, and every asset marginal read from it, reads the state where
it is. A real unit acts on the float64 view of the complex amplitudes,
half the multiply-adds of a complex one.

The start state is folded into the first layer: S^dag|+>^m is
(-i)^popcount(x) / sqrt(2^m), a product over bits like the phases, so
``real_frame_phased_uniform`` writes it times layer 1's phases in the one
recursion that builds those phases, with no pass to set the start state
and none to multiply the phases in. Later layers run
``apply_phase_separation``. Every block kernel writes into a spare buffer
(``workspace``) instead of a new array, and phase separation can build its
phases in that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# MAX_QUBITS lives next to the tabulator and is re-exported from here.
from .bitstrings import MAX_QUBITS, quadratic_form_phases, quadratic_form_table
from .bounds import asset_marginal
from .encode import ASSET, SLACK_ASSET, QuboProgram, VarLabel


@dataclass
class StateVector:
    """2^m complex amplitudes; mutated in place by phase separation."""

    num_qubits: int
    amplitudes: np.ndarray

    def probabilities(self, out: np.ndarray | None = None) -> np.ndarray:
        """|amp_x|^2, written into ``out`` (a 2^m float64 buffer) when
        given, else into a new array."""
        probabilities = np.abs(self.amplitudes, out=out)
        return np.square(probabilities, out=probabilities)


def energy_table(program: QuboProgram) -> np.ndarray:
    """The program's energy x'Qx + b'x + c for every basis state, tabulated
    with ``quadratic_form_table`` in O(2^m) time and extra memory. Raises
    ValueError if an energy overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        energies = quadratic_form_table(program.quadratic, program.linear, program.constant)
    if not np.isfinite([energies.min(), energies.max()]).all():  # NaN propagates to both
        raise ValueError("energies must be finite (penalty weight too large?)")
    return energies


def workspace(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Two 2^m complex buffers for an ansatz to hold its state in one and
    its phases, the next block's output or, last, the state's
    probabilities in the other: those fill the first 2^m of its 2^(m+1)
    float64s, and their asset marginal is reduced in the rest
    (``Ansatz.marginal``). The qubit count is checked against MAX_QUBITS
    first."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside [1, {MAX_QUBITS}]")
    # Two arrays, not the rows of one: a single 2 x 2^m allocation raised
    # the peak RSS of an 18-qubit sweep by 5 MB (the allocator then kept
    # later 2^m-sized temporaries on its heap).
    return tuple(np.empty(1 << num_qubits, dtype=np.complex128) for _ in range(2))


def real_frame_phased_uniform(out: np.ndarray, program: QuboProgram, gamma: float) -> np.ndarray:
    """The ansatz's state after its first phase separation, in the real
    frame, written into ``out``: exp(-i*gamma*E(x)) times S^dag on every
    qubit of the uniform superposition, (-i)^popcount(x) / sqrt(2^m). One
    pass of ``quadratic_form_phases`` builds it, with -i folded into each
    bit's term and 1/sqrt(2^m) into the constant; gamma = 0 gives the
    real-frame uniform state itself."""
    if out.size != 1 << program.num_qubits:
        raise ValueError(f"program has {program.num_qubits} qubits, buffer has {out.size} amplitudes")
    return quadratic_form_phases(
        program.quadratic, program.linear, program.constant, gamma,
        out=out, unit=-1j, scale=1.0 / np.sqrt(out.size),
    )


def from_real_frame(amplitudes: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """S on every qubit: amplitude x times i^popcount(x), as a new array;
    ``amplitudes`` is left as it is. The phases are built in ``spare`` by
    doubling, each entry +-1 or +-1j exactly."""
    spare[0] = 1.0
    for k in range(spare.size.bit_length() - 1):
        np.multiply(spare[: 1 << k], 1j, out=spare[1 << k : 2 << k])
    return amplitudes * spare


def apply_phase_separation(
    state: StateVector, program: QuboProgram, gamma: float, spare: np.ndarray | None = None
) -> StateVector:
    """Multiply each amplitude by exp(-i*gamma*E(x)), E the program's
    energy; exact diagonal evolution.

    The phases are built in ``spare`` (a 2^m complex buffer) when given,
    else in a new array.
    """
    if program.num_qubits != state.num_qubits:
        raise ValueError(
            f"program has {program.num_qubits} qubits, state has {state.num_qubits}"
        )
    state.amplitudes *= quadratic_form_phases(
        program.quadratic, program.linear, program.constant, gamma, out=spare
    )
    return state


# Qubits covered by one dense block gate. Both mixers apply a tensor power
# of one small unitary, so a block of 4 qubits is a 16x16 matrix and each
# block costs one pass over the state. Measured for the real-frame layers
# an ansatz runs (``apply_real_frame_mixer``), at m = 18 with one BLAS
# thread (2-vCPU x86-64 VM, OpenBLAS 0.3, median of 51, widths
# interleaved): widths 2, 3, 4, 5, 6 take 4.9, 3.3, 3.2, 4.0, 7.5 ms for
# the standard layer and 5.2, 5.3, 3.3, 3.3, 8.2 ms for the conditional
# one on adjacent pairs (widths 3 and 5 fit one and two 2-qubit pairs per
# block, as 2 and 4 do). Below 4, passes over the state dominate; above 5,
# the d^2 multiply-adds per amplitude do. A copy of the 4 MiB state takes
# 0.36 ms; at width 4 each block pass takes 0.4-0.7 ms. Below m = 10 a
# layer's cost is mostly building its gates: one chain of Kronecker
# products up to the full block, whose links give the partial top block's
# gate too, and the pair unit written out from cos and sin. At m = 8
# (median of 2000) a standard layer then takes 0.06 ms and a conditional
# one 0.03 ms, against 0.11 and 0.08 ms with a Kronecker power per block
# and the pair unit built by kron and matmul.
BLOCK_QUBITS = 4
# Rows of the lowest block per BLAS call. At m = 18 its pass takes 0.71 ms
# in calls of 64 rows, 1.30 ms as one real GEMM over all 2^14 rows and
# 1.28 ms as one complex GEMM with the gate cast to complex. 32 to 256 rows
# were within 2% of each other at m = 16, 18 and 20.
_LOWEST_ROWS = 64
# Widest panel, in float64 columns, that a higher block multiplies in one
# BLAS call; wider panels are split into chunks of this many columns. At
# m = 18 the block at qubit 12 (16 x 8192 panels) takes 0.72 ms in chunks
# against 0.86 ms whole, and the 2-qubit top block (4 x 131072) 0.42 ms
# against 0.63 ms. Chunks of 512, 1024 and 2048 columns were within noise
# of each other; 4096 was as slow as no chunks at m = 20.
_PANEL_COLUMNS = 1024


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
    power of ``unit``, a real matrix. The powers are the links of one
    chain, built once per call up to the full block; every block is full
    but the top one, whose gate is a link of the chain. Every block is a real matmul on
    the float64 view of the amplitudes, whose real and imaginary parts are
    then two interleaved columns. The lowest block multiplies rows of 2*d
    floats (d amplitudes) by kron(gate.T, I_2), _LOWEST_ROWS rows per BLAS
    call. Each higher block multiplies the gate into panels with the
    block's qubits as rows; a panel wider than _PANEL_COLUMNS columns is
    split into chunks of that width by a transposed view, so each BLAS call
    touches a cache-sized piece. Each block writes into the other of
    ``amplitudes`` and ``spare`` (flat 2^m complex arrays) through ``out=``,
    with no temporary; returns the one holding the result, ``amplitudes``
    itself after an even number of blocks.
    """
    width = unit.shape[0].bit_length() - 1
    per_block = max(1, BLOCK_QUBITS // width)
    powers = [unit]  # powers[c - 1] is unit tensored c times
    while len(powers) < min(per_block, count):
        powers.append(np.kron(powers[-1], unit))
    current, other = amplitudes, spare
    low = 0
    while count > 0:
        copies = min(per_block, count)
        gate = powers[copies - 1]
        dim = gate.shape[0]
        source, target = current.view(np.float64), other.view(np.float64)
        if low == 0:
            # kron(gate.T, I_2) on rows of dim interleaved (re, im) pairs:
            # the real parts and the imaginary parts each get gate.T.
            lowest = np.zeros((2 * dim, 2 * dim))
            lowest[0::2, 0::2] = lowest[1::2, 1::2] = gate.T
            shape = (-1, min(_LOWEST_ROWS, current.size // dim), 2 * dim)
            np.matmul(source.reshape(shape), lowest, out=target.reshape(shape))
        else:
            inner = 2 << low
            if inner <= _PANEL_COLUMNS:
                shape, axes = (-1, dim, inner), (0, 1, 2)
            else:
                shape = (-1, dim, inner // _PANEL_COLUMNS, _PANEL_COLUMNS)
                axes = (0, 2, 1, 3)
            np.matmul(
                gate,
                source.reshape(shape).transpose(axes),
                out=target.reshape(shape).transpose(axes),
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
    pair unit on the first ``pair_count`` adjacent pairs ``[(0, 1), (2,
    3), ...]`` (the conditional mixer). Ping-pongs between the two
    buffers as ``_apply_unit_power`` does and returns the one holding the
    result."""
    if pair_count is None:
        unit, count = _rx_matrix(beta_angle), amplitudes.size.bit_length() - 1
    else:
        unit, count = _pair_unit(beta_angle), pair_count
    return _apply_unit_power(amplitudes, unit, count, spare)


def _pair_unit(beta_angle: float) -> np.ndarray:
    """Rx(asset) . CRx(asset -> ancilla) on one pair in the real frame, as a
    4x4 matrix.

    Each ancilla is rotated only where its asset qubit is 1 (a controlled
    rotation, whatever the ancilla holds), then the asset is rotated: the
    controlled rotation reads the asset bit before the asset rotation
    scrambles it. Basis index 2*ancilla + asset (the ancilla is the higher
    qubit). The projectors commute with S, so the unit is the gate-level
    formula kron(I, R P_0) + kron(R, R P_1) over R = R(beta_angle), written
    out entry by entry from cos and sin, with the same values.
    """
    cos_b, sin_b = np.cos(beta_angle), np.sin(beta_angle)
    cos_sin, cos_sq, sin_sq = cos_b * sin_b, cos_b * cos_b, sin_b * sin_b
    # Entry (2a + i, 2b + j) is [a == b] * R[i, 0] for an asset input j = 0
    # and R[a, b] * R[i, 1] for j = 1: each entry is at most one product.
    return np.array([
        [cos_b, cos_sin, 0.0, sin_sq],
        [-sin_b, cos_sq, 0.0, cos_sin],
        [0.0, -sin_sq, cos_b, cos_sin],
        [0.0, -cos_sin, -sin_b, cos_sq],
    ])


def expectation(state: StateVector, energies: np.ndarray, out: np.ndarray | None = None) -> float:
    """Exact <H> = sum_x |amp_x|^2 E(x) for a diagonal Hamiltonian with the
    2^m energies ``energies`` (``energy_table``). The probabilities are
    built in ``out`` (a 2^m float64 buffer) when given, else in a new
    array."""
    return float(np.dot(state.probabilities(out), energies))


class Ansatz:
    """The depth-p ansatz on ``program``: p alternating layers of phase
    separation and mixing on the uniform state, as a function of its
    physical angles (``gammas`` and ``beta_mixes``, as ``qaoa.QaoaParams``
    holds them).

    ``ansatz(params)`` is the state, a new StateVector in canonical phase;
    ``ansatz.evaluate(params)`` is (its expectation under the program, its
    probabilities), and ``ansatz.marginal(probabilities)`` the asset
    marginal of those probabilities (``bounds.asset_marginal`` over the
    program's labels), both built in the workspace (below). Every call
    runs its layers: the ansatz holds no state between calls but its
    table and workspace.

    The program is tabulated (``energy_table``) once, before the workspace
    is allocated. Every layer runs in the real frame (module docstring),
    and the first layer's phase separation is folded into the start state
    (``real_frame_phased_uniform``), so layers 2..p alone run
    ``apply_phase_separation``. The conditional mixer reads its layout
    from the program's labels: one pair per SLACK_ASSET label, asset i at
    qubit 2i and its slack at 2i + 1, as the slack-ancilla program lays
    them out; the qubits above the pairs are left alone, and a program
    without slack labels gets no pairs. Any other layout is refused with
    ValueError. Only a state returned by ``ansatz(params)`` gets S.

    One ``workspace`` of two 2^m buffers serves every evaluation: the
    state lives in one, and the other takes each layer's phases, each
    mixer block's output and, last, the state's probabilities, in the first
    2^m of its 2^(m+1) float64s, so an evaluation allocates no 2^m array.
    ``marginal`` sums the non-asset qubits out of those probabilities into
    the free upper 2^m float64s; a program of assets only sums nothing, and
    its marginal is the probabilities themselves. The probabilities
    ``evaluate`` returns and the marginal are views of the spare buffer,
    valid until the next call; a search keeps its best evaluation's
    marginal by copying it out (``qaoa._search_angles``). A returned state
    never shares memory with the workspace.
    """

    def __init__(self, program: QuboProgram, mixer: str):
        if mixer not in ("standard", "conditional"):
            raise ValueError(f"unknown mixer: {mixer!r}")
        self._pair_count = None
        if mixer == "conditional":
            count = sum(label.kind == SLACK_ASSET for label in program.labels)
            layout = [VarLabel(kind, i) for i in range(count) for kind in (ASSET, SLACK_ASSET)]
            if list(program.labels[: 2 * count]) != layout:
                raise ValueError("the conditional mixer takes asset i at qubit 2i and its "
                                 f"slack at 2i + 1, got labels {program.labels}")
            self._pair_count = count
        self._program = program
        self._energies = energy_table(program)
        self._buffers = workspace(program.num_qubits)

    def _frame_state(self, params) -> tuple[np.ndarray, np.ndarray]:
        """(buffer holding the state in the frame, the other buffer)."""
        program = self._program
        state, spare = self._buffers
        real_frame_phased_uniform(state, program, params.gammas[0])
        for layer, beta_mix in enumerate(params.beta_mixes):
            if layer > 0:
                apply_phase_separation(
                    StateVector(program.num_qubits, state), program, params.gammas[layer], spare
                )
            if apply_real_frame_mixer(state, spare, beta_mix, self._pair_count) is spare:
                state, spare = spare, state
        self._buffers = state, spare
        return state, spare

    def evaluate(self, params) -> tuple[float, np.ndarray]:
        state, spare = self._frame_state(params)
        probabilities = spare.view(np.float64)[: state.size]
        value = expectation(StateVector(self._program.num_qubits, state), self._energies,
                            out=probabilities)
        return value, probabilities

    def marginal(self, probabilities: np.ndarray) -> np.ndarray:
        scratch = self._buffers[1].view(np.float64)[probabilities.size:]
        return asset_marginal(probabilities, self._program.labels, scratch)

    def __call__(self, params) -> StateVector:
        state, spare = self._frame_state(params)
        return StateVector(self._program.num_qubits, from_real_frame(state, spare))


def sample_counts(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts per outcome of `shots` seeded draws from the distribution
    ``probabilities`` (normalised first), indexed like it."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probabilities / probabilities.sum())
