from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from helpers import (
    dense_reference_ansatz,
    dense_reference_evolution,
    gate_reference_evolution,
    gate_reference_mixer,
    naive_qubo_energy,
    random_state,
    real_frame_pair_unit,
    slack_pairs,
    with_pairs,
)
from qmarko.bitstrings import index_to_bits, index_to_string, string_to_index
from qmarko.encode import QuboProgram, VarLabel, build_penalty_qubo, build_slack_ancilla_qubo
from qmarko.instance import generate_instance
from qmarko.qaoa import QaoaParams, _angle_scale
from qmarko.simulate import (
    Ansatz,
    StateVector,
    _pair_unit,
    apply_phase_separation,
    apply_real_frame_mixer,
    energy_table,
    expectation,
    from_real_frame,
    real_frame_phased_uniform,
    sample_counts,
    workspace,
)


def _seeded_program(m, seed):
    return _random_program(m, np.random.default_rng(seed))


def _uniform(m):
    """The ansatz's initial state |+>^m: its phased start at gamma = 0, taken
    out of the real frame."""
    state, spare = workspace(m)
    start = real_frame_phased_uniform(state, _seeded_program(m, 0), 0.0)
    return StateVector(m, from_real_frame(start, spare))


def _adjacent_pairs(count):
    return [(2 * i, 2 * i + 1) for i in range(count)]


def _mix(state, beta_angle, pairs=None):
    """One mixer layer as the ansatz runs it, on a state in canonical phase:
    S^dag, the real-unit kernel (the conditional mixer for ``pairs``, which
    are adjacent, as ``Ansatz`` takes them), then S again. In place."""
    size = state.amplitudes.size
    s_phases = from_real_frame(np.ones(size, dtype=complex), np.empty(size, dtype=complex))
    pair_count = None if pairs is None else len(pairs)
    assert pairs is None or pairs == _adjacent_pairs(pair_count), pairs
    framed = state.amplitudes * s_phases.conj()
    mixed = apply_real_frame_mixer(framed, np.empty_like(framed), beta_angle, pair_count)
    state.amplitudes[:] = mixed * s_phases
    return state


def _drawn(counts, num_qubits):
    """Sampled counts keyed by basis label, drawn states only."""
    drawn = np.flatnonzero(counts)
    return {index_to_string(int(index), num_qubits): int(counts[index]) for index in drawn}


def test_uniform_superposition_values():
    state = _uniform(1)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2)] * 2)
    state = _uniform(3)
    assert np.allclose(state.amplitudes, np.full(8, 1 / (2 * np.sqrt(2))))
    for m in range(1, 13):
        assert np.linalg.norm(_uniform(m).amplitudes) == pytest.approx(1.0)


def test_uniform_superposition_guards():
    for m in (0, 25, -3):
        with pytest.raises(ValueError):
            _uniform(m)


def test_energy_table_matches_naive_evaluation():
    program = build_slack_ancilla_qubo(generate_instance(2, 1, seed=6), 30.0)
    energies = energy_table(program)
    for x in range(1 << 4):
        assert energies[x] == pytest.approx(
            naive_qubo_energy(program, index_to_bits(x, 4)), abs=1e-12
        )


def test_energy_table_refuses_energies_that_overflow():
    # Finite coefficients whose energies overflow, refused without a RuntimeWarning.
    labels = (VarLabel.asset(0), VarLabel.asset(1))
    program = QuboProgram(2, labels, [[0.0, 1e308], [0.0, 0.0]], [1e308, 1e308], 0.0)
    with pytest.raises(ValueError, match="energies must be finite"):
        energy_table(program)


def test_energy_table_refuses_a_pair_sum_that_overflows():
    # Q_01 and Q_10 are finite, but the tabulation adds them: Q + Q^T
    # overflows, and that too is refused without a RuntimeWarning.
    labels = (VarLabel.asset(0), VarLabel.asset(1))
    program = QuboProgram(2, labels, [[0.0, 1e308], [1e308, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="energies must be finite"):
        energy_table(program)


def test_phase_separation_identity_at_zero():
    state = _uniform(3)
    before = state.amplitudes.copy()
    apply_phase_separation(state, _seeded_program(3, 0), 0.0)
    assert np.array_equal(state.amplitudes, before)


def test_phase_separation_constant_energy_is_global_phase():
    state = StateVector(2, random_state(2, 1))
    probs_before = state.probabilities()
    labels = (VarLabel.asset(0), VarLabel.asset(1))
    program = QuboProgram(2, labels, np.zeros((2, 2)), np.zeros(2), 1.7)
    apply_phase_separation(state, program, 0.9)
    assert np.allclose(state.probabilities(), probs_before, atol=1e-12)
    # amplitudes carry exactly the expected global phase
    assert np.allclose(state.amplitudes, np.exp(-1j * 0.9 * 1.7) * random_state(2, 1), atol=1e-12)


def test_phase_separation_matches_matrix_exponential():
    e1 = 0.731
    program = QuboProgram(1, (VarLabel.asset(0),), np.zeros((1, 1)), np.array([e1]), 0.0)
    state = _uniform(1)
    apply_phase_separation(state, program, 0.4)
    diag_h = np.diag([0.0, e1])
    expected = expm(-1j * 0.4 * diag_h) @ np.full(2, 1 / np.sqrt(2), dtype=complex)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_phase_separation_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_phase_separation(_uniform(2), _seeded_program(3, 0), 0.1)


def test_mixer_identity_at_zero():
    state = StateVector(3, random_state(3, 2))
    before = state.amplitudes.copy()
    _mix(state, 0.0)
    assert np.allclose(state.amplitudes, before, atol=1e-15)


def test_mixer_half_pi_flips_all_bits():
    state = _uniform(3)
    state.amplitudes[:] = 0
    state.amplitudes[0] = 1.0  # |000>
    _mix(state, np.pi / 2)
    probs = state.probabilities()
    assert probs[-1] == pytest.approx(1.0, abs=1e-10)


def test_mixer_quarter_pi_balances_single_qubit():
    state = _uniform(1)
    state.amplitudes[:] = [1.0, 0.0]
    _mix(state, np.pi / 4)
    assert np.allclose(state.probabilities(), [0.5, 0.5], atol=1e-12)


def test_conditional_mixer_identity_at_zero():
    state = StateVector(2, random_state(2, 3))
    before = state.amplitudes.copy()
    _mix(state, 0.0, [(0, 1)])
    assert np.allclose(state.amplitudes, before, atol=1e-15)


def test_conditional_mixer_asset_on_flips_ancilla():
    # |asset=1, ancilla=0>: the controlled rotation flips the ancilla, then
    # the asset rotation flips the asset; beta=pi/2 lands on |01> up to phase.
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[string_to_index("10")] = 1.0
    _mix(state, np.pi / 2, [(0, 1)])
    probs = state.probabilities()
    assert probs[string_to_index("01")] == pytest.approx(1.0, abs=1e-10)
    # the ancilla ends in 1 with certainty
    assert probs[string_to_index("01")] + probs[string_to_index("11")] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("beta", [0.3, np.pi / 2, 1.9])
def test_conditional_mixer_asset_off_leaves_ancilla_marginal(beta):
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[string_to_index("01")] = 1.0  # asset off, ancilla 1
    _mix(state, beta, [(0, 1)])
    probs = state.probabilities()
    ancilla_one = probs[string_to_index("01")] + probs[string_to_index("11")]
    assert ancilla_one == pytest.approx(1.0, abs=1e-10)


def test_conditional_mixer_validates_pairs():
    # The ansatz reads its pairs from the labels and takes only asset i at
    # qubit 2i with its slack at 2i + 1: a slack below its asset, a pair
    # that does not start at qubit 0, assets then slacks, and a slack
    # without its asset are refused.
    asset, slack = VarLabel.asset, VarLabel.slack_asset
    for labels in [
        (slack(0), asset(0)),
        (asset(0), asset(1), slack(1)),
        (asset(1), slack(1), asset(0), slack(0)),
        (asset(0), asset(1), asset(2), slack(0), slack(1), slack(2)),
        (asset(0), slack(1)),
        (asset(0), slack(0), slack(1)),
    ]:
        program = replace(_random_program(len(labels), np.random.default_rng(0)), labels=labels)
        with pytest.raises(ValueError, match="conditional mixer takes asset i at qubit 2i"):
            Ansatz(program, "conditional")


def test_expectation_uniform_is_mean_energy():
    energies = energy_table(_seeded_program(3, 7))
    state = _uniform(3)
    assert expectation(state, energies) == pytest.approx(energies.mean(), abs=1e-12)


def test_expectation_on_basis_state():
    energies = energy_table(_seeded_program(2, 8))
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[2] = 1.0
    assert expectation(state, energies) == pytest.approx(energies[2], abs=1e-13)


def test_expectation_matches_naive_sum():
    energies = energy_table(_seeded_program(3, 9))
    state = StateVector(3, random_state(3, 10))
    naive = sum(
        abs(state.amplitudes[x]) ** 2 * energies[x] for x in range(8)
    )
    assert expectation(state, energies) == pytest.approx(naive, abs=1e-12)


def test_sample_basis_state_single_bin():
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[1] = 1.0
    counts = _drawn(sample_counts(state.probabilities(), 500, seed=0), 2)
    assert counts == {"100"[:2]: 500} or counts == {"10": 500}


def test_sample_binomial_three_sigma():
    state = _uniform(1)
    shots = 10**5
    counts = _drawn(sample_counts(state.probabilities(), shots, seed=123), 1)
    sigma = np.sqrt(shots * 0.25)
    for bit in ("0", "1"):
        assert abs(counts.get(bit, 0) - shots / 2) <= 3 * sigma


def test_sample_energy_mean_within_three_sigma_of_expectation():
    inst = generate_instance(3, 1, seed=3)
    program = build_penalty_qubo(inst, 5.0)
    energies = energy_table(program)
    params = QaoaParams(2, (0.4, 0.9), (0.7, 0.3))
    state = Ansatz(program, "standard")(params)
    shots = 20000
    counts = _drawn(sample_counts(state.probabilities(), shots, seed=77), 3)
    sampled_mean = sum(
        c * energies[string_to_index(b)] for b, c in counts.items()
    ) / shots
    exact = expectation(state, energies)
    probs = state.probabilities()
    energy_var = float(probs @ energies**2) - exact**2
    sigma_mean = np.sqrt(energy_var / shots)
    assert abs(sampled_mean - exact) <= 3 * sigma_mean


def test_sample_is_seeded_and_reproducible():
    state = StateVector(3, random_state(3, 5))
    def sample(seed):
        return _drawn(sample_counts(state.probabilities(), 1000, seed=seed), 3)

    assert sample(9) == sample(9)
    assert sample(9) != sample(10)


def test_sampling_chisquare_consistency():
    shots = 10**5
    for m in range(1, 5):
        state = StateVector(m, random_state(m, 40 + m))
        probs = state.probabilities()
        counts = _drawn(sample_counts(probs, shots, seed=m), m)
        observed = np.array(
            [counts.get(
                "".join("1" if (x >> i) & 1 else "0" for i in range(m)), 0
            ) for x in range(1 << m)]
        )
        _, p_value = stats.chisquare(observed, probs * shots)
        assert p_value > 0.01


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_unitarity_over_random_sequences(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    state = StateVector(m, random_state(m, seed))
    program = _seeded_program(m, seed + 1)
    energies = energy_table(program)
    pairs = [(0, 1)] if m >= 2 else None
    reference = state.amplitudes.copy()
    for _ in range(100):
        op = rng.integers(0, 3 if pairs else 2)
        angle = float(rng.normal())
        if op == 0:
            apply_phase_separation(state, program, angle)
            reference = reference * np.exp(-1j * angle * energies)
        elif op == 1:
            _mix(state, angle)
            reference = gate_reference_mixer(reference, angle)
        else:
            _mix(state, angle, pairs)
            reference = gate_reference_mixer(reference, angle, pairs)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
    assert np.abs(state.amplitudes - reference).max() <= 1e-10


@given(seed=st.integers(0, 10**6), g1=st.floats(-3, 3), g2=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_diagonal_commutation(seed, g1, g2):
    program = _seeded_program(3, seed)
    split = StateVector(3, random_state(3, seed))
    apply_phase_separation(split, program, g1)
    apply_phase_separation(split, program, g2)
    joint = StateVector(3, random_state(3, seed))
    apply_phase_separation(joint, program, g1 + g2)
    assert np.allclose(split.amplitudes, joint.amplitudes, atol=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_mixer_acts_as_bit_flip_at_half_pi(seed):
    # exp(-i*(pi/2)*X) = -iX per qubit, so probabilities land on the
    # bit-flipped strings; at pi the mixer is -I, a global phase.
    m = 3
    state = StateVector(m, random_state(m, seed))
    original = state.probabilities()
    _mix(state, np.pi / 2)
    flipped = state.probabilities()
    full = (1 << m) - 1
    for x in range(1 << m):
        assert flipped[x] == pytest.approx(original[x ^ full], abs=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_mixer_periodicity_at_pi(seed):
    state = StateVector(3, random_state(3, seed))
    original = state.amplitudes.copy()
    _mix(state, np.pi)
    # identity up to a global phase
    assert np.allclose(state.amplitudes, -original, atol=1e-12) or np.allclose(
        state.amplitudes, original, atol=1e-12
    )


def test_run_ansatz_matches_dense_reference():
    inst = generate_instance(3, 1, seed=16)
    program = build_slack_ancilla_qubo(inst, 100.0)
    params = QaoaParams(2, (0.8, 0.15), (0.45, 0.7))
    for mixer in ("standard", "conditional"):
        pairs = slack_pairs(program.labels) if mixer == "conditional" else None
        state = Ansatz(program, mixer)(params)
        reference = dense_reference_ansatz(program, params, mixer, pairs)
        assert np.allclose(state.amplitudes, reference, atol=1e-10)


def _random_program(m, rng, density=0.5):
    """A program with each off-diagonal pair coupled with probability
    ``density``, stored upper-triangular, and random b and c."""
    quadratic = np.triu(rng.normal(size=(m, m)) * (rng.random((m, m)) < density), 1)
    labels = tuple(VarLabel.asset(i) for i in range(m))
    return QuboProgram(m, labels, quadratic, rng.normal(size=m), float(rng.normal()))


def _scaled(program, weight):
    return replace(program, quadratic=weight * program.quadratic,
                   linear=weight * program.linear, constant=weight * program.constant)


@pytest.mark.parametrize("m", range(1, 10))
def test_mixers_match_dense_reference_on_arbitrary_layouts(m):
    # m runs past simulate.BLOCK_QUBITS and over values that are not multiples
    # of it. The conditional mixer runs on every layout it takes: the random
    # program relabelled with 0 to m // 2 adjacent (asset, slack) pairs,
    # leaving the qubits above unpaired, and a half-filled top block when the
    # count is odd.
    rng = np.random.default_rng(500 + m)
    program = _random_program(m, rng)
    params = QaoaParams(2, tuple(rng.uniform(-np.pi, np.pi, 2)), tuple(rng.uniform(-np.pi, np.pi, 2)))
    state = Ansatz(program, "standard")(params)
    reference = dense_reference_ansatz(program, params, "standard")
    assert np.allclose(state.amplitudes, reference, rtol=0, atol=1e-10)
    for count in range(m // 2 + 1):
        paired = with_pairs(program, count)
        state = Ansatz(paired, "conditional")(params)
        reference = dense_reference_ansatz(paired, params, "conditional", slack_pairs(paired.labels))
        assert np.allclose(state.amplitudes, reference, rtol=0, atol=1e-10), count


def test_conditional_without_pairs_matches_dense_reference():
    inst = generate_instance(3, 1, seed=17)
    params = QaoaParams(2, (0.4, 0.6), (0.3, 0.9))
    program = build_penalty_qubo(inst, 10.0)
    state = Ansatz(program, "conditional")(params)
    reference = dense_reference_evolution(energy_table(program), params, "conditional", [])
    assert np.allclose(reference, state.amplitudes, atol=1e-9)


def test_energy_table_peak_memory_is_a_small_multiple_of_the_table():
    import tracemalloc

    program = _random_program(16, np.random.default_rng(16), density=1.0)
    tracemalloc.start()
    try:
        energies = energy_table(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * energies.nbytes


@pytest.mark.parametrize("m", range(1, 10))
def test_phase_separation_on_energy_table_matches_naive_energy_phases(m):
    rng = np.random.default_rng(700 + m)
    for weight in (1.0, 1e5):
        program = _scaled(_random_program(m, rng), weight)
        energies = np.array(
            [naive_qubo_energy(program, index_to_bits(x, m)) for x in range(1 << m)]
        )
        norm = _angle_scale(program)
        # gamma = theta / norm as the angle search sets it; at weight 1e5
        # this is the slack Hamiltonian's scale at beta = 51200.
        for theta in (0.0, 0.4, np.pi, -2.3):
            gamma = theta / norm
            amplitudes = random_state(m, 800 + m)
            state = apply_phase_separation(
                StateVector(m, amplitudes.copy()), program, gamma
            )
            expected = amplitudes * np.exp(-1j * gamma * energies)
            assert np.abs(state.amplitudes - expected).max() <= 1e-12, (weight, gamma)


@pytest.mark.parametrize("m", range(1, 11))
def test_phased_uniform_is_phase_separation_of_the_real_frame_uniform_state(m):
    # The real-frame uniform state S^dag|+>^m, built here entry by entry.
    popcounts = np.array([bin(x).count("1") for x in range(1 << m)])
    uniform = np.array([1, -1j, -1, 1j])[popcounts % 4] / np.sqrt(1 << m)
    rng = np.random.default_rng(1000 + m)
    for weight in (1.0, 1e5):
        program = _scaled(_random_program(m, rng), weight)
        norm = _angle_scale(program)
        for gamma in (0.0, float(rng.uniform(-np.pi, np.pi)) / norm):
            fused = real_frame_phased_uniform(np.full(1 << m, np.nan, dtype=complex), program, gamma)
            layered = apply_phase_separation(StateVector(m, uniform.copy()), program, gamma)
            assert np.abs(fused - layered.amplitudes).max() <= 1e-15, (weight, gamma)
    with pytest.raises(ValueError, match="qubits"):
        real_frame_phased_uniform(np.empty(2 << m, dtype=complex), program, 0.1)


@given(beta_angle=st.floats(-10, 10) | st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 4]))
@settings(max_examples=200, deadline=None)
def test_pair_unit_equals_its_gate_formula_entry_for_entry(beta_angle):
    assert np.array_equal(_pair_unit(beta_angle), real_frame_pair_unit(beta_angle))


def test_phase_separation_peak_memory_on_an_energy_table():
    import tracemalloc

    m = 16
    program = _random_program(m, np.random.default_rng(17), density=1.0)
    state = _uniform(m)
    tracemalloc.start()
    try:
        apply_phase_separation(state, program, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * state.amplitudes.nbytes


@pytest.mark.parametrize("m", (10, 12, 14))
def test_frame_ansatz_matches_layer_by_layer_composition(m):
    # Above the dense reference's sizes: the ansatz runs every layer in the
    # real frame, the gate-by-gate reference applies each gate in place.
    rng = np.random.default_rng(900 + m)
    program = _random_program(m, rng)
    energies = energy_table(program)
    params = QaoaParams(3, tuple(rng.uniform(-1, 1, 3) / m), tuple(rng.uniform(-np.pi, np.pi, 3)))
    half = m // 2
    layouts = {
        "every qubit paired": half,
        "unpaired qubits": half - 2,
        "odd pair count": half - 1 - half % 2,
    }
    for name, count in layouts.items():
        paired = with_pairs(program, count)
        state = Ansatz(paired, "conditional")(params)
        composed = gate_reference_evolution(energies, params, "conditional", slack_pairs(paired.labels))
        assert np.abs(state.amplitudes - composed).max() <= 1e-12, name


@pytest.mark.parametrize("m, pair_count", [(11, 5), (13, 5), (16, 7)])
def test_mixers_match_gate_reference_on_row_batches_and_column_chunks(m, pair_count):
    # At these sizes the lowest block runs in several batches of rows
    # (simulate._LOWEST_ROWS); at m = 13 and 16 the block from qubit 12 up
    # multiplies its panels in column chunks (simulate._PANEL_COLUMNS). An
    # odd pair count leaves the conditional mixer's top block half full.
    rng = np.random.default_rng(1100 + m)
    for layout in (None, _adjacent_pairs(pair_count)):
        amplitudes = random_state(m, 1200 + m)
        beta_angle = float(rng.uniform(-np.pi, np.pi))
        mixed = _mix(StateVector(m, amplitudes.copy()), beta_angle, layout)
        reference = gate_reference_mixer(amplitudes, beta_angle, layout)
        assert np.abs(mixed.amplitudes - reference).max() <= 1e-12, layout


def test_mixer_layers_allocate_no_state_sized_temporary():
    import tracemalloc

    m = 16
    amplitudes, spare = random_state(m, 41), np.empty(1 << m, dtype=complex)
    for pair_count in (None, m // 2, m // 2 - 1):
        apply_real_frame_mixer(amplitudes, spare, 0.4, pair_count)  # warm up
        tracemalloc.start()
        try:
            apply_real_frame_mixer(amplitudes, spare, 0.4, pair_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The state is 1 MiB; a layer's gates take a few KiB.
        assert peak < 64 * 1024, (pair_count, peak)


def test_phase_separation_into_a_spare_buffer_matches_a_new_array():
    rng = np.random.default_rng(31)
    m = 6
    program = _random_program(m, rng)
    amplitudes = random_state(m, 32)
    spare = np.full(1 << m, np.nan, dtype=complex)
    in_spare = apply_phase_separation(StateVector(m, amplitudes.copy()), program, 0.7, spare)
    allocated = apply_phase_separation(StateVector(m, amplitudes.copy()), program, 0.7)
    assert np.array_equal(in_spare.amplitudes, allocated.amplitudes)
    assert np.array_equal(amplitudes * spare, in_spare.amplitudes)


def test_a_mixer_layer_builds_its_block_gates_on_one_kronecker_chain(monkeypatch):
    # At m = 7 the standard layer has a full 4-qubit block and a 3-qubit top
    # block. R^(x4) = kron(R^(x3), R), so R^(x3) is a link of the full
    # block's chain: 3 kron calls for the layer, not 3 + 2.
    m = 7
    amplitudes = random_state(m, 61)
    beta_angle = 0.7
    calls = []
    kron = np.kron

    def counted_kron(*args, **kwargs):
        calls.append(args)
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counted_kron)
    mixed = _mix(StateVector(m, amplitudes.copy()), beta_angle)
    assert len(calls) == 3
    reference = gate_reference_mixer(amplitudes, beta_angle)
    assert np.abs(mixed.amplitudes - reference).max() <= 1e-12
