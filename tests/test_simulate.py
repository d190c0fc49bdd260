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
    naive_ising_energy,
    random_state,
)
from qmarko.bitstrings import basis_labels, index_to_bits, string_to_index
from qmarko.encode import IsingHamiltonian, build_penalty_qubo, build_slack_ancilla_qubo, to_ising
from qmarko.instance import generate_instance
from qmarko.qaoa import QaoaParams, _ansatz, mixer_pairs
from qmarko.simulate import (
    EnergyTable,
    StateVector,
    apply_phase_separation,
    apply_real_frame_mixer,
    energy_table,
    expectation,
    from_frame,
    from_real_frame,
    pair_frame,
    real_frame_uniform,
    sample_counts,
    to_frame,
    workspace,
)


def _random_table(m, seed):
    return energy_table(_random_hamiltonian(m, np.random.default_rng(seed)))


def _uniform(m):
    """The ansatz's initial state |+>^m, taken out of the real frame."""
    state, spare = workspace(m)
    return StateVector(m, from_real_frame(real_frame_uniform(state), spare))


def _mix(state, beta_angle, pairs=None):
    """One mixer layer as the ansatz runs it, on a state in canonical phase
    and order: S^dag, the pair frame for ``pairs`` (the conditional mixer),
    the real-unit kernel, then S and canonical order again. In place."""
    size = state.amplitudes.size
    m = state.num_qubits
    # S's phases, i^popcount(x), are the same in every qubit order.
    s_phases = from_real_frame(np.ones(size, dtype=complex), np.empty(size, dtype=complex))
    order = list(range(m)) if pairs is None else pair_frame(m, pairs)
    framed = to_frame(state.amplitudes * s_phases.conj(), order)
    pair_count = None if pairs is None else len(pairs)
    mixed = apply_real_frame_mixer(framed, np.empty_like(framed), beta_angle, pair_count)
    state.amplitudes[:] = from_frame(mixed * s_phases, order)
    return state


def _drawn(counts, num_qubits):
    """Sampled counts keyed by basis label, drawn states only."""
    drawn = np.flatnonzero(counts)
    return dict(zip(basis_labels(drawn, num_qubits), counts[drawn].tolist()))


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
    hamiltonian = to_ising(build_slack_ancilla_qubo(generate_instance(2, 1, seed=6), 30.0))
    table = energy_table(hamiltonian)
    for x in range(1 << 4):
        assert table.energies[x] == pytest.approx(
            naive_ising_energy(hamiltonian, index_to_bits(x, 4)), abs=1e-12
        )


def test_energy_table_refuses_energies_that_overflow():
    # Finite coefficients whose energies overflow, refused without a RuntimeWarning.
    hamiltonian = IsingHamiltonian(2, {(0, 1): 1e308}, np.array([1e308, 1e308]), 0.0)
    with pytest.raises(ValueError, match="energies must be finite"):
        energy_table(hamiltonian)


def test_phase_separation_identity_at_zero():
    state = _uniform(3)
    before = state.amplitudes.copy()
    apply_phase_separation(state, _random_table(3, 0), 0.0)
    assert np.array_equal(state.amplitudes, before)


def test_phase_separation_constant_energy_is_global_phase():
    state = StateVector(2, random_state(2, 1))
    probs_before = state.probabilities()
    table = EnergyTable(2, np.full(4, 1.7), (np.zeros((2, 2)), np.zeros(2), 1.7))
    apply_phase_separation(state, table, 0.9)
    assert np.allclose(state.probabilities(), probs_before, atol=1e-12)
    # amplitudes carry exactly the expected global phase
    assert np.allclose(state.amplitudes, np.exp(-1j * 0.9 * 1.7) * random_state(2, 1), atol=1e-12)


def test_phase_separation_matches_matrix_exponential():
    e1 = 0.731
    table = EnergyTable(1, np.array([0.0, e1]), (np.zeros((1, 1)), np.array([e1]), 0.0))
    state = _uniform(1)
    apply_phase_separation(state, table, 0.4)
    diag_h = np.diag([0.0, e1])
    expected = expm(-1j * 0.4 * diag_h) @ np.full(2, 1 / np.sqrt(2), dtype=complex)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_phase_separation_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_phase_separation(_uniform(2), _random_table(3, 0), 0.1)


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
    state = _uniform(2)
    with pytest.raises(ValueError):
        _mix(state, 0.1, [(0, 2)])
    with pytest.raises(ValueError):
        _mix(state, 0.1, [(0, 0)])
    state4 = _uniform(4)
    with pytest.raises(ValueError):
        _mix(state4, 0.1, [(0, 1), (1, 2)])


def test_expectation_uniform_is_mean_energy():
    table = _random_table(3, 7)
    state = _uniform(3)
    assert expectation(state, table) == pytest.approx(table.energies.mean(), abs=1e-12)


def test_expectation_on_basis_state():
    table = _random_table(2, 8)
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[2] = 1.0
    assert expectation(state, table) == pytest.approx(table.energies[2], abs=1e-13)


def test_expectation_matches_naive_sum():
    table = _random_table(3, 9)
    state = StateVector(3, random_state(3, 10))
    naive = sum(
        abs(state.amplitudes[x]) ** 2 * table.energies[x] for x in range(8)
    )
    assert expectation(state, table) == pytest.approx(naive, abs=1e-12)


def test_sample_basis_state_single_bin():
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[1] = 1.0
    counts = _drawn(sample_counts(state, 500, seed=0), 2)
    assert counts == {"100"[:2]: 500} or counts == {"10": 500}


def test_sample_binomial_three_sigma():
    state = _uniform(1)
    shots = 10**5
    counts = _drawn(sample_counts(state, shots, seed=123), 1)
    sigma = np.sqrt(shots * 0.25)
    for bit in ("0", "1"):
        assert abs(counts.get(bit, 0) - shots / 2) <= 3 * sigma


def test_sample_energy_mean_within_three_sigma_of_expectation():
    inst = generate_instance(3, 1, seed=3)
    hamiltonian = to_ising(build_penalty_qubo(inst, 5.0))
    table = energy_table(hamiltonian)
    params = QaoaParams(2, (0.4, 0.9), (0.7, 0.3))
    state = _ansatz(table, "standard", None)(params)
    shots = 20000
    counts = _drawn(sample_counts(state, shots, seed=77), 3)
    sampled_mean = sum(
        c * table.energies[string_to_index(b)] for b, c in counts.items()
    ) / shots
    exact = expectation(state, table)
    probs = state.probabilities()
    energy_var = float(probs @ table.energies**2) - exact**2
    sigma_mean = np.sqrt(energy_var / shots)
    assert abs(sampled_mean - exact) <= 3 * sigma_mean


def test_sample_is_seeded_and_reproducible():
    state = StateVector(3, random_state(3, 5))
    def sample(seed):
        return _drawn(sample_counts(state, 1000, seed=seed), 3)

    assert sample(9) == sample(9)
    assert sample(9) != sample(10)


def test_sampling_chisquare_consistency():
    shots = 10**5
    for m in range(1, 5):
        state = StateVector(m, random_state(m, 40 + m))
        probs = state.probabilities()
        counts = _drawn(sample_counts(state, shots, seed=m), m)
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
    table = _random_table(m, seed + 1)
    pairs = [(0, 1)] if m >= 2 else None
    reference = state.amplitudes.copy()
    for _ in range(100):
        op = rng.integers(0, 3 if pairs else 2)
        angle = float(rng.normal())
        if op == 0:
            apply_phase_separation(state, table, angle)
            reference = reference * np.exp(-1j * angle * table.energies)
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
    table = _random_table(3, seed)
    split = StateVector(3, random_state(3, seed))
    apply_phase_separation(split, table, g1)
    apply_phase_separation(split, table, g2)
    joint = StateVector(3, random_state(3, seed))
    apply_phase_separation(joint, table, g1 + g2)
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
    hamiltonian = to_ising(program)
    params = QaoaParams(2, (0.8, 0.15), (0.45, 0.7))
    for mixer in ("standard", "conditional"):
        pairs = mixer_pairs(program.labels) if mixer == "conditional" else None
        state = _ansatz(energy_table(hamiltonian), mixer, pairs)(params)
        reference = dense_reference_ansatz(hamiltonian, params, mixer, pairs)
        assert np.allclose(state.amplitudes, reference, atol=1e-10)


def _random_hamiltonian(m, rng):
    couplings = {
        (i, j): float(rng.normal()) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5
    }
    return IsingHamiltonian(m, couplings, rng.normal(size=m), float(rng.normal()))


def _conditional_layouts(m, rng):
    """Pair lists covering the cases the block kernel permutes for."""
    layouts = [[]]
    if m >= 2:
        # Ancilla below asset, non-adjacent, with unpaired qubits between.
        layouts.append([(m - 1, 0)])
        # Slack layout: an unpaired top qubit when m is odd, a half-filled
        # block when m // 2 is odd.
        layouts.append([(i, i + m // 2) for i in range(m // 2)])
        for _ in range(3):
            qubits = [int(q) for q in rng.permutation(m)]
            count = int(rng.integers(1, m // 2 + 1))
            layouts.append([(qubits[2 * i], qubits[2 * i + 1]) for i in range(count)])
    return layouts


@pytest.mark.parametrize("m", range(1, 10))
def test_mixers_match_dense_reference_on_arbitrary_layouts(m):
    # m runs past simulate.BLOCK_QUBITS and over values that are not multiples of it.
    rng = np.random.default_rng(500 + m)
    hamiltonian = _random_hamiltonian(m, rng)
    params = QaoaParams(2, tuple(rng.uniform(-np.pi, np.pi, 2)), tuple(rng.uniform(-np.pi, np.pi, 2)))
    table = energy_table(hamiltonian)
    state = _ansatz(table, "standard", None)(params)
    reference = dense_reference_ansatz(hamiltonian, params, "standard")
    assert np.allclose(state.amplitudes, reference, rtol=0, atol=1e-10)
    for pairs in _conditional_layouts(m, rng):
        state = _ansatz(table, "conditional", pairs)(params)
        reference = dense_reference_ansatz(hamiltonian, params, "conditional", pairs)
        assert np.allclose(state.amplitudes, reference, rtol=0, atol=1e-10), pairs


def test_conditional_without_pairs_matches_dense_reference():
    inst = generate_instance(3, 1, seed=17)
    hamiltonian = to_ising(build_penalty_qubo(inst, 10.0))
    params = QaoaParams(2, (0.4, 0.6), (0.3, 0.9))
    table = energy_table(hamiltonian)
    state = _ansatz(table, "conditional", None)(params)
    reference = dense_reference_evolution(table.energies, params, "conditional", [])
    assert np.allclose(reference, state.amplitudes, atol=1e-9)


def test_energy_table_peak_memory_is_a_small_multiple_of_the_table():
    import tracemalloc

    m = 16
    rng = np.random.default_rng(16)
    couplings = {(i, j): float(rng.normal()) for i in range(m) for j in range(i + 1, m)}
    hamiltonian = IsingHamiltonian(m, couplings, rng.normal(size=m), 0.5)
    tracemalloc.start()
    try:
        table = energy_table(hamiltonian)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.energies.nbytes


@pytest.mark.parametrize("m", range(1, 10))
def test_phase_separation_on_energy_table_matches_naive_energy_phases(m):
    rng = np.random.default_rng(700 + m)
    for weight in (1.0, 1e5):
        base = _random_hamiltonian(m, rng)
        hamiltonian = IsingHamiltonian(
            m,
            {pair: weight * c for pair, c in base.couplings.items()},
            weight * base.fields,
            weight * base.offset,
        )
        energies = np.array(
            [naive_ising_energy(hamiltonian, index_to_bits(x, m)) for x in range(1 << m)]
        )
        norm = float(np.abs(hamiltonian.fields).sum()) + sum(
            abs(c) for c in hamiltonian.couplings.values()
        )
        # gamma = theta / norm as the angle search sets it; at weight 1e5
        # this is the slack Hamiltonian's scale at beta = 51200.
        for theta in (0.0, 0.4, np.pi, -2.3):
            gamma = theta / norm
            amplitudes = random_state(m, 800 + m)
            state = apply_phase_separation(
                StateVector(m, amplitudes.copy()), energy_table(hamiltonian), gamma
            )
            expected = amplitudes * np.exp(-1j * gamma * energies)
            assert np.abs(state.amplitudes - expected).max() <= 1e-12, (weight, gamma)


def test_phase_separation_peak_memory_on_an_energy_table():
    import tracemalloc

    m = 16
    rng = np.random.default_rng(17)
    couplings = {(i, j): float(rng.normal()) for i in range(m) for j in range(i + 1, m)}
    table = energy_table(IsingHamiltonian(m, couplings, rng.normal(size=m), 0.5))
    state = _uniform(m)
    tracemalloc.start()
    try:
        apply_phase_separation(state, table, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * state.amplitudes.nbytes


@pytest.mark.parametrize("m", (10, 12, 14))
def test_frame_ansatz_matches_layer_by_layer_composition(m, monkeypatch):
    # Above the dense reference's sizes: the ansatz runs every layer in the
    # pair frame, the gate-by-gate reference applies each gate in place.
    import qmarko.simulate as simulate

    rng = np.random.default_rng(900 + m)
    hamiltonian = _random_hamiltonian(m, rng)
    table = energy_table(hamiltonian)
    params = QaoaParams(3, tuple(rng.uniform(-1, 1, 3) / m), tuple(rng.uniform(-np.pi, np.pi, 3)))
    qubits = [int(q) for q in rng.permutation(m)]
    half = m // 2
    layouts = {
        "random pairs": [(qubits[2 * i], qubits[2 * i + 1]) for i in range(half)],
        "unpaired qubits": [(qubits[2 * i], qubits[2 * i + 1]) for i in range(half - 2)],
        "ancilla below asset": [(half + i, i) for i in range(half)],
        "already adjacent": [(2 * i, 2 * i + 1) for i in range(half - 1)],
    }
    transposes = []
    original_view = simulate._frame_view

    def counted_view(*args, **kwargs):
        transposes.append(args)
        return original_view(*args, **kwargs)

    monkeypatch.setattr(simulate, "_frame_view", counted_view)
    for name, pairs in layouts.items():
        ansatz = _ansatz(table, "conditional", pairs)
        transposes.clear()
        state = ansatz(params)
        # One transpose per state out of the frame; none when it is in place.
        assert len(transposes) == (0 if name == "already adjacent" else 1), name
        composed = gate_reference_evolution(table.energies, params, "conditional", pairs)
        assert np.abs(state.amplitudes - composed).max() <= 1e-12, name


def test_phase_separation_into_a_spare_buffer_matches_a_new_array():
    rng = np.random.default_rng(31)
    m = 6
    table = energy_table(_random_hamiltonian(m, rng))
    amplitudes = random_state(m, 32)
    spare = np.full(1 << m, np.nan, dtype=complex)
    in_spare = apply_phase_separation(StateVector(m, amplitudes.copy()), table, 0.7, spare)
    allocated = apply_phase_separation(StateVector(m, amplitudes.copy()), table, 0.7)
    assert np.array_equal(in_spare.amplitudes, allocated.amplitudes)
    assert np.array_equal(amplitudes * spare, in_spare.amplitudes)
