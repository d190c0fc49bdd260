import warnings

import numpy as np
import pytest

from functools import partial

from helpers import dense_reference_ansatz, final_register, label_bits
from qmarko.bitstrings import index_to_bits
from qmarko.encode import IsingHamiltonian, build_penalty_qubo, build_slack_ancilla_qubo, to_ising
from qmarko.instance import PortfolioInstance, classical_objective, generate_instance, is_feasible
from qmarko.oracle import exhaustive_portfolio_optimum, exhaustive_qubo_minimum
from qmarko.qaoa import (
    QaoaParams,
    ScheduleConfig,
    _ansatz,
    _draw_initial_angles,
    _physical_params,
    _search_angles,
    minimize_with_budget,
    mixer_pairs,
    run_baseline_penalty_qaoa,
    run_cardinality_slack_qaoa,
    run_schedule,
)
from qmarko.simulate import energy_table, expectation


def _state(hamiltonian, params, mixer="standard", pairs=None):
    return _ansatz(energy_table(hamiltonian), mixer, pairs)(params)


def _optimize_angles(hamiltonian, p, budget, seed):
    """A fixed-penalty run's angle search: (best physical angles, evals)."""
    theta0 = _draw_initial_angles(np.random.default_rng(seed), p)
    minimize = partial(minimize_with_budget, optimizer="cobyla", budget=budget)
    _, scale, theta, evals = _search_angles(hamiltonian, theta0, minimize)
    return _physical_params(theta, scale), evals


# --- parameter containers ----------------------------------------------------

def test_params_validation():
    params = QaoaParams(2, (0.1, 0.2), (0.3, 0.4))
    assert params.p == 2
    with pytest.raises(ValueError):
        QaoaParams(2, (0.1,), (0.3, 0.4))
    with pytest.raises(ValueError):
        QaoaParams(0, (), ())
    with pytest.raises(ValueError):
        QaoaParams(1, (np.inf,), (0.0,))


def test_params_vector_round_trip():
    params = QaoaParams(2, (0.1, 0.2), (0.3, 0.4))
    assert QaoaParams.from_vector([0.1, 0.2, 0.3, 0.4]) == params
    with pytest.raises(ValueError):
        QaoaParams.from_vector([0.1, 0.2, 0.3])


def test_schedule_config_validation():
    ScheduleConfig()
    with pytest.raises(ValueError):
        ScheduleConfig(beta_penalty_init=0.0)
    with pytest.raises(ValueError):
        ScheduleConfig(doubling_interval=0)
    with pytest.raises(ValueError):
        ScheduleConfig(feasibility_target=0.0)
    with pytest.raises(ValueError):
        ScheduleConfig(feasibility_target=1.5)


# --- optimizer plumbing --------------------------------------------------------

def test_minimize_with_budget_respects_cap_exactly():
    calls = []

    def bowl(x):
        calls.append(1)
        return float((x**2).sum() + np.sin(4 * x).sum())

    _, _, evals = minimize_with_budget(bowl, np.array([2.0, -1.5]), "cobyla", budget=13)
    assert len(evals) == 13
    assert len(calls) == 13
    calls.clear()
    _, _, evals = minimize_with_budget(bowl, np.array([2.0, -1.5]), "nelder-mead", budget=13)
    assert len(evals) == 13


@pytest.mark.parametrize("num_vars", [4, 6])
@pytest.mark.parametrize("budget", range(1, 6))
def test_cobyla_budget_below_its_minimum_is_exact_and_silent(num_vars, budget):
    def bowl(x):
        return float((x**2).sum() + np.sin(4 * x).sum())

    x0 = np.linspace(2.0, -1.5, num_vars)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, best_f, evals = minimize_with_budget(bowl, x0, "cobyla", budget=budget)
    assert len(evals) == budget
    assert best_f == min(evals)


def test_minimize_with_budget_rejects_unknown_optimizer():
    with pytest.raises(ValueError):
        minimize_with_budget(lambda x: 0.0, np.zeros(2), "powell", 10)
    with pytest.raises(ValueError):
        minimize_with_budget(lambda x: 0.0, np.zeros(2), "cobyla", 0)


def test_mixer_pairs_from_labels():
    program = build_slack_ancilla_qubo(generate_instance(3, 1, seed=0), 10.0)
    assert mixer_pairs(program.labels) == [(0, 3), (1, 4), (2, 5)]


# --- ansatz -------------------------------------------------------------------

def test_run_ansatz_zero_angles_is_uniform():
    hamiltonian = to_ising(build_slack_ancilla_qubo(generate_instance(2, 1, seed=1), 10.0))
    state = _state(hamiltonian, QaoaParams(2, (0.0, 0.0), (0.0, 0.0)))
    assert np.allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)


def test_run_ansatz_pure_mixer_keeps_uniform_probabilities():
    hamiltonian = IsingHamiltonian(3, {}, np.zeros(3), 0.0)
    state = _state(hamiltonian, QaoaParams(1, (0.7,), (0.45,)))
    assert np.allclose(state.probabilities(), np.full(8, 1 / 8), atol=1e-12)


def test_run_ansatz_expectation_matches_dense_reference():
    inst = generate_instance(3, 1, seed=2)
    program = build_slack_ancilla_qubo(inst, 100.0)
    hamiltonian = to_ising(program)
    params = QaoaParams(2, (0.31, 0.77), (0.52, 0.18))
    table = energy_table(hamiltonian)
    for mixer in ("standard", "conditional"):
        pairs = mixer_pairs(program.labels) if mixer == "conditional" else None
        state = _state(hamiltonian, params, mixer, pairs)
        reference = dense_reference_ansatz(hamiltonian, params, mixer, pairs)
        ref_expectation = float(
            np.real(np.conj(reference) @ (table.energies * reference))
        )
        assert expectation(state, table) == pytest.approx(ref_expectation, abs=1e-10)


# --- angle optimization ---------------------------------------------------------

def test_optimize_angles_flat_landscape_returns_offset():
    hamiltonian = IsingHamiltonian(2, {}, np.zeros(2), 3.25)
    params, trace = _optimize_angles(hamiltonian, p=1, budget=25, seed=0)
    state = _state(hamiltonian, params)
    assert expectation(state, energy_table(hamiltonian)) == pytest.approx(3.25, abs=1e-12)
    assert all(v == pytest.approx(3.25, abs=1e-12) for v in trace)


def _grid_search_single_qubit(resolution=1e-3):
    # from-scratch 2-amplitude evolution for h=[1], offset 0, p=1
    gammas = np.arange(0.0, np.pi, resolution)
    betas = np.arange(0.0, np.pi, resolution)
    best = np.inf
    cos_b, sin_b = np.cos(betas)[None, :], np.sin(betas)[None, :]
    for start in range(0, gammas.size, 400):
        g = gammas[start : start + 400][:, None]
        a0 = np.exp(-1j * g) / np.sqrt(2)  # E(|0>) = +1
        a1 = np.exp(+1j * g) / np.sqrt(2)  # E(|1>) = -1
        b0 = cos_b * a0 - 1j * sin_b * a1
        b1 = cos_b * a1 - 1j * sin_b * a0
        energies = np.abs(b0) ** 2 - np.abs(b1) ** 2
        best = min(best, float(energies.min()))
    return best


def test_optimize_angles_reaches_single_qubit_ground_state():
    hamiltonian = IsingHamiltonian(1, {}, np.array([1.0]), 0.0)
    grid_min = _grid_search_single_qubit()
    assert grid_min == pytest.approx(-1.0, abs=1e-3)
    params, _ = _optimize_angles(hamiltonian, p=1, budget=200, seed=3)
    achieved = expectation(_state(hamiltonian, params), energy_table(hamiltonian))
    assert achieved <= grid_min + 1e-3
    assert achieved == pytest.approx(-1.0, abs=1e-3)


def test_optimize_angles_improves_on_initial_expectation():
    inst = generate_instance(3, 1, seed=4)
    hamiltonian = to_ising(build_slack_ancilla_qubo(inst, 100.0))
    params, trace = _optimize_angles(hamiltonian, p=2, budget=200, seed=4)
    assert len(trace) <= 200
    running_min = np.minimum.accumulate(trace)
    assert np.all(np.diff(running_min) <= 0.0)
    final = expectation(_state(hamiltonian, params), energy_table(hamiltonian))
    assert final <= trace[0] + 1e-12


def test_optimize_angles_is_invariant_under_energy_scaling():
    # A power-of-two factor is exact in floating point, so a search in
    # scale-aware angles must retrace the same path bit for bit.
    inst = generate_instance(3, 1, seed=4)
    hamiltonian = to_ising(build_slack_ancilla_qubo(inst, 100.0))
    factor = 2.0**10
    scaled = IsingHamiltonian(
        hamiltonian.num_qubits,
        {key: factor * c for key, c in hamiltonian.couplings.items()},
        factor * hamiltonian.fields,
        factor * hamiltonian.offset,
    )
    params, trace = _optimize_angles(hamiltonian, p=2, budget=200, seed=4)
    scaled_params, scaled_trace = _optimize_angles(scaled, p=2, budget=200, seed=4)
    assert len(scaled_trace) == len(trace)
    assert scaled_trace == [factor * v for v in trace]
    assert scaled_params.gammas == tuple(g / factor for g in params.gammas)
    assert scaled_params.beta_mixes == params.beta_mixes


# --- schedule -------------------------------------------------------------------

def test_schedule_unconstrained_instance_never_doubles():
    inst = PortfolioInstance(
        2, 2, np.array([0.05, 0.06]), np.zeros((2, 2)), np.ones(2)
    )
    record = run_schedule(inst, seed=0)
    assert record.terminated_by == "feasibility_target"
    assert record.final_beta_penalty == ScheduleConfig().beta_penalty_init
    assert record.iterations_used == ScheduleConfig().doubling_interval
    assert record.sampled_feasible_fraction == 1.0


def test_schedule_matches_exhaustive_oracle():
    inst = generate_instance(3, 1, seed=6)
    truth_bits, truth_value = exhaustive_portfolio_optimum(inst)
    record = run_schedule(inst, seed=6)
    assert record.best_feasible is not None
    assert record.best_feasible.bitstring == truth_bits
    assert record.best_feasible.value == pytest.approx(truth_value, abs=1e-9)


def test_schedule_respects_iteration_cap_of_one():
    inst = generate_instance(3, 1, seed=7)
    config = ScheduleConfig(max_iterations=1)
    record = run_schedule(inst, config, seed=7)
    assert record.iterations_used == 1
    assert record.sampled_feasible_fraction is not None
    assert len(record.trace) == 1


def test_schedule_is_deterministic():
    inst = generate_instance(3, 1, seed=8)
    a = run_schedule(inst, seed=8).to_dict()
    b = run_schedule(inst, seed=8).to_dict()
    assert a == b


def test_schedule_doubles_exactly_on_interval_boundaries():
    inst = generate_instance(3, 1, seed=9)
    config = ScheduleConfig(doubling_interval=10, max_iterations=50)
    record = run_schedule(inst, config, seed=9)
    betas = [row.beta_penalty for row in record.trace]
    for i, row in enumerate(record.trace):
        expected = config.beta_penalty_init * 2.0 ** (i // config.doubling_interval)
        assert row.beta_penalty == expected
        # feasibility is measured exactly at the end of each interval
        if (i + 1) % config.doubling_interval == 0:
            assert row.feasible_fraction is not None
        else:
            assert row.feasible_fraction is None
    assert len(betas) == 50


def test_schedule_running_best_never_increases_within_fixed_beta():
    inst = generate_instance(3, 1, seed=10)
    record = run_schedule(inst, seed=10)
    segment_best = None
    current_beta = None
    for row in record.trace:
        if row.beta_penalty != current_beta:
            current_beta = row.beta_penalty
            segment_best = row.expectation
        else:
            assert min(segment_best, row.expectation) <= segment_best + 1e-12
            segment_best = min(segment_best, row.expectation)


def test_schedule_final_params_reproduce_the_recorded_marginal():
    # The record's contract: its final angles on the final penalty's
    # Hamiltonian give back the state it was built from.
    config = ScheduleConfig()
    for seed in range(1, 13):
        inst = generate_instance(3, 1, seed=seed)
        record = run_schedule(inst, config, seed=seed)
        program = build_slack_ancilla_qubo(inst, record.final_beta_penalty)
        pairs = mixer_pairs(program.labels)
        state = _state(to_ising(program), record.final_params, record.mixer, pairs)
        marginal = state.probabilities().reshape(-1, 1 << inst.n).sum(axis=0)
        assert np.array_equal(marginal, record.marginal), seed


def test_schedule_record_is_self_consistent():
    inst = generate_instance(3, 1, seed=11)
    record = run_schedule(inst, seed=11)
    assert sum(final_register(record, inst).values()) == pytest.approx(1.0, abs=1e-9)
    assert record.best_feasible is not None
    bits = label_bits(record.best_feasible.bitstring)
    assert is_feasible(inst, bits)
    assert record.best_feasible.value == pytest.approx(
        classical_objective(inst, bits), abs=1e-12
    )
    assert record.reported == record.best_feasible
    assert record.variance_bound.slack >= -1e-9


# --- fixed-penalty runners -------------------------------------------------------

def test_baseline_reports_most_probable_with_flag():
    inst = generate_instance(3, 1, seed=12)
    record = run_baseline_penalty_qaoa(inst, a_card=1000.0, p=2, budget=200, seed=12)
    assert record.method == "penalty-qaoa"
    assert record.reported == record.most_probable
    bits = label_bits(record.most_probable.bitstring)
    assert record.most_probable.feasible == is_feasible(inst, bits)
    assert record.most_probable.value == pytest.approx(
        classical_objective(inst, bits), abs=1e-12
    )
    assert sum(final_register(record, inst).values()) == pytest.approx(1.0, abs=1e-9)


def test_baseline_penalty_strength_pushes_mass_toward_cardinality():
    # The weak penalty must lie below the crossover where the cardinality
    # term starts to dominate the objective (mu <= 0.1, sigma entries ~1e-3,
    # so a_card = 1 is already strong); only then is the contrast a
    # property of the Hamiltonian rather than of the optimizer's path.
    inst = generate_instance(3, 1, seed=13)
    weak_a, strong_a = 1e-3, 1e6
    weak_bits, _ = exhaustive_qubo_minimum(build_penalty_qubo(inst, weak_a))
    strong_bits, _ = exhaustive_qubo_minimum(build_penalty_qubo(inst, strong_a))
    assert weak_bits.count("1") != inst.k
    assert strong_bits.count("1") == inst.k

    def off_cardinality_mass(record):
        total = 0.0
        for bitstring, probability in final_register(record, inst).items():
            if sum(map(int, bitstring)) != inst.k:
                total += probability
        return total

    weak = run_baseline_penalty_qaoa(inst, a_card=weak_a, p=2, budget=200, seed=13)
    strong = run_baseline_penalty_qaoa(inst, a_card=strong_a, p=2, budget=200, seed=13)
    assert off_cardinality_mass(strong) < off_cardinality_mass(weak)


def test_baseline_flags_constructed_all_ones_failure():
    # negative-dominant returns at small penalty make '111' the global
    # minimum of the penalty program; the harness must flag it infeasible
    inst = PortfolioInstance(
        3, 1, np.array([1.0, 1.0, 1.0]), np.zeros((3, 3)), np.array([1.0, 0.0, 0.0])
    )
    from qmarko.encode import build_penalty_qubo
    from qmarko.oracle import exhaustive_qubo_minimum

    bits, _ = exhaustive_qubo_minimum(build_penalty_qubo(inst, 0.1))
    assert bits == "111"
    record = run_baseline_penalty_qaoa(inst, a_card=0.1, p=2, budget=200, seed=1)
    reported_bits = label_bits(record.reported.bitstring)
    assert record.reported.feasible == is_feasible(inst, reported_bits)
    if record.reported.bitstring == "111":
        assert not record.reported.feasible


def test_cardinality_slack_runner_reports_best_feasible():
    inst = generate_instance(3, 1, seed=14)
    record = run_cardinality_slack_qaoa(inst, a_card=1000.0, p=2, budget=200, seed=14)
    assert record.method == "cardinality-slack-qaoa"
    assert record.reported == record.best_feasible
    assert record.best_feasible is not None
    bits = label_bits(record.best_feasible.bitstring)
    assert is_feasible(inst, bits)
    # histogram spans asset bits plus ceil(log2(k+1)) slack bits
    assert all(len(b) == 4 for b in final_register(record, inst))


# --- portfolio picks against the loop reference ------------------------------

def _assert_picks_match(inst, state):
    from helpers import naive_portfolio_picks
    from qmarko.qaoa import REPORTING_THRESHOLD, _picks

    marginal = state.probabilities().reshape(-1, 1 << inst.n).sum(axis=0)
    best, most_probable, mass = _picks(inst, marginal)
    ref_best, ref_most_probable, ref_mass = naive_portfolio_picks(inst, marginal, REPORTING_THRESHOLD)
    assert (most_probable.bitstring, most_probable.value, most_probable.probability) == ref_most_probable
    assert most_probable.feasible == is_feasible(inst, label_bits(most_probable.bitstring))
    if ref_best is None:
        assert best is None
    else:
        assert (best.bitstring, best.value, best.probability) == ref_best
        assert best.feasible
    assert abs(mass - ref_mass) <= 1e-12
    return best


@pytest.mark.parametrize("n", [3, 6, 9])
def test_portfolio_picks_match_loop_reference(n):
    from helpers import random_state
    from qmarko.simulate import StateVector

    for seed in range(3):
        inst = generate_instance(n, max(1, n // 3), seed=seed)
        for qubits in (n, 2 * n):
            state = StateVector(qubits, random_state(qubits, 100 * n + seed))
            _assert_picks_match(inst, state)


def test_portfolio_picks_best_feasible_is_none_below_threshold():
    from qmarko.qaoa import REPORTING_THRESHOLD
    from qmarko.simulate import StateVector

    inst = generate_instance(3, 1, seed=0)
    feasible = [i for i in range(8) if is_feasible(inst, index_to_bits(i, 3))]
    probabilities = np.zeros(8)
    probabilities[feasible] = REPORTING_THRESHOLD / 2
    probabilities[7] = 1.0 - probabilities.sum()  # "111" breaks k = 1
    state = StateVector(3, np.sqrt(probabilities).astype(complex))
    assert _assert_picks_match(inst, state) is None


# --- trace numbering ---------------------------------------------------------

def _assert_trace_numbered(record, expected_length):
    assert [row.iteration for row in record.trace] == list(range(1, expected_length + 1))
    doc = record.to_dict()
    assert doc["iterations"] == len(record.trace) == record.iterations_used
    # The trace rows carry the evaluations; no second list repeats them.
    assert "objective_trace" not in doc
    assert [row["expectation"] for row in doc["trace"]] == [row.expectation for row in record.trace]
    assert [row["iteration"] for row in doc["trace"]] == list(range(1, expected_length + 1))


def test_trace_is_numbered_from_one_across_penalty_doublings():
    inst = generate_instance(3, 1, seed=5)
    config = ScheduleConfig(doubling_interval=3, max_iterations=9)
    record = run_schedule(inst, config, seed=5)
    assert record.terminated_by == "max_iterations"
    assert len({row.beta_penalty for row in record.trace}) == 3
    _assert_trace_numbered(record, 9)

    baseline = run_baseline_penalty_qaoa(inst, a_card=1000.0, p=2, budget=7, seed=5)
    _assert_trace_numbered(baseline, 7)


# --- serialised histogram: the asset marginal --------------------------------

def _assert_serialised_histogram_is_asset_marginal(record, inst):
    from qmarko.bitstrings import index_to_string

    n = inst.n
    serialised = record.to_dict()["histogram"]
    assert list(serialised) == [index_to_string(i, n) for i in range(1 << n)]
    register = final_register(record, inst)
    summed = dict.fromkeys(serialised, 0.0)
    for key, probability in register.items():
        summed[key[:n]] += probability
    for key, probability in serialised.items():
        assert abs(probability - summed[key]) <= 1e-14, key
    return serialised, register


def test_serialised_histogram_is_the_asset_marginal():
    inst = generate_instance(3, 1, seed=15)
    schedule = run_schedule(inst, ScheduleConfig(doubling_interval=4, max_iterations=8), seed=15)
    _, register = _assert_serialised_histogram_is_asset_marginal(schedule, inst)
    assert len(next(iter(register))) == 2 * inst.n

    cardinality = run_cardinality_slack_qaoa(inst, a_card=1000.0, p=2, budget=8, seed=15)
    _, register = _assert_serialised_histogram_is_asset_marginal(cardinality, inst)
    assert len(next(iter(register))) == inst.n + 1

    # Without ancillas (m = n) the marginal is the register distribution, exactly.
    penalty = run_baseline_penalty_qaoa(inst, a_card=1000.0, p=2, budget=8, seed=15)
    serialised, register = _assert_serialised_histogram_is_asset_marginal(penalty, inst)
    assert list(serialised.items()) == list(register.items())


# --- the ansatz's workspace ------------------------------------------------------

def _ansatz_layouts(n):
    """(hamiltonian, mixer, pairs) for each way the ansatz lays out its state:
    the standard mixer in place, the conditional mixer in the slack program's
    pair frame, and the conditional mixer on pairs already adjacent."""
    program = build_slack_ancilla_qubo(generate_instance(n, 2, seed=n), 100.0)
    hamiltonian = to_ising(program)
    adjacent = [(2 * i, 2 * i + 1) for i in range(n)]
    return {
        "standard": (hamiltonian, "standard", None),
        "pair frame": (hamiltonian, "conditional", mixer_pairs(program.labels)),
        "adjacent pairs": (hamiltonian, "conditional", adjacent),
    }


_PARAMS_A = QaoaParams(2, (0.013, 0.021), (0.4, 0.9))
_PARAMS_B = QaoaParams(2, (-0.02, 0.005), (1.1, 0.2))


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_returned_state_is_unchanged_by_later_evaluations(layout):
    from qmarko.qaoa import _ansatz

    hamiltonian, mixer, pairs = _ansatz_layouts(4)[layout]
    ansatz = _ansatz(energy_table(hamiltonian), mixer, pairs)
    state = ansatz(_PARAMS_A)
    kept = state.amplitudes.copy()
    ansatz(_PARAMS_B)
    ansatz.expectation(_PARAMS_B)
    assert np.array_equal(state.amplitudes, kept)


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_evaluations_do_not_depend_on_earlier_ones(layout):
    from qmarko.qaoa import _ansatz

    hamiltonian, mixer, pairs = _ansatz_layouts(4)[layout]
    ansatz = _ansatz(energy_table(hamiltonian), mixer, pairs)
    value, amplitudes = ansatz.expectation(_PARAMS_A), ansatz(_PARAMS_A).amplitudes
    ansatz.expectation(_PARAMS_B)
    ansatz(_PARAMS_B)
    assert ansatz.expectation(_PARAMS_A) == value
    assert np.array_equal(ansatz(_PARAMS_A).amplitudes, amplitudes)


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_search_objective_is_the_expectation_of_the_state(layout):
    from qmarko.qaoa import _physical_params, _search_angles

    hamiltonian, mixer, pairs = _ansatz_layouts(4)[layout]
    thetas = np.random.default_rng(41).uniform(0.0, np.pi, size=(5, 4))

    def minimize(objective, theta):
        values = [objective(t) for t in thetas]
        return theta, min(values), values

    ansatz, scale, _, values = _search_angles(hamiltonian, thetas[0], minimize, mixer, pairs)
    table = energy_table(hamiltonian)
    for theta, value in zip(thetas, values):
        direct = expectation(ansatz(_physical_params(theta, scale)), table)
        assert value == pytest.approx(direct, rel=1e-12, abs=0)


@pytest.mark.parametrize("mixer", ("standard", "conditional"))
def test_ansatz_peak_memory_is_its_workspace_and_one_state(mixer):
    import tracemalloc

    from qmarko.qaoa import _ansatz

    hamiltonian, _, pairs = _ansatz_layouts(7)["pair frame" if mixer == "conditional" else mixer]
    table = energy_table(hamiltonian)  # m = 14
    tracemalloc.start()
    try:
        ansatz = _ansatz(table, mixer, pairs)  # held: its workspace stays allocated
        state = ansatz(_PARAMS_A)
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        ansatz.expectation(_PARAMS_B)
        ansatz(_PARAMS_B)
        later = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    nbytes = state.amplitudes.nbytes
    # Two workspace buffers, the returned state and, in the pair frame, the
    # permuted energies (half a state).
    assert first <= 3.6 * nbytes, first / nbytes
    # Later evaluations reuse the workspace.
    assert later <= 1.1 * nbytes, later / nbytes


def test_ansatz_refuses_more_than_max_qubits_before_allocating():
    from qmarko.qaoa import _ansatz
    from qmarko.simulate import MAX_QUBITS, EnergyTable

    # The energies and form are stand-ins: the qubit count is checked before
    # the workspace, 2 x 2^25 amplitudes, would be allocated.
    m = MAX_QUBITS + 1
    table = EnergyTable(m, np.zeros(1), (np.zeros((m, m)), np.zeros(m), 0.0))
    with pytest.raises(ValueError, match="outside"):
        _ansatz(table, "standard", None)
