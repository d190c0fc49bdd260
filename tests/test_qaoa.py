import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace
from functools import partial

from helpers import (
    asset_bits,
    dense_reference_ansatz,
    final_register,
    label_bits,
    naive_ising_coefficients,
    record_json,
    record_program,
    slack_pairs,
    with_pairs,
)
from qmarko.bounds import asset_marginal
from qmarko.bitstrings import index_to_bits
from qmarko.encode import QuboProgram, VarLabel, build_penalty_qubo, build_slack_ancilla_qubo
from qmarko.instance import PortfolioInstance, classical_objective, generate_instance, is_feasible
from qmarko.oracle import exhaustive_portfolio_optimum, exhaustive_qubo_minimum
from qmarko.qaoa import (
    FIXED_PENALTY_ARMS,
    QaoaParams,
    ScheduleConfig,
    _angle_scale,
    _ansatz,
    _draw_initial_angles,
    _physical_params,
    _search_angles,
    minimize_with_budget,
    run_fixed_penalty,
    run_schedule,
)
from qmarko.simulate import energy_table, expectation


def _state(program, params, mixer="standard"):
    return _ansatz(program, mixer)(params)


def _program(quadratic, linear, constant):
    m = len(linear)
    return QuboProgram(m, tuple(VarLabel.asset(i) for i in range(m)), quadratic, linear, constant)


def _optimize_angles(program, p, budget, seed):
    """A fixed-penalty run's angle search: (best physical angles, evals)."""
    theta0 = _draw_initial_angles(np.random.default_rng(seed), p)
    minimize = partial(minimize_with_budget, optimizer="cobyla", budget=budget)
    _, final_params, _, _, evals = _search_angles(program, theta0, minimize)
    return final_params, evals


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


# --- ansatz -------------------------------------------------------------------

def test_run_ansatz_zero_angles_is_uniform():
    program = build_slack_ancilla_qubo(generate_instance(2, 1, seed=1), 10.0)
    state = _state(program, QaoaParams(2, (0.0, 0.0), (0.0, 0.0)))
    assert np.allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)


def test_run_ansatz_pure_mixer_keeps_uniform_probabilities():
    program = _program(np.zeros((3, 3)), np.zeros(3), 0.0)
    state = _state(program, QaoaParams(1, (0.7,), (0.45,)))
    assert np.allclose(state.probabilities(), np.full(8, 1 / 8), atol=1e-12)


def test_run_ansatz_expectation_matches_dense_reference():
    inst = generate_instance(3, 1, seed=2)
    program = build_slack_ancilla_qubo(inst, 100.0)
    params = QaoaParams(2, (0.31, 0.77), (0.52, 0.18))
    table = energy_table(program)
    for mixer in ("standard", "conditional"):
        pairs = slack_pairs(program.labels) if mixer == "conditional" else None
        state = _state(program, params, mixer)
        reference = dense_reference_ansatz(program, params, mixer, pairs)
        ref_expectation = float(
            np.real(np.conj(reference) @ (table.energies * reference))
        )
        assert expectation(state, table) == pytest.approx(ref_expectation, abs=1e-10)


# --- angle optimization ---------------------------------------------------------

def test_optimize_angles_flat_landscape_returns_offset():
    program = _program(np.zeros((2, 2)), np.zeros(2), 3.25)
    params, trace = _optimize_angles(program, p=1, budget=25, seed=0)
    state = _state(program, params)
    assert expectation(state, energy_table(program)) == pytest.approx(3.25, abs=1e-12)
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
    # The field h = 1, E = z: the program 1 - 2x.
    program = _program(np.zeros((1, 1)), np.array([-2.0]), 1.0)
    grid_min = _grid_search_single_qubit()
    assert grid_min == pytest.approx(-1.0, abs=1e-3)
    params, _ = _optimize_angles(program, p=1, budget=200, seed=3)
    achieved = expectation(_state(program, params), energy_table(program))
    assert achieved <= grid_min + 1e-3
    assert achieved == pytest.approx(-1.0, abs=1e-3)


def test_optimize_angles_improves_on_initial_expectation():
    inst = generate_instance(3, 1, seed=4)
    program = build_slack_ancilla_qubo(inst, 100.0)
    params, trace = _optimize_angles(program, p=2, budget=200, seed=4)
    assert len(trace) <= 200
    running_min = np.minimum.accumulate(trace)
    assert np.all(np.diff(running_min) <= 0.0)
    final = expectation(_state(program, params), energy_table(program))
    assert final <= trace[0] + 1e-12


def test_optimize_angles_is_invariant_under_energy_scaling():
    # A power-of-two factor is exact in floating point, so a search in
    # scale-aware angles must retrace the same path bit for bit.
    inst = generate_instance(3, 1, seed=4)
    program = build_slack_ancilla_qubo(inst, 100.0)
    factor = 2.0**10
    scaled = replace(
        program, quadratic=factor * program.quadratic, linear=factor * program.linear,
        constant=factor * program.constant,
    )
    params, trace = _optimize_angles(program, p=2, budget=200, seed=4)
    scaled_params, scaled_trace = _optimize_angles(scaled, p=2, budget=200, seed=4)
    assert len(scaled_trace) == len(trace)
    assert scaled_trace == [factor * v for v in trace]
    assert scaled_params.gammas == tuple(g / factor for g in params.gammas)
    assert scaled_params.beta_mixes == params.beta_mixes


@given(seed=st.integers(0, 10**6), m=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_angle_scale_is_the_ising_norm_and_the_table_reads_only_q_plus_q_transpose(seed, m):
    # One Q + Q^T in full, upper-triangular and split storage: for each, the
    # closed-form scale is the loop reference's sum|h| + sum|J|, and the
    # energies are the same bit for bit.
    rng = np.random.default_rng(seed)
    split = rng.normal(size=(m, m))
    pair = split + split.T
    storages = {
        "full": pair / 2.0,
        "upper": np.triu(pair, 1) + np.diag(np.diag(split)),
        "split": split,
    }
    linear, constant = rng.normal(size=m), float(rng.normal())
    tables = []
    for name, quadratic in storages.items():
        program = _program(quadratic, linear, constant)
        couplings, fields, _ = naive_ising_coefficients(program)
        norm = float(np.abs(fields).sum()) + sum(abs(c) for c in couplings.values())
        assert _angle_scale(program) == pytest.approx(norm, rel=1e-12, abs=0), name
        tables.append(energy_table(program).energies)
    assert all(np.array_equal(tables[0], table) for table in tables[1:])


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
    a = record_json(run_schedule(inst, seed=8))
    b = record_json(run_schedule(inst, seed=8))
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
    # The record's contract, for both mixers: its final angles on the final
    # penalty's Hamiltonian give back the state it was built from.
    config = ScheduleConfig()
    for mixer in ("conditional", "standard"):
        for seed in range(1, 13):
            inst = generate_instance(3, 1, seed=seed)
            record = run_schedule(inst, config, mixer=mixer, seed=seed)
            program = build_slack_ancilla_qubo(inst, record.final_beta_penalty)
            state = _ansatz(program, record.mixer)(record.final_params)
            marginal = asset_marginal(state.probabilities(), program.labels)
            assert np.array_equal(marginal, record.marginal), (mixer, seed)


def test_marginal_sampled_feasible_fraction_is_seeded_and_unbiased():
    # The check draws its shots from the asset marginal; per seed it is
    # reproducible, and over 200 seeds its mean lies within 3 sigma of the
    # exact feasible mass.
    from qmarko.instance import feasible_table
    from qmarko.qaoa import _sampled_feasible_fraction

    inst = generate_instance(4, 2, seed=3)
    program = build_slack_ancilla_qubo(inst, 100.0)
    params = QaoaParams(2, (0.001, 0.002), (1.2, 0.4))
    state = _state(program, params, "conditional")
    marginal = asset_marginal(state.probabilities(), program.labels)
    feasible = feasible_table(inst)
    mass = float(marginal[feasible].sum())
    assert 0.05 < mass < 0.95
    shots, seeds = 100, range(200)
    fractions = [_sampled_feasible_fraction(feasible, marginal, shots, s) for s in seeds]
    assert fractions == [_sampled_feasible_fraction(feasible, marginal, shots, s) for s in seeds]
    assert len(set(fractions)) > 1
    sigma = np.sqrt(mass * (1.0 - mass) / (shots * len(fractions)))
    assert abs(np.mean(fractions) - mass) <= 3 * sigma


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


# --- fixed-penalty runners -------------------------------------------------------

def test_baseline_reports_most_probable_with_flag():
    inst = generate_instance(3, 1, seed=12)
    record = run_fixed_penalty(inst, "penalty-qaoa", a_card=1000.0, p=2, budget=200, seed=12)
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

    weak = run_fixed_penalty(inst, "penalty-qaoa", a_card=weak_a, p=2, budget=200, seed=13)
    strong = run_fixed_penalty(inst, "penalty-qaoa", a_card=strong_a, p=2, budget=200, seed=13)
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
    record = run_fixed_penalty(inst, "penalty-qaoa", a_card=0.1, p=2, budget=200, seed=1)
    reported_bits = label_bits(record.reported.bitstring)
    assert record.reported.feasible == is_feasible(inst, reported_bits)
    if record.reported.bitstring == "111":
        assert not record.reported.feasible


def test_fixed_penalty_runner_refuses_an_unknown_arm():
    inst = generate_instance(3, 1, seed=14)
    with pytest.raises(ValueError, match="'slack-qaoa'; choose from penalty-qaoa, "
                                         "cardinality-slack-qaoa$"):
        run_fixed_penalty(inst, "slack-qaoa")


def test_cardinality_slack_runner_reports_best_feasible():
    inst = generate_instance(3, 1, seed=14)
    record = run_fixed_penalty(inst, "cardinality-slack-qaoa", a_card=1000.0, p=2, budget=200,
                               seed=14)
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
    doc = record_json(record)
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

    baseline = run_fixed_penalty(inst, "penalty-qaoa", a_card=1000.0, p=2, budget=7, seed=5)
    _assert_trace_numbered(baseline, 7)


# --- serialised histogram: the asset marginal --------------------------------

def _assert_serialised_histogram_is_asset_marginal(record, inst):
    from qmarko.bitstrings import index_to_string

    n = inst.n
    serialised = record_json(record)["histogram"]
    assert list(serialised) == [index_to_string(i, n) for i in range(1 << n)]
    register = final_register(record, inst)
    labels = record_program(record, inst).labels
    summed = dict.fromkeys(serialised, 0.0)
    for key, probability in register.items():
        summed["".join(asset_bits(labels, key))] += probability
    for key, probability in serialised.items():
        assert abs(probability - summed[key]) <= 1e-14, key
    return serialised, register


def test_serialised_histogram_is_the_asset_marginal():
    inst = generate_instance(3, 1, seed=15)
    schedule = run_schedule(inst, ScheduleConfig(doubling_interval=4, max_iterations=8), seed=15)
    _, register = _assert_serialised_histogram_is_asset_marginal(schedule, inst)
    assert len(next(iter(register))) == 2 * inst.n

    cardinality = run_fixed_penalty(inst, "cardinality-slack-qaoa", a_card=1000.0, p=2, budget=8,
                                    seed=15)
    _, register = _assert_serialised_histogram_is_asset_marginal(cardinality, inst)
    assert len(next(iter(register))) == inst.n + 1

    # Without ancillas (m = n) the marginal is the register distribution, exactly.
    penalty = run_fixed_penalty(inst, "penalty-qaoa", a_card=1000.0, p=2, budget=8, seed=15)
    serialised, register = _assert_serialised_histogram_is_asset_marginal(penalty, inst)
    assert list(serialised.items()) == list(register.items())


# --- the ansatz's workspace ------------------------------------------------------

def _ansatz_layouts(n):
    """(program, mixer) for each way the ansatz runs its layers on the slack
    program: the standard mixer, the conditional mixer on the program's pair
    frame (every asset paired with the slack above it) and on the program
    relabelled with one pair fewer, which leaves the top qubits unpaired and
    the top block half full."""
    program = build_slack_ancilla_qubo(generate_instance(n, 2, seed=n), 100.0)
    return {
        "standard": (program, "standard"),
        "pair frame": (program, "conditional"),
        "adjacent pairs": (with_pairs(program, n - 1), "conditional"),
    }


_PARAMS_A = QaoaParams(2, (0.013, 0.021), (0.4, 0.9))
_PARAMS_B = QaoaParams(2, (-0.02, 0.005), (1.1, 0.2))


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_returned_state_is_unchanged_by_later_evaluations(layout):
    ansatz = _ansatz(*_ansatz_layouts(4)[layout])
    state = ansatz(_PARAMS_A)
    kept = state.amplitudes.copy()
    ansatz(_PARAMS_B)
    ansatz.evaluate(_PARAMS_B)
    assert np.array_equal(state.amplitudes, kept)


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_evaluations_do_not_depend_on_earlier_ones(layout):
    program, mixer = _ansatz_layouts(4)[layout]
    ansatz = _ansatz(program, mixer)
    value, amplitudes = ansatz.evaluate(_PARAMS_A)[0], ansatz(_PARAMS_A).amplitudes
    ansatz.evaluate(_PARAMS_B)
    ansatz(_PARAMS_B)
    again, probabilities = ansatz.evaluate(_PARAMS_A)
    assert again == value
    # The probabilities evaluate hands out are the state's, and their
    # marginal, reduced in the workspace, is the allocating reduction's.
    kept = probabilities.copy()
    assert np.array_equal(ansatz.marginal(probabilities), asset_marginal(kept, program.labels))
    assert np.array_equal(ansatz(_PARAMS_A).amplitudes, amplitudes)
    assert np.array_equal(kept, ansatz(_PARAMS_A).probabilities())


def _counted_mixer_layers(monkeypatch) -> list:
    """The mixer layers the ansatz runs from now on, one entry per layer."""
    import qmarko.qaoa as qaoa

    layers = []
    original_mixer = qaoa.apply_real_frame_mixer

    def counted_mixer(*args, **kwargs):
        layers.append(args)
        return original_mixer(*args, **kwargs)

    monkeypatch.setattr(qaoa, "apply_real_frame_mixer", counted_mixer)
    return layers


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_search_objective_is_the_expectation_of_the_state(layout):
    program, mixer = _ansatz_layouts(4)[layout]
    thetas = np.random.default_rng(41).uniform(0.0, np.pi, size=(5, 4))

    def minimize(objective, theta):
        values = [objective(t) for t in thetas]
        return thetas[-1], min(values), values

    initial, final, best, marginal, values = _search_angles(program, thetas[0], minimize, mixer)
    ansatz, scale, table = _ansatz(program, mixer), _angle_scale(program), energy_table(program)
    for theta, value in zip(thetas, values):
        direct = expectation(ansatz(_physical_params(theta, scale)), table)
        assert value == pytest.approx(direct, rel=1e-12, abs=0)
    # The returned angles and marginal are those of the start and best points.
    assert initial == _physical_params(thetas[0], scale)
    assert np.array_equal(best, thetas[-1]) and final == _physical_params(thetas[-1], scale)
    direct = asset_marginal(ansatz(final).probabilities(), program.labels)
    assert np.allclose(marginal, direct, rtol=0, atol=1e-15)


def _best_is_not_last(rows) -> bool:
    values = [row.expectation for row in rows]
    return int(np.argmin(values)) != len(values) - 1


@pytest.mark.parametrize("method", ("penalty-qaoa", "cardinality-slack-qaoa"))
def test_a_fixed_penalty_search_simulates_each_evaluated_state_once(method, monkeypatch):
    # Its final marginal is its best evaluation's, kept, not simulated again,
    # though the best evaluation is not the last (m = 6 and 8).
    inst = generate_instance(6, 2, seed=2)
    layers = _counted_mixer_layers(monkeypatch)
    record = run_fixed_penalty(inst, method, p=2, budget=12, seed=2)
    assert _best_is_not_last(record.trace)
    assert len(layers) == record.final_params.p * record.iterations_used
    program = FIXED_PENALTY_ARMS[method][0](inst, record.final_beta_penalty)
    direct = _ansatz(program, "standard").evaluate(record.final_params)[1]
    assert np.array_equal(record.marginal, asset_marginal(direct, program.labels))


@pytest.mark.parametrize("mixer", ("conditional", "standard"))
def test_a_schedule_simulates_each_evaluated_state_once(mixer, monkeypatch):
    # Two segments, each with its best evaluation before its last: p layers
    # per evaluation, none to rebuild either segment's best state.
    inst = generate_instance(3, 1, seed=2)
    config = ScheduleConfig(doubling_interval=8, max_iterations=16, feasibility_shots=64)
    layers = _counted_mixer_layers(monkeypatch)
    record = run_schedule(inst, config, mixer=mixer, seed=2)
    segments = [[row for row in record.trace if row.beta_penalty == beta]
                for beta in (100.0, 200.0)]
    assert [len(rows) for rows in segments] == [8, 8]
    assert all(_best_is_not_last(rows) for rows in segments)
    assert len(layers) == record.final_params.p * record.iterations_used
    program = build_slack_ancilla_qubo(inst, record.final_beta_penalty)
    direct = _ansatz(program, mixer).evaluate(record.final_params)[1]
    assert np.array_equal(record.marginal, asset_marginal(direct, program.labels))


@pytest.mark.parametrize("mixer", ("standard", "conditional"))
def test_search_peak_memory_is_its_workspace_table_and_kept_probabilities(mixer):
    import tracemalloc

    program, _ = _ansatz_layouts(7)["pair frame" if mixer == "conditional" else mixer]  # m = 14
    nbytes = 16 << program.num_qubits  # one state
    thetas = np.random.default_rng(43).uniform(0.0, np.pi, size=(6, 4))
    growths = []

    def minimize(objective, theta):
        values = []
        for point in thetas:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            values.append(objective(point))
            growths.append(tracemalloc.get_traced_memory()[1] - held)
        best = int(np.argmin(values))
        return thetas[best], values[best], values

    tracemalloc.start()
    try:
        _search_angles(program, thetas[0], minimize, mixer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # No evaluation allocates a 2^m array (2^m float64s are 1/2): each
    # builds its probabilities in the spare buffer and reduces a new best's
    # marginal in the spare's free half before copying it into the kept
    # array; what remains is the gates' and the angles' few KiB.
    assert max(growths) <= 0.1 * nbytes, [growth / nbytes for growth in growths]
    # Two workspace buffers (2), the energy table (1/2), the kept 2^7
    # asset marginal and a few KiB.
    assert peak <= 2.75 * nbytes, peak / nbytes


def _search_peak(program, mixer) -> float:
    """The traced peak of one search on ``program`` over six fixed angle
    vectors, in states (2^m complex128s)."""
    import tracemalloc

    thetas = np.random.default_rng(43).uniform(0.0, np.pi, size=(6, 4))

    def minimize(objective, theta):
        values = [objective(point) for point in thetas]
        best = int(np.argmin(values))
        return thetas[best], values[best], values

    tracemalloc.start()
    try:
        _search_angles(program, thetas[0], minimize, mixer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 << program.num_qubits)


@pytest.mark.parametrize("layout", ("standard", "pair frame", "adjacent pairs"))
def test_a_slack_search_keeps_its_marginal_not_its_probabilities(layout):
    program, mixer = _ansatz_layouts(7)[layout]  # m = 14, 7 or 8 assets
    # Two workspace buffers (2), the energy table (1/2), the kept marginal
    # (2^7 or 2^8 float64s) and a few KiB: the slacks are summed out in the
    # spare buffer's free half, so neither the probabilities (1/2) nor the
    # halvings' outputs (3/8) are ever allocated.
    peak = _search_peak(program, mixer)
    assert peak <= 2.75, peak


def test_a_penalty_search_fills_its_kept_probabilities_in_place():
    program = build_penalty_qubo(generate_instance(14, 2, seed=14), 100.0)  # m = n = 14
    # Two workspace buffers, the energy table and the kept marginal, which
    # is the 2^m probabilities (1/2 each), and a few KiB: a new best is
    # copied into the one kept array, not into a new one.
    peak = _search_peak(program, "standard")
    assert peak <= 3.2, peak


@pytest.mark.parametrize("mixer", ("standard", "conditional"))
def test_ansatz_peak_memory_is_its_workspace_and_one_state(mixer):
    import tracemalloc

    program, _ = _ansatz_layouts(7)["pair frame" if mixer == "conditional" else mixer]  # m = 14
    nbytes = 16 << program.num_qubits  # one state
    tracemalloc.start()
    try:
        ansatz = _ansatz(program, mixer)  # held: its table and workspace stay allocated
        construction = tracemalloc.get_traced_memory()[1]
        evaluations = []
        for call in (partial(ansatz, _PARAMS_A), partial(ansatz.evaluate, _PARAMS_B),
                     partial(ansatz, _PARAMS_B)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            result = call()  # held: a returned state stays allocated
            evaluations.append(tracemalloc.get_traced_memory()[1] - held)
            del result
    finally:
        tracemalloc.stop()
    # Two workspace buffers and the energy table (half a state); no copy of
    # the table.
    assert construction <= 2.6 * nbytes, construction / nbytes
    # Each evaluation reuses the workspace: at most the state it returns.
    assert max(evaluations) <= 1.1 * nbytes, [e / nbytes for e in evaluations]


def test_ansatz_refuses_more_than_max_qubits_before_allocating():
    import tracemalloc

    from qmarko.simulate import MAX_QUBITS

    # A 25-qubit program is refused before its 2^25 energies or the
    # workspace, 2 x 2^25 amplitudes, would be allocated.
    m = MAX_QUBITS + 1
    labels = tuple(VarLabel.asset(i) for i in range(m))
    program = QuboProgram(m, labels, np.zeros((m, m)), np.zeros(m), 0.0)
    for mixer in ("standard", "conditional"):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"refusing to tabulate {m} variables"):
                _ansatz(program, mixer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (mixer, peak)
