import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_asset_marginal, random_state
from qmarko.bitstrings import index_to_bits
from qmarko.bounds import (
    _moments_from_probabilities,
    asset_marginal,
    return_observable,
    risk_observable,
    variance_bound,
)
from qmarko.encode import (
    VarLabel,
    build_cardinality_slack_qubo,
    build_penalty_qubo,
    build_slack_ancilla_qubo,
)
from qmarko.instance import PortfolioInstance, generate_instance
from qmarko.qaoa import QaoaParams, _record
from qmarko.simulate import StateVector


def _record_of(state, inst):
    """The record a run that ended in ``state`` writes: its asset marginal
    and the variance bound on it, as every QAOA command builds them. The
    assets are the low n qubits; any qubits above them are summed out."""
    params = QaoaParams(1, (0.0,), (0.0,))
    labels = tuple(VarLabel.asset(i) for i in range(inst.n)) + tuple(
        VarLabel.slack_cardinality(b) for b in range(state.num_qubits - inst.n)
    )
    return _record(
        inst, asset_marginal(state.probabilities(), labels), report_most_probable=False,
        method="slack-qaoa", seed=0, mixer="standard", optimizer="cobyla",
        initial_params=params, final_params=params, final_beta_penalty=1.0,
        sampled_feasible_fraction=None, terminated_by="completed", trace=(),
    )


def _moments(state, a, b):
    return _moments_from_probabilities(state.probabilities(), a, b)


def _uniform(m):
    return StateVector(m, np.full(1 << m, 2.0 ** (-m / 2), dtype=complex))


def _naive_risk_values(inst):
    values = []
    for x in range(1 << inst.n):
        z = 1.0 - 2.0 * index_to_bits(x, inst.n)
        total = 0.0
        for i in range(inst.n):
            total += inst.sigma[i, i] * z[i]
            for j in range(i + 1, inst.n):
                total += inst.sigma[i, j] * z[i] * z[j]
        values.append(total)
    return np.array(values)


def test_risk_observable_zero_sigma():
    inst = PortfolioInstance(2, 1, np.full(2, 0.05), np.zeros((2, 2)), np.array([1.0, 0.0]))
    assert np.array_equal(risk_observable(inst), np.zeros(4))


def test_risk_observable_off_diagonal_signs():
    sigma = np.array([[0.0, 0.1], [0.1, 0.0]])
    inst = PortfolioInstance(2, 1, np.full(2, 0.05), sigma, np.array([1.0, 0.0]))
    values = risk_observable(inst)
    assert values[0b00] == pytest.approx(0.1)
    assert values[0b01] == pytest.approx(-0.1)
    assert values[0b10] == pytest.approx(-0.1)
    assert values[0b11] == pytest.approx(0.1)


def test_risk_observable_matches_naive_recomputation():
    inst = generate_instance(3, 1, seed=6)
    assert np.allclose(risk_observable(inst), _naive_risk_values(inst), atol=1e-14)


def test_return_observable_values():
    zero_mu = PortfolioInstance(2, 1, np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0]))
    assert np.array_equal(return_observable(zero_mu), np.zeros(4))

    single = PortfolioInstance(1, 1, np.array([0.05]), np.zeros((1, 1)), np.array([1.0]))
    assert np.allclose(return_observable(single), [0.05, -0.05])

    inst = generate_instance(3, 1, seed=7)
    naive = np.array(
        [np.dot(inst.mu, 1.0 - 2.0 * index_to_bits(x, 3)) for x in range(8)]
    )
    assert np.allclose(return_observable(inst), naive, atol=1e-14)


def test_moments_on_basis_state_are_degenerate():
    inst = generate_instance(2, 1, seed=1)
    state = _uniform(2)
    state.amplitudes[:] = 0
    state.amplitudes[2] = 1.0
    _, _, var_a, var_b, cov = _moments(state, risk_observable(inst), return_observable(inst))
    assert var_a == pytest.approx(0.0, abs=1e-14)
    assert var_b == pytest.approx(0.0, abs=1e-14)
    assert cov == pytest.approx(0.0, abs=1e-14)


def test_moments_self_covariance_saturates():
    inst = generate_instance(3, 1, seed=2)
    state = StateVector(3, random_state(3, 3))
    risk = risk_observable(inst)
    _, _, var_a, _, cov = _moments(state, risk, risk)
    assert cov == pytest.approx(var_a, abs=1e-13)


def test_moments_dimension_mismatch():
    inst = generate_instance(3, 1, seed=2)
    with pytest.raises(ValueError):
        variance_bound(_uniform(2).probabilities(), inst)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_variance_product_dominates_covariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    state = StateVector(m, random_state(m, seed))
    a = rng.normal(size=1 << m)
    b = rng.normal(size=1 << m)
    _, _, var_a, var_b, cov = _moments(state, a, b)
    assert var_a * var_b - cov * cov >= -1e-12


def test_bound_on_uniform_superposition():
    inst = generate_instance(3, 1, seed=4)
    report = _record_of(_uniform(3), inst).variance_bound
    assert report.slack >= -1e-9
    assert report.std_risk == pytest.approx(np.sqrt(report.var_risk))


def test_two_point_support_saturates_bound():
    inst = generate_instance(3, 1, seed=5)
    state = _uniform(3)
    state.amplitudes[:] = 0
    state.amplitudes[1] = np.sqrt(0.3)
    state.amplitudes[6] = np.sqrt(0.7) * np.exp(1j * 0.4)
    report = _record_of(state, inst).variance_bound
    assert abs(report.slack) <= 1e-12


def test_bound_ignores_ancillas():
    inst = generate_instance(2, 1, seed=8)
    asset_state = StateVector(2, random_state(2, 11))
    # lift to 4 qubits with an entangled-but-independent ancilla register
    lifted = np.kron(random_state(2, 12), asset_state.amplitudes)
    lifted_state = StateVector(4, lifted)
    direct = _record_of(asset_state, inst).variance_bound
    marginalized = _record_of(lifted_state, inst).variance_bound
    assert marginalized.var_risk == pytest.approx(direct.var_risk, abs=1e-12)
    assert marginalized.covariance == pytest.approx(direct.covariance, abs=1e-12)
    assert marginalized.slack == pytest.approx(direct.slack, abs=1e-12)


def test_marginalize_before_or_after_moments_is_identical():
    inst = generate_instance(2, 1, seed=9)
    state = StateVector(4, random_state(4, 13))
    report = _record_of(state, inst).variance_bound
    # lift observables to the full register instead of marginalizing
    lifted_risk = np.tile(risk_observable(inst), 4)
    lifted_return = np.tile(return_observable(inst), 4)
    _, _, var_r, var_m, cov = _moments(state, lifted_risk, lifted_return)
    assert var_r == pytest.approx(report.var_risk, abs=1e-12)
    assert var_m == pytest.approx(report.var_return, abs=1e-12)
    assert cov == pytest.approx(report.covariance, abs=1e-12)


@given(t=st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None)
def test_scale_covariance_of_return_vector(t):
    inst = generate_instance(3, 1, seed=10)
    scaled = PortfolioInstance(
        3, 1, t * inst.mu, inst.sigma, inst.alpha,
        lambda_weight=inst.lambda_weight, q_risk=inst.q_risk,
    )
    state = StateVector(3, random_state(3, 14))
    base = _record_of(state, inst).variance_bound
    lifted = _record_of(state, scaled).variance_bound
    assert lifted.var_return == pytest.approx(t * t * base.var_return, rel=1e-9)
    assert lifted.covariance == pytest.approx(t * base.covariance, rel=1e-9, abs=1e-12)
    assert lifted.slack == pytest.approx(t * t * base.slack, rel=1e-6, abs=1e-12)


def test_asset_marginal_sums_low_bits():
    state = StateVector(3, random_state(3, 15))
    marginal = _record_of(state, generate_instance(2, 1, seed=15)).marginal
    probs = state.probabilities()
    for y in range(4):
        assert marginal[y] == pytest.approx(probs[y] + probs[y + 4], abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_asset_marginal_matches_the_loop_reference_on_every_layout(n):
    inst = generate_instance(n, max(1, n // 2), seed=20 + n)
    programs = {
        "penalty": build_penalty_qubo(inst, 1.0),
        "cardinality slack": build_cardinality_slack_qubo(inst, 1.0),
        "pair-ordered slack": build_slack_ancilla_qubo(inst, 1.0),
    }
    for name, program in programs.items():
        probabilities = np.abs(random_state(program.num_qubits, 30 + n)) ** 2
        marginal = asset_marginal(probabilities, program.labels)
        reference = naive_asset_marginal(probabilities, program.labels)
        assert marginal.shape == (1 << n,), name
        assert np.abs(marginal - reference).max() <= 1e-15, name
    # Slacks above the assets are summed in one reduction, as a sum over
    # the rows of the (slack, asset) table gives it, bit for bit.
    program = programs["cardinality slack"]
    probabilities = np.abs(random_state(program.num_qubits, 40 + n)) ** 2
    rows = probabilities.reshape(-1, 1 << n).sum(axis=0)
    assert np.array_equal(asset_marginal(probabilities, program.labels), rows)
