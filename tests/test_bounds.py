import numpy as np
import pytest

from helpers import naive_asset_marginal, random_state, with_pairs
from qmarko.bounds import asset_marginal
from qmarko.encode import (
    VarLabel,
    build_cardinality_slack_qubo,
    build_penalty_qubo,
    build_slack_ancilla_qubo,
)
from qmarko.instance import feasible_table, generate_instance
from qmarko.qaoa import QaoaParams, _record
from qmarko.simulate import StateVector


def _record_of(state, inst):
    """The record a run that ended in ``state`` writes, with its asset
    marginal as every QAOA command builds it. The assets are the low n
    qubits; any qubits above them are summed out."""
    params = QaoaParams(1, (0.0,), (0.0,))
    labels = tuple(VarLabel.asset(i) for i in range(inst.n)) + tuple(
        VarLabel.slack_cardinality(b) for b in range(state.num_qubits - inst.n)
    )
    return _record(
        inst, feasible_table(inst), asset_marginal(state.probabilities(), labels),
        report_most_probable=False,
        method="slack-qaoa", seed=0, mixer="standard", optimizer="cobyla",
        initial_params=params, final_params=params, final_beta_penalty=1.0,
        sampled_feasible_fraction=None, terminated_by="completed", trace=(),
    )


def test_asset_marginal_sums_low_bits():
    state = StateVector(3, random_state(3, 15))
    marginal = _record_of(state, generate_instance(2, 1, seed=15)).marginal
    probs = state.probabilities()
    for y in range(4):
        assert marginal[y] == pytest.approx(probs[y] + probs[y + 4], abs=1e-14)


def _layouts(inst) -> dict:
    """Every label layout a program gives ``asset_marginal``: assets only,
    slacks above the assets, the slack-ancilla pairs, and those pairs with
    the top asset left unpaired."""
    pairs = build_slack_ancilla_qubo(inst, 1.0)
    return {
        "penalty": build_penalty_qubo(inst, 1.0),
        "cardinality slack": build_cardinality_slack_qubo(inst, 1.0),
        "pair-ordered slack": pairs,
        "one pair fewer": with_pairs(pairs, inst.n - 1),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_asset_marginal_matches_the_loop_reference_on_every_layout(n):
    inst = generate_instance(n, max(1, n // 2), seed=20 + n)
    programs = _layouts(inst)
    for name, program in programs.items():
        probabilities = np.abs(random_state(program.num_qubits, 30 + n)) ** 2
        marginal = asset_marginal(probabilities, program.labels)
        reference = naive_asset_marginal(probabilities, program.labels)
        assert marginal.shape == reference.shape, name
        assert np.abs(marginal - reference).max() <= 1e-15, name
        # With a scratch array each reduction writes into it: the same sums,
        # bit for bit.
        scratch = np.full(1 << program.num_qubits, np.nan)
        in_scratch = asset_marginal(probabilities, program.labels, scratch)
        assert np.array_equal(in_scratch, marginal), name
    # Slacks above the assets are summed in one reduction, as a sum over
    # the rows of the (slack, asset) table gives it, bit for bit.
    program = programs["cardinality slack"]
    probabilities = np.abs(random_state(program.num_qubits, 40 + n)) ** 2
    rows = probabilities.reshape(-1, 1 << n).sum(axis=0)
    assert np.array_equal(asset_marginal(probabilities, program.labels), rows)


@pytest.mark.parametrize("layout", ["penalty", "cardinality slack", "pair-ordered slack",
                                    "one pair fewer"])
def test_asset_marginal_reduces_in_its_scratch_without_allocating(layout):
    import tracemalloc

    program = _layouts(generate_instance(8, 3, seed=28))[layout]  # m = 8 to 16
    m = program.num_qubits
    probabilities = np.abs(random_state(m, 48)) ** 2
    scratch = np.empty(1 << m)
    tracemalloc.start()
    try:
        marginal = asset_marginal(probabilities, program.labels, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The allocating path allocates every reduction's output: 2^(m-1) and
    # more float64s when a slack is on the top qubit.
    assert peak < 8 << (m - 2), (peak, m)
    assert np.array_equal(marginal, asset_marginal(probabilities, program.labels))
    # The marginal is the scratch's last reduction, or the probabilities
    # themselves when no qubit is summed out.
    held = probabilities if layout == "penalty" else scratch
    assert np.shares_memory(marginal, held)
