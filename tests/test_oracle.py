import warnings
from itertools import product

import numpy as np
import pytest

from helpers import asset_bits, label_bits
from qmarko.bitstrings import index_to_bits
from qmarko.encode import QuboProgram, VarLabel, build_slack_ancilla_qubo, qubo_energy
from qmarko.instance import PortfolioInstance, classical_objective, generate_instance, is_feasible
from qmarko.oracle import classical_baseline, exhaustive_portfolio_optimum, exhaustive_qubo_minimum


def _reenumerate_portfolio(inst):
    # independent re-enumeration with plain Python loops
    best_bits, best_val = None, np.inf
    for bits in product([0, 1], repeat=inst.n):
        w = np.array(bits, dtype=float)
        if not is_feasible(inst, w):
            continue
        val = classical_objective(inst, w)
        if val < best_val:
            best_bits, best_val = "".join(map(str, bits)), val
    return best_bits, best_val


def test_portfolio_optimum_matches_reenumeration():
    for seed in range(25):
        inst = generate_instance(3, 1, seed=seed)
        got_bits, got_val = exhaustive_portfolio_optimum(inst)
        ref_bits, ref_val = _reenumerate_portfolio(inst)
        assert got_bits == ref_bits
        assert got_val == pytest.approx(ref_val, abs=1e-12)


def test_portfolio_optimum_zero_mu_selects_empty_portfolio():
    inst = generate_instance(3, 1, seed=5)
    zeroed = PortfolioInstance(
        3, 1, np.zeros(3), inst.sigma, inst.alpha, q_risk=0.5, lambda_weight=1.0
    )
    bits, value = exhaustive_portfolio_optimum(zeroed)
    assert bits == "000"
    assert value == 0.0


def test_portfolio_optimum_is_always_feasible():
    for seed in range(30):
        inst = generate_instance(4, 2, seed=seed)
        bits, _ = exhaustive_portfolio_optimum(inst)
        assert is_feasible(inst, label_bits(bits))


def test_portfolio_optimum_permutation_invariance():
    rng = np.random.default_rng(0)
    for seed in range(10):
        inst = generate_instance(4, 2, seed=seed)
        perm = rng.permutation(4)
        permuted = PortfolioInstance(
            4, 2, inst.mu[perm], inst.sigma[np.ix_(perm, perm)], inst.alpha[perm],
            lambda_weight=inst.lambda_weight, q_risk=inst.q_risk,
        )
        bits, value = exhaustive_portfolio_optimum(inst)
        pbits, pvalue = exhaustive_portfolio_optimum(permuted)
        arr = label_bits(bits)
        assert list(label_bits(pbits)) == list(arr[perm])
        assert pvalue == pytest.approx(value, abs=1e-12)


def test_qubo_minimum_trivial_programs():
    zero = QuboProgram(3, tuple(VarLabel.asset(i) for i in range(3)), np.zeros((3, 3)), np.zeros(3), 2.5)
    bits, energy = exhaustive_qubo_minimum(zero)
    assert bits == "000"
    assert energy == 2.5

    single = QuboProgram(1, (VarLabel.asset(0),), np.array([[1.0]]), np.array([-2.0]), 0.0)
    bits, energy = exhaustive_qubo_minimum(single)
    assert bits == "1"
    assert energy == pytest.approx(-1.0)


def test_qubo_minimum_refuses_an_overflowing_program():
    # Finite coefficients whose energy at 111 is inf - inf: a NaN state is
    # no minimum, so the search raises, and without a warning.
    quadratic = np.array([[0.0, 0.0, -1e308], [0.0, 0.0, -1e308], [0.0, 0.0, 0.0]])
    program = QuboProgram(3, tuple(VarLabel.asset(i) for i in range(3)), quadratic,
                          np.array([1e308, 1e308, 0.0]), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            exhaustive_qubo_minimum(program)


def test_qubo_minimum_matches_reenumeration():
    inst = generate_instance(3, 1, seed=17)
    program = build_slack_ancilla_qubo(inst, 64.0)
    bits, energy = exhaustive_qubo_minimum(program)
    ref = min(
        (qubo_energy(program, index_to_bits(x, 6)), x) for x in range(1 << 6)
    )
    assert energy == pytest.approx(ref[0], abs=1e-12)
    assert bits == "".join(str(b) for b in index_to_bits(ref[1], 6))


def test_qubo_minimum_agrees_with_portfolio_oracle_at_large_beta():
    # with a stiff penalty the slack program's minimizing asset bits
    # coincide with the exhaustive portfolio optimum; beta doubling finds
    # a sufficient stiffness
    for seed in range(50):
        n = 2 + seed % 3  # n in {2, 3, 4}
        inst = generate_instance(n, 1 + seed % n if n > 1 else 1, seed=seed)
        truth_bits, _ = exhaustive_portfolio_optimum(inst)
        beta = 1.0
        for _ in range(30):
            program = build_slack_ancilla_qubo(inst, beta)
            bits, _ = exhaustive_qubo_minimum(program)
            assets = "".join(asset_bits(program.labels, bits))
            if assets == truth_bits:
                break
            beta *= 2.0
        assert assets == truth_bits, f"seed {seed}: no agreement up to beta={beta}"


def test_qubo_minimum_permutation_invariance():
    inst = generate_instance(3, 1, seed=23)
    program = build_slack_ancilla_qubo(inst, 32.0)
    perm = np.array([2, 0, 1])
    permuted_inst = PortfolioInstance(
        3, 1, inst.mu[perm], inst.sigma[np.ix_(perm, perm)], inst.alpha[perm],
        lambda_weight=inst.lambda_weight, q_risk=inst.q_risk,
    )
    permuted_program = build_slack_ancilla_qubo(permuted_inst, 32.0)
    bits, energy = exhaustive_qubo_minimum(program)
    pbits, penergy = exhaustive_qubo_minimum(permuted_program)
    # Each asset's bit moves with its slack's: the program is in pair order.
    expected = label_bits(bits).reshape(3, 2)[perm].reshape(-1)
    assert list(label_bits(pbits)) == list(expected)
    assert penergy == pytest.approx(energy, abs=1e-12)


def test_baseline_unconstrained_rounds_to_all_ones():
    inst = PortfolioInstance(
        2, 2, np.array([10.0, 10.0]), np.zeros((2, 2)), np.ones(2)
    )
    result = classical_baseline(inst, beta_penalty=100.0, budget=300, seed=3)
    assert result.bitstring == "11"
    assert result.feasible


def test_baseline_never_beats_exhaustive_optimum_when_feasible():
    for seed in range(10):
        inst = generate_instance(3, 1, seed=seed)
        _, best_val = exhaustive_portfolio_optimum(inst)
        result = classical_baseline(inst, beta_penalty=100.0, budget=200, seed=seed)
        if result.feasible:
            assert result.value >= best_val - 1e-12


def test_baseline_budget_one_returns_rounded_start():
    inst = generate_instance(3, 1, seed=9)
    result = classical_baseline(inst, beta_penalty=100.0, budget=1, seed=9)
    x0 = np.random.default_rng(9).uniform(0.0, 1.0, size=6)
    expected = "".join("1" if v >= 0.5 else "0" for v in x0[:3])
    assert result.bitstring == expected
    assert len(result.trace) == 1
    again = classical_baseline(inst, beta_penalty=100.0, budget=1, seed=9)
    assert again == result


def test_baseline_reports_value_consistent_with_objective():
    inst = generate_instance(3, 1, seed=31)
    result = classical_baseline(inst, beta_penalty=100.0, budget=150, seed=2)
    assert result.value == pytest.approx(
        classical_objective(inst, label_bits(result.bitstring)), abs=1e-14
    )
    assert result.feasible == is_feasible(inst, label_bits(result.bitstring))


def test_baseline_relaxes_the_slack_program(monkeypatch):
    # The objective the baseline minimizes is the slack program's polynomial
    # on the unit cube: v[:n] are the assets and v[n:] their slacks, placed
    # at the qubits the program's labels give them. Points outside the cube
    # are clipped.
    import qmarko.oracle as oracle

    captured = []

    def capture(fun, x0, optimizer, budget, constraints=()):
        captured.append(fun)
        return np.asarray(x0), fun(x0), [fun(x0)]

    monkeypatch.setattr(oracle, "minimize_with_budget", capture)
    rng = np.random.default_rng(71)
    for n in range(1, 6):
        inst = generate_instance(n, max(1, n // 2), seed=70 + n)
        for beta in (1.0, 100.0):
            captured.clear()
            classical_baseline(inst, beta_penalty=beta, budget=5, seed=n)
            (relaxed,) = captured
            program = build_slack_ancilla_qubo(inst, beta)
            labels = program.labels
            assets = [labels.index(VarLabel.asset(i)) for i in range(n)]
            slacks = [labels.index(VarLabel.slack_asset(i)) for i in range(n)]

            def energy(v):
                x = np.empty(2 * n)
                x[assets], x[slacks] = v[:n], v[n:]
                return qubo_energy(program, x)

            for v in rng.uniform(0.0, 1.0, size=(20, 2 * n)):
                assert relaxed(v) == pytest.approx(energy(v), rel=1e-12, abs=0), (n, beta, v)
            outside = rng.uniform(-1.0, 2.0, size=2 * n)
            outside[0] = -0.5
            clipped = np.clip(outside, 0.0, 1.0)
            assert relaxed(outside) == relaxed(clipped)
            assert relaxed(outside) == pytest.approx(energy(clipped), rel=1e-12, abs=0)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        exhaustive_portfolio_optimum(
            PortfolioInstance(25, 1, np.zeros(25), np.zeros((25, 25)), np.ones(25))
        )
