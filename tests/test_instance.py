import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarko.bitstrings import index_to_bits
from qmarko.instance import (
    MU_HIGH,
    MU_LOW,
    PortfolioInstance,
    best_selection,
    classical_objective,
    feasible_table,
    from_json,
    generate_instance,
    is_feasible,
    objective_table,
    to_json,
)


def _generator_invariants(inst):
    """The generator's invariants on any instance, each as a flag."""
    sigma = inst.sigma
    flags = {
        "symmetric": bool(np.all(sigma == sigma.T)),
        "positive_semidefinite": bool(np.linalg.eigvalsh(sigma).min() >= -1e-10),
        "mu_in_range": bool(np.all((inst.mu >= MU_LOW) & (inst.mu <= MU_HIGH))),
        "alpha_k_hot": int(np.count_nonzero(inst.alpha == 1.0)) == inst.k
        and int(np.count_nonzero(inst.alpha == 0.0)) == inst.n - inst.k,
    }
    return {**flags, "passed": all(flags.values())}


def test_generated_alpha_is_k_hot():
    inst = generate_instance(3, 1, seed=5)
    assert int(np.count_nonzero(inst.alpha == 1.0)) == 1
    assert int(np.count_nonzero(inst.alpha == 0.0)) == 2


def test_single_asset_instance():
    inst = generate_instance(1, 1, seed=99)
    assert list(inst.alpha) == [1.0]
    assert inst.sigma.shape == (1, 1)
    assert inst.sigma[0, 0] >= 0.0


def test_generation_is_deterministic():
    a = to_json(generate_instance(3, 1, seed=42))
    b = to_json(generate_instance(3, 1, seed=42))
    assert a == b
    c = to_json(generate_instance(3, 1, seed=43))
    assert a != c


@pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4), (-1, 1)])
def test_generate_rejects_bad_dimensions(n, k):
    with pytest.raises(ValueError):
        generate_instance(n, k, seed=0)


def test_validate_passes_on_generated():
    report = _generator_invariants(generate_instance(4, 2, seed=7))
    assert report == {
        "symmetric": True,
        "positive_semidefinite": True,
        "mu_in_range": True,
        "alpha_k_hot": True,
        "passed": True,
    }


def test_validate_flags_asymmetric_sigma():
    sigma = np.array([[0.01, 0.002], [0.001, 0.01]])
    inst = PortfolioInstance(2, 1, np.array([0.05, 0.05]), sigma, np.array([1.0, 0.0]))
    report = _generator_invariants(inst)
    assert not report["symmetric"]
    assert not report["passed"]


def test_validate_flags_negative_definite_sigma():
    inst = PortfolioInstance(2, 1, np.array([0.05, 0.05]), -np.eye(2), np.array([1.0, 0.0]))
    report = _generator_invariants(inst)
    assert report["symmetric"]
    assert not report["positive_semidefinite"]
    assert not report["passed"]


def test_psd_across_seeds():
    for seed in range(1000):
        sigma = generate_instance(4, 2, seed=seed).sigma
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10


def test_mu_range_across_seeds():
    for seed in range(200):
        mu = generate_instance(3, 1, seed=seed).mu
        assert np.all((mu >= 0.01) & (mu <= 0.10))


def test_objective_of_empty_portfolio_is_zero():
    for seed in range(20):
        inst = generate_instance(3, 1, seed=seed)
        assert classical_objective(inst, np.zeros(3)) == 0.0


def test_objective_hand_arithmetic():
    inst = PortfolioInstance(
        1, 1, np.array([0.05]), np.array([[0.04]]), np.array([1.0]),
        lambda_weight=1.0, q_risk=0.5,
    )
    assert classical_objective(inst, [1]) == pytest.approx(0.5 * 0.04 - 0.05, abs=1e-15)


def test_objective_matches_exhaustive_enumeration():
    # brute force over all 2^3 portfolios is the oracle here
    inst = generate_instance(3, 1, seed=11)
    best_bits, best_val = None, np.inf
    for bits in product([0, 1], repeat=3):
        if not is_feasible(inst, np.array(bits, dtype=float)):
            continue
        val = (
            inst.q_risk * np.array(bits) @ inst.sigma @ np.array(bits)
            - inst.lambda_weight * inst.mu @ np.array(bits)
        )
        if val < best_val:
            best_bits, best_val = bits, val
    assert classical_objective(inst, np.array(best_bits, dtype=float)) == pytest.approx(
        best_val, abs=1e-14
    )


def test_objective_dimension_mismatch():
    inst = generate_instance(3, 1, seed=0)
    with pytest.raises(ValueError):
        classical_objective(inst, [1, 0])


def test_feasibility_examples():
    inst = PortfolioInstance(
        3, 1, np.full(3, 0.05), np.zeros((3, 3)), np.array([1.0, 0.0, 0.0])
    )
    assert is_feasible(inst, [1, 0, 0])
    assert not is_feasible(inst, [1, 1, 1])
    assert is_feasible(inst, [0, 0, 0])
    with pytest.raises(ValueError):
        is_feasible(inst, [1, 0])


def _capped_instances(mu=None, sigma=None):
    """Per n <= 8 and every k, instances with caps drawn from {0, 0.5, 1, 2}
    (three draws each), returns and covariance generated unless given."""
    rng = np.random.default_rng(39)
    for n in range(1, 9):
        for k in range(1, n + 1):
            base = generate_instance(n, k, seed=n * 10 + k)
            for _ in range(3):
                alpha = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
                yield PortfolioInstance(
                    n, k, base.mu if mu is None else np.full(n, mu),
                    base.sigma if sigma is None else np.full((n, n), sigma), alpha,
                )


def test_feasible_table_is_is_feasible_on_every_selection():
    for inst in _capped_instances():
        table = feasible_table(inst)
        expected = [is_feasible(inst, index_to_bits(i, inst.n)) for i in range(1 << inst.n)]
        assert table.tolist() == expected, (inst.n, inst.k, inst.alpha)


def test_objective_table_is_classical_objective_on_every_selection():
    for inst in _capped_instances():
        table = objective_table(inst)
        expected = [classical_objective(inst, index_to_bits(i, inst.n)) for i in range(1 << inst.n)]
        assert np.max(np.abs(table - expected)) <= 1e-12, (inst.n, inst.k)


def test_best_selection_takes_the_lowest_allowed_index_on_a_tie():
    # Zero returns and covariance tie every selection at objective 0.
    rng = np.random.default_rng(5)
    for inst in _capped_instances(mu=0.0, sigma=0.0):
        size = 1 << inst.n
        assert not objective_table(inst).any()
        assert best_selection(inst, np.zeros(size, dtype=bool)) is None
        assert best_selection(inst, feasible_table(inst)) == 0
        allowed = rng.random(size) < 0.3
        allowed[rng.integers(size)] = True
        assert best_selection(inst, allowed) == int(np.flatnonzero(allowed)[0])
        allowed[:] = False
        allowed[size - 1] = True
        assert best_selection(inst, allowed) == size - 1


@given(seed=st.integers(0, 10**6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_feasibility_monotone_under_removal(seed, data):
    inst = generate_instance(4, 2, seed=seed)
    omega_big = np.array(data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4)), dtype=float)
    omega = omega_big * np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4)), dtype=float
    )
    if is_feasible(inst, omega_big):
        assert is_feasible(inst, omega)


def test_json_round_trip_bit_exact():
    inst = generate_instance(3, 1, seed=42)
    again = from_json(to_json(inst))
    assert np.array_equal(inst.mu, again.mu)
    assert np.array_equal(inst.sigma, again.sigma)
    assert np.array_equal(inst.alpha, again.alpha)
    assert (inst.n, inst.k, inst.seed) == (again.n, again.k, again.seed)
    assert (inst.lambda_weight, inst.q_risk) == (again.lambda_weight, again.q_risk)
    assert to_json(inst) == to_json(again)


def test_json_keys_match_file_format():
    doc = json.loads(to_json(generate_instance(2, 1, seed=3)))
    assert set(doc) == {"n", "k", "mu", "sigma", "alpha", "lambda", "q", "seed", "metadata"}


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json("{not json")
    with pytest.raises(ValueError):
        from_json(json.dumps({"n": 2}))


def test_instance_arrays_are_immutable():
    inst = generate_instance(3, 1, seed=1)
    with pytest.raises(ValueError):
        inst.mu[0] = 0.5


@pytest.mark.parametrize("bad_cap", [-1.0, float("nan")])
def test_negative_or_nan_cap_is_rejected_on_load(tmp_path, capsys, bad_cap):
    from qmarko.cli import EXIT_INVALID, main

    doc = json.loads(to_json(generate_instance(3, 1, seed=2)))
    doc["alpha"] = [bad_cap, 1.0, 0.0]
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        from_json(text)
    path = tmp_path / "instance.json"
    path.write_text(text)
    code = main(["solve", "--instance", str(path), "--method", "oracle",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_INVALID
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, bad",
    [("mu", float("nan")), ("mu", float("inf")), ("sigma", float("nan")),
     ("sigma", float("-inf")), ("lambda", float("nan")), ("q", float("inf"))],
)
def test_non_finite_weights_are_rejected_on_load(tmp_path, capsys, field, bad):
    from qmarko.cli import EXIT_INVALID, main

    doc = json.loads(to_json(generate_instance(3, 1, seed=2)))
    if field == "mu":
        doc["mu"][1] = bad
    elif field == "sigma":
        doc["sigma"][0][2] = bad
    else:
        doc[field] = bad
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        from_json(text)
    path = tmp_path / "instance.json"
    path.write_text(text)
    code = main(["solve", "--instance", str(path), "--method", "oracle",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_INVALID
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, bad", [("n", 3.5), ("k", 2.7), ("k", True), ("seed", 3.9),
                                        ("seed", False)])
def test_fractional_or_boolean_integers_are_rejected_on_load(tmp_path, capsys, field, bad):
    from qmarko.cli import EXIT_INVALID, main

    doc = json.loads(to_json(generate_instance(4, 2, seed=3)))
    doc[field] = bad
    text = json.dumps(doc)
    with pytest.raises(ValueError, match="not an integer"):
        from_json(text)
    path = tmp_path / "instance.json"
    path.write_text(text)
    runs = (["solve", "--instance", str(path), "--method", "oracle"],
            ["sweep", "--instance", str(path), "--methods", "oracle", "--seeds", "1"])
    for argv in runs:
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == EXIT_INVALID, argv
        assert not out.exists(), argv
        assert "not an integer" in capsys.readouterr().err
    # Integral floats still load, as an integer setting takes them.
    doc[field] = {"n": 4.0, "k": 2.0, "seed": 3.0}[field]
    inst = from_json(json.dumps(doc))
    assert (inst.n, inst.k, inst.seed) == (4, 2, 3)
    assert all(type(v) is int for v in (inst.n, inst.k, inst.seed))
