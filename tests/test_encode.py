from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    direct_cardinality_objective,
    direct_penalty_objective,
    direct_slack_objective,
    naive_ising_energy,
    naive_qubo_energy,
)
from qmarko.bitstrings import index_to_bits
from qmarko.encode import (
    IsingHamiltonian,
    QuboProgram,
    VarLabel,
    build_cardinality_slack_qubo,
    build_penalty_qubo,
    build_slack_ancilla_qubo,
    qubo_energy,
    to_ising,
)
from qmarko.instance import PortfolioInstance, generate_instance


def _bare_instance(n, k, alpha, mu=None, sigma=None):
    return PortfolioInstance(
        n,
        k,
        np.zeros(n) if mu is None else np.asarray(mu, dtype=float),
        np.zeros((n, n)) if sigma is None else np.asarray(sigma, dtype=float),
        np.asarray(alpha, dtype=float),
    )


def _random_program(seed, m):
    rng = np.random.default_rng(seed)
    labels = tuple(VarLabel.asset(i) for i in range(m))
    return QuboProgram(m, labels, rng.normal(size=(m, m)), rng.normal(size=m), float(rng.normal()))


# --- slack-ancilla builder -------------------------------------------------

def test_slack_ancilla_hand_expansion():
    inst = _bare_instance(1, 1, alpha=[1.0])
    program = build_slack_ancilla_qubo(inst, 1.0)
    assert program.num_vars == 2
    expected = {(1, 0): 0.0, (0, 1): 0.0, (0, 0): 1.0, (1, 1): 1.0}
    for (w, s), energy in expected.items():
        assert qubo_energy(program, [w, s]) == pytest.approx(energy, abs=1e-15)


def test_slack_ancilla_zero_alpha_pins_asset_off():
    inst = _bare_instance(1, 1, alpha=[0.0])
    program = build_slack_ancilla_qubo(inst, 1.0)
    energies = {
        (w, s): qubo_energy(program, [w, s]) for w in (0, 1) for s in (0, 1)
    }
    zero_set = {assign for assign, e in energies.items() if e == 0.0}
    assert zero_set == {(0, 0)}
    assert energies[(1, 0)] == pytest.approx(1.0)


def test_slack_ancilla_matches_direct_objective():
    inst = generate_instance(3, 1, seed=8)
    program = build_slack_ancilla_qubo(inst, 100.0)
    for x in range(1 << 6):
        bits = index_to_bits(x, 6)
        assert qubo_energy(program, bits) == pytest.approx(
            direct_slack_objective(inst, bits, 100.0), abs=1e-12
        )


def test_slack_ancilla_labels():
    program = build_slack_ancilla_qubo(generate_instance(2, 1, seed=0), 10.0)
    assert program.labels == (
        VarLabel.asset(0),
        VarLabel.asset(1),
        VarLabel.slack_asset(0),
        VarLabel.slack_asset(1),
    )


def test_slack_ancilla_rejects_nonpositive_beta():
    inst = generate_instance(2, 1, seed=0)
    for beta in (0.0, -5.0):
        with pytest.raises(ValueError):
            build_slack_ancilla_qubo(inst, beta)


def test_slack_ancilla_refuses_caps_it_cannot_close():
    inst = generate_instance(4, 2, 3)
    build_slack_ancilla_qubo(inst, 100.0)
    uncapped = np.flatnonzero(inst.alpha == 0.0)[0]
    fractional = inst.alpha.copy()
    fractional[uncapped] = 0.5
    over_k = np.ones(4)
    over_k[uncapped] = 0.0  # three caps at 1, k = 2
    for alpha in (fractional, over_k):
        with pytest.raises(ValueError, match="slack-ancilla encoding"):
            build_slack_ancilla_qubo(replace(inst, alpha=alpha), 100.0)
    # Fewer than k caps at 1 is a mask the slack bits still close exactly.
    build_slack_ancilla_qubo(_bare_instance(3, 2, alpha=[0.0, 1.0, 0.0]), 100.0)


def test_penalty_zero_set_is_exactly_the_slack_equality():
    inst = _bare_instance(2, 1, alpha=[1.0, 0.0])
    program = build_slack_ancilla_qubo(inst, 3.0)
    for x in range(1 << 4):
        bits = index_to_bits(x, 4)
        w, s = bits[:2], bits[2:]
        on_manifold = all(w[i] + s[i] == inst.alpha[i] for i in range(2))
        energy = qubo_energy(program, bits)
        assert (energy == pytest.approx(0.0, abs=1e-14)) == on_manifold


@given(seed=st.integers(0, 10**6), beta=st.floats(0.5, 50.0))
@settings(max_examples=50, deadline=None)
def test_penalty_monotone_in_beta(seed, beta):
    inst = generate_instance(2, 1, seed=seed)
    low = build_slack_ancilla_qubo(inst, beta)
    high = build_slack_ancilla_qubo(inst, 2.0 * beta)
    for x in range(1 << 4):
        bits = index_to_bits(x, 4)
        violation = any(bits[i] + bits[2 + i] != inst.alpha[i] for i in range(2))
        e_low, e_high = qubo_energy(low, bits), qubo_energy(high, bits)
        if violation:
            assert e_high > e_low
        else:
            assert e_high == pytest.approx(e_low, abs=1e-12)


# --- direct penalty builder -------------------------------------------------

def test_penalty_qubo_arithmetic():
    inst = _bare_instance(3, 1, alpha=[1.0, 0.0, 0.0])
    program = build_penalty_qubo(inst, 1.0)
    assert program.num_vars == 3
    assert qubo_energy(program, [1, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    assert qubo_energy(program, [1, 1, 1]) == pytest.approx(4.0)
    assert qubo_energy(program, [0, 0, 0]) == pytest.approx(1.0)


def test_penalty_qubo_k2_minimum():
    inst = _bare_instance(2, 2, alpha=[1.0, 1.0])
    program = build_penalty_qubo(inst, 5.0)
    energies = {x: qubo_energy(program, index_to_bits(x, 2)) for x in range(4)}
    assert energies[3] == pytest.approx(0.0, abs=1e-15)
    assert all(e > 0 for x, e in energies.items() if x != 3)


def test_penalty_qubo_matches_direct_objective():
    inst = generate_instance(3, 1, seed=21)
    program = build_penalty_qubo(inst, 1000.0)
    for x in range(8):
        bits = index_to_bits(x, 3)
        assert qubo_energy(program, bits) == pytest.approx(
            direct_penalty_objective(inst, bits, 1000.0), abs=1e-12
        )


# --- cardinality-slack builder ----------------------------------------------

def test_cardinality_slack_k1_layout_and_zero_set():
    inst = _bare_instance(3, 1, alpha=[1.0, 0.0, 0.0])
    program = build_cardinality_slack_qubo(inst, 1.0)
    assert program.num_vars == 4  # one slack bit for k=1
    assert qubo_energy(program, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    assert qubo_energy(program, [0, 0, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_cardinality_slack_violations_cost_at_least_one_unit():
    inst = _bare_instance(3, 1, alpha=[1.0, 0.0, 0.0])
    a_card = 2.5
    program = build_cardinality_slack_qubo(inst, a_card)
    for s in (0, 1):
        assert qubo_energy(program, [1, 1, 1, s]) >= a_card


def test_cardinality_slack_matches_direct_objective():
    inst = generate_instance(3, 1, seed=33)
    program = build_cardinality_slack_qubo(inst, 7.0)
    for x in range(1 << 4):
        bits = index_to_bits(x, 4)
        assert qubo_energy(program, bits) == pytest.approx(
            direct_cardinality_objective(inst, bits, 7.0), abs=1e-12
        )


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (3, 4), (4, 5)])
def test_cardinality_slack_zero_set_is_the_inequality(k, n):
    inst = _bare_instance(n, k, alpha=np.ones(n))
    program = build_cardinality_slack_qubo(inst, 1.0)
    m = program.num_vars
    reachable_zero_assets = set()
    for x in range(1 << m):
        bits = index_to_bits(x, m)
        if qubo_energy(program, bits) == pytest.approx(0.0, abs=1e-12):
            reachable_zero_assets.add(tuple(bits[:n]))
    expected = {
        tuple(index_to_bits(y, n))
        for y in range(1 << n)
        if index_to_bits(y, n).sum() <= k
    }
    assert reachable_zero_assets == expected


# --- energy evaluation and the Ising mapping ---------------------------------

def test_qubo_energy_examples():
    program = QuboProgram(
        1, (VarLabel.asset(0),), np.array([[2.0]]), np.array([3.0]), 1.0
    )
    assert qubo_energy(program, [0]) == pytest.approx(1.0)
    assert qubo_energy(program, [1]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        qubo_energy(program, [1, 0])


@given(seed=st.integers(0, 10**6), m=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_qubo_energy_matches_naive_evaluator(seed, m):
    program = _random_program(seed, m)
    rng = np.random.default_rng(seed + 1)
    bits = rng.integers(0, 2, size=m)
    assert qubo_energy(program, bits) == pytest.approx(
        naive_qubo_energy(program, bits), abs=1e-12
    )


def test_to_ising_zero_program():
    program = QuboProgram(2, (VarLabel.asset(0), VarLabel.asset(1)), np.zeros((2, 2)), np.zeros(2), 0.0)
    hamiltonian = to_ising(program)
    assert hamiltonian.couplings == {}
    assert np.array_equal(hamiltonian.fields, np.zeros(2))
    assert hamiltonian.offset == 0.0


def test_to_ising_single_linear_term():
    program = QuboProgram(1, (VarLabel.asset(0),), np.zeros((1, 1)), np.array([1.0]), 0.0)
    hamiltonian = to_ising(program)
    assert hamiltonian.fields[0] == pytest.approx(-0.5)
    assert hamiltonian.offset == pytest.approx(0.5)


def test_ising_energy_sign_convention():
    hamiltonian = IsingHamiltonian(1, {}, np.array([1.0]), 0.0)
    assert naive_ising_energy(hamiltonian, [0]) == pytest.approx(1.0)
    assert naive_ising_energy(hamiltonian, [1]) == pytest.approx(-1.0)


def test_ising_energy_offset_only():
    hamiltonian = IsingHamiltonian(2, {}, np.zeros(2), 1.25)
    for x in range(4):
        assert naive_ising_energy(hamiltonian, index_to_bits(x, 2)) == 1.25


def test_slack_program_ising_equivalence_exhaustive():
    inst = generate_instance(3, 1, seed=4)
    program = build_slack_ancilla_qubo(inst, 100.0)
    hamiltonian = to_ising(program)
    for x in range(1 << 6):
        bits = index_to_bits(x, 6)
        assert abs(naive_ising_energy(hamiltonian, bits) - qubo_energy(program, bits)) < 1e-12


@given(seed=st.integers(0, 10**6), m=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_mapping_exactness_random_programs(seed, m):
    program = _random_program(seed, m)
    hamiltonian = to_ising(program)
    for x in range(1 << m):
        bits = index_to_bits(x, m)
        assert abs(naive_ising_energy(hamiltonian, bits) - qubo_energy(program, bits)) < 1e-12
        assert abs(naive_ising_energy(hamiltonian, bits) - naive_qubo_energy(program, bits)) < 1e-12


def test_to_ising_handles_triangular_storage():
    # only Q_ij + Q_ji may matter, not how it is split
    upper = QuboProgram(
        2, (VarLabel.asset(0), VarLabel.asset(1)),
        np.array([[1.0, 4.0], [0.0, 2.0]]), np.array([0.5, -0.5]), 0.25,
    )
    split = QuboProgram(
        2, (VarLabel.asset(0), VarLabel.asset(1)),
        np.array([[1.0, 2.0], [2.0, 2.0]]), np.array([0.5, -0.5]), 0.25,
    )
    h_upper, h_split = to_ising(upper), to_ising(split)
    for x in range(4):
        bits = index_to_bits(x, 2)
        assert naive_ising_energy(h_upper, bits) == pytest.approx(
            naive_ising_energy(h_split, bits), abs=1e-14
        )


@given(seed=st.integers(0, 10**6), scale=st.floats(0.1, 100.0))
@settings(max_examples=40, deadline=None)
def test_argmin_invariant_under_positive_scaling(seed, scale):
    program = _random_program(seed, 4)
    scaled = QuboProgram(
        4, program.labels, scale * program.quadratic, scale * program.linear,
        scale * program.constant,
    )
    energies = np.array([qubo_energy(program, index_to_bits(x, 4)) for x in range(16)])
    scaled_energies = np.array([qubo_energy(scaled, index_to_bits(x, 4)) for x in range(16)])
    tol = 1e-9 * max(1.0, scale)
    assert set(np.flatnonzero(energies <= energies.min() + tol)) == set(
        np.flatnonzero(scaled_energies <= scaled_energies.min() + scale * tol)
    )


def test_programs_and_hamiltonians_refuse_non_finite_coefficients():
    labels = (VarLabel.asset(0), VarLabel.asset(1))
    for quadratic, linear, constant in (
        ([[np.inf, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.0),
        (np.zeros((2, 2)), [np.nan, 0.0], 0.0),
        (np.zeros((2, 2)), [0.0, 0.0], -np.inf),
    ):
        with pytest.raises(ValueError, match="QUBO coefficients"):
            QuboProgram(2, labels, quadratic, linear, constant)
    for couplings, fields, offset in (
        ({(0, 1): np.inf}, np.zeros(2), 0.0),
        ({}, np.array([0.0, np.nan]), 0.0),
        ({}, np.zeros(2), np.inf),
    ):
        with pytest.raises(ValueError, match="Ising coefficients"):
            IsingHamiltonian(2, couplings, fields, offset)
    # Finite weights whose arithmetic overflows are refused without a
    # RuntimeWarning: 2 * weight * offset in the builder, Q + Q^T in the map.
    with pytest.raises(ValueError, match="QUBO coefficients"):
        build_penalty_qubo(generate_instance(3, 1, seed=1), 1e308)
    finite = QuboProgram(2, labels, [[0.0, 1e308], [1e308, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="Ising coefficients"):
        to_ising(finite)
