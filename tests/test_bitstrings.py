import numpy as np
import pytest

from helpers import naive_qubo_energy
from qmarko.bitstrings import (
    MAX_QUBITS,
    basis_label_block,
    index_to_bits,
    index_to_string,
    quadratic_form_phases,
    quadratic_form_table,
)
from qmarko.encode import QuboProgram, VarLabel
from qmarko.instance import PortfolioInstance
from qmarko.oracle import exhaustive_portfolio_optimum, exhaustive_qubo_minimum
from qmarko.simulate import energy_table


@pytest.mark.parametrize("storage", ["full", "upper", "nonsymmetric"])
@pytest.mark.parametrize("m", range(1, 9))
def test_quadratic_form_table_matches_naive_energy(m, storage):
    rng = np.random.default_rng(1000 * m + len(storage))
    quadratic = rng.normal(size=(m, m))
    if storage == "full":
        quadratic = quadratic + quadratic.T
    elif storage == "upper":
        quadratic = np.triu(quadratic)
    program = QuboProgram(
        m, tuple(VarLabel.asset(i) for i in range(m)), quadratic,
        rng.normal(size=m), float(rng.normal()),
    )
    table = quadratic_form_table(program.quadratic, program.linear, program.constant)
    assert table.shape == (1 << m,)
    for idx in range(1 << m):
        expected = naive_qubo_energy(program, index_to_bits(idx, m))
        assert abs(table[idx] - expected) <= 1e-12


def test_every_enumeration_refuses_25_variables():
    m = MAX_QUBITS + 1
    assert m == 25
    labels = tuple(VarLabel.asset(i) for i in range(m))
    program = QuboProgram(m, labels, np.eye(m), np.ones(m), 0.0)
    with pytest.raises(ValueError):
        energy_table(program)
    with pytest.raises(ValueError):
        exhaustive_qubo_minimum(program)
    alpha = np.zeros(m)
    alpha[0] = 1.0
    with pytest.raises(ValueError):
        exhaustive_portfolio_optimum(PortfolioInstance(m, 1, np.full(m, 0.05), np.eye(m), alpha))


@pytest.mark.parametrize("storage", ["full", "upper", "nonsymmetric"])
@pytest.mark.parametrize("m", range(1, 9))
def test_quadratic_form_phases_match_exp_of_the_table(m, storage):
    # Coefficients at the scale of the slack Hamiltonian at beta = 51200,
    # angles as the search sets them: gamma = theta / coefficient norm.
    rng = np.random.default_rng(3000 * m + len(storage))
    quadratic = 1e5 * rng.normal(size=(m, m))
    if storage == "full":
        quadratic = quadratic + quadratic.T
    elif storage == "upper":
        quadratic = np.triu(quadratic)
    linear = 1e5 * rng.normal(size=m)
    constant = 1e5 * float(rng.normal())
    norm = float(np.abs(quadratic).sum() + np.abs(linear).sum())
    table = quadratic_form_table(quadratic, linear, constant)
    for theta in (0.0, 0.37, 1.9, np.pi, -2.6):
        gamma = theta / norm
        phases = quadratic_form_phases(quadratic, linear, constant, gamma)
        assert phases.shape == (1 << m,)
        assert np.abs(phases - np.exp(-1j * gamma * table)).max() <= 1e-12


def test_quadratic_form_phases_refuse_25_variables():
    m = MAX_QUBITS + 1
    with pytest.raises(ValueError):
        quadratic_form_phases(np.eye(m), np.ones(m), 0.0, 0.1)


def _loop_label(index: int, num_bits: int) -> str:
    return "".join("1" if (index >> bit) & 1 else "0" for bit in range(num_bits))


@pytest.mark.parametrize("m", range(1, 13))
def test_basis_labels_match_per_bit_loop_on_every_index(m):
    indices = np.arange(1 << m)
    expected = [_loop_label(int(i), m) for i in indices]
    assert basis_label_block(indices, m, b",\n") == "".join(
        label + ",\n" for label in expected).encode("ascii")
    assert [index_to_string(int(i), m) for i in indices] == expected


def test_basis_labels_at_24_bits():
    indices = [0, 1, 1 << 23, (1 << 24) - 1]
    expected = [_loop_label(i, 24) for i in indices]
    assert basis_label_block(np.array(indices), 24, b"\n") == "".join(
        label + "\n" for label in expected).encode("ascii")
    assert [index_to_string(i, 24) for i in indices] == expected
    assert expected[1] == "1" + "0" * 23
