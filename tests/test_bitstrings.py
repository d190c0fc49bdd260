import numpy as np
import pytest

from helpers import naive_qubo_energy
from qmarko.bitstrings import (
    MAX_QUBITS,
    basis_labels,
    index_to_bits,
    index_to_string,
    quadratic_form_table,
)
from qmarko.encode import IsingHamiltonian, QuboProgram, VarLabel
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
    with pytest.raises(ValueError):
        energy_table(IsingHamiltonian(m, {(0, 1): 1.0}, np.ones(m), 0.0))
    labels = tuple(VarLabel.asset(i) for i in range(m))
    with pytest.raises(ValueError):
        exhaustive_qubo_minimum(QuboProgram(m, labels, np.eye(m), np.ones(m), 0.0))
    alpha = np.zeros(m)
    alpha[0] = 1.0
    with pytest.raises(ValueError):
        exhaustive_portfolio_optimum(PortfolioInstance(m, 1, np.full(m, 0.05), np.eye(m), alpha))


def _loop_label(index: int, num_bits: int) -> str:
    return "".join("1" if (index >> bit) & 1 else "0" for bit in range(num_bits))


@pytest.mark.parametrize("m", range(1, 13))
def test_basis_labels_match_per_bit_loop_on_every_index(m):
    indices = np.arange(1 << m)
    expected = [_loop_label(int(i), m) for i in indices]
    assert basis_labels(indices, m) == expected
    assert [index_to_string(int(i), m) for i in indices] == expected


def test_basis_labels_at_24_bits():
    indices = [0, 1, 1 << 23, (1 << 24) - 1]
    expected = [_loop_label(i, 24) for i in indices]
    assert basis_labels(np.array(indices), 24) == expected
    assert [index_to_string(i, 24) for i in indices] == expected
    assert expected[1] == "1" + "0" * 23
