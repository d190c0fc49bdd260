"""Ground-truth machinery: exhaustive searches and the classical baseline.

The exhaustive routines tabulate every assignment with
``bitstrings.quadratic_form_table`` and take the argmin, which breaks
ties toward the lowest bitstring index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstrings import index_to_bits, index_to_string, quadratic_form_table
from .encode import QuboProgram, qubo_energy
from .instance import (
    PortfolioInstance, classical_objective, feasible_table, is_feasible, objective_table,
)
from .qaoa import minimize_with_budget


def exhaustive_portfolio_optimum(instance: PortfolioInstance) -> tuple[str, float]:
    """Best feasible portfolio over all 2^n selections.

    Always succeeds: caps are >= 0, so the empty portfolio is feasible.
    Ties break toward the lowest bitstring index.
    """
    n = instance.n
    values = np.where(feasible_table(instance), objective_table(instance), math.inf)
    best = int(np.argmin(values))
    return index_to_string(best, n), classical_objective(instance, index_to_bits(best, n))


def exhaustive_qubo_minimum(program: QuboProgram) -> tuple[str, float]:
    """Global minimum over all 2^m assignments; ties break toward the
    lowest bitstring index."""
    m = program.num_vars
    table = quadratic_form_table(program.quadratic, program.linear, program.constant)
    best = int(np.argmin(table))
    return index_to_string(best, m), qubo_energy(program, index_to_bits(best, m))


@dataclass(frozen=True)
class BaselineResult:
    """Rounded output of the continuous-relaxation baseline."""

    bitstring: str
    feasible: bool
    value: float
    trace: tuple[float, ...]


def classical_baseline(
    instance: PortfolioInstance,
    beta_penalty: float = 100.0,
    budget: int = 200,
    seed: int = 0,
    optimizer: str = "cobyla",
) -> BaselineResult:
    """Derivative-free search on the continuous relaxation of the
    penalized slack objective over [0,1]^(2n), rounded at 0.5.

    Uses the same optimizer machinery as the variational runs. The unit
    box is passed as native inequality constraints where the method
    supports them; iterates are additionally clipped before evaluation so
    the unconstrained variant stays inside the cube too. A relaxed
    objective that overflows at an iterate raises ValueError.
    """
    if not 0 < beta_penalty < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {beta_penalty}")
    n = instance.n

    def relaxed(v):
        v = np.clip(v, 0.0, 1.0)
        w, s = v[:n], v[n:]
        slack_residual = w - instance.alpha + s
        value = (
            instance.q_risk * float(w @ instance.sigma @ w)
            - instance.lambda_weight * float(instance.mu @ w)
            + beta_penalty * float(slack_residual @ slack_residual)
        )
        if not math.isfinite(value):
            raise ValueError(f"the relaxed objective overflows at penalty weight {beta_penalty!r}")
        return value

    box = [{"type": "ineq", "fun": (lambda x, i=i: x[i])} for i in range(2 * n)]
    box += [{"type": "ineq", "fun": (lambda x, i=i: 1.0 - x[i])} for i in range(2 * n)]
    x0 = np.random.default_rng(seed).uniform(0.0, 1.0, size=2 * n)
    best_x, _, evals = minimize_with_budget(relaxed, x0, optimizer, budget, constraints=box)
    rounded = (np.clip(best_x, 0.0, 1.0) >= 0.5).astype(float)
    asset_bits = rounded[:n]
    index = sum(1 << int(i) for i in np.flatnonzero(asset_bits))
    return BaselineResult(
        bitstring=index_to_string(index, n),
        feasible=is_feasible(instance, asset_bits),
        value=classical_objective(instance, asset_bits),
        trace=tuple(evals),
    )
