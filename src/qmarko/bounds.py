"""The asset marginal, risk/return observables and the commuting-limit
variance inequality.

``asset_marginal`` reduces a register distribution to its asset bits.
Both observables are diagonal in the computational basis and act only on
the asset qubits, so Var(R) * Var(M) >= Cov(R, M)^2 holds for every
distribution over the asset bits (Cauchy–Schwarz); ``variance_bound``
measures the slack of that inequality on a record's asset marginal, as an
implementation guard and an empirical probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstrings import quadratic_form_table
from .encode import ASSET
from .instance import PortfolioInstance


def asset_marginal(probabilities: np.ndarray, labels) -> np.ndarray:
    """The 2^n asset marginal of a register distribution over the qubits
    ``labels`` name, in basis-index order over the asset bits: the
    probabilities summed over every other qubit.

    Each run of adjacent non-asset qubits is summed out with one reduction,
    from the top qubit down, so the qubits below keep their bit positions:
    the slacks that follow the assets (cardinality slack) go in one
    reduction, the slack-ancilla program's slacks, one above each asset, by
    successive halving. No qubit of the penalty program is summed out.
    """
    marginal = probabilities
    run = 0  # non-asset qubits just above ``qubit``
    for qubit in reversed(range(len(labels))):
        if labels[qubit].kind == ASSET:
            continue
        run += 1
        if qubit == 0 or labels[qubit - 1].kind == ASSET:
            marginal = marginal.reshape(-1, 1 << run, 1 << qubit).sum(axis=1)
            run = 0
    return marginal.reshape(-1)


def _spin_form_table(couplings: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """sum_{i<j} J_ij z_i z_j + sum_i h_i z_i for every basis state, with
    z = 1 - 2x: J_ij z_i z_j = J_ij (1 - 2x_i - 2x_j + 4 x_i x_j) and
    h_i z_i = h_i - 2 h_i x_i, tabulated as a quadratic form over bits."""
    upper = np.triu(couplings, 1)
    linear = -2.0 * fields - 2.0 * (upper.sum(axis=0) + upper.sum(axis=1))
    return quadratic_form_table(4.0 * upper, linear, fields.sum() + upper.sum())


def risk_observable(instance: PortfolioInstance) -> np.ndarray:
    """sum_{i<j} Sigma_ij z_i z_j + sum_i Sigma_ii z_i over the asset qubits:
    one eigenvalue per basis state."""
    return _spin_form_table(instance.sigma, np.diag(instance.sigma))


def return_observable(instance: PortfolioInstance) -> np.ndarray:
    """sum_i mu_i z_i over the asset qubits: one eigenvalue per basis state."""
    return _spin_form_table(np.zeros((instance.n, instance.n)), instance.mu)


def _moments_from_probabilities(p: np.ndarray, va: np.ndarray, vb: np.ndarray):
    """(mean_a, mean_b, var_a, var_b, cov_ab) of two diagonal observables
    under the distribution ``p``."""
    mean_a = float(p @ va)
    mean_b = float(p @ vb)
    var_a = float(p @ (va * va)) - mean_a * mean_a
    var_b = float(p @ (vb * vb)) - mean_b * mean_b
    cov_ab = float(p @ (va * vb)) - mean_a * mean_b
    return mean_a, mean_b, var_a, var_b, cov_ab


@dataclass(frozen=True)
class BoundReport:
    """Moments of the risk/return pair and the variance-product slack."""

    mean_risk: float
    mean_return: float
    var_risk: float
    var_return: float
    std_risk: float
    std_return: float
    covariance: float
    slack: float


def variance_bound(p: np.ndarray, instance: PortfolioInstance) -> BoundReport:
    """Var(R)*Var(M) - Cov(R,M)^2 on an asset marginal ``p`` (2^n
    probabilities in basis-index order).

    The slack is nonnegative up to rounding for every distribution; a
    materially negative value indicates a broken moment computation.
    """
    mean_r, mean_m, var_r, var_m, cov = _moments_from_probabilities(
        p, risk_observable(instance), return_observable(instance)
    )
    slack = var_r * var_m - cov * cov
    return BoundReport(
        mean_risk=mean_r,
        mean_return=mean_m,
        var_risk=var_r,
        var_return=var_m,
        std_risk=float(np.sqrt(max(var_r, 0.0))),
        std_return=float(np.sqrt(max(var_m, 0.0))),
        covariance=cov,
        slack=slack,
    )
