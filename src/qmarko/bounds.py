"""Risk/return observables and the commuting-limit variance inequality.

Both observables are diagonal in the computational basis and act only on
the asset qubits, so Var(R) * Var(M) >= Cov(R, M)^2 holds for every state
(Cauchy–Schwarz); ``check_variance_bound`` measures the slack of that
inequality as an implementation guard and an empirical probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encode import IsingHamiltonian
from .instance import PortfolioInstance
from .simulate import StateVector, energy_table


@dataclass(frozen=True)
class DiagonalObservable:
    """Eigenvalue per computational basis state."""

    num_qubits: int
    values: np.ndarray


def risk_observable(instance: PortfolioInstance) -> DiagonalObservable:
    """sum_{i<j} Sigma_ij z_i z_j + sum_i Sigma_ii z_i over the asset qubits,
    tabulated as an n-qubit Ising energy."""
    n = instance.n
    couplings = {(i, j): float(instance.sigma[i, j]) for i in range(n) for j in range(i + 1, n)}
    hamiltonian = IsingHamiltonian(n, couplings, np.diag(instance.sigma), 0.0)
    return DiagonalObservable(n, energy_table(hamiltonian).energies)


def return_observable(instance: PortfolioInstance) -> DiagonalObservable:
    """sum_i mu_i z_i over the asset qubits, tabulated as an n-qubit Ising energy."""
    hamiltonian = IsingHamiltonian(instance.n, {}, instance.mu, 0.0)
    return DiagonalObservable(instance.n, energy_table(hamiltonian).energies)


def moments(state: StateVector, a: DiagonalObservable, b: DiagonalObservable):
    """(mean_a, mean_b, var_a, var_b, cov_ab) under the measurement distribution."""
    if a.num_qubits != state.num_qubits or b.num_qubits != state.num_qubits:
        raise ValueError(
            f"observables on {a.num_qubits}/{b.num_qubits} qubits cannot pair "
            f"with a {state.num_qubits}-qubit state"
        )
    return _moments_from_probabilities(state.probabilities(), a.values, b.values)


def _moments_from_probabilities(p: np.ndarray, va: np.ndarray, vb: np.ndarray):
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


def asset_marginal(state: StateVector, n: int) -> np.ndarray:
    """Probability distribution over the first n qubits, ancillas traced out."""
    if state.num_qubits < n:
        raise ValueError(f"state has {state.num_qubits} qubits, needs at least {n}")
    p = state.probabilities()
    return p.reshape(-1, 1 << n).sum(axis=0)


def check_variance_bound(state: StateVector, instance: PortfolioInstance) -> BoundReport:
    """Evaluate Var(R)*Var(M) - Cov(R,M)^2 on the asset-bit marginal.

    The slack is nonnegative up to rounding for every state; a materially
    negative value indicates a broken moment computation.
    """
    p = asset_marginal(state, instance.n)
    risk = risk_observable(instance)
    ret = return_observable(instance)
    mean_r, mean_m, var_r, var_m, cov = _moments_from_probabilities(p, risk.values, ret.values)
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
