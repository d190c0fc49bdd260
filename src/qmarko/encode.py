"""Penalized QUBO builders and the exact QUBO -> Ising mapping.

Three constraint encodings are provided:

* ``build_slack_ancilla_qubo`` closes each per-asset cap ``w_i <= alpha_i``
  with a dedicated binary slack bit and a squared-equality penalty
  ``beta * (w_i - alpha_i + s_i)^2``.
* ``build_penalty_qubo`` adds the direct quadratic cardinality penalty
  ``a * (sum w_i - k)^2`` with no extra variables.
* ``build_cardinality_slack_qubo`` internalizes ``sum w_i <= k`` through a
  binary-encoded integer slack, ``a * (sum w_i + s - k)^2``.

The Ising mapping substitutes ``x_i = (1 - z_i) / 2`` term by term, so for
every bitstring the Ising energy equals the QUBO energy to machine
precision. Spin convention: bit 0 maps to z = +1, bit 1 to z = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import PortfolioInstance

ASSET = "asset"
SLACK_ASSET = "slack_asset"
SLACK_CARDINALITY = "slack_cardinality"


@dataclass(frozen=True)
class VarLabel:
    """Tag for one binary variable: which role it plays and its index."""

    kind: str
    index: int

    @classmethod
    def asset(cls, i: int) -> "VarLabel":
        return cls(ASSET, i)

    @classmethod
    def slack_asset(cls, i: int) -> "VarLabel":
        return cls(SLACK_ASSET, i)

    @classmethod
    def slack_cardinality(cls, bit: int) -> "VarLabel":
        return cls(SLACK_CARDINALITY, bit)


@dataclass(frozen=True)
class QuboProgram:
    """min x'Qx + b'x + c over binary x, with labeled variables.

    ``quadratic`` is stored symmetrically; the energy form x'Qx counts
    Q_ij + Q_ji exactly once per unordered pair.
    """

    num_vars: int
    labels: tuple[VarLabel, ...]
    quadratic: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        q = np.array(self.quadratic, dtype=float)
        b = np.array(self.linear, dtype=float)
        m = self.num_vars
        if q.shape != (m, m):
            raise ValueError(f"quadratic must have shape ({m}, {m}), got {q.shape}")
        if b.shape != (m,):
            raise ValueError(f"linear must have shape ({m},), got {b.shape}")
        if len(self.labels) != m:
            raise ValueError(f"expected {m} labels, got {len(self.labels)}")
        if not (np.isfinite(q).all() and np.isfinite(b).all() and math.isfinite(self.constant)):
            raise ValueError("QUBO coefficients must be finite (penalty weight too large?)")
        q.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class IsingHamiltonian:
    """Diagonal Hamiltonian: sum J_ij Z_i Z_j + sum h_i Z_i + offset, all finite."""

    num_qubits: int
    couplings: dict[tuple[int, int], float]
    fields: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        h = np.array(self.fields, dtype=float)
        if h.shape != (self.num_qubits,):
            raise ValueError(f"fields must have shape ({self.num_qubits},), got {h.shape}")
        for (i, j) in self.couplings:
            if not 0 <= i < j < self.num_qubits:
                raise ValueError(f"coupling key ({i}, {j}) is not ordered within range")
        if not np.isfinite([self.offset, *self.couplings.values(), *h]).all():
            raise ValueError("Ising coefficients must be finite (penalty weight too large?)")
        h.flags.writeable = False
        object.__setattr__(self, "fields", h)


def _base_objective(instance: PortfolioInstance, num_vars: int):
    """Quadratic/linear arrays holding q*w'Sw - lambda*mu'w on the asset block."""
    n = instance.n
    quadratic = np.zeros((num_vars, num_vars))
    linear = np.zeros(num_vars)
    quadratic[:n, :n] = instance.q_risk * instance.sigma
    linear[:n] = -instance.lambda_weight * instance.mu
    return quadratic, linear


def _add_squared_penalty(quadratic, linear, coeffs, offset: float, weight: float) -> float:
    """Accumulate weight * (coeffs.x + offset)^2; returns the constant term."""
    with np.errstate(over="ignore", invalid="ignore"):  # QuboProgram refuses an overflow
        quadratic += weight * np.outer(coeffs, coeffs)
        linear += 2.0 * weight * offset * coeffs
    return weight * offset * offset


def check_slack_caps(instance: PortfolioInstance) -> None:
    """Raise ValueError unless the caps are a binary mask with at most k ones.

    Only then is the slack-ancilla encoding exact. A fractional cap a makes
    beta * (w - a + s)^2 equal for a selected and an unselected asset (both
    0.25 at a = 0.5), so the penalty no longer excludes the capped asset;
    with more than k caps at 1, nothing in the program bounds the
    cardinality.
    """
    alpha = instance.alpha
    if not np.all((alpha == 0.0) | (alpha == 1.0)):
        raise ValueError(f"slack-ancilla encoding needs caps of 0 or 1, got {alpha.tolist()}")
    ones = int(np.count_nonzero(alpha))
    if ones > instance.k:
        raise ValueError(
            f"slack-ancilla encoding needs at most k={instance.k} caps at 1, got {ones}"
        )


def build_slack_ancilla_qubo(instance: PortfolioInstance, beta_penalty: float) -> QuboProgram:
    """Slack-ancilla program over 2n bits: assets w_0..w_{n-1}, then one
    binary slack per asset. Adds beta * (w_i - alpha_i + s_i)^2 per asset;
    binary slack is exactly enough to close w_i <= alpha_i for binary alpha,
    and the caps are checked to be such a mask (``check_slack_caps``).
    """
    if not 0 < beta_penalty < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {beta_penalty}")
    check_slack_caps(instance)
    n = instance.n
    m = 2 * n
    quadratic, linear = _base_objective(instance, m)
    constant = 0.0
    for i in range(n):
        coeffs = np.zeros(m)
        coeffs[i] = 1.0
        coeffs[n + i] = 1.0
        constant += _add_squared_penalty(
            quadratic, linear, coeffs, -float(instance.alpha[i]), beta_penalty
        )
    labels = tuple(VarLabel.asset(i) for i in range(n)) + tuple(
        VarLabel.slack_asset(i) for i in range(n)
    )
    return QuboProgram(m, labels, quadratic, linear, constant)


def build_penalty_qubo(instance: PortfolioInstance, a_card: float) -> QuboProgram:
    """Direct-penalty program over the n asset bits: a * (sum w_i - k)^2."""
    if not 0 < a_card < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {a_card}")
    n = instance.n
    quadratic, linear = _base_objective(instance, n)
    constant = _add_squared_penalty(quadratic, linear, np.ones(n), -float(instance.k), a_card)
    labels = tuple(VarLabel.asset(i) for i in range(n))
    return QuboProgram(n, labels, quadratic, linear, constant)


def cardinality_slack_weights(k: int) -> list[float]:
    """Bit weights encoding an integer slack ranging over exactly [0, k]."""
    num_bits = max(1, math.ceil(math.log2(k + 1)))
    weights = [float(1 << b) for b in range(num_bits - 1)]
    weights.append(float(k - ((1 << (num_bits - 1)) - 1)))
    return weights


def build_cardinality_slack_qubo(instance: PortfolioInstance, a_card: float) -> QuboProgram:
    """Cardinality-slack program: n asset bits plus ceil(log2(k+1)) slack
    bits whose weighted sum s ranges over [0, k]; adds a * (sum w_i + s - k)^2.
    """
    if not 0 < a_card < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {a_card}")
    n, k = instance.n, instance.k
    weights = cardinality_slack_weights(k)
    m = n + len(weights)
    quadratic, linear = _base_objective(instance, m)
    coeffs = np.concatenate([np.ones(n), np.array(weights)])
    constant = _add_squared_penalty(quadratic, linear, coeffs, -float(k), a_card)
    labels = tuple(VarLabel.asset(i) for i in range(n)) + tuple(
        VarLabel.slack_cardinality(b) for b in range(len(weights))
    )
    return QuboProgram(m, labels, quadratic, linear, constant)


def qubo_energy(program: QuboProgram, x) -> float:
    """Exact value of x'Qx + b'x + c."""
    v = np.asarray(x, dtype=float)
    if v.shape != (program.num_vars,):
        raise ValueError(f"x must have shape ({program.num_vars},), got {v.shape}")
    return float(v @ program.quadratic @ v + program.linear @ v + program.constant)


def to_ising(program: QuboProgram) -> IsingHamiltonian:
    """Map the program through x_i = (1 - z_i) / 2.

    Z_i^2 terms are identities and fold into the offset. Works for any
    storage of Q (symmetric or triangular): only Q_ij + Q_ji matters.
    """
    q = program.quadratic
    b = program.linear
    with np.errstate(over="ignore", invalid="ignore"):  # IsingHamiltonian refuses an overflow
        pair = q + q.T  # pair[i, j] = Q_ij + Q_ji; diagonal = 2 Q_ii
        fields = -b / 2.0 - pair.sum(axis=1) / 4.0
        couplings: dict[tuple[int, int], float] = {}
        m = program.num_vars
        for i in range(m):
            for j in range(i + 1, m):
                coupling = pair[i, j] / 4.0
                if coupling != 0.0:
                    couplings[(i, j)] = coupling
        trace = float(np.trace(q))
        offset = (
            program.constant
            + float(b.sum()) / 2.0
            + trace / 2.0
            + (float(q.sum()) - trace) / 4.0
        )
    return IsingHamiltonian(m, couplings, fields, offset)
