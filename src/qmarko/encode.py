"""Penalized QUBO builders.

An encoding is its variable labels plus its penalty rows ``(coeffs,
offset)``, each standing for ``weight * (coeffs.x + offset)^2``;
``_program`` checks the weight, writes the objective onto the asset labels
and sums the rows. ``build_slack_ancilla_qubo`` has one row
``w_i + s_i - alpha_i`` per asset, closing the cap ``w_i <= alpha_i`` with a
binary slack bit just above its asset bit; ``build_penalty_qubo`` has the
direct cardinality row ``sum w_i - k`` on the asset bits alone;
``build_cardinality_slack_qubo`` has the row ``sum w_i + s - k``, with the
binary-encoded integer slack s on the bits after the n asset bits.

A program is the QAOA cost Hamiltonian itself: the diagonal operator with
eigenvalue x'Qx + b'x + c on basis state x. Its Ising form, through
``x_i = (1 - z_i) / 2`` (bit 0 is z = +1, bit 1 is z = -1), is the same
diagonal, so ``simulate.energy_table`` tabulates the program as it is and
no Ising copy is built; only the angle scale (``qaoa._angle_scale``) reads
the Ising coefficients, in closed form.
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

    num_qubits: int
    labels: tuple[VarLabel, ...]
    quadratic: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        q = np.array(self.quadratic, dtype=float)
        b = np.array(self.linear, dtype=float)
        m = self.num_qubits
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


def _program(instance: PortfolioInstance, labels, penalties, weight: float) -> QuboProgram:
    """The program over ``labels``: q*w'Sw - lambda*mu'w on the asset bits
    (asset i being the i-th asset label) plus weight * (coeffs.x + offset)^2
    for each ``(coeffs, offset)`` row of ``penalties``, summed in order."""
    if not 0 < weight < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {weight}")
    m = len(labels)
    assets = [pos for pos, label in enumerate(labels) if label.kind == ASSET]
    quadratic = np.zeros((m, m))
    linear = np.zeros(m)
    quadratic[np.ix_(assets, assets)] = instance.q_risk * instance.sigma
    linear[assets] = -instance.lambda_weight * instance.mu
    constant = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # QuboProgram refuses an overflow
        for coeffs, offset in penalties:
            quadratic += weight * np.outer(coeffs, coeffs)
            linear += 2.0 * weight * offset * coeffs
            constant += weight * offset * offset
    return QuboProgram(m, labels, quadratic, linear, constant)


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
    """Slack-ancilla program over 2n bits in pair order: asset w_i at bit 2i
    and its binary slack s_i at bit 2i + 1, the order in which the
    conditional mixer acts on each (asset, slack) pair. Adds
    beta * (w_i - alpha_i + s_i)^2 per asset; binary slack is exactly enough
    to close w_i <= alpha_i for binary alpha, and the caps are checked to be
    such a mask (``check_slack_caps``).
    """
    n = instance.n
    labels = tuple(x for i in range(n) for x in (VarLabel.asset(i), VarLabel.slack_asset(i)))

    def rows():  # read by _program after its weight check, so a bad weight is named first
        check_slack_caps(instance)
        pairs = np.eye(n).repeat(2, axis=1)  # row i: ones at bits 2i and 2i + 1
        yield from ((pairs[i], -float(instance.alpha[i])) for i in range(n))

    return _program(instance, labels, rows(), beta_penalty)


def build_penalty_qubo(instance: PortfolioInstance, a_card: float) -> QuboProgram:
    """Direct-penalty program over the n asset bits: a * (sum w_i - k)^2."""
    labels = tuple(VarLabel.asset(i) for i in range(instance.n))
    return _program(instance, labels, [(np.ones(instance.n), -float(instance.k))], a_card)


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
    n, k = instance.n, instance.k
    weights = cardinality_slack_weights(k)
    labels = tuple(VarLabel.asset(i) for i in range(n)) + tuple(
        VarLabel.slack_cardinality(b) for b in range(len(weights))
    )
    coeffs = np.concatenate([np.ones(n), np.array(weights)])
    return _program(instance, labels, [(coeffs, -float(k))], a_card)


def qubo_energy(program: QuboProgram, x) -> float:
    """Exact value of x'Qx + b'x + c."""
    v = np.asarray(x, dtype=float)
    if v.shape != (program.num_qubits,):
        raise ValueError(f"x must have shape ({program.num_qubits},), got {v.shape}")
    return float(v @ program.quadratic @ v + program.linear @ v + program.constant)
