"""Constrained mean-variance portfolio instances.

An instance is the tuple (n, k, mu, sigma, alpha) plus the trade-off
weights: ``mu`` holds expected returns, ``sigma`` the return covariance,
``alpha`` per-asset allocation caps, and ``k`` the cardinality bound.
The selection objective is ``q_risk * w' Sigma w - lambda_weight * mu' w``
over binary asset vectors ``w``; a portfolio is feasible when ``w <= alpha``
componentwise and at most ``k`` assets are selected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitstrings import quadratic_form_table

GENERATOR_VERSION = "qmarko-0.1.0"

MU_LOW = 0.01
MU_HIGH = 0.10
# Standard deviation of the lower-triangular covariance factor entries.
SIGMA_FACTOR_STD = 0.05


@dataclass(frozen=True)
class PortfolioInstance:
    """Immutable problem data for one constrained portfolio selection.

    Arrays are frozen after construction; instances are safe to share
    across concurrent workers.
    """

    n: int
    k: int
    mu: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray
    lambda_weight: float = 1.0
    q_risk: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"asset count must be positive, got n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"cardinality bound k={self.k} outside [1, {self.n}]")
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        if mu.shape != (self.n,):
            raise ValueError(f"mu must have shape ({self.n},), got {mu.shape}")
        if sigma.shape != (self.n, self.n):
            raise ValueError(f"sigma must have shape ({self.n}, {self.n}), got {sigma.shape}")
        if alpha.shape != (self.n,):
            raise ValueError(f"alpha must have shape ({self.n},), got {alpha.shape}")
        if not np.all(alpha >= 0.0):  # NaN fails too
            raise ValueError(f"caps alpha must all be >= 0, got a minimum of {alpha.min()}")
        weights = {"mu": mu, "sigma": sigma, "lambda_weight": self.lambda_weight,
                   "q_risk": self.q_risk}
        for name, value in weights.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite (no NaN or inf)")
        for arr in (mu, sigma, alpha):
            arr.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)


def generate_instance(
    n: int,
    k: int,
    seed: int,
    lambda_weight: float = 1.0,
    q_risk: float = 0.5,
) -> PortfolioInstance:
    """Draw a random instance: returns uniform in [0.01, 0.10], covariance
    from a lower-triangular Gaussian factor (so it is positive semidefinite
    by construction), and a uniformly random k-hot threshold mask.

    Identical arguments produce a bit-identical instance. Draw order is
    fixed: mu, then the covariance factor, then the mask.
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"invalid dimensions: n={n}, k={k}")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(MU_LOW, MU_HIGH, size=n)
    factor = np.tril(rng.normal(0.0, SIGMA_FACTOR_STD, size=(n, n)))
    raw = factor @ factor.T
    sigma = (raw + raw.T) / 2.0  # force exact symmetry
    alpha = np.zeros(n)
    alpha[rng.choice(n, size=k, replace=False)] = 1.0
    return PortfolioInstance(
        n=n, k=k, mu=mu, sigma=sigma, alpha=alpha,
        lambda_weight=lambda_weight, q_risk=q_risk, seed=seed,
    )


def classical_objective(instance: PortfolioInstance, omega) -> float:
    """Selection objective q * w'Sw - lambda * mu'w for a binary portfolio."""
    w = np.asarray(omega, dtype=float)
    if w.shape != (instance.n,):
        raise ValueError(f"omega must have shape ({instance.n},), got {w.shape}")
    risk = float(w @ instance.sigma @ w)
    ret = float(instance.mu @ w)
    return instance.q_risk * risk - instance.lambda_weight * ret


def is_feasible(instance: PortfolioInstance, omega) -> bool:
    """True when omega respects the per-asset caps and the cardinality bound.

    Both checks run independently: the cap check alone implies the bound
    only when alpha is a k-hot mask.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (instance.n,):
        raise ValueError(f"omega must have shape ({instance.n},), got {w.shape}")
    return bool(np.all(w <= instance.alpha)) and float(w.sum()) <= instance.k


def objective_table(instance: PortfolioInstance) -> np.ndarray:
    """``classical_objective`` of every selection, indexed with asset 0 as
    the lowest bit (see ``bitstrings``)."""
    return quadratic_form_table(
        instance.q_risk * instance.sigma, -instance.lambda_weight * instance.mu, 0.0
    )


def feasible_table(instance: PortfolioInstance) -> np.ndarray:
    """``is_feasible`` of every selection, indexed like ``objective_table``.

    Caps are >= 0, so a selection breaks a cap exactly when it selects an
    asset whose cap is below 1. Each selected asset counts 1, plus n + 1 if
    its cap is below 1, so a selection is feasible exactly when its count
    (an integer <= n(n + 2), summed exactly) is at most k.
    """
    n = instance.n
    counts = quadratic_form_table(np.zeros((n, n)), 1.0 + (n + 1) * (instance.alpha < 1.0), 0.0)
    return counts <= instance.k


def best_selection(instance: PortfolioInstance, allowed: np.ndarray) -> int | None:
    """The lowest-objective index of the 2^n mask ``allowed`` (lowest index
    on ties), or None when the mask is empty."""
    if not allowed.any():
        return None
    return int(np.argmin(np.where(allowed, objective_table(instance), np.inf)))


def to_json(instance: PortfolioInstance) -> str:
    """Serialize to the instance file format.

    Floats are written in Python's shortest round-trip decimal form
    (at most 17 significant digits), so load(save(x)) is bit-exact.
    """
    doc = {
        "n": instance.n,
        "k": instance.k,
        "mu": list(instance.mu),
        "sigma": [list(row) for row in instance.sigma],
        "alpha": list(instance.alpha),
        "lambda": instance.lambda_weight,
        "q": instance.q_risk,
        "seed": instance.seed,
        "metadata": {
            "generator": GENERATOR_VERSION,
            "sigma_convention": "lower-triangular factor, entries normal(0, std=0.05)",
            "float_format": "shortest round-trip decimal (<= 17 significant digits)",
        },
    }
    return json.dumps(doc, indent=2)


def as_integer(value) -> int:
    """int() that refuses booleans and fractions instead of truncating them.

    The one integer rule for instance files and CLI settings: whatever
    int() takes without losing a digit converts (2.0, "3").
    """
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def from_json(text: str) -> PortfolioInstance:
    try:
        doc = json.loads(text)
        return PortfolioInstance(
            n=as_integer(doc["n"]),
            k=as_integer(doc["k"]),
            mu=np.array(doc["mu"], dtype=float),
            sigma=np.array(doc["sigma"], dtype=float),
            alpha=np.array(doc["alpha"], dtype=float),
            lambda_weight=float(doc["lambda"]),
            q_risk=float(doc["q"]),
            seed=as_integer(doc["seed"]),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc


def save_instance(instance: PortfolioInstance, path) -> None:
    Path(path).write_text(to_json(instance) + "\n")


def load_instance(path) -> PortfolioInstance:
    return from_json(Path(path).read_text())
