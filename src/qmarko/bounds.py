"""The asset marginal of a register distribution.

``asset_marginal`` sums a program's register probabilities over every
non-asset qubit, leaving the 2^n distribution over asset selections that
feasibility checks and records read.
"""

from __future__ import annotations

import numpy as np

from .encode import ASSET


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
