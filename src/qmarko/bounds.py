"""The asset marginal of a register distribution.

``asset_marginal`` sums a program's register probabilities over every
non-asset qubit, leaving the 2^n distribution over asset selections that
feasibility checks and records read. Given a scratch array it allocates
no array of its own: each reduction writes into the scratch, so an ansatz
reduces its probabilities in the free half of its spare buffer
(``simulate.Ansatz.marginal``).
"""

from __future__ import annotations

import numpy as np

from .encode import ASSET


def asset_marginal(
    probabilities: np.ndarray, labels, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The 2^n asset marginal of a register distribution over the qubits
    ``labels`` name, in basis-index order over the asset bits: the
    probabilities summed over every other qubit.

    Each run of adjacent non-asset qubits is summed out with one reduction,
    from the top qubit down, so the qubits below keep their bit positions:
    the slacks that follow the assets (cardinality slack) go in one
    reduction, the slack-ancilla program's slacks, one above each asset, by
    successive halving. No qubit of the penalty program is summed out, so
    its marginal is ``probabilities`` itself, reshaped.

    With ``scratch``, a float64 array, each reduction writes its result
    into the next unused part of it instead of a new array, and the
    marginal returned is a view of it; the sums are the same, in the same
    order. Every reduction at least halves its input, so 2^m - 2^n entries
    of scratch hold them all; a 2^m scratch fits every layout.
    """
    marginal = probabilities
    used = 0  # scratch entries the reductions so far wrote
    run = 0  # non-asset qubits just above ``qubit``
    for qubit in reversed(range(len(labels))):
        if labels[qubit].kind == ASSET:
            continue
        run += 1
        if qubit == 0 or labels[qubit - 1].kind == ASSET:
            terms = marginal.reshape(-1, 1 << run, 1 << qubit)
            out = None
            if scratch is not None:
                size = terms.size >> run
                out = scratch[used:used + size].reshape(-1, 1 << qubit)
                used += size
            marginal = terms.sum(axis=1, out=out)
            run = 0
    return marginal.reshape(-1)
