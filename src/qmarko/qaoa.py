"""Variational loop: depth-p ansatz, derivative-free angle search, and the
penalty-doubling feasibility schedule.

``run_schedule`` is the headline routine: it alternates short bursts of
angle optimization on the slack-ancilla Hamiltonian with sampled
feasibility checks, doubling the penalty weight after every failed check
until the sampled portfolios are feasible at the target rate or the
iteration cap is hit. Angle optimization is warm-started across penalty
doublings.

One run path. Every angle search, whether a segment of ``run_schedule``
or a fixed-penalty baseline run, is one call of ``_search_angles``
(tabulate the Hamiltonian, build its ansatz once, scale the angles,
minimize the expectation); ``_ansatz`` is the one ansatz entry point; and
every record is built from its final state by ``_record`` (asset
marginal, picks, feasible mass, variance bound). The record keeps the
asset marginal only, and its JSON ``histogram`` is that marginal: 2^n
entries whatever the register size.

Frames. ``_ansatz`` evolves a state that the rest of the package never
sees. In the real frame (phase S = diag(1, i) taken off every qubit)
both mixers' units are real matrices, which halves the arithmetic of
their block gates; for the conditional mixer the state is also in the
pair frame (qubits reordered so that each asset sits next to its
ancilla), where its layer needs no transpose. Neither frame changes a
probability, so the search's objective is taken in the frames, against
the table permuted once; a state that leaves the ansatz, for a
feasibility check or a record, is put back into canonical phase and
order first.

Angle units. Every optimizer searches scaled coordinates theta in which the
phase angle is ``gamma = theta_gamma / s``, with ``s = sum|h| + sum|J|`` the
coefficient norm of the Hamiltonian being optimized (offset excluded; 1 for
a Hamiltonian without fields and couplings). Since ``|E(x) - offset| <= s``,
a scaled phase angle means the same fraction of the spectrum whatever the
penalty weight, so the landscape keeps its period in theta as the penalty
grows, and the warm start carries theta, not gamma, across a doubling.
Mixer angles are never scaled. Everything outside the search is physical:
``QaoaParams`` in records and in ``_ansatz``, traces and expectations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
from scipy import optimize as sciopt

from . import bounds
from .bitstrings import basis_labels, index_to_bits, index_to_string
from .encode import (
    ASSET,
    SLACK_ASSET,
    IsingHamiltonian,
    build_cardinality_slack_qubo,
    build_penalty_qubo,
    build_slack_ancilla_qubo,
    to_ising,
)
from .instance import PortfolioInstance, classical_objective, feasible_table, objective_table
from .simulate import (
    EnergyTable,
    StateVector,
    apply_phase_separation,
    apply_real_frame_mixer,
    energy_table,
    expectation,
    frame_table,
    from_frame,
    from_real_frame,
    pair_frame,
    real_frame_uniform,
    sample_counts,
    workspace,
)

SCIPY_METHODS = {"cobyla": "COBYLA", "nelder-mead": "Nelder-Mead"}

# Asset configurations below this exact probability are ignored when
# picking the best feasible portfolio out of a final state.
REPORTING_THRESHOLD = 1e-3


@dataclass(frozen=True)
class QaoaParams:
    """Angles of a depth-p ansatz: p phase angles and p mixer angles, both in
    physical units (phase separation is exp(-i*gamma*H))."""

    p: int
    gammas: tuple[float, ...]
    beta_mixes: tuple[float, ...]

    def __post_init__(self) -> None:
        gammas = tuple(float(g) for g in self.gammas)
        beta_mixes = tuple(float(b) for b in self.beta_mixes)
        if self.p < 1:
            raise ValueError(f"depth must be >= 1, got p={self.p}")
        if len(gammas) != self.p or len(beta_mixes) != self.p:
            raise ValueError(
                f"expected {self.p} gammas and beta_mixes, got "
                f"{len(gammas)} and {len(beta_mixes)}"
            )
        if not all(math.isfinite(v) for v in gammas + beta_mixes):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "beta_mixes", beta_mixes)

    @classmethod
    def from_vector(cls, theta) -> "QaoaParams":
        vec = np.asarray(theta, dtype=float)
        if vec.size % 2 != 0 or vec.size == 0:
            raise ValueError(f"angle vector must have even positive length, got {vec.size}")
        p = vec.size // 2
        return cls(p, tuple(vec[:p]), tuple(vec[p:]))


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs of the penalty-doubling feasibility schedule."""

    beta_penalty_init: float = 100.0
    doubling_interval: int = 20
    feasibility_shots: int = 1000
    feasibility_target: float = 1.0
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.beta_penalty_init < math.inf:
            raise ValueError("beta_penalty_init must be positive and finite")
        if self.doubling_interval < 1 or self.feasibility_shots < 1 or self.max_iterations < 1:
            raise ValueError("doubling_interval, feasibility_shots, max_iterations must be >= 1")
        if not 0.0 < self.feasibility_target <= 1.0:
            raise ValueError("feasibility_target must lie in (0, 1]")


@dataclass(frozen=True)
class TraceRow:
    """One optimizer evaluation; feasible_fraction is set on check rows only."""

    iteration: int
    expectation: float
    beta_penalty: float
    feasible_fraction: float | None = None


@dataclass(frozen=True)
class PortfolioPick:
    """A reported asset selection with its classical objective value."""

    bitstring: str
    value: float
    feasible: bool
    probability: float | None = None


def labelled_histogram(probabilities: np.ndarray) -> dict[str, float]:
    """Probabilities of a 2^b distribution keyed by their b-bit basis labels,
    in basis-index order."""
    size = probabilities.size
    return dict(zip(basis_labels(np.arange(size), size.bit_length() - 1), probabilities.tolist()))


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Everything one variational run produced, JSON-serializable.

    ``initial_params`` and ``final_params`` are physical angles for the
    Hamiltonian at ``final_beta_penalty`` (``initial_params`` at the first
    penalty weight of a schedule), so ``_ansatz(table, record.mixer,
    pairs)(record.final_params)`` on that Hamiltonian's table reproduces
    the final state, and its asset marginal is ``marginal`` exactly.
    ``trace`` holds one row per optimizer evaluation, numbered from 1
    across penalty doublings; ``iterations_used`` is derived from it, and
    each row carries its evaluation's expectation.

    Of the final state the record keeps the 2^n asset ``marginal``, in
    basis-index order; the 2^m register distribution is rebuilt, when
    wanted, by the ansatz call above. ``record.json`` (``to_dict``) holds
    the marginal under the key ``histogram``; ``document`` is the same
    document with the marginal still an array. Records compare by
    identity, since they hold arrays.
    """

    method: str
    seed: int
    mixer: str
    optimizer: str
    initial_params: QaoaParams
    final_params: QaoaParams
    final_beta_penalty: float
    marginal: np.ndarray
    best_feasible: PortfolioPick | None
    most_probable: PortfolioPick
    reported: PortfolioPick | None
    feasible_fraction: float
    sampled_feasible_fraction: float | None
    terminated_by: str
    trace: tuple[TraceRow, ...]
    variance_bound: bounds.BoundReport

    @property
    def iterations_used(self) -> int:
        return len(self.trace)

    def document(self) -> dict:
        """record.json's document with "histogram" left as the marginal array;
        `qmarko` formats it straight from the array."""
        # asdict on the parts only: on the record it would deep-copy the arrays.
        return {
            "method": self.method,
            "seed": self.seed,
            "mixer": self.mixer,
            "optimizer": self.optimizer,
            "initial_params": asdict(self.initial_params),
            "final_params": asdict(self.final_params),
            "final_beta_penalty": self.final_beta_penalty,
            "histogram": self.marginal,
            "best_feasible": asdict(self.best_feasible) if self.best_feasible else None,
            "most_probable": asdict(self.most_probable),
            "bitstring": self.reported.bitstring if self.reported else None,
            "feasible": bool(self.reported.feasible) if self.reported else False,
            "value": self.reported.value if self.reported else None,
            "feasible_fraction": self.feasible_fraction,
            "sampled_feasible_fraction": self.sampled_feasible_fraction,
            "iterations": self.iterations_used,
            "terminated_by": self.terminated_by,
            "trace": [asdict(row) for row in self.trace],
            "variance_bound": asdict(self.variance_bound),
        }

    def to_dict(self) -> dict:
        """record.json's document as JSON values: "histogram" is the asset
        marginal keyed by n-bit labels, in basis-index order; `qmarko report`
        writes it in that order."""
        return {**self.document(), "histogram": labelled_histogram(self.marginal)}


class _BudgetExhausted(Exception):
    pass


def minimize_with_budget(fun, x0, optimizer: str = "cobyla", budget: int = 200, constraints=()):
    """Derivative-free minimization hard-capped at ``budget`` evaluations.

    Returns (best_x, best_f, evals) where evals lists every objective value
    in evaluation order; the cap may leave the scipy call unfinished, in
    which case the best point seen so far is returned. ``constraints`` are
    forwarded for methods that support them (COBYLA); the Nelder-Mead
    variant ignores them, so callers must also guard inside ``fun``.
    """
    if optimizer not in SCIPY_METHODS:
        raise ValueError(f"unknown optimizer {optimizer!r}; choose from {sorted(SCIPY_METHODS)}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    best_x = np.array(x0, dtype=float)
    best_f = math.inf
    evals: list[float] = []

    def wrapped(x):
        nonlocal best_x, best_f
        if len(evals) >= budget:
            # Caps budgets below COBYLA's smallest maxiter, len(x0) + 2.
            raise _BudgetExhausted
        value = float(fun(np.asarray(x, dtype=float)))
        evals.append(value)
        if value < best_f:
            best_f = value
            best_x = np.array(x, dtype=float)
        return value

    if optimizer == "cobyla":
        options = {"maxiter": max(budget, len(best_x) + 2)}  # counts evaluations
        kwargs = {"constraints": list(constraints)} if constraints else {}
    else:
        options = {"maxfev": budget, "maxiter": 100 * budget + 1000}
        kwargs = {}
    try:
        sciopt.minimize(
            wrapped,
            np.asarray(x0, dtype=float),
            method=SCIPY_METHODS[optimizer],
            options=options,
            **kwargs,
        )
    except _BudgetExhausted:
        pass
    return best_x, best_f, evals


def _minimize_exact_budget(fun, x0, optimizer: str, budget: int):
    """Consume exactly ``budget`` evaluations, restarting from the current
    best point whenever the minimizer converges early. Keeps the penalty
    schedule's doubling cadence exact."""
    best_x = np.array(x0, dtype=float)
    best_f = math.inf
    all_evals: list[float] = []
    while len(all_evals) < budget:
        x, f, evals = minimize_with_budget(fun, best_x, optimizer, budget - len(all_evals))
        all_evals.extend(evals)
        if f < best_f:
            best_f = f
            best_x = x
    return best_x, best_f, all_evals


def mixer_pairs(labels) -> list[tuple[int, int]]:
    """(asset qubit, slack qubit) pairs from a program's variable labels."""
    assets = {lab.index: pos for pos, lab in enumerate(labels) if lab.kind == ASSET}
    slacks = {lab.index: pos for pos, lab in enumerate(labels) if lab.kind == SLACK_ASSET}
    return [(assets[i], slacks[i]) for i in sorted(assets) if i in slacks]


class _ansatz:
    """The depth-p ansatz on ``table``: p alternating layers of phase
    separation and mixing on the uniform state, as a function of its angles.

    ``ansatz(params)`` is the state, a new array in canonical qubit order;
    ``ansatz.expectation(params)`` is its expectation under ``table``.

    Every layer runs in the real frame (see ``simulate``), where each mixer
    unit is real. The conditional mixer also runs in the pair frame
    (``simulate.pair_frame``), with the table permuted into it once, here
    (its bit form costs O(m^2) to permute). Probabilities are the same in
    every frame up to the order of the basis states, so ``expectation``
    reads the state where it is, against the frame's table. Only a state
    that leaves the ansatz gets S and is transposed back to canonical order.

    One ``simulate.workspace`` of two 2^m buffers serves every evaluation:
    the state lives in one, and the other takes each layer's phases and
    each mixer block's output. Its contents do not outlive a call, and a
    returned state never shares memory with it.
    """

    def __init__(self, table: EnergyTable, mixer: str, pairs):
        if mixer not in ("standard", "conditional"):
            raise ValueError(f"unknown mixer: {mixer!r}")
        m = table.num_qubits
        order = pair_frame(m, pairs) if mixer == "conditional" else list(range(m))
        self._pair_count = len(pairs or ()) if mixer == "conditional" else None
        self._order = None if order == list(range(m)) else order
        self._table = table if self._order is None else frame_table(table, order)
        self._buffers = workspace(m)

    def _frame_state(self, params: QaoaParams) -> tuple[np.ndarray, np.ndarray]:
        """(buffer holding the state in the frame, the other buffer)."""
        table = self._table
        state, spare = self._buffers
        real_frame_uniform(state)
        for gamma, beta_mix in zip(params.gammas, params.beta_mixes):
            apply_phase_separation(StateVector(table.num_qubits, state), table, gamma, spare)
            if apply_real_frame_mixer(state, spare, beta_mix, self._pair_count) is spare:
                state, spare = spare, state
        return state, spare

    def expectation(self, params: QaoaParams) -> float:
        state, _ = self._frame_state(params)
        return expectation(StateVector(self._table.num_qubits, state), self._table)

    def __call__(self, params: QaoaParams) -> StateVector:
        state, spare = self._frame_state(params)
        from_real_frame(state, spare)
        if self._order is None:
            amplitudes = state.copy()
        else:
            amplitudes = from_frame(state, self._order)
        return StateVector(self._table.num_qubits, amplitudes)


def _angle_scale(hamiltonian: IsingHamiltonian) -> float:
    """Coefficient norm sum|h| + sum|J| (offset excluded), or 1.0 when it is 0.

    It bounds |E(x) - offset|, so gamma = theta_gamma / scale keeps the
    phase landscape's period in theta independent of the energy scale.
    """
    norm = float(np.abs(hamiltonian.fields).sum()) + sum(
        abs(c) for c in hamiltonian.couplings.values()
    )
    return norm if norm > 0.0 else 1.0


def _physical_params(theta, scale: float) -> QaoaParams:
    """Physical angles from scaled search coordinates: gamma = theta_gamma / scale."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size // 2
    return QaoaParams.from_vector(np.concatenate((theta[:p] / scale, theta[p:])))


def _search_angles(
    hamiltonian: IsingHamiltonian, theta, minimize, mixer: str = "standard", pairs=None
):
    """One angle search: minimize the ansatz expectation from scaled angles theta.

    ``minimize(objective, theta)`` returns (best theta, best value, evals),
    as ``minimize_with_budget`` does. Returns (ansatz, scale, best theta,
    evals): ``ansatz`` maps physical angles to the state (``_ansatz``) and
    holds its workspace, and evals are in physical units and in evaluation
    order.
    """
    table = energy_table(hamiltonian)
    scale = _angle_scale(hamiltonian)
    ansatz = _ansatz(table, mixer, pairs)

    def objective(theta):
        return ansatz.expectation(_physical_params(theta, scale))

    best_theta, _, evals = minimize(objective, theta)
    return ansatz, scale, best_theta, evals


def _draw_initial_angles(rng: np.random.Generator, p: int) -> np.ndarray:
    """2p angles uniform in [0, pi], in scaled search coordinates."""
    return rng.uniform(0.0, np.pi, size=2 * p)


def _sampled_feasible_fraction(feasible: np.ndarray, counts: np.ndarray) -> float:
    """Share of the sampled shots whose asset bits (the low n bits of the
    basis index) select a feasible portfolio."""
    per_selection = counts.reshape(-1, feasible.size).sum(axis=0)
    return int(per_selection[feasible].sum()) / int(counts.sum())


def _picks(instance: PortfolioInstance, marginal: np.ndarray):
    """(best_feasible, most_probable, exact feasible mass) from the asset marginal.

    best_feasible is the lowest-objective feasible selection whose marginal
    exceeds REPORTING_THRESHOLD (lowest index on ties), or None.
    """
    n = instance.n
    feasible = feasible_table(instance)

    def pick(index: int) -> PortfolioPick:
        return PortfolioPick(
            bitstring=index_to_string(index, n),
            value=classical_objective(instance, index_to_bits(index, n)),
            feasible=bool(feasible[index]),
            probability=float(marginal[index]),
        )

    reportable = feasible & (marginal > REPORTING_THRESHOLD)
    values = np.where(reportable, objective_table(instance), math.inf)
    best = pick(int(np.argmin(values))) if reportable.any() else None
    return best, pick(int(np.argmax(marginal))), float(marginal[feasible].sum())


def _record(
    instance: PortfolioInstance, state: StateVector, report_most_probable: bool, **fields
) -> ExperimentRecord:
    """The record of a run that ended in ``state``: asset marginal, picks,
    exact feasible mass and variance bound come from the state, the
    remaining ``ExperimentRecord`` fields from the caller. The amplitudes
    are squared and reduced to the asset marginal once, and the picks,
    feasible mass and variance bound are read from it."""
    # Sum over the ancilla bits, the high bits of the basis index.
    marginal = state.probabilities().reshape(-1, 1 << instance.n).sum(axis=0)
    best_feasible, most_probable, feasible_mass = _picks(instance, marginal)
    return ExperimentRecord(
        marginal=marginal,
        best_feasible=best_feasible,
        most_probable=most_probable,
        reported=most_probable if report_most_probable else best_feasible,
        feasible_fraction=feasible_mass,
        variance_bound=bounds.variance_bound(marginal, instance),
        **fields,
    )


def run_schedule(
    instance: PortfolioInstance,
    config: ScheduleConfig | None = None,
    p: int = 2,
    mixer: str = "conditional",
    seed: int = 0,
    optimizer: str = "cobyla",
) -> ExperimentRecord:
    """Slack-ancilla QAOA with the penalty-doubling feasibility schedule.

    Every ``doubling_interval`` optimizer iterations the current state is
    sampled; if the feasible fraction misses the target the penalty weight
    doubles and optimization continues from the best angles so far, carried
    in scaled coordinates (see ``_angle_scale``) so that they keep their
    meaning under the new weight. Stops on target or at ``max_iterations``.
    The record's angles are physical. A missing best_feasible (possible
    only if every feasible configuration fell below the reporting
    threshold) is recorded, not raised.
    """
    if config is None:
        config = ScheduleConfig()
    master = np.random.default_rng(seed)
    theta = _draw_initial_angles(master, p)
    initial_params = None
    beta_penalty = config.beta_penalty_init
    feasible = feasible_table(instance)
    rows: list[TraceRow] = []
    while True:
        program = build_slack_ancilla_qubo(instance, beta_penalty)
        pairs = mixer_pairs(program.labels) if mixer == "conditional" else None
        chunk = min(config.doubling_interval, config.max_iterations - len(rows))
        minimize = partial(_minimize_exact_budget, optimizer=optimizer, budget=chunk)
        ansatz, scale, best_theta, evals = _search_angles(
            to_ising(program), theta, minimize, mixer, pairs
        )
        if initial_params is None:
            initial_params = _physical_params(theta, scale)
        theta = best_theta
        first = len(rows) + 1
        rows.extend(TraceRow(i, value, beta_penalty) for i, value in enumerate(evals, first))
        final_params = _physical_params(theta, scale)
        state = ansatz(final_params)
        del ansatz  # its workspace goes before the next segment builds one
        check_seed = int(master.integers(0, 2**63))
        counts = sample_counts(state, config.feasibility_shots, check_seed)
        sampled_fraction = _sampled_feasible_fraction(feasible, counts)
        rows[-1] = replace(rows[-1], feasible_fraction=sampled_fraction)
        if sampled_fraction >= config.feasibility_target:
            terminated_by = "feasibility_target"
            break
        if len(rows) >= config.max_iterations:
            terminated_by = "max_iterations"
            break
        beta_penalty *= 2.0

    return _record(
        instance, state, report_most_probable=False,
        method="slack-qaoa", seed=seed, mixer=mixer, optimizer=optimizer,
        initial_params=initial_params, final_params=final_params,
        final_beta_penalty=beta_penalty, sampled_feasible_fraction=sampled_fraction,
        terminated_by=terminated_by, trace=tuple(rows),
    )


def _run_fixed_penalty(
    instance: PortfolioInstance,
    program,
    method: str,
    a_card: float,
    p: int,
    budget: int,
    seed: int,
    optimizer: str,
    report_most_probable: bool,
) -> ExperimentRecord:
    theta0 = _draw_initial_angles(np.random.default_rng(seed), p)
    minimize = partial(minimize_with_budget, optimizer=optimizer, budget=budget)
    ansatz, scale, theta, evals = _search_angles(to_ising(program), theta0, minimize)
    final_params = _physical_params(theta, scale)
    return _record(
        instance, ansatz(final_params), report_most_probable,
        method=method, seed=seed, mixer="standard", optimizer=optimizer,
        initial_params=_physical_params(theta0, scale), final_params=final_params,
        final_beta_penalty=a_card, sampled_feasible_fraction=None,
        terminated_by="completed",
        trace=tuple(TraceRow(i, value, a_card) for i, value in enumerate(evals, 1)),
    )


def run_baseline_penalty_qaoa(
    instance: PortfolioInstance,
    a_card: float = 1000.0,
    p: int = 2,
    budget: int = 200,
    seed: int = 0,
    optimizer: str = "cobyla",
) -> ExperimentRecord:
    """Fixed-penalty QAOA over the asset bits only; reports the most
    probable portfolio with an explicit feasibility flag, reproducing the
    failure mode where that portfolio violates the constraints."""
    program = build_penalty_qubo(instance, a_card)
    return _run_fixed_penalty(
        instance, program, "penalty-qaoa", a_card, p, budget, seed, optimizer,
        report_most_probable=True,
    )


def run_cardinality_slack_qaoa(
    instance: PortfolioInstance,
    a_card: float = 1000.0,
    p: int = 2,
    budget: int = 200,
    seed: int = 0,
    optimizer: str = "cobyla",
) -> ExperimentRecord:
    """Fixed-penalty QAOA on the binary-slack cardinality encoding; reports
    the best feasible portfolio above the probability threshold."""
    program = build_cardinality_slack_qubo(instance, a_card)
    return _run_fixed_penalty(
        instance, program, "cardinality-slack-qaoa", a_card, p, budget, seed, optimizer,
        report_most_probable=False,
    )
