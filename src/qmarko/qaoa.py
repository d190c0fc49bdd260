"""Variational loop: depth-p ansatz, derivative-free angle search, and the
penalty-doubling feasibility schedule.

``run_schedule`` is the headline routine: it alternates short bursts of
angle optimization on the slack-ancilla Hamiltonian with sampled
feasibility checks, doubling the penalty weight after every failed check
until the sampled portfolios are feasible at the target rate or the
iteration cap is hit. Angle optimization is warm-started across penalty
doublings.

One run path. Every angle search, whether a segment of ``run_schedule``
or a ``run_fixed_penalty`` run of an arm (a row of FIXED_PENALTY_ARMS:
its program builder and reporting rule), is one call of ``_search_angles``
(build the program's ansatz, minimize its expectation over scaled angles,
return the angles and the asset marginal at the best); ``_ansatz``, built
from the program alone, is the one ansatz entry point, whose ``evaluate``
hands the search each evaluation's expectation and probabilities together
and which holds nothing keyed on angles; and every record is
built by ``_record`` from the asset marginal of its final state
(``bounds.asset_marginal``: picks and feasible mass). The record keeps
the asset marginal only, and its JSON ``histogram`` is that marginal: 2^n
entries whatever the register size. A search holds two 2^m state buffers
and the 2^m energy table, and keeps its best evaluation's 2^n marginal,
which the ansatz reduces in the free upper half of its spare buffer: no
2^m array of probabilities outlives an evaluation.

No risk/return uncertainty limit. The paper posits a quantum limit on the
joint precision of portfolio risk and return. Here the risk and return
observables are both diagonal in the computational basis, so they commute
and the Robertson bound |<[R, M]>|/2 is 0; Var(R) * Var(M) >= Cov(R, M)^2
then holds for every distribution by Cauchy–Schwarz alone. Such a limit
needs an observable that does not commute with them, which this model does
not have, so records carry no bound on it.

Frames. ``_ansatz`` evolves its state in the real frame (phase S =
diag(1, i) taken off every qubit), where both mixers' units are real
matrices, which halves the arithmetic of their block gates. The
slack-ancilla program keeps each asset next to its slack, so the
conditional mixer's layer needs no reordering. The frame changes no
probability, so the search's objective, each feasibility check and each
record read the state where it is: the check samples 2^n selections from
its asset marginal, not the 2^m register. Only a state returned by
``ansatz(params)`` is put back into canonical phase.

Angle units. Every optimizer searches scaled coordinates theta in which the
phase angle is ``gamma = theta_gamma / s``, with ``s = sum|h| + sum|J|`` the
coefficient norm of the optimized program's Ising form (offset excluded; 1
for a program without fields and couplings), computed from (Q, b) in closed
form by ``_angle_scale``. Since ``|E(x) - offset| <= s``,
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
from .bitstrings import index_to_bits, index_to_string
from .encode import (
    ASSET,
    SLACK_ASSET,
    QuboProgram,
    VarLabel,
    build_cardinality_slack_qubo,
    build_penalty_qubo,
    build_slack_ancilla_qubo,
)
from .instance import PortfolioInstance, classical_objective, feasible_table, objective_table
from .simulate import (
    StateVector,
    apply_phase_separation,
    apply_real_frame_mixer,
    energy_table,
    expectation,
    from_real_frame,
    real_frame_phased_uniform,
    sample_counts,
    workspace,
)

SCIPY_METHODS = {"cobyla": "COBYLA", "nelder-mead": "Nelder-Mead"}

# Asset configurations at or below this exact probability are not
# reportable: best_feasible is picked among the rest, and a sweep cell's
# hist_<cell>.csv lists only the rest (its most probable entry if none).
REPORTING_THRESHOLD = 1e-3


def reportable(marginal: np.ndarray) -> np.ndarray:
    """The mask of the entries of ``marginal`` above REPORTING_THRESHOLD."""
    return marginal > REPORTING_THRESHOLD


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
    """Knobs of the penalty-doubling feasibility schedule. At the default
    target 1.0 a check passes only if all ``feasibility_shots`` draws are
    feasible: on ``generate_instance(3, 1)`` and ``(6, 2)``, seeds 1-12,
    p = 2, all 24 runs end ``max_iterations``, sampled fractions 0.53-0.997."""

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


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Everything one variational run produced, JSON-serializable.

    ``initial_params`` and ``final_params`` are physical angles for the
    program at ``final_beta_penalty`` (``initial_params`` at the first
    penalty weight of a schedule), so ``_ansatz(program,
    record.mixer)(record.final_params)`` on that program reproduces the
    final state, and its asset marginal is ``marginal`` exactly.
    ``trace`` holds one row per optimizer evaluation, numbered from 1
    across penalty doublings; ``iterations_used`` is derived from it, and
    each row carries its evaluation's expectation.

    Of the final state the record keeps the 2^n asset ``marginal``
    (``bounds.asset_marginal`` over the program's labels), in basis-index
    order: the array its search kept, the only copy of the state's
    probabilities that outlives the search. The 2^m register distribution
    is rebuilt, when wanted, by the ansatz call above, in the program's
    qubit order (the slack-ancilla program's asset i at qubit 2i, its
    slack at 2i + 1). ``document`` is ``record.json``'s document with the
    marginal, as an array, under the key ``histogram``; ``qmarko`` writes
    it with n-bit labels in basis-index order. Records compare by
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
        }


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


class _ansatz:
    """The depth-p ansatz on ``program``: p alternating layers of phase
    separation and mixing on the uniform state, as a function of its angles.

    ``ansatz(params)`` is the state, a new array in canonical phase;
    ``ansatz.evaluate(params)`` is (its expectation under the program, its
    probabilities), and ``ansatz.marginal(probabilities)`` the asset
    marginal of those probabilities (``bounds.asset_marginal`` over the
    program's labels), both built in the workspace (below). Every call
    runs its layers: the ansatz holds no state between calls but its
    table and workspace.

    The program is tabulated (``energy_table``) once, before the workspace
    is allocated. Every layer runs in the real frame (see ``simulate``),
    where each mixer unit is real. The conditional mixer reads its layout
    from the program's labels: one pair per SLACK_ASSET label, asset i at
    qubit 2i and its slack at 2i + 1, as the slack-ancilla program lays
    them out; the qubits above the pairs are left alone, and a program
    without slack labels gets no pairs. Any other layout is refused with
    ValueError. Probabilities are the same in both frames, so ``evaluate``
    reads the state where it is; only a state returned by
    ``ansatz(params)`` gets S.

    The first layer's phase separation is folded into the start state
    (``simulate.real_frame_phased_uniform``), so layers 2..p alone run
    ``apply_phase_separation``.

    One ``simulate.workspace`` of two 2^m buffers serves every evaluation:
    the state lives in one, and the other takes each layer's phases, each
    mixer block's output and, last, the state's probabilities, in the first
    2^m of its 2^(m+1) float64s, so an evaluation allocates no 2^m array.
    ``marginal`` sums the non-asset qubits out of those probabilities into
    the free upper 2^m float64s; a program of assets only sums nothing, and
    its marginal is the probabilities themselves. The probabilities
    ``evaluate`` returns and the marginal are views of the spare buffer,
    valid until the next call; a search keeps its best evaluation's
    marginal by copying it out (``_search_angles``). A returned state
    never shares memory with the workspace.
    """

    def __init__(self, program: QuboProgram, mixer: str):
        if mixer not in ("standard", "conditional"):
            raise ValueError(f"unknown mixer: {mixer!r}")
        self._pair_count = None
        if mixer == "conditional":
            count = sum(label.kind == SLACK_ASSET for label in program.labels)
            layout = [VarLabel(kind, i) for i in range(count) for kind in (ASSET, SLACK_ASSET)]
            if list(program.labels[: 2 * count]) != layout:
                raise ValueError("the conditional mixer takes asset i at qubit 2i and its "
                                 f"slack at 2i + 1, got labels {program.labels}")
            self._pair_count = count
        self._labels = program.labels
        self._table = energy_table(program)
        self._buffers = workspace(program.num_qubits)

    def _frame_state(self, params: QaoaParams) -> tuple[np.ndarray, np.ndarray]:
        """(buffer holding the state in the frame, the other buffer)."""
        table = self._table
        state, spare = self._buffers
        real_frame_phased_uniform(state, table, params.gammas[0])
        for layer, beta_mix in enumerate(params.beta_mixes):
            if layer > 0:
                apply_phase_separation(
                    StateVector(table.num_qubits, state), table, params.gammas[layer], spare
                )
            if apply_real_frame_mixer(state, spare, beta_mix, self._pair_count) is spare:
                state, spare = spare, state
        self._buffers = state, spare
        return state, spare

    def evaluate(self, params: QaoaParams) -> tuple[float, np.ndarray]:
        state, spare = self._frame_state(params)
        probabilities = spare.view(np.float64)[: state.size]
        value = expectation(StateVector(self._table.num_qubits, state), self._table,
                            out=probabilities)
        return value, probabilities

    def marginal(self, probabilities: np.ndarray) -> np.ndarray:
        scratch = self._buffers[1].view(np.float64)[probabilities.size:]
        return bounds.asset_marginal(probabilities, self._labels, scratch)

    def __call__(self, params: QaoaParams) -> StateVector:
        state, spare = self._frame_state(params)
        return StateVector(self._table.num_qubits, from_real_frame(state, spare))


def _angle_scale(program: QuboProgram) -> float:
    """Coefficient norm sum|h| + sum|J| of the program's Ising form (offset
    excluded), or 1.0 when it is 0.

    It bounds |E(x) - offset|, so gamma = theta_gamma / scale keeps the
    phase landscape's period in theta independent of the energy scale.
    Through x = (1 - z) / 2 and with P = Q + Q', the couplings are J_ij =
    P_ij / 4 for i < j and the fields h_i = -(b_i + sum_j P_ij / 2) / 2.
    """
    pair = program.quadratic + program.quadratic.T
    fields = (program.linear + pair.sum(axis=1) / 2.0) / 2.0
    norm = float(np.abs(fields).sum() + np.abs(np.triu(pair, 1)).sum() / 4.0)
    return norm if norm > 0.0 else 1.0


def _physical_params(theta, scale: float) -> QaoaParams:
    """Physical angles from scaled search coordinates: gamma = theta_gamma / scale."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size // 2
    return QaoaParams.from_vector(np.concatenate((theta[:p] / scale, theta[p:])))


def _search_angles(program: QuboProgram, theta, minimize, mixer: str = "standard"):
    """One angle search: minimize the ansatz expectation from scaled angles theta.

    ``minimize(objective, theta)`` returns (best theta, best value, evals),
    as ``minimize_with_budget`` does. Returns (initial_params, final_params,
    best theta, marginal, evals): the physical angles at theta and at the
    best theta, the asset marginal of the state at the best theta
    (``bounds.asset_marginal``), and evals in physical units and in
    evaluation order. The ansatz (``_ansatz``), with its table and
    workspace, lives only inside the call.

    The final marginal is read from the search's best evaluation, not
    simulated again: the objective takes each evaluation's expectation and
    probabilities from one ``_ansatz.evaluate``, and on each new strict
    minimum (the rule by which ``minimize_with_budget`` keeps its best)
    copies the asset marginal of those probabilities
    (``_ansatz.marginal``, reduced inside the workspace) into one kept
    array of 2^n float64s, n the program's asset qubits, and returns that
    array. Only if ``minimize`` returns other angles is the state at them
    evaluated once more.
    """
    scale = _angle_scale(program)
    ansatz = _ansatz(program, mixer)
    assets = sum(label.kind == ASSET for label in program.labels)
    kept = np.empty(1 << assets)  # the asset marginal at kept_params
    kept_params, lowest = None, math.inf

    def objective(theta):
        nonlocal kept_params, lowest
        params = _physical_params(theta, scale)
        value, probabilities = ansatz.evaluate(params)
        if value < lowest:
            kept_params, lowest = params, value
            np.copyto(kept, ansatz.marginal(probabilities))
        return value

    best_theta, _, evals = minimize(objective, theta)
    final_params = _physical_params(best_theta, scale)
    if final_params != kept_params:
        np.copyto(kept, ansatz.marginal(ansatz.evaluate(final_params)[1]))
    return _physical_params(theta, scale), final_params, best_theta, kept, evals


def _draw_initial_angles(rng: np.random.Generator, p: int) -> np.ndarray:
    """2p angles uniform in [0, pi], in scaled search coordinates."""
    return rng.uniform(0.0, np.pi, size=2 * p)


def _sampled_feasible_fraction(
    feasible: np.ndarray, marginal: np.ndarray, shots: int, seed: int
) -> float:
    """Share of ``shots`` seeded draws from the 2^n asset marginal that
    select a feasible portfolio."""
    return int(sample_counts(marginal, shots, seed)[feasible].sum()) / shots


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

    candidates = feasible & reportable(marginal)
    values = np.where(candidates, objective_table(instance), math.inf)
    best = pick(int(np.argmin(values))) if candidates.any() else None
    return best, pick(int(np.argmax(marginal))), float(marginal[feasible].sum())


def _record(
    instance: PortfolioInstance, marginal: np.ndarray, report_most_probable: bool, **fields
) -> ExperimentRecord:
    """The record of a run whose final state has the asset marginal
    ``marginal``: picks and exact feasible mass are read from it, the
    remaining ``ExperimentRecord`` fields come from the caller."""
    best_feasible, most_probable, feasible_mass = _picks(instance, marginal)
    return ExperimentRecord(
        marginal=marginal,
        best_feasible=best_feasible,
        most_probable=most_probable,
        reported=most_probable if report_most_probable else best_feasible,
        feasible_fraction=feasible_mass,
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

    Every ``doubling_interval`` optimizer iterations the current state's
    asset marginal is sampled; if the feasible fraction misses the target
    the penalty weight doubles and optimization continues from the best
    angles so far, carried in scaled coordinates (see ``_angle_scale``) so
    that they keep their meaning under the new weight. Stops on target or
    at ``max_iterations``. The record's angles are physical. A missing
    best_feasible (possible only if every feasible configuration fell below
    the reporting threshold) is recorded, not raised.
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
        chunk = min(config.doubling_interval, config.max_iterations - len(rows))
        minimize = partial(_minimize_exact_budget, optimizer=optimizer, budget=chunk)
        start, final_params, theta, marginal, evals = _search_angles(
            program, theta, minimize, mixer
        )
        if initial_params is None:
            initial_params = start
        first = len(rows) + 1
        rows.extend(TraceRow(i, value, beta_penalty) for i, value in enumerate(evals, first))
        check_seed = int(master.integers(0, 2**63))
        sampled_fraction = _sampled_feasible_fraction(
            feasible, marginal, config.feasibility_shots, check_seed
        )
        rows[-1] = replace(rows[-1], feasible_fraction=sampled_fraction)
        if sampled_fraction >= config.feasibility_target:
            terminated_by = "feasibility_target"
            break
        if len(rows) >= config.max_iterations:
            terminated_by = "max_iterations"
            break
        beta_penalty *= 2.0

    return _record(
        instance, marginal, report_most_probable=False,
        method="slack-qaoa", seed=seed, mixer=mixer, optimizer=optimizer,
        initial_params=initial_params, final_params=final_params,
        final_beta_penalty=beta_penalty, sampled_feasible_fraction=sampled_fraction,
        terminated_by=terminated_by, trace=tuple(rows),
    )


# method: (program builder, report_most_probable); see run_fixed_penalty.
FIXED_PENALTY_ARMS = {
    "penalty-qaoa": (build_penalty_qubo, True),
    "cardinality-slack-qaoa": (build_cardinality_slack_qubo, False),
}


def run_fixed_penalty(
    instance: PortfolioInstance, method: str, a_card: float = 1000.0, p: int = 2,
    budget: int = 200, seed: int = 0, optimizer: str = "cobyla",
) -> ExperimentRecord:
    """Fixed-penalty QAOA arm ``method`` (a FIXED_PENALTY_ARMS key): one
    standard-mixer angle search of ``budget`` evaluations on its program at
    weight a_card. penalty-qaoa, over the asset bits only, reports the most
    probable portfolio with its feasibility flag, reproducing the failure
    mode where that portfolio violates the constraints; cardinality-slack-qaoa,
    on the binary-slack cardinality encoding, reports the best feasible
    portfolio above the probability threshold."""
    if method not in FIXED_PENALTY_ARMS:
        raise ValueError(f"unknown fixed-penalty arm: {method!r}; "
                         f"choose from {', '.join(FIXED_PENALTY_ARMS)}")
    build, report_most_probable = FIXED_PENALTY_ARMS[method]
    program = build(instance, a_card)
    theta0 = _draw_initial_angles(np.random.default_rng(seed), p)
    minimize = partial(minimize_with_budget, optimizer=optimizer, budget=budget)
    initial_params, final_params, _, marginal, evals = _search_angles(program, theta0, minimize)
    return _record(
        instance, marginal, report_most_probable,
        method=method, seed=seed, mixer="standard", optimizer=optimizer,
        initial_params=initial_params, final_params=final_params,
        final_beta_penalty=a_card, sampled_feasible_fraction=None,
        terminated_by="completed",
        trace=tuple(TraceRow(i, value, a_card) for i, value in enumerate(evals, 1)),
    )
