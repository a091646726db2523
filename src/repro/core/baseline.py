"""Conventional VQA baseline: every task optimised independently (paper §7.3).

Each task receives its own optimizer instance and an equal share of the shot
budget.  Shot accounting uses the same 4096-per-Pauli-term rule as TreeVQA,
applied to the *task's own* Hamiltonian, so the savings ratio between the two
runs is exactly the paper's metric.

Because the tasks are logically independent, shots-to-threshold analyses sum
the per-task costs rather than reading a single interleaved ledger — see
:class:`IndependentBaselineResult`.
"""

from __future__ import annotations

import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.backend import ExecutionRequest
from ..quantum.sampling import BaseEstimator
from .config import TreeVQAConfig
from .results import BaselineResult, TaskOutcome, TaskTrajectory
from .shots import ShotLedger, shots_per_evaluation
from .task import VQATask

__all__ = ["IndependentBaselineResult", "IndependentVQABaseline"]


class IndependentBaselineResult(BaselineResult):
    """Baseline result with per-task (rather than interleaved) shot analyses."""

    def shots_to_reach_fidelity(self, threshold: float) -> int | None:
        """Sum over tasks of the shots each needs to reach ``threshold``."""
        per_task = self._shots_per_task(threshold)
        return None if per_task is None else sum(per_task)

    def fidelity_at_shots(self, shot_budget: int) -> float:
        """Minimum task fidelity when the budget is split equally across tasks."""
        if not self.outcomes:
            return 0.0
        per_task_budget = shot_budget // len(self.outcomes)
        fidelities = []
        for outcome in self.outcomes:
            trajectory = self.trajectories.get(outcome.task_name)
            best = trajectory.best_energy_within(per_task_budget) if trajectory else None
            fidelities.append(0.0 if best is None else outcome.task.fidelity(best))
        return min(fidelities)

    def mean_fidelity_at_shots(self, shot_budget: int) -> float:
        """Mean task fidelity when the budget is split equally across tasks."""
        if not self.outcomes:
            return 0.0
        per_task_budget = shot_budget // len(self.outcomes)
        fidelities = []
        for outcome in self.outcomes:
            trajectory = self.trajectories.get(outcome.task_name)
            best = trajectory.best_energy_within(per_task_budget) if trajectory else None
            fidelities.append(0.0 if best is None else outcome.task.fidelity(best))
        return float(np.mean(fidelities))


class IndependentVQABaseline:
    """Run every task as its own conventional VQA with equal shot allocation."""

    def __init__(
        self,
        tasks: list[VQATask],
        ansatz: Ansatz,
        config: TreeVQAConfig | None = None,
        *,
        initial_parameters: np.ndarray | dict[str, np.ndarray] | None = None,
    ) -> None:
        if not tasks:
            raise ValueError("tasks must be non-empty")
        self.tasks = list(tasks)
        self.ansatz = ansatz
        self.config = config or TreeVQAConfig()
        self._initial_parameters = initial_parameters
        self.estimator: BaseEstimator = self.config.make_estimator()
        self.ledger = ShotLedger(shots_per_term=self.config.shots_per_pauli_term)
        self.trajectories: dict[str, TaskTrajectory] = {
            task.name: TaskTrajectory(task.name) for task in tasks
        }

    # -- helpers -------------------------------------------------------------------

    def _initial_parameters_for(self, task: VQATask) -> np.ndarray:
        provided = self._initial_parameters
        if provided is None:
            return self.ansatz.zero_parameters()
        if isinstance(provided, dict):
            key = task.initial_bitstring or "0" * task.num_qubits
            if task.name in provided:
                return np.asarray(provided[task.name], dtype=float)
            if key in provided:
                return np.asarray(provided[key], dtype=float)
            return self.ansatz.zero_parameters()
        return np.asarray(provided, dtype=float)

    def _iterations_for(self, task: VQATask, iterations_per_task: int | None) -> int:
        """Iteration budget: explicit, or derived from the equal shot split."""
        if iterations_per_task is not None:
            return iterations_per_task
        config = self.config
        if config.max_total_shots is None:
            return config.max_rounds
        per_task_budget = config.max_total_shots // len(self.tasks)
        optimizer = config.make_optimizer()
        per_iteration = optimizer.evaluations_per_step * shots_per_evaluation(
            task.hamiltonian, config.shots_per_pauli_term
        )
        return max(1, min(config.max_rounds, per_task_budget // max(per_iteration, 1)))

    # -- execution ------------------------------------------------------------------

    def run(self, iterations_per_task: int | None = None) -> IndependentBaselineResult:
        """Optimise every task independently and assemble a comparable result."""
        outcomes = []
        for task in self.tasks:
            outcome = self._run_task(task, self._iterations_for(task, iterations_per_task))
            outcomes.append(outcome)
        return IndependentBaselineResult(
            outcomes=outcomes,
            trajectories=self.trajectories,
            ledger=self.ledger,
            total_rounds=max(
                (len(t.energies) for t in self.trajectories.values()), default=0
            ),
            metadata={"iterations_per_task": iterations_per_task},
        )

    def _run_task(self, task: VQATask, num_iterations: int) -> TaskOutcome:
        optimizer = self.config.make_optimizer()
        optimizer.reset(self._initial_parameters_for(task))
        trajectory = self.trajectories[task.name]
        per_evaluation = shots_per_evaluation(task.hamiltonian, self.config.shots_per_pauli_term)
        task_shots = 0
        best_energy = np.inf
        best_parameters = optimizer.parameters
        program = self.ansatz.program()
        bitstring = task.resolved_initial_bitstring

        def objective(parameters: np.ndarray) -> float:
            request = ExecutionRequest(
                task.hamiltonian, program, parameters, initial_bitstring=bitstring
            )
            return self.estimator.estimate_request(request).value

        for iteration in range(num_iterations):
            step = optimizer.run_step(objective)
            shots = step.num_evaluations * per_evaluation
            task_shots += shots
            self.ledger.charge(task.name, iteration + 1, shots)
            # The optimizer's own loss estimate for the step, derived from the
            # objective evaluations it already charged — the same
            # no-extra-state-preparation bookkeeping as the TreeVQA clusters
            # (whose recombined mixed loss equals this same quantity).
            energy = step.loss
            trajectory.record(task_shots, energy)
            if energy < best_energy:
                best_energy = energy
                best_parameters = step.parameters
            if self._task_budget_exhausted(task_shots):
                break

        # Final exact evaluation at the best parameters (classical
        # bookkeeping, no charge).  Not clamped to ``best_energy``: with a
        # noisy estimator the running minimum is biased low and corresponds to
        # no actual parameter vector.
        final_state = self.ansatz.prepare_state(best_parameters, task.initial_state())
        final_energy = final_state.expectation(task.hamiltonian)
        return TaskOutcome(
            task=task,
            energy=final_energy,
            source="baseline",
            fidelity=task.fidelity(final_energy),
            error=task.error(final_energy),
        )

    def _task_budget_exhausted(self, task_shots: int) -> bool:
        budget = self.config.max_total_shots
        if budget is None:
            return False
        return task_shots >= budget // len(self.tasks)
