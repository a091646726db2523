"""The VQA cluster: joint optimisation of a set of similar tasks (paper §5.2).

A cluster owns a subset of the application's tasks, their mixed Hamiltonian,
one optimizer instance, and a slope monitor.  One VQA iteration on the mixed
Hamiltonian (Algorithm 2 line 5) is driven ask/tell: :meth:`VQACluster.ask`
emits the :class:`~repro.quantum.backend.ExecutionRequest` list for the
parameter points its optimizer wants evaluated, and :meth:`VQACluster.tell`
consumes the estimator results — recombining the measured Pauli-term
expectation values into every member task's loss at zero extra quantum cost
(line 6), feeding the slope monitor, and reporting the shot charge — once
the optimizer's iteration completes.  The round scheduler batches many
clusters' asks into single backend dispatches; :meth:`VQACluster.step` keeps
the self-contained sequential form (emitted requests are evaluated one at a
time through the cluster's own estimator).  :meth:`VQACluster.split`
performs the spectral-clustering split of §5.2.5 with parameter inheritance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ansatz.base import Ansatz
from ..optimizers.base import IterativeOptimizer, OptimizerStep
from ..quantum.backend import ExecutionRequest
from ..quantum.density_matrix import validate_density_matrix_qubits
from ..quantum.sampling import BaseEstimator, EstimatorResult
from ..quantum.statevector import Statevector
from .config import TreeVQAConfig
from .mixed_hamiltonian import MixedHamiltonian, build_mixed_hamiltonian
from .monitor import SlopeMonitor
from .shots import shots_per_evaluation
from .similarity import similarity_matrix
from .splitting import SplitDecision, assign_split_groups, evaluate_split_condition
from .task import VQATask

__all__ = ["ClusterStepRecord", "VQACluster", "step_recombination_weights"]


def step_recombination_weights(values: np.ndarray, optimizer_loss: float) -> np.ndarray:
    """Weights over a step's objective evaluations matching the optimizer's loss.

    The recombined cluster loss should agree with the loss estimate the
    optimizer itself reports for the step: when the reported loss is the mean
    of the evaluations (SPSA reports the mean of its ± perturbation pair),
    the evaluations are averaged; otherwise the single evaluation closest to
    the reported loss is used (COBYLA reports its accepted best probe).
    Either way ``weights @ values == optimizer_loss`` for the optimizers
    shipped with the framework, so the per-task losses decompose the exact
    quantity the optimizer observed — with zero extra quantum cost.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 1 or np.isclose(values.mean(), optimizer_loss, rtol=1e-9, atol=1e-12):
        return np.full(values.size, 1.0 / values.size)
    weights = np.zeros(values.size)
    weights[np.argmin(np.abs(values - optimizer_loss))] = 1.0
    return weights


@dataclass(frozen=True)
class ClusterStepRecord:
    """Outcome of one cluster iteration.

    ``individual_losses`` are the member-task energies recombined classically
    from the per-term expectation values the optimizer's objective
    evaluations measured during the step (paper §5.2.2/§5.3 — no additional
    quantum cost, and no extra state preparation): the measured term vectors
    are combined with :func:`step_recombination_weights` so that
    ``mixed_loss`` — the cluster average of the individual losses — agrees
    with ``optimizer_loss``, the optimizer's own loss estimate for the step
    (the mean of SPSA's two perturbed evaluations; COBYLA's accepted best
    probe).  ``evaluated_parameters`` are the parameter vectors of the step's
    evaluations and ``recombination_weights`` the weights applied to their
    term vectors; ``parameters`` are the *updated* parameters θ_t the
    optimizer returned.
    """

    cluster_id: str
    iteration: int
    mixed_loss: float
    individual_losses: dict[str, float]
    shots: int
    num_evaluations: int
    optimizer_loss: float = 0.0
    parameters: np.ndarray | None = field(repr=False, default=None)
    evaluated_parameters: tuple[np.ndarray, ...] | None = field(repr=False, default=None)
    recombination_weights: np.ndarray | None = field(repr=False, default=None)


class VQACluster:
    """Jointly optimise a shared ansatz state over a set of task Hamiltonians."""

    def __init__(
        self,
        cluster_id: str,
        tasks: list[VQATask],
        ansatz: Ansatz,
        optimizer: IterativeOptimizer,
        estimator: BaseEstimator,
        config: TreeVQAConfig,
        initial_parameters: np.ndarray,
        *,
        level: int = 1,
    ) -> None:
        if not tasks:
            raise ValueError("a cluster needs at least one task")
        qubit_counts = {task.num_qubits for task in tasks}
        if len(qubit_counts) != 1:
            raise ValueError("all tasks in a cluster must share the qubit count")
        if ansatz.num_qubits != tasks[0].num_qubits:
            raise ValueError("ansatz qubit count must match the tasks")
        # Normalized comparison: a task with initial_bitstring=None and one
        # with an explicit all-zeros bitstring share the same initial state.
        bitstrings = {task.resolved_initial_bitstring for task in tasks}
        if len(bitstrings) != 1:
            raise ValueError("all tasks in a cluster must share the initial state")
        if (config.backend == "density_matrix" and config.backend_factory is None) or (
            config.estimator == "density_matrix" and config.estimator_factory is None
        ):
            # Either density-matrix path (batched backend or per-request
            # estimator): fail at cluster wiring time with an actionable
            # message instead of deep inside evolution (or after a huge
            # allocation) on the first round.
            validate_density_matrix_qubits(ansatz.num_qubits)

        self.cluster_id = cluster_id
        self.tasks = list(tasks)
        self.ansatz = ansatz
        self.optimizer = optimizer
        self.estimator = estimator
        self.config = config
        self.level = level
        self.retired = False
        self.iterations = 0
        self.shots_used = 0

        self.mixed: MixedHamiltonian = build_mixed_hamiltonian(
            [task.hamiltonian for task in tasks]
        )
        self.monitor = SlopeMonitor(
            num_tasks=len(tasks),
            window_size=config.window_size,
            warmup_iterations=config.warmup_iterations,
        )
        self._similarity = (
            similarity_matrix([task.hamiltonian for task in tasks]) if len(tasks) > 1 else None
        )
        # The dense initial state is materialized lazily: requests carry only
        # the bitstring (request_initial_amplitudes rebuilds the identical
        # computational-basis amplitudes on demand), so wide-system runs on
        # the propagation backend never allocate 2^n amplitudes here.
        self._initial_state: Statevector | None = None
        self._initial_bitstring = tasks[0].resolved_initial_bitstring
        # Compile the ansatz once into a reusable execution program (cached
        # persistently on the circuit structure): ask() then ships
        # (program, parameter-row) payloads instead of freshly bound circuits.
        self._program = ansatz.program()
        self._shots_per_evaluation = shots_per_evaluation(
            self.mixed.operator, config.shots_per_pauli_term
        )
        self._step_evaluations: list[tuple[np.ndarray, EstimatorResult]] = []
        self._asked: list[np.ndarray] | None = None
        self._step_in_progress = False
        self._parameters = np.asarray(initial_parameters, dtype=float).copy()
        if self._parameters.size != ansatz.num_parameters:
            raise ValueError(
                f"expected {ansatz.num_parameters} initial parameters, got {self._parameters.size}"
            )
        self.optimizer.reset(self._parameters)

    # -- properties -------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def task_names(self) -> list[str]:
        return [task.name for task in self.tasks]

    @property
    def parameters(self) -> np.ndarray:
        """Current ansatz parameters."""
        return self._parameters.copy()

    @property
    def similarity(self) -> np.ndarray | None:
        """Pairwise similarity matrix of the member Hamiltonians (None for singletons)."""
        return None if self._similarity is None else self._similarity.copy()

    @property
    def initial_state(self) -> Statevector:
        if self._initial_state is None:
            self._initial_state = self.tasks[0].initial_state()
        return self._initial_state

    @property
    def initial_bitstring(self) -> str:
        """The shared computational-basis label (never materializes a state)."""
        return self._initial_bitstring

    def shots_per_evaluation(self) -> int:
        """Shot cost of one mixed-Hamiltonian evaluation (cached; the mixed
        operator is immutable for the lifetime of the cluster)."""
        return self._shots_per_evaluation

    def prepare_state(self, parameters: np.ndarray | None = None) -> Statevector:
        """|psi(theta)> for the cluster's current (or given) parameters."""
        values = self._parameters if parameters is None else np.asarray(parameters, dtype=float)
        return self.ansatz.prepare_state(values, self.initial_state)

    # -- optimisation --------------------------------------------------------------

    def ask(self) -> list[ExecutionRequest]:
        """Execution requests for the parameter points the optimizer wants next.

        The first ask of an iteration opens a new step; keep alternating with
        :meth:`tell` until it returns a completed :class:`ClusterStepRecord`
        (SPSA completes in one ask/tell exchange, COBYLA asks one probe at a
        time).  Requests carry the cluster's mixed operator and shared
        initial-state bitstring (backends rebuild the identical basis
        amplitudes on demand, so wide propagation runs never ship or allocate
        a dense state), so any execution backend can serve them — including
        across process boundaries: the payload (shared compiled program,
        per-point parameter row, initial bitstring, mixed operator) pickles
        cheaply, which is what lets
        :class:`~repro.quantum.parallel.ParallelBackend` shard a round's
        asks over worker processes without rebuilding any cluster state.
        """
        if self.retired:
            raise RuntimeError(f"cluster {self.cluster_id} is retired")
        if self._asked is not None:
            raise RuntimeError("ask() called again before telling the previous results")
        if not self._step_in_progress:
            self._step_evaluations = []
            self._step_in_progress = True
        points = self.optimizer.ask()
        self._asked = points
        return [
            ExecutionRequest(
                operator=self.mixed.operator,
                program=self._program,
                parameters=point,
                initial_bitstring=self._initial_bitstring,
                tag=(self.cluster_id, self.iterations + 1, index),
            )
            for index, point in enumerate(points)
        ]

    def tell(self, results: list[EstimatorResult]) -> ClusterStepRecord | None:
        """Report estimator results for the last ask, in request order.

        Returns the completed step record, or None when the optimizer needs
        more evaluations to finish its iteration.
        """
        if self._asked is None:
            raise RuntimeError("tell() called without a preceding ask()")
        if len(results) != len(self._asked):
            raise ValueError(f"expected {len(self._asked)} results, got {len(results)}")
        points, self._asked = self._asked, None
        for point, result in zip(points, results):
            self._step_evaluations.append((np.asarray(point, dtype=float).copy(), result))
        step = self.optimizer.tell([float(result.value) for result in results])
        if step is None:
            return None
        self._step_in_progress = False
        return self._complete_step(step)

    def abort_step(self) -> None:
        """Abandon an in-progress step (e.g. the round's shot budget ran out).

        The optimizer's pending iteration is cancelled and the cluster's
        parameters stay at their last completed value, matching the
        sequential controller's behaviour for clusters it never stepped.
        """
        self.optimizer.cancel()
        self._asked = None
        self._step_in_progress = False
        self._step_evaluations = []

    def _evaluation_term_vector(self, result: EstimatorResult) -> np.ndarray | None:
        """Basis-ordered term vector from an estimator result.

        Returns None when the result carries no term data (a custom estimator
        built against the scalar-only API) — the caller then falls back to an
        exact recombination from a freshly prepared state.
        """
        if result.term_basis == self.mixed.basis:
            return np.asarray(result.term_vector, dtype=float)
        if not result.term_basis:
            return None
        # Custom estimators may report a different term order; fall back to
        # the dictionary recombination.
        return self.mixed.term_vector(result.term_values)

    def _individual_energies(self) -> np.ndarray:
        """Member-task energies at the current parameters.

        One shared state is prepared, every basis Pauli term is evaluated in
        one vectorized engine pass, and the per-task energies are a single
        ``coefficient_matrix @ term_vector`` product (the §5.3 recombination;
        zero shot cost).  :meth:`step` avoids even this state preparation by
        reusing the objective's measured term vector.
        """
        state = self.prepare_state()
        return self.mixed.individual_values(self.mixed.engine.expectation_values(state))

    def step(self) -> ClusterStepRecord:
        """One VQA iteration on the mixed Hamiltonian (Algorithm 2, lines 5-10).

        Self-contained sequential form of the ask/tell cycle: each emitted
        request runs as a batch of one through the cluster's own estimator
        (:meth:`~repro.quantum.sampling.BaseEstimator.estimate_request`), one
        state preparation per objective evaluation.  (The controller instead
        batches many clusters' requests through the round scheduler.)  The
        member-task losses are recombined from the term vectors measured by
        the optimizer's own objective evaluations (weighted to match the
        optimizer's reported loss), so one step performs exactly
        ``num_evaluations`` state preparations — the separate
        individual-energy simulation of the per-term implementation is gone.
        """
        while True:
            results = [self.estimator.estimate_request(request) for request in self.ask()]
            record = self.tell(results)
            if record is not None:
                return record

    def _complete_step(self, step: OptimizerStep) -> ClusterStepRecord:
        """Recombine, monitor, and account a completed optimizer iteration."""
        self._parameters = np.asarray(step.parameters, dtype=float)
        term_vectors = [
            self._evaluation_term_vector(result) for _, result in self._step_evaluations
        ]
        if term_vectors and all(vector is not None for vector in term_vectors):
            evaluated_parameters = tuple(
                parameters for parameters, _ in self._step_evaluations
            )
            weights = step_recombination_weights(
                np.array([result.value for _, result in self._step_evaluations]),
                step.loss,
            )
            individual = self.mixed.individual_values(weights @ np.stack(term_vectors))
        else:
            # Defensive: an optimizer that never called the objective, or a
            # custom estimator without term data — recombine exactly from a
            # freshly prepared state instead.
            evaluated_parameters = (self._parameters.copy(),)
            weights = np.ones(1)
            individual = self._individual_energies()
        mixed_loss = float(np.mean(individual))
        self.monitor.record(mixed_loss, individual)
        shots = step.num_evaluations * self.shots_per_evaluation()
        self.iterations += 1
        self.shots_used += shots
        return ClusterStepRecord(
            cluster_id=self.cluster_id,
            iteration=self.iterations,
            mixed_loss=mixed_loss,
            individual_losses=dict(zip(self.task_names, individual.tolist())),
            shots=shots,
            num_evaluations=step.num_evaluations,
            optimizer_loss=step.loss,
            parameters=self._parameters.copy(),
            evaluated_parameters=evaluated_parameters,
            recombination_weights=weights,
        )

    # -- splitting -----------------------------------------------------------------

    def split_decision(self) -> SplitDecision:
        """Evaluate the §5.2.3 split conditions for this cluster."""
        if self.num_tasks <= 1:
            return SplitDecision.no_split("singleton cluster")
        if self.config.forced_split_iteration is not None:
            # Forced splits (the §9.1 split-timing study) apply to root-level
            # clusters only, so exactly one split happens per root.
            if self.level > 1:
                return SplitDecision.no_split("forced splits apply to root clusters only")
            if self.iterations >= self.config.forced_split_iteration:
                return SplitDecision(True, f"forced split at iteration {self.iterations}")
            return SplitDecision.no_split("before forced split point")
        if self.config.disable_automatic_splits:
            return SplitDecision.no_split("automatic splits disabled")
        return evaluate_split_condition(
            self.monitor.report(),
            self.config.epsilon_split,
            individual_slope_threshold=self.config.individual_slope_threshold,
        )

    def split(self, *, seed: int | None = None) -> list["VQACluster"]:
        """Split into child clusters via spectral clustering (§5.2.5).

        Children inherit the parent's parameters (warm start) and level + 1;
        the parent is marked retired.
        """
        if self.num_tasks < 2:
            raise ValueError("cannot split a singleton cluster")
        assert self._similarity is not None
        groups = assign_split_groups(
            self._similarity,
            num_groups=2,  # the paper's binary split
            seed=self.config.seed if seed is None else seed,
        )
        children = []
        for child_index, indices in enumerate(groups):
            child_tasks = [self.tasks[i] for i in indices]
            child = VQACluster(
                cluster_id=f"{self.cluster_id}.{child_index}",
                tasks=child_tasks,
                ansatz=self.ansatz,
                optimizer=self.config.make_optimizer(),
                estimator=self.estimator,
                config=self.config,
                initial_parameters=self._parameters,
                level=self.level + 1,
            )
            children.append(child)
        self.retired = True
        return children

    def __repr__(self) -> str:
        return (
            f"VQACluster(id={self.cluster_id!r}, tasks={self.num_tasks}, "
            f"level={self.level}, iterations={self.iterations}, retired={self.retired})"
        )
