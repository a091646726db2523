"""The TreeVQA central controller (paper §5.1, Algorithm 1).

The controller receives the application's tasks, groups them into root
clusters by shared initial state, and then repeatedly steps every active
cluster (one VQA iteration per cluster per round), splitting clusters when
their split condition fires, until the global shot budget S_max is exhausted
or the round limit is reached.  A final post-processing pass evaluates every
task on every final cluster state and keeps the best answer (§5.3).

Each round executes through the :class:`~repro.core.scheduler.RoundScheduler`:
every active cluster's ask (the parameter points its optimizer wants
evaluated) is gathered into one batched
:class:`~repro.quantum.backend.ExecutionBackend` dispatch, and the results
are told back in cluster order.  The backend prepares a whole round's states
as stacked arrays (bit-identically to per-request execution, so
``max_batch_size=1`` — the sequential degenerate case — yields the same
trajectories under the exact estimator), and all expectation values flow
through the compiled Pauli engine (:mod:`repro.quantum.engine`); the final
§5.3 pass evaluates the whole (task, cluster) grid through one batched
engine call in :func:`~repro.core.postprocess.select_best_states`.

Round-by-round execution and shared backends
--------------------------------------------
:meth:`TreeVQAController.run` is a thin loop over the resumable primitives
:meth:`~TreeVQAController.step_round` (advance one round, report a
:class:`RoundSnapshot`) and :meth:`~TreeVQAController.finalize` (the §5.3
pass).  The job service (:mod:`repro.service`) drives those primitives
directly so many controllers can interleave their rounds on **one** shared
:class:`~repro.quantum.parallel.ParallelBackend` pool.  Ownership is
explicit: a controller closes only execution resources it created itself —
a backend passed in via the ``backend=`` argument belongs to the caller and
is never closed by a finishing run.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.backend import ExecutionBackend
from ..quantum.measurement import measurement_plan_cache_stats
from ..quantum.program import program_cache_stats
from .cluster import ClusterStepRecord, VQACluster
from .config import TreeVQAConfig
from .postprocess import select_best_states
from .results import TaskOutcome, TaskTrajectory, TreeVQAResult
from .scheduler import RoundScheduler
from .shots import ShotLedger
from .task import VQATask
from .tree import ExecutionTree

__all__ = ["RoundSnapshot", "TreeVQAController", "live_controller_count"]


#: Registry of live (constructed, not yet closed) controllers in this
#: process.  Process-wide caches (programs, measurement plans) are shared by
#: every live controller, so per-run cache-stat deltas are only attributable
#: to a single run while exactly one controller is alive — the delta
#: reporting below labels itself ``"shared": True`` otherwise.  A WeakSet so
#: a controller that is constructed but never run/closed cannot pin the
#: count forever.
_LIVE_CONTROLLERS: "weakref.WeakSet[TreeVQAController]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()

#: Cache-stat keys that are cumulative counters (reported as per-run deltas);
#: the remaining keys (``size``, ``limit``) are point-in-time values.
_COUNTER_KEYS = ("hits", "misses", "evictions")
#: Worker-pool fault-handling counters, reported as ``metadata["transport"]``.
_TRANSPORT_COUNTERS = (
    "shard_retries",
    "worker_respawns",
    "deadline_timeouts",
    "fallback_shards",
    "fallback_batches",
)
#: Every cumulative worker-pool counter of ``worker_cache_stats()``.
_WORKER_COUNTERS = (
    "shards_dispatched",
    "programs_shipped",
    "program_reuses",
    "states_shipped",
    *_TRANSPORT_COUNTERS,
)
#: Cumulative counters of each ``per_worker`` entry (``worker`` is the slot).
_PER_WORKER_COUNTERS = ("dispatches", "latency_s", "respawns")


def _clamped_delta(now: dict, baseline: dict, counters) -> dict:
    """``now - baseline`` for the cumulative ``counters``, clamped at 0 (a
    concurrent run's cache clear can drive a naive difference negative);
    other keys of ``now`` are point-in-time values, reported as-is."""
    return {
        key: max(now[key] - baseline[key], 0) if key in counters else now[key]
        for key in now
    }


def live_controller_count() -> int:
    """Number of live controllers registered in this process.

    A controller registers at construction and unregisters at
    :meth:`TreeVQAController.close` (``run()`` closes on return); the job
    service keeps one live controller per running job.
    """
    with _LIVE_LOCK:
        return len(_LIVE_CONTROLLERS)


def _register_controller(controller: "TreeVQAController") -> None:
    with _LIVE_LOCK:
        if _LIVE_CONTROLLERS:
            # An overlap can only *begin* at a registration, so marking the
            # incumbents (and the newcomer, in __init__) here makes the
            # shared-tenancy flag sticky even for overlaps that end before
            # the incumbent's next round-boundary check.
            for live in _LIVE_CONTROLLERS:
                live._observed_shared = True
        _LIVE_CONTROLLERS.add(controller)


def _unregister_controller(controller: "TreeVQAController") -> None:
    with _LIVE_LOCK:
        _LIVE_CONTROLLERS.discard(controller)


@dataclass(frozen=True)
class RoundSnapshot:
    """What one controller round did — the unit the job service streams.

    ``records`` are the completed per-cluster step records in strict cluster
    order (the same records ``on_record`` observed); ``splits`` maps each
    splitting parent to its new children.  ``shots_this_round`` counts only
    this round's charges, while ``total_shots`` is the run's cumulative
    ledger total after the round.
    """

    round_index: int
    records: tuple[ClusterStepRecord, ...]
    splits: tuple[tuple[str, tuple[str, ...]], ...]
    shots_this_round: int
    total_shots: int
    num_active_clusters: int

    @property
    def individual_losses(self) -> dict[str, float]:
        """Per-task energies recombined from this round's step records."""
        losses: dict[str, float] = {}
        for record in self.records:
            losses.update(record.individual_losses)
        return losses

    @property
    def mixed_losses(self) -> dict[str, float]:
        """Per-cluster mixed losses for this round."""
        return {record.cluster_id: record.mixed_loss for record in self.records}


class TreeVQAController:
    """Orchestrate tree-structured execution of a family of VQA tasks."""

    def __init__(
        self,
        tasks: list[VQATask],
        ansatz: Ansatz,
        config: TreeVQAConfig | None = None,
        *,
        initial_parameters: np.ndarray | dict[str, np.ndarray] | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if not tasks:
            raise ValueError("tasks must be non-empty")
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        qubit_counts = {task.num_qubits for task in tasks}
        if len(qubit_counts) != 1:
            raise ValueError("all tasks of an application must share the qubit count")
        if ansatz.num_qubits != tasks[0].num_qubits:
            raise ValueError("ansatz qubit count must match the tasks")

        self.tasks = list(tasks)
        self.ansatz = ansatz
        self.config = config or TreeVQAConfig()
        self._initial_parameters = initial_parameters
        # The program / measurement-plan caches are process-wide and shared
        # by every live controller and job.  Their stats are snapshotted so
        # result metadata reports this run's cache activity as a delta,
        # clamped and labelled below when runs overlap.
        self._program_cache_baseline = program_cache_stats()
        self._measurement_plan_cache_baseline = measurement_plan_cache_stats()
        self.estimator = self.config.make_estimator()
        #: Whether this controller created (and therefore closes) its
        #: backend.  A caller-supplied backend — the service's shared pool —
        #: is never closed by a finishing run.
        self.owns_backend = backend is None
        self.backend = self.config.make_backend() if backend is None else backend
        #: Snapshot of a (possibly shared) worker pool's counters at
        #: construction (None without a pool), so this run's worker and
        #: transport metadata report its own activity, not the pool's
        #: lifetime totals.
        self._worker_baseline = self._worker_stats()
        self.scheduler = RoundScheduler(
            self.backend,
            self.estimator,
            max_batch_size=self.config.max_batch_size,
            owns_backend=self.owns_backend,
        )
        self.ledger = ShotLedger(shots_per_term=self.config.shots_per_pauli_term)
        self.tree = ExecutionTree()
        self.trajectories: dict[str, TaskTrajectory] = {
            task.name: TaskTrajectory(task.name) for task in tasks
        }
        self._clusters = self._build_root_clusters()
        self._rounds_completed = 0
        self._has_run = False
        self._finalized = False
        _register_controller(self)
        #: Sticky flag: did another live controller overlap this run at any
        #: observed point?  Deltas over shared process-wide counters are not
        #: attributable to a single run then — metadata labels them.
        self._observed_shared = live_controller_count() > 1

    # -- setup -------------------------------------------------------------------

    def _resolve_initial_parameters(self, bitstring_key: str) -> np.ndarray:
        """Initial ansatz parameters for a root cluster."""
        provided = self._initial_parameters
        if provided is None:
            return self.ansatz.zero_parameters()
        if isinstance(provided, dict):
            if bitstring_key in provided:
                return np.asarray(provided[bitstring_key], dtype=float)
            return self.ansatz.zero_parameters()
        return np.asarray(provided, dtype=float)

    def _build_root_clusters(self) -> list[VQACluster]:
        """Group tasks by initial state into the level-1 clusters (§5.1)."""
        grouped: dict[str, list[VQATask]] = defaultdict(list)
        for task in self.tasks:
            grouped[task.resolved_initial_bitstring].append(task)
        clusters = []
        for root_index, (bitstring, group_tasks) in enumerate(sorted(grouped.items())):
            cluster = VQACluster(
                cluster_id=f"L1B{root_index + 1}",
                tasks=group_tasks,
                ansatz=self.ansatz,
                optimizer=self.config.make_optimizer(),
                estimator=self.estimator,
                config=self.config,
                initial_parameters=self._resolve_initial_parameters(bitstring),
            )
            clusters.append(cluster)
            self.tree.add_root(cluster.cluster_id, cluster.task_names)
        return clusters

    # -- execution ----------------------------------------------------------------

    @property
    def active_clusters(self) -> list[VQACluster]:
        """Clusters that are still optimising (not retired)."""
        return [cluster for cluster in self._clusters if not cluster.retired]

    @property
    def rounds_completed(self) -> int:
        """Rounds executed so far (for round-by-round drivers)."""
        return self._rounds_completed

    def _budget_exhausted(self) -> bool:
        budget = self.config.max_total_shots
        return budget is not None and self.ledger.total >= budget

    def run(self) -> TreeVQAResult:
        """Execute Algorithm 1 and return the per-task results.

        Controllers are run-once, so execution resources the backend may
        hold (the worker pool of a
        :class:`~repro.quantum.parallel.ParallelBackend` under
        ``execution_workers``) are released before returning — *if* this
        controller owns its backend; a caller-supplied (shared) backend is
        left running.  The backend object stays inspectable and would lazily
        respawn its pool if dispatched again.
        """
        if self._has_run or self._rounds_completed > 0 or self._finalized:
            raise RuntimeError("controller.run() may only be called once per instance")
        self._has_run = True
        try:
            while self.step_round() is not None:
                pass
            return self.finalize()
        finally:
            self.close()

    def step_round(self) -> RoundSnapshot | None:
        """Advance the run by exactly one round (the resumable primitive).

        Returns a :class:`RoundSnapshot` of the round's completed steps,
        splits, and shot charges — or ``None`` when the run is over (round
        limit reached or shot budget exhausted) and :meth:`finalize` should
        be called.  Unlike :meth:`run`, stepping never releases execution
        resources: an external driver (the job service) decides when shared
        backends close.
        """
        if self._finalized:
            raise RuntimeError("controller already finalized")
        if self._rounds_completed >= self.config.max_rounds or self._budget_exhausted():
            return None
        if not self._observed_shared and live_controller_count() > 1:
            self._observed_shared = True
        shots_before = self.ledger.total
        self._rounds_completed += 1
        records, splits = self._run_round()
        return RoundSnapshot(
            round_index=self._rounds_completed,
            records=tuple(record for _, record in records),
            splits=tuple(splits),
            shots_this_round=self.ledger.total - shots_before,
            total_shots=self.ledger.total,
            num_active_clusters=len(self.active_clusters),
        )

    def finalize(self) -> TreeVQAResult:
        """Run the §5.3 post-processing pass and assemble the result.

        May be called once, after :meth:`step_round` returned ``None`` (or
        early, to post-process a partially executed run — the job service
        does this for cancelled jobs when asked).  Does not release any
        execution resources; pair with :meth:`close`.
        """
        if self._finalized:
            raise RuntimeError("controller already finalized")
        self._finalized = True
        return self._assemble_result()

    def close(self) -> None:
        """Release owned execution resources and unregister (idempotent; also
        called at the end of :meth:`run` and on context-manager exit).  A
        caller-supplied backend is never closed — the scheduler's
        ``owns_backend`` flag keeps a finishing run from tearing a shared
        worker pool down under concurrent tenants."""
        self.scheduler.close()
        _unregister_controller(self)

    def __enter__(self) -> "TreeVQAController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_round(
        self,
    ) -> tuple[
        list[tuple[VQACluster, ClusterStepRecord]],
        list[tuple[str, tuple[str, ...]]],
    ]:
        """Step every active cluster once through one batched dispatch.

        The scheduler gathers all active clusters' asks, executes them as
        stacked backend batches, and reports completed steps back in cluster
        order — so shot charging, trajectory recording, and the budget break
        happen in exactly the order the sequential per-cluster loop used.
        Splits are applied after the round's steps complete (a split decision
        depends only on the splitting cluster's own state).  Returns the
        reported (cluster, record) pairs and the applied splits.
        """
        pending = list(self.active_clusters)

        def on_record(cluster: VQACluster, record) -> bool:
            self.ledger.charge(cluster.cluster_id, self._rounds_completed, record.shots)
            self.tree.record_iteration(cluster.cluster_id, record.shots)
            total = self.ledger.total
            for task_name, energy in record.individual_losses.items():
                self.trajectories[task_name].record(total, energy)
            # A False return stops the round: clusters the scheduler has not
            # told yet stay un-stepped, like the sequential loop's break.
            return not self._budget_exhausted()

        completed = self.scheduler.run_round(pending, on_record=on_record)
        stepped = {cluster.cluster_id for cluster, _ in completed}
        splits: list[tuple[str, tuple[str, ...]]] = []
        next_clusters: list[VQACluster] = []
        for cluster in pending:
            if cluster.cluster_id not in stepped:
                # Not stepped this round (budget break); keep for finalize.
                next_clusters.append(cluster)
                continue
            decision = cluster.split_decision()
            if decision.should_split and cluster.num_tasks > 1:
                children = cluster.split()
                self.tree.mark_split(cluster.cluster_id, decision.reason)
                for child in children:
                    self.tree.add_child(cluster.cluster_id, child.cluster_id, child.task_names)
                next_clusters.extend(children)
                splits.append(
                    (cluster.cluster_id, tuple(child.cluster_id for child in children))
                )
            else:
                next_clusters.append(cluster)
        self._clusters = next_clusters
        return completed, splits

    def _cache_delta(self, stats: dict, baseline: dict) -> dict:
        """This run's activity on one process-wide cache.

        When another live controller/job overlapped this run the delta also
        includes misses/hits that run caused — the entry is labelled
        ``"shared": True`` then, so consumers know the numbers describe the
        tenancy, not this run alone.
        """
        delta = _clamped_delta(stats, baseline, _COUNTER_KEYS)
        if self._observed_shared or live_controller_count() > 1:
            delta["shared"] = True
        return delta

    def _worker_stats(self) -> dict | None:
        """The backend pool's :meth:`~repro.quantum.parallel.ParallelBackend.
        worker_cache_stats` (None when the backend has no worker pool)."""
        worker_stats = getattr(self.backend, "worker_cache_stats", None)
        return None if worker_stats is None else worker_stats()

    def _worker_delta(self) -> dict | None:
        """This run's worker-pool counters, pool-wide and per slot, as deltas
        against the construction-time snapshot (None without a pool); pool
        size and transport name are as read now.  A slot the snapshot lacks
        (the pool spawned after construction) counts from zero."""
        if self._worker_baseline is None:
            return None
        now = self._worker_stats()
        delta = _clamped_delta(now, self._worker_baseline, _WORKER_COUNTERS)
        before = {slot["worker"]: slot for slot in self._worker_baseline["per_worker"]}
        unseen = dict.fromkeys(_PER_WORKER_COUNTERS, 0)
        delta["per_worker"] = [
            _clamped_delta(slot, before.get(slot["worker"], unseen), _PER_WORKER_COUNTERS)
            for slot in now["per_worker"]
        ]
        return delta

    def _measurement_plan_cache_delta(self) -> dict[str, int] | None:
        """This run's measurement-plan-cache activity, or None when the run
        compiled and hit no plans (non-sampling estimators)."""
        delta = self._cache_delta(
            measurement_plan_cache_stats(), self._measurement_plan_cache_baseline
        )
        if delta["hits"] == 0 and delta["misses"] == 0:
            return None
        return delta

    def _propagation_metadata(self) -> dict | None:
        """Propagation observability for the run, or None when nothing
        propagated: truncation counts summed from per-result metadata, which
        rides the wire, so the totals are worker-count independent."""
        totals = dict(self.scheduler.backend_metadata_totals)
        return totals or None

    def _assemble_result(self) -> TreeVQAResult:
        """Post-processing (§5.3) and result assembly."""
        final_clusters = self.active_clusters or self._clusters
        # Propagation-capable backends (pure propagation / width routing)
        # evaluate the §5.3 grid through their own term-vector payloads;
        # dense state preparation at 50+ qubits would defeat the point of
        # running them.  (The width router *does* provide states — on its
        # dense tier — but its wide tasks still need the state-free path.)
        selection_backend = (
            self.backend
            if (
                not getattr(self.backend, "provides_states", True)
                or getattr(self.backend, "accepts_propagation_config", False)
            )
            else None
        )
        selections = select_best_states(
            self.tasks, final_clusters, backend=selection_backend
        )
        outcomes = []
        for task, selection in zip(self.tasks, selections):
            outcomes.append(
                TaskOutcome(
                    task=task,
                    energy=selection.energy,
                    source=selection.cluster_id,
                    fidelity=task.fidelity(selection.energy),
                    error=task.error(selection.energy),
                )
            )
        # Under multi-process execution this run's worker-pool counters ride
        # along in the program-cache entry, so cache behaviour on both sides
        # of the process boundary lands in one place; the fault-handling
        # subset is surfaced as "transport" only when an event fired.
        program_cache = self._cache_delta(
            program_cache_stats(), self._program_cache_baseline
        )
        workers = self._worker_delta()
        transport = {}
        if workers is not None:
            program_cache["workers"] = workers
            transport = {key: workers[key] for key in _TRANSPORT_COUNTERS}
        return TreeVQAResult(
            outcomes=outcomes,
            trajectories=self.trajectories,
            ledger=self.ledger,
            total_rounds=self._rounds_completed,
            metadata={
                "num_final_clusters": len(final_clusters),
                "num_splits": self.tree.num_splits,
                "tree_depth_levels": self.tree.depth_levels(),
                "program_cache": program_cache,
                **(
                    {"measurement_plan_cache": plan_cache}
                    if (plan_cache := self._measurement_plan_cache_delta()) is not None
                    else {}
                ),
                **(
                    {"propagation": propagation}
                    if (propagation := self._propagation_metadata()) is not None
                    else {}
                ),
                **(
                    {"transport": transport}
                    if any(transport.values())
                    else {}
                ),
            },
            tree=self.tree,
        )
