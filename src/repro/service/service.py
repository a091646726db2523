"""TreeVQA as a long-running asyncio job service on one shared backend pool.

:class:`TreeVQAService` turns the run-once controller into served
throughput: tenants ``await service.submit(tasks, ansatz, config)`` and get
a :class:`~repro.service.job.Job` handle streaming
:class:`~repro.service.streams.RoundUpdate`\\ s round by round, while many
concurrent jobs multiplex onto **one** shared
:class:`~repro.quantum.parallel.ParallelBackend` worker pool and the
process-wide program / measurement-plan caches — so tenants amortize each
other's pool spawns and compilations instead of paying them per run.

Ownership rules (the shared-lifecycle contract)
-----------------------------------------------
The service *owns* the shared execution resources; jobs own only their own
optimisation state:

* every job's controller is built over the shared backend with
  ``owns_backend=False`` — a finishing, failing, or cancelled job never
  closes the pool under its co-tenants (the pool closes exactly once, in
  :meth:`TreeVQAService.aclose`);
* no job sizes the process-wide program / measurement-plan caches: they
  are sized for the whole process with
  :func:`~repro.quantum.program.set_program_cache_limit` /
  :func:`~repro.quantum.measurement.set_measurement_plan_cache_limit`, so
  no tenant can shrink a shared LRU and evict a concurrent job's compiled
  programs mid-run;
* per-job RNG streams (optimizers, estimators) live inside each job's own
  controller, so concurrent jobs produce trajectories **bit-identical** to
  running each job alone — whatever the interleaving (the backend layer is
  deterministic and each job's rounds execute in its own strict order).

Fair-share dispatch and backpressure
------------------------------------
Rounds dispatch through a
:class:`~repro.service.dispatcher.FairShareDispatcher`: round-robin over
running jobs, one round per turn, each round still batched through the
job's own :class:`~repro.core.scheduler.RoundScheduler` (so within a round
the existing chunking/sharding machinery applies unchanged).  Round
execution is serialized through a single worker thread — the pool
parallelises *within* a dispatch — which is also what keeps every job's
consumption order strict.  Backpressure rides the existing shot ledger:
per-job budgets (``config.max_total_shots``) end individual jobs, and the
service-wide ``max_running_jobs`` / ``max_inflight_shots`` caps queue
submissions until capacity frees.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from ..ansatz.base import Ansatz
from ..core.config import TreeVQAConfig
from ..core.controller import TreeVQAController
from ..core.shots import ShotLedger
from ..core.task import VQATask
from ..quantum.backend import BACKEND_REGISTRY, make_execution_backend
from ..quantum.parallel import ParallelBackend
from .dispatcher import FairShareDispatcher
from .errors import ServiceClosedError, ServiceError
from .job import Job, JobState

__all__ = ["TreeVQAService"]


class TreeVQAService:
    """Serve many concurrent TreeVQA jobs on one shared execution backend.

    Parameters:
        backend: Registry name of the shared execution backend (default
            ``"statevector"``); every job config's ``backend`` field must
            name the same backend (the pool is built once, not per job).
        workers: Size of the shared worker-process pool.  ``None`` (default)
            executes in-process on one shared backend instance; a value ≥ 1
            wraps the backend in a :class:`ParallelBackend` whose pool all
            jobs share (spawned lazily on the first dispatched round, closed
            exactly once by :meth:`aclose`).
        backend_factory: Optional zero-argument callable overriding shared
            backend construction (noise models, propagation knobs, custom
            backends).  With ``workers`` set it must be picklable — it also
            runs inside every pool worker.  Job-config backend names are not
            checked against a factory-built backend; the operator vouches
            for compatibility.
        start_method: ``multiprocessing`` start method for the pool
            (forwarded to :class:`ParallelBackend`).
        worker_timeout_s: Deadline in seconds for each pool shard reply
            (forwarded to :class:`ParallelBackend`; requires ``workers``).
            Bounds how long one hung worker can stall the service's single
            dispatch thread — the worker is reaped, respawned, and its shard
            rerouted within the deadline, with the respawn recorded in
            ``stats()["backend_pool"]`` and every job's result metadata.
            ``None`` (default) waits indefinitely.
        max_running_jobs: Concurrency cap — at most this many jobs advance
            concurrently; further submissions queue FIFO.
        max_inflight_shots: Shot-pressure cap — admission pauses while the
            shots charged by currently running jobs reach this value (an
            idle service always admits one job, so the cap cannot deadlock).
    """

    def __init__(
        self,
        *,
        backend: str = "statevector",
        workers: int | None = None,
        backend_factory=None,
        start_method: str | None = None,
        worker_timeout_s: float | None = None,
        max_running_jobs: int | None = None,
        max_inflight_shots: int | None = None,
    ) -> None:
        if backend_factory is None and backend not in BACKEND_REGISTRY:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {sorted(BACKEND_REGISTRY)}"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 when set (None executes in-process)")
        if worker_timeout_s is not None and workers is None:
            raise ValueError(
                "worker_timeout_s requires workers (the deadline bounds pool "
                "shard replies; in-process execution has none)"
            )
        inner_factory = (
            backend_factory
            if backend_factory is not None
            else partial(make_execution_backend, backend)
        )
        self.backend_name = backend
        self._check_backend_name = backend_factory is None
        if workers is not None:
            self._backend = ParallelBackend(
                inner_factory,
                workers=workers,
                start_method=start_method,
                worker_timeout_s=worker_timeout_s,
            )
        else:
            self._backend = inner_factory()
        self._dispatcher = FairShareDispatcher(
            max_running_jobs=max_running_jobs,
            max_inflight_shots=max_inflight_shots,
        )
        #: Service-wide shot accounting: one charge per completed job round
        #: (source = job id), aggregating tenancy pressure across jobs.
        self.ledger = ShotLedger()
        self._jobs: dict[str, Job] = {}
        self._job_counter = 0
        self._closing = False
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake = asyncio.Event()
        self._dispatch_task: asyncio.Task | None = None
        # One worker thread serializes controller construction, round
        # stepping, and finalization: the shared backend executes one round
        # dispatch at a time (parallelism lives inside the pool), and strict
        # serialization is what keeps each job's estimator consumption order
        # — and therefore its RNG streams — identical to a solo run.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="treevqa-service"
        )

    # -- properties ---------------------------------------------------------------

    @property
    def backend(self):
        """The shared execution backend all jobs multiplex onto."""
        return self._backend

    @property
    def jobs(self) -> dict[str, Job]:
        """All jobs ever submitted, by id (running and terminal)."""
        return dict(self._jobs)

    def stats(self) -> dict:
        """Service-level observability snapshot."""
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        payload: dict = {
            "jobs": states,
            "queued": self._dispatcher.num_queued,
            "running": self._dispatcher.num_running,
            "inflight_shots": self._dispatcher.inflight_shots(),
            "total_shots": self.ledger.total,
        }
        worker_stats = getattr(self._backend, "worker_cache_stats", None)
        if worker_stats is not None:
            payload["backend_pool"] = worker_stats()
        return payload

    # -- submission ---------------------------------------------------------------

    def _validate_config(self, config: TreeVQAConfig) -> None:
        if config.worker_timeout_s is not None:
            raise ServiceError(
                "job configs must leave worker_timeout_s unset: the reply "
                "deadline is a property of the service's shared pool (set it "
                "via TreeVQAService(worker_timeout_s=...))"
            )
        if config.execution_workers is not None:
            raise ServiceError(
                "job configs must leave execution_workers unset: the service "
                "owns the one shared worker pool every job multiplexes onto "
                "(size it via TreeVQAService(workers=...)); note the "
                "REPRO_EXECUTION_WORKERS environment variable also sets this "
                "field"
            )
        if config.backend_factory is not None:
            raise ServiceError(
                "job configs must not carry a backend_factory: all jobs "
                "execute on the service's shared backend (build the service "
                "with backend_factory=... instead)"
            )
        if self._check_backend_name and config.backend != self.backend_name:
            raise ServiceError(
                f"job config requests backend {config.backend!r} but this "
                f"service executes every job on its shared "
                f"{self.backend_name!r} backend; submit to a service built "
                f"with backend={config.backend!r}"
            )

    async def submit(
        self,
        tasks: list[VQATask],
        ansatz: Ansatz,
        config: TreeVQAConfig | None = None,
        *,
        job_id: str | None = None,
    ) -> Job:
        """Submit one TreeVQA run; returns its :class:`Job` handle.

        The job queues behind the service's backpressure caps, then its
        rounds interleave fair-share with every other running job's.
        Stream progress via ``async for update in job.updates`` and await
        the final result via ``await job.result()``.
        """
        if self._closing:
            raise ServiceClosedError("service is closed to new submissions")
        config = config if config is not None else TreeVQAConfig()
        self._validate_config(config)
        self._ensure_loop()
        if job_id is None:
            self._job_counter += 1
            job_id = f"job-{self._job_counter}"
        if job_id in self._jobs:
            raise ServiceError(f"duplicate job id {job_id!r}")
        # Controller construction compiles programs / builds clusters, so it
        # runs on the service's worker thread, serialized with round
        # execution like every other touch of the shared process-wide state.
        controller = await self._loop.run_in_executor(
            self._executor,
            partial(TreeVQAController, tasks, ansatz, config, backend=self._backend),
        )
        job = Job(job_id, controller)
        self._jobs[job_id] = job
        self._dispatcher.submit(job)
        self._ensure_dispatch_task()
        self._wake.set()
        return job

    # -- dispatch loop ------------------------------------------------------------

    def _ensure_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ServiceError("a TreeVQAService is bound to a single event loop")

    def _ensure_dispatch_task(self) -> None:
        if self._dispatch_task is None or self._dispatch_task.done():
            self._dispatch_task = self._loop.create_task(
                self._dispatch_loop(), name="treevqa-service-dispatch"
            )
            self._dispatch_task.add_done_callback(self._on_dispatch_done)

    def _on_dispatch_done(self, task: asyncio.Task) -> None:
        # A dispatch-loop crash must not strand awaiting tenants: fail every
        # non-terminal job so result()/updates consumers wake with the error.
        if task.cancelled():
            error: BaseException = asyncio.CancelledError("dispatch loop cancelled")
        elif task.exception() is not None:
            error = task.exception()
        else:
            return
        for job in self._jobs.values():
            if not job.state.terminal:
                self._dispatcher.finish(job)
                job.controller.close()
                job._fail(
                    ServiceError(f"service dispatch loop died: {error!r}")
                )

    async def _dispatch_loop(self) -> None:
        while True:
            self._dispatcher.admit_ready()
            job = self._dispatcher.next_round()
            if job is not None:
                await self._run_job_round(job)
                continue
            # Idle: nothing running (a running job is always either in the
            # rotation or mid-round, and rounds run inside this loop).
            if self._closing:
                return
            self._wake.clear()
            if not self._dispatcher.empty:
                continue
            await self._wake.wait()

    async def _run_job_round(self, job: Job) -> None:
        """Advance one job by one round (the fair-share quantum)."""
        if job.cancel_requested:
            self._retire(job, JobState.CANCELLED)
            return
        try:
            snapshot = await self._loop.run_in_executor(
                self._executor, job.controller.step_round
            )
        except Exception as error:
            self._retire(job, JobState.FAILED, error=error)
            return
        if snapshot is None:
            try:
                result = await self._loop.run_in_executor(
                    self._executor, job.controller.finalize
                )
            except Exception as error:
                self._retire(job, JobState.FAILED, error=error)
                return
            self._retire(job, JobState.DONE, result=result)
            return
        self.ledger.charge(job.job_id, snapshot.round_index, snapshot.shots_this_round)
        job._publish_round(snapshot)
        if job.cancel_requested:
            # Cancel landed mid-round: the round's work happened (and was
            # streamed above); the job stops at this boundary.
            self._retire(job, JobState.CANCELLED)
            return
        self._dispatcher.requeue(job)

    def _retire(
        self,
        job: Job,
        state: JobState,
        *,
        result=None,
        error: BaseException | None = None,
    ) -> None:
        """Terminal transition: release capacity, close the job's controller
        (which never touches the shared backend — ``owns_backend=False``),
        and settle the tenant-facing future/stream."""
        self._dispatcher.finish(job)
        job.controller.close()
        if state is JobState.DONE:
            job._finish(result)
        elif state is JobState.CANCELLED:
            job._mark_cancelled()
        else:
            job._fail(error)

    # -- lifecycle ----------------------------------------------------------------

    async def aclose(self) -> None:
        """Graceful shutdown: refuse new submissions, drain every queued and
        running job to completion, then close the shared backend (the one
        and only place the shared pool shuts down).  Idempotent.  To stop
        jobs instead of draining them, cancel them before closing."""
        self._closing = True
        self._wake.set()
        if self._dispatch_task is not None:
            await self._dispatch_task
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)
            close = getattr(self._backend, "close", None)
            if close is not None:
                loop = asyncio.get_running_loop()
                # Pool shutdown joins worker processes; keep it off the loop.
                await loop.run_in_executor(None, close)

    async def __aenter__(self) -> "TreeVQAService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return (
            f"TreeVQAService(backend={self.backend_name!r}, "
            f"running={self._dispatcher.num_running}, "
            f"queued={self._dispatcher.num_queued}, "
            f"closed={self._closed})"
        )
