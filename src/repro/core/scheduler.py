"""Batched round scheduling: gather every cluster's asks, execute, tell back.

The paper's controller (§5.1, Algorithm 1) steps every active cluster once
per round.  The steps are independent, so instead of simulating each
cluster's objective evaluations one at a time, the :class:`RoundScheduler`
collects the :class:`~repro.quantum.backend.ExecutionRequest` lists emitted
by every cluster's :meth:`~repro.core.cluster.VQACluster.ask`, executes them
through a single :class:`~repro.quantum.backend.ExecutionBackend` batch
(chunked to ``max_batch_size``), converts the backend payloads into
:class:`~repro.quantum.sampling.EstimatorResult` objects via the shared
estimator's noise layer, and tells each cluster its slice.

Ask/tell micro-cycles repeat until every cluster's optimizer completes its
iteration: SPSA clusters finish in one cycle (their ± pair is asked at
once), COBYLA clusters ask one probe per cycle and therefore ride along in
batches of one request per cluster.

``max_batch_size=1`` is the sequential degenerate case — one request per
backend dispatch — and, because the batched statevector backend's stacked
``matmul`` is bit-identical per request regardless of grouping, batched and
sequential rounds produce bit-identical trajectories under the exact
estimator.

Every batched payload slice, consumption-ordered, is converted through one
:meth:`~repro.quantum.sampling.BaseEstimator.estimate_backend_results` call.
States-consuming estimators (the sampling estimator) batch too: the backend
attaches prepared states (``need_states=True``), and the conversion is
bit-identical to the per-request path by the estimator's RNG-derivation
contract.  When the backend cannot attach states (``provides_states=False``,
e.g. pure Pauli propagation), the scheduler warns once, naming the backend,
and falls back per request.

The per-request fallback is the one per-request path of the estimator layer:
each request, as the cluster asked it (compiled program, parameter row,
initial bitstring), runs alone as a batch of one on the estimator's own
backend through
:meth:`~repro.quantum.sampling.BaseEstimator.estimate_request`; the
configured backend is not touched.  Estimators that can consume neither
term vectors nor prepared states (custom scalar-only estimators) always take
it, so every configuration keeps working — it just doesn't batch.  An
estimator may also *require* a specific backend (``requires_backend``): the
density-matrix estimator only consumes term vectors produced under its noise
model by the density-matrix backend, so noisy rounds batch when the
configured backend matches (same name, same noise model) and fall back per
request otherwise.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from ..quantum.backend import ExecutionBackend, ExecutionRequest
from ..quantum.sampling import BaseEstimator, EstimatorResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports config)
    from .cluster import ClusterStepRecord, VQACluster

__all__ = ["RoundScheduler"]


class RoundScheduler:
    """Execute whole controller rounds through one batched backend."""

    def __init__(
        self,
        backend: ExecutionBackend,
        estimator: BaseEstimator,
        *,
        max_batch_size: int | None = None,
        owns_backend: bool = True,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1 when set")
        self.backend = backend
        self.estimator = estimator
        self.max_batch_size = max_batch_size
        #: Whether :meth:`close` may release the backend's execution
        #: resources.  ``False`` for backends owned by an outer layer (the
        #: job service's shared worker pool, which many schedulers
        #: multiplex): a finishing run must never tear the pool down under
        #: concurrent tenants.
        self.owns_backend = owns_backend
        #: Backend dispatches performed (0 when the estimator forces the
        #: per-request path; the backend never ran then).
        self.batches_executed = 0
        #: Requests whose results were consumed — converted through the
        #: estimator and told back.  After a mid-round budget stop this can
        #: be less than the backend's own request count: dispatched work
        #: whose consumer was aborted is never pushed through the estimator.
        self.requests_executed = 0
        #: Accumulated :attr:`~repro.quantum.backend.BackendResult.metadata`
        #: counters (the propagation backend's truncation counts), summed
        #: across every result seen — in-process, chunked, or from worker
        #: processes (metadata rides the wire, unlike backend-local
        #: counters).  Empty for backends that attach no metadata.
        self.backend_metadata_totals: dict[str, int] = {}
        self._states_fallback_warned = False

    # -- request execution ------------------------------------------------------

    def execute(self, requests: Sequence[ExecutionRequest]) -> list[EstimatorResult]:
        """Execute requests through the backend + estimator noise layer.

        Contract:

        * **Ordering** — results are returned in request order, one
          :class:`~repro.quantum.sampling.EstimatorResult` per request,
          regardless of how requests are chunked (``max_batch_size``),
          grouped by structure inside the backend, or sharded across worker
          processes (a :class:`~repro.quantum.parallel.ParallelBackend`).
        * **Estimator state** — the estimator's noise RNG and shot counters
          are touched exactly once per request, in request order, in this
          process; estimator-level noise is therefore independent of the
          backend's batching/sharding layout.
        * **Errors** — an invalid request raises from the dispatch (a
          worker-side failure surfaces as
          :class:`~repro.quantum.parallel.ParallelExecutionError`); no
          partial results are returned and the estimator never sees work
          that failed.
        * **Fallback** — estimators that cannot consume this backend's
          payloads (capability flags / ``requires_backend`` pin) run each
          request alone on their own backend
          (:meth:`~repro.quantum.sampling.BaseEstimator.estimate_request`);
          the configured backend is not touched then.
        """
        requests = list(requests)
        if not requests:
            return []
        return self._convert(requests, self._dispatch(requests))

    def _dispatch(self, requests: list[ExecutionRequest]):
        """Run requests through the backend (None when the estimator cannot
        consume this backend's payloads and must run them per request on its
        own backend instead).

        Both sides of the pairing are checked: the estimator must be able to
        consume what the backend produces (term vectors, or prepared states
        the backend can actually attach), and the backend's physics must match
        the estimator's own — a noise-applying backend only serves estimators
        that pinned it via ``requires_backend``, and such estimators only
        batch when the pin matches.  Every rejected pairing falls back to the
        per-request path.
        """
        estimator = self.estimator
        consumes_term_vectors = getattr(estimator, "consumes_term_vectors", False)
        if not consumes_term_vectors and not getattr(estimator, "consumes_states", False):
            return None
        required = getattr(estimator, "requires_backend", None)
        if required is not None:
            if not self._backend_satisfies(required):
                return None
        elif not self._backend_is_exact():
            # The estimator's own physics is exact/pure-state; handing it a
            # noise-applying backend's payloads would silently report noisy
            # values as exact.
            return None
        if not consumes_term_vectors and not getattr(self.backend, "provides_states", True):
            # A states-consuming estimator over a backend that cannot attach
            # prepared states: nothing consumable would come back.  Warn once
            # — the fallback is correct but forfeits batched sampling.
            self._warn_states_fallback()
            return None
        backend_results = []
        for chunk in self._chunks(requests):
            backend_results.extend(
                self.backend.run_batch(chunk, need_states=not consumes_term_vectors)
            )
            self.batches_executed += 1
        self._accumulate_metadata(backend_results)
        return backend_results

    def _warn_states_fallback(self) -> None:
        """Actionable one-time notice that sampling rounds are not batching."""
        if self._states_fallback_warned:
            return
        self._states_fallback_warned = True
        backend_name = getattr(self.backend, "name", type(self.backend).__name__)
        warnings.warn(
            f"{type(self.estimator).__name__} consumes prepared states, but "
            f"backend {backend_name!r} advertises provides_states=False — "
            "falling back to per-request estimate_request() (correct, but "
            "rounds will not batch); configure a state-providing backend "
            "such as 'statevector', 'clifford', or 'auto' (up to its "
            "20-qubit routing threshold) to batch sampling rounds",
            RuntimeWarning,
            stacklevel=4,
        )

    def _accumulate_metadata(self, backend_results) -> None:
        totals = self.backend_metadata_totals
        for result in backend_results:
            metadata = getattr(result, "metadata", None)
            if not metadata:
                continue
            totals["requests"] = totals.get("requests", 0) + 1
            for key, value in metadata.items():
                if key in ("final_terms", "peak_terms"):
                    key = f"max_{key}"
                    totals[key] = max(totals.get(key, 0), int(value))
                else:
                    totals[key] = totals.get(key, 0) + int(value)

    def _backend_satisfies(self, required: str) -> bool:
        """Can this scheduler's backend produce payloads the estimator may
        consume?  The backend must carry the required name, and — when both
        sides execute under a noise model — the models must agree, otherwise
        batched results would differ from the estimator's own per-request
        physics.  A mismatch falls back to the per-request path on the
        estimator's own backend rather than silently producing wrong
        numbers."""
        if getattr(self.backend, "name", None) != required:
            return False
        backend_noise = getattr(self.backend, "noise_model", None)
        estimator_noise = getattr(self.estimator, "noise_model", None)
        if backend_noise is None or estimator_noise is None:
            return True
        return bool(backend_noise == estimator_noise)

    def _backend_is_exact(self) -> bool:
        """True when the backend's payloads reflect exact (noiseless) physics
        — the only payloads an estimator without a ``requires_backend`` pin
        may consume."""
        noise = getattr(self.backend, "noise_model", None)
        return noise is None or bool(getattr(noise, "is_noiseless", False))

    def _convert(self, requests, backend_results) -> list[EstimatorResult]:
        """Turn backend payloads (or, lacking any, per-request runs on the
        estimator's own backend, one request per backend call) into estimator
        results.  This is the step that touches the estimator's noise model
        and shot counters, so callers invoke it per consumer in consumption
        order — never for work that ends up discarded."""
        estimator = self.estimator
        self.requests_executed += len(requests)
        if backend_results is None:
            # Each request runs alone, as a batch of one on the estimator's
            # own backend: the configured backend is never touched.
            return [estimator.estimate_request(request) for request in requests]
        # One conversion call for the whole consumption-ordered slice:
        # estimators with a vectorized noise layer (sampling plans) evaluate
        # the slice in a few array ops, bit-identical to the per-request path.
        return estimator.estimate_backend_results(
            backend_results, [request.operator for request in requests]
        )

    def _chunks(self, requests: list[ExecutionRequest]) -> list[list[ExecutionRequest]]:
        size = self.max_batch_size
        if size is None or size >= len(requests):
            return [requests]
        return [requests[i : i + size] for i in range(0, len(requests), size)]

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release backend-held execution resources (idempotent).

        Backends without a ``close`` method (every in-process backend) make
        this a no-op; a :class:`~repro.quantum.parallel.ParallelBackend`
        shuts its worker pool down.  The scheduler remains usable — such
        backends respawn lazily on the next dispatch.  Schedulers built over
        a backend they do not own (``owns_backend=False`` — the job
        service's shared pool) never touch it: closing would drop every
        co-tenant's warm worker program caches and in-flight shards.
        """
        if not self.owns_backend:
            return
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- round orchestration ----------------------------------------------------

    def run_round(
        self,
        clusters: Sequence["VQACluster"],
        *,
        on_record: Callable[["VQACluster", "ClusterStepRecord"], bool] | None = None,
    ) -> list[tuple["VQACluster", "ClusterStepRecord"]]:
        """Step every cluster once through batched execution.

        Contract: every cluster in ``clusters`` is stepped exactly once (or
        aborted un-stepped after a stop — never half-stepped), whatever mix
        of optimizers, batch sizes, backends, or worker counts is in play;
        the reported records are bit-identical to stepping the clusters one
        at a time through :meth:`~repro.core.cluster.VQACluster.step` — also
        under noisy estimators, whose RNG draws happen per record in the
        same strict consumption order (given the same estimator instance and
        seed).

        Completed steps are reported to ``on_record`` in strict cluster order
        — the order the sequential controller stepped them — buffering any
        cluster that finishes its optimizer iteration before a lower-indexed
        one (possible when optimizers take different numbers of micro-cycles,
        e.g. two COBYLA clusters whose scipy blocks terminate after different
        probe counts).  Estimator conversion (noise draws, shot counters)
        likewise happens per cluster in that order, just before the tell, so
        the shared estimator never sees work that ends up discarded.

        Returning False from ``on_record`` stops the round: clusters whose
        steps have not been told yet are aborted un-stepped, exactly like the
        sequential path's budget break.  With heterogeneous optimizers a
        buffered higher-indexed cluster may already have completed its
        iteration when the stop lands; that work happened — its optimizer
        advanced and its shots were consumed — so the buffered record is
        still reported (``on_record``'s return value is ignored for these
        post-stop charges) rather than silently dropping charged work.
        Returns the reported ``(cluster, record)`` pairs.
        """
        active = list(clusters)
        pending: dict[int, list[ExecutionRequest]] = {
            index: cluster.ask() for index, cluster in enumerate(active)
        }
        records: dict[int, ClusterStepRecord] = {}
        reported: list[tuple[VQACluster, ClusterStepRecord]] = []
        next_to_report = 0
        stopped = False

        def flush() -> None:
            # Report the completed prefix in cluster order.
            nonlocal next_to_report, stopped
            while not stopped and next_to_report in records:
                cluster, record = active[next_to_report], records[next_to_report]
                reported.append((cluster, record))
                next_to_report += 1
                if on_record is not None and not on_record(cluster, record):
                    stopped = True

        while pending and not stopped:
            ordered = sorted(pending)
            flat: list[ExecutionRequest] = []
            spans: dict[int, tuple[int, int]] = {}
            for index in ordered:
                spans[index] = (len(flat), len(flat) + len(pending[index]))
                flat.extend(pending[index])
            backend_results = self._dispatch(flat)
            next_pending: dict[int, list[ExecutionRequest]] = {}
            for index in ordered:
                if stopped:
                    active[index].abort_step()
                    continue
                low, high = spans[index]
                results = self._convert(
                    flat[low:high],
                    None if backend_results is None else backend_results[low:high],
                )
                record = active[index].tell(results)
                if record is None:
                    next_pending[index] = active[index].ask()
                else:
                    records[index] = record
                    flush()
            if stopped:
                for index in next_pending:
                    active[index].abort_step()
                break
            pending = next_pending
        # A stop can land while a higher-indexed cluster's completed step is
        # still buffered for in-order reporting.  Its optimizer has already
        # committed the iteration, so report (and thereby charge) it instead
        # of leaving consumed shots and advanced parameters unaccounted.
        for index in sorted(records):
            if index < next_to_report:
                continue
            cluster, record = active[index], records[index]
            reported.append((cluster, record))
            if on_record is not None:
                on_record(cluster, record)
        return reported
