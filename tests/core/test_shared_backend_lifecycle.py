"""Shared-backend ownership and per-run delta attribution.

These are the lifecycle contracts the job service builds on:

* a controller closes only execution resources it created itself —
  ``run()`` on a caller-supplied backend must never tear a shared worker
  pool down under concurrent tenants;
* per-run cache-stat deltas over the shared counters are clamped at ≥ 0
  and labelled ``"shared": True`` whenever another live controller
  overlapped the run;
* worker-pool counters in result metadata, per slot included, are this
  run's, not the shared pool's lifetime totals, and a transport fault is
  reported by the run that saw it;
* ``step_round()`` / ``finalize()`` — the resumable primitives the service
  drives — reproduce ``run()`` bit-identically.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import TreeVQAConfig, TreeVQAController
from repro.core.controller import live_controller_count
from repro.core.scheduler import RoundScheduler
from repro.quantum import Fault, FaultInjectingTransport, LocalProcessTransport
from repro.quantum.backend import StatevectorBackend, make_execution_backend
from repro.quantum.parallel import ParallelBackend


def make_config(seed=3, **overrides) -> TreeVQAConfig:
    base = dict(
        max_rounds=3,
        warmup_iterations=2,
        window_size=3,
        epsilon_split=1e-3,
        optimizer_kwargs={"learning_rate": 0.3, "perturbation": 0.15},
        seed=seed,
    )
    base.update(overrides)
    return TreeVQAConfig(**base)


def fingerprint(result) -> dict:
    return {
        outcome.task.name: (
            outcome.energy,
            outcome.source,
            tuple(result.trajectories[outcome.task.name].energies),
            tuple(result.trajectories[outcome.task.name].cumulative_shots),
        )
        for outcome in result.outcomes
    }


class TestBackendOwnership:
    def test_default_controller_owns_its_backend(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        try:
            assert controller.owns_backend
            assert controller.scheduler.owns_backend
        finally:
            controller.close()

    def test_supplied_backend_is_not_owned_and_survives_run(
        self, tfim_tasks, small_ansatz
    ):
        shared = ParallelBackend(StatevectorBackend, workers=2)
        try:
            first = TreeVQAController(
                tfim_tasks, small_ansatz, make_config(3), backend=shared
            )
            assert not first.owns_backend
            assert not first.scheduler.owns_backend
            first.run()
            # run() closed the controller — but not the shared pool.
            assert shared._pool is not None
            # A second tenant reuses the same warm pool.
            second = TreeVQAController(
                tfim_tasks, small_ansatz, make_config(4), backend=shared
            )
            second.run()
            assert shared._pool is not None
            assert shared.worker_cache_stats()["program_reuses"] > 0
        finally:
            shared.close()
        assert shared._pool is None

    def test_unowned_scheduler_close_leaves_backend_open(self):
        backend = ParallelBackend(StatevectorBackend, workers=2)
        estimator = TreeVQAConfig().make_estimator()
        try:
            backend._ensure_pool()
            RoundScheduler(backend, estimator, owns_backend=False).close()
            assert backend._pool is not None
            RoundScheduler(backend, estimator, owns_backend=True).close()
            assert backend._pool is None
        finally:
            backend.close()

    def test_live_controller_registry_tracks_construction_and_close(
        self, tfim_tasks, small_ansatz
    ):
        baseline = live_controller_count()
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        assert live_controller_count() == baseline + 1
        with TreeVQAController(tfim_tasks, small_ansatz, make_config(4)) as second:
            assert live_controller_count() == baseline + 2
            assert second._observed_shared
        assert live_controller_count() == baseline + 1
        controller.close()
        controller.close()  # idempotent
        assert live_controller_count() == baseline


class TestCacheDeltaAttribution:
    def test_negative_counter_deltas_are_clamped(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        try:
            stats = dict(controller._program_cache_baseline)
            baseline = dict(stats)
            # A concurrent cache clear / co-tenant eviction can drive the
            # shared cumulative counters *below* this run's baseline.
            stats["hits"] = baseline["hits"] - 5
            stats["misses"] = baseline["misses"] + 3
            delta = controller._cache_delta(stats, baseline)
            assert delta["hits"] == 0
            assert delta["misses"] == 3
        finally:
            controller.close()

    def test_solo_run_metadata_is_not_labelled_shared(self, tfim_tasks, small_ansatz):
        assert live_controller_count() == 0, "leaked controller from another test"
        result = TreeVQAController(tfim_tasks, small_ansatz, make_config()).run()
        assert "shared" not in result.metadata["program_cache"]

    def test_overlapping_controllers_label_deltas_shared(
        self, tfim_tasks, small_ansatz
    ):
        with TreeVQAController(tfim_tasks, small_ansatz, make_config(4)):
            result = TreeVQAController(tfim_tasks, small_ansatz, make_config(3)).run()
        assert result.metadata["program_cache"]["shared"] is True

    def test_shared_flag_is_sticky_across_the_run(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        overlap = TreeVQAController(tfim_tasks, small_ansatz, make_config(4))
        overlap.close()  # overlap ends before the first round even runs
        while controller.step_round() is not None:
            pass
        result = controller.finalize()
        controller.close()
        assert result.metadata["program_cache"]["shared"] is True

    def test_shared_pool_worker_counters_are_per_run(self, tfim_tasks, small_ansatz):
        # Two identical runs, one after the other, on one shared pool: each
        # reports its own dispatches, and only the first ships the program
        # (the second finds it warm in the worker).
        shared = ParallelBackend(StatevectorBackend, workers=1)
        try:
            first, second = (
                TreeVQAController(
                    tfim_tasks, small_ansatz, make_config(3), backend=shared
                ).run().metadata["program_cache"]["workers"]
                for _ in range(2)
            )
            lifetime = shared.worker_cache_stats()
        finally:
            shared.close()
        assert first["shards_dispatched"] == second["shards_dispatched"] > 0
        assert first["programs_shipped"] >= 1
        assert second["programs_shipped"] == 0
        assert second["program_reuses"] > 0
        for key in ("shards_dispatched", "programs_shipped", "program_reuses"):
            assert first[key] + second[key] == lifetime[key]
        assert first["workers"] == second["workers"] == 1

    def test_shared_pool_per_worker_entries_are_per_run(self, tfim_tasks, small_ansatz):
        # The per-slot breakdown is this run's too: with one worker every
        # shard lands on slot 0, so its dispatches equal the run's shards.
        shared = ParallelBackend(StatevectorBackend, workers=1)
        try:
            first, second = (
                TreeVQAController(
                    tfim_tasks, small_ansatz, make_config(3), backend=shared
                ).run().metadata["program_cache"]["workers"]
                for _ in range(2)
            )
            lifetime = shared.worker_cache_stats()["per_worker"]
        finally:
            shared.close()
        for run in (first, second):
            (slot,) = run["per_worker"]
            assert slot["worker"] == 0
            assert slot["dispatches"] == run["shards_dispatched"] > 0
            assert slot["latency_s"] > 0
            assert slot["respawns"] == 0
        (first_slot,), (second_slot,), (total,) = (
            first["per_worker"], second["per_worker"], lifetime
        )
        assert first_slot["dispatches"] + second_slot["dispatches"] == total["dispatches"]
        assert first_slot["latency_s"] + second_slot["latency_s"] == pytest.approx(
            total["latency_s"]
        )

    def test_transport_faults_are_reported_by_the_run_that_saw_them(
        self, tfim_tasks, small_ansatz
    ):
        # Slot 0's first send crashes: the first run respawns the worker and
        # reports it; the second run on the healed pool reports no faults.
        transport = FaultInjectingTransport(
            LocalProcessTransport(),
            [Fault(worker=0, op="send", kind="crash_before_send")],
        )
        shared = ParallelBackend(
            StatevectorBackend, workers=1, transport=transport, retry_backoff_s=0.0
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                first = TreeVQAController(
                    tfim_tasks, small_ansatz, make_config(3), backend=shared
                ).run()
            second = TreeVQAController(
                tfim_tasks, small_ansatz, make_config(3), backend=shared
            ).run()
        finally:
            shared.close()
        assert transport.injected
        assert first.metadata["transport"]["worker_respawns"] == 1
        assert first.metadata["transport"]["shard_retries"] >= 1
        assert first.metadata["program_cache"]["workers"]["per_worker"][0]["respawns"] == 1
        assert "transport" not in second.metadata
        assert second.metadata["program_cache"]["workers"]["per_worker"][0]["respawns"] == 0
        assert fingerprint(first) == fingerprint(second)


class TestResumablePrimitives:
    def test_step_round_loop_matches_run_bit_identically(
        self, tfim_tasks, small_ansatz
    ):
        reference = TreeVQAController(tfim_tasks, small_ansatz, make_config()).run()
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        snapshots = []
        while (snapshot := controller.step_round()) is not None:
            snapshots.append(snapshot)
        stepped = controller.finalize()
        controller.close()
        assert fingerprint(stepped) == fingerprint(reference)
        assert [s.round_index for s in snapshots] == list(
            range(1, reference.total_rounds + 1)
        )
        assert snapshots[-1].total_shots == reference.ledger.total
        assert sum(s.shots_this_round for s in snapshots) == reference.ledger.total

    def test_snapshot_payload_mirrors_records(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        try:
            snapshot = controller.step_round()
            assert snapshot.round_index == 1 == controller.rounds_completed
            assert snapshot.num_active_clusters == len(controller.active_clusters)
            assert set(snapshot.individual_losses) == {
                task.name for task in tfim_tasks
            }
            assert set(snapshot.mixed_losses) == {
                record.cluster_id for record in snapshot.records
            }
        finally:
            controller.close()

    def test_step_round_returns_none_after_round_limit(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(
            tfim_tasks, small_ansatz, make_config(max_rounds=1)
        )
        try:
            assert controller.step_round() is not None
            assert controller.step_round() is None
            assert controller.step_round() is None
        finally:
            controller.close()

    def test_finalize_twice_and_step_after_finalize_raise(
        self, tfim_tasks, small_ansatz
    ):
        controller = TreeVQAController(
            tfim_tasks, small_ansatz, make_config(max_rounds=1)
        )
        try:
            controller.step_round()
            controller.finalize()
            with pytest.raises(RuntimeError, match="finalized"):
                controller.finalize()
            with pytest.raises(RuntimeError, match="finalized"):
                controller.step_round()
        finally:
            controller.close()

    def test_run_after_stepping_raises(self, tfim_tasks, small_ansatz):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        try:
            controller.step_round()
            with pytest.raises(RuntimeError, match="once"):
                controller.run()
        finally:
            controller.close()

    def test_early_finalize_post_processes_a_partial_run(
        self, tfim_tasks, small_ansatz
    ):
        controller = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        try:
            controller.step_round()
            result = controller.finalize()
            assert result.total_rounds == 1
            assert len(result.outcomes) == len(tfim_tasks)
        finally:
            controller.close()

    def test_budget_exhaustion_stops_stepping(self, tfim_tasks, small_ansatz):
        probe = TreeVQAController(tfim_tasks, small_ansatz, make_config())
        first = probe.step_round()
        probe.finalize()
        probe.close()
        controller = TreeVQAController(
            tfim_tasks,
            small_ansatz,
            make_config(max_rounds=50, max_total_shots=first.total_shots),
        )
        try:
            assert controller.step_round() is not None
            assert controller.step_round() is None
        finally:
            controller.close()

    def test_width_routed_backend_can_be_shared(self, tfim_tasks, small_ansatz):
        """Explicit backend ownership also holds for registry backends
        constructed outside the controller (the service's in-process mode)."""
        shared = make_execution_backend("statevector")
        reference = TreeVQAController(tfim_tasks, small_ansatz, make_config()).run()
        results = [
            TreeVQAController(
                tfim_tasks, small_ansatz, make_config(), backend=shared
            ).run()
            for _ in range(2)
        ]
        for result in results:
            assert fingerprint(result) == fingerprint(reference)
