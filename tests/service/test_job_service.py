"""End-to-end tests of the asyncio job service (:mod:`repro.service`).

The load-bearing invariant: N concurrent jobs multiplexed onto **one**
shared backend produce trajectories bit-identical to running each job
alone — whatever the interleaving, the estimator, or the pool size.  All
async tests run through plain ``asyncio.run()`` inside sync test functions
(no pytest-asyncio dependency); the ``timeout`` marker is enforced in CI
where pytest-timeout is installed.
"""

from __future__ import annotations

import asyncio
import time
import warnings

import pytest

from repro.ansatz import HardwareEfficientAnsatz
from repro.core import TreeVQAConfig, TreeVQAController, VQATask
from repro.core.controller import live_controller_count
from repro.hamiltonians import transverse_field_ising_chain
from repro.service import (
    FairShareDispatcher,
    Job,
    JobCancelledError,
    JobState,
    RoundStream,
    RoundUpdate,
    ServiceClosedError,
    ServiceError,
    TreeVQAService,
)

pytestmark = pytest.mark.timeout(600)


def make_tasks(fields=(0.8, 1.0, 1.2)) -> list[VQATask]:
    return [
        VQATask(
            name=f"tfim@{field:.2f}",
            hamiltonian=transverse_field_ising_chain(4, field),
            scan_parameter=field,
        )
        for field in fields
    ]


def make_ansatz() -> HardwareEfficientAnsatz:
    return HardwareEfficientAnsatz(4, num_layers=1)


def make_config(seed=3, *, estimator="exact", max_rounds=4, **overrides) -> TreeVQAConfig:
    base = dict(
        max_rounds=max_rounds,
        warmup_iterations=2,
        window_size=3,
        epsilon_split=1e-3,
        optimizer_kwargs={"learning_rate": 0.3, "perturbation": 0.15},
        seed=seed,
        estimator=estimator,
    )
    if estimator == "sampling":
        base["shots_per_pauli_term"] = 64
    base.update(overrides)
    return TreeVQAConfig(**base)


def fingerprint(result) -> dict:
    """Exact per-task trajectory + outcome fingerprint (bit-identity checks)."""
    return {
        outcome.task.name: (
            outcome.energy,
            outcome.source,
            tuple(result.trajectories[outcome.task.name].energies),
            tuple(result.trajectories[outcome.task.name].cumulative_shots),
        )
        for outcome in result.outcomes
    }


def solo_fingerprint(seed, **config_kwargs) -> dict:
    controller = TreeVQAController(
        make_tasks(), make_ansatz(), make_config(seed, **config_kwargs)
    )
    return fingerprint(controller.run())


class TestSingleJob:
    def test_job_matches_controller_run_and_streams_every_round(self):
        reference = solo_fingerprint(3)

        async def scenario():
            async with TreeVQAService() as service:
                job = await service.submit(make_tasks(), make_ansatz(), make_config(3))
                updates = [update async for update in job.updates]
                result = await job.result()
                return job, updates, result

        job, updates, result = asyncio.run(scenario())
        assert fingerprint(result) == reference
        assert job.state is JobState.DONE
        assert job.done
        # One update per executed round, in strict round order.
        assert [update.round_index for update in updates] == list(
            range(1, result.total_rounds + 1)
        )
        assert all(isinstance(update, RoundUpdate) for update in updates)
        assert all(update.job_id == job.job_id for update in updates)
        # Shot accounting is consistent between the stream and the result.
        assert updates[-1].total_shots == result.ledger.total == job.shots_used
        assert sum(update.shots_this_round for update in updates) == result.ledger.total
        assert job.rounds_completed == result.total_rounds
        # Round payloads carry the per-cluster and per-task losses.
        assert updates[0].mixed_losses
        assert set(updates[0].individual_losses) == {task.name for task in make_tasks()}

    def test_result_await_before_completion_and_repeated_awaits(self):
        async def scenario():
            async with TreeVQAService() as service:
                job = await service.submit(make_tasks(), make_ansatz(), make_config(3))
                first = await job.result()  # await while the job still runs
                second = await job.result()  # result is replayable
                return first, second

        first, second = asyncio.run(scenario())
        assert first is second

    def test_service_ledger_aggregates_every_job(self):
        async def scenario():
            async with TreeVQAService() as service:
                jobs = [
                    await service.submit(
                        make_tasks(), make_ansatz(), make_config(seed), job_id=f"j{seed}"
                    )
                    for seed in (3, 4)
                ]
                await asyncio.gather(*(job.result() for job in jobs))
                return service.ledger, service.stats(), jobs

        ledger, stats, jobs = asyncio.run(scenario())
        assert ledger.total == sum(job.shots_used for job in jobs)
        assert set(ledger.sources()) == {"j3", "j4"}
        for job in jobs:
            assert ledger.total_for(job.job_id) == job.shots_used
        assert stats["jobs"] == {"done": 2}
        assert stats["total_shots"] == ledger.total
        assert stats["queued"] == 0 and stats["running"] == 0


class TestConcurrencyParity:
    def test_concurrent_jobs_bit_identical_to_solo_runs_in_process(self):
        references = {seed: solo_fingerprint(seed) for seed in (3, 4, 5)}

        async def scenario():
            async with TreeVQAService() as service:
                jobs = {
                    seed: await service.submit(
                        make_tasks(), make_ansatz(), make_config(seed)
                    )
                    for seed in references
                }
                results = await asyncio.gather(
                    *(job.result() for job in jobs.values())
                )
                return dict(zip(jobs, results))

        for seed, result in asyncio.run(scenario()).items():
            assert fingerprint(result) == references[seed], f"seed {seed} diverged"

    @pytest.mark.timeout(600)
    def test_four_concurrent_jobs_on_shared_pool_bit_identical(self):
        """The acceptance scenario: four jobs — one using the sampling
        estimator (its own RNG streams) — multiplex onto one shared
        two-worker pool and every trajectory is bit-identical to solo."""
        specs = {
            "j-exact-3": dict(seed=3),
            "j-exact-4": dict(seed=4),
            "j-exact-5": dict(seed=5),
            "j-sampling-7": dict(seed=7, estimator="sampling"),
        }
        references = {
            name: solo_fingerprint(**kwargs) for name, kwargs in specs.items()
        }

        async def scenario():
            async with TreeVQAService(workers=2) as service:
                jobs = {
                    name: await service.submit(
                        make_tasks(), make_ansatz(), make_config(**kwargs), job_id=name
                    )
                    for name, kwargs in specs.items()
                }
                results = await asyncio.gather(
                    *(job.result() for job in jobs.values())
                )
                return dict(zip(jobs, results)), service.stats()

        results, stats = asyncio.run(scenario())
        for name, result in results.items():
            assert fingerprint(result) == references[name], f"{name} diverged"
        # All four jobs really multiplexed onto one pool, and the pool's
        # per-worker program caches amortized shipping across jobs.
        pool = stats["backend_pool"]
        assert pool["workers"] == 2
        assert pool["program_reuses"] > 0

    def test_rounds_interleave_fair_share(self):
        """With two running jobs, the dispatcher alternates their rounds:
        the service ledger's charge sequence never serves the same job
        twice in a row while both jobs are still active."""

        async def scenario():
            async with TreeVQAService() as service:
                job_a = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3), job_id="a"
                )
                job_b = await service.submit(
                    make_tasks(), make_ansatz(), make_config(4), job_id="b"
                )
                await asyncio.gather(job_a.result(), job_b.result())
                return [record.source for record in service.ledger.records]

        sources = asyncio.run(scenario())
        assert set(sources) == {"a", "b"}
        # Job "a" may run rounds alone before "b" is submitted (the loop
        # starts dispatching immediately); once both are in the rotation the
        # round-robin alternates strictly until one of them finishes.
        first_b = sources.index("b")
        last_active = min(
            max(i for i, s in enumerate(sources) if s == source) for source in ("a", "b")
        )
        overlap = sources[first_b : last_active + 1]
        assert all(x != y for x, y in zip(overlap, overlap[1:])), sources


class TestCancellation:
    def test_cancel_while_queued_never_runs(self):
        async def scenario():
            async with TreeVQAService(max_running_jobs=1) as service:
                running = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3)
                )
                queued = await service.submit(
                    make_tasks(), make_ansatz(), make_config(4)
                )
                queued.cancel()
                await running.result()
                with pytest.raises(JobCancelledError):
                    await queued.result()
                leftovers = [update async for update in queued.updates]
                return queued, leftovers

        queued, leftovers = asyncio.run(scenario())
        assert queued.state is JobState.CANCELLED
        assert queued.rounds_completed == 0
        assert leftovers == []

    def test_cancel_mid_run_stops_at_round_boundary(self):
        async def scenario():
            async with TreeVQAService() as service:
                victim = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3, max_rounds=50)
                )
                bystander = await service.submit(
                    make_tasks(), make_ansatz(), make_config(4)
                )
                seen = []
                async for update in victim.updates:
                    seen.append(update)
                    victim.cancel()
                    victim.cancel()  # idempotent
                bystander_result = await bystander.result()
                with pytest.raises(JobCancelledError):
                    await victim.result()
                return victim, seen, bystander_result

        victim, seen, bystander_result = asyncio.run(scenario())
        assert victim.state is JobState.CANCELLED
        # The in-flight round completed and streamed; nothing ran after it.
        assert 1 <= victim.rounds_completed < 50
        assert len(seen) == victim.rounds_completed
        # The co-tenant was untouched by the cancellation.
        assert fingerprint(bystander_result) == solo_fingerprint(4)

    def test_cancel_after_done_is_a_noop(self):
        async def scenario():
            async with TreeVQAService() as service:
                job = await service.submit(make_tasks(), make_ansatz(), make_config(3))
                result = await job.result()
                job.cancel()
                return job, result, await job.result()

        job, result, replay = asyncio.run(scenario())
        assert job.state is JobState.DONE
        assert replay is result


class TestSharedResourceLifecycle:
    def test_finished_job_leaves_backend_usable_for_later_submissions(self):
        async def scenario():
            async with TreeVQAService() as service:
                first = await service.submit(make_tasks(), make_ansatz(), make_config(3))
                await first.result()
                backend = service.backend
                second = await service.submit(make_tasks(), make_ansatz(), make_config(4))
                await second.result()
                assert service.backend is backend
                return fingerprint(await second.result())

        assert asyncio.run(scenario()) == solo_fingerprint(4)

    def test_aclose_closes_pool_exactly_once_and_controllers_unregister(self):
        baseline = live_controller_count()

        async def scenario():
            service = TreeVQAService(workers=2)
            job = await service.submit(make_tasks(), make_ansatz(), make_config(3))
            await job.result()
            backend = service.backend
            # The finishing job must not have torn the shared pool down.
            assert backend._pool is not None
            await service.aclose()
            await service.aclose()  # idempotent
            assert backend._pool is None
            with pytest.raises(ServiceClosedError):
                await service.submit(make_tasks(), make_ansatz(), make_config(4))

        asyncio.run(scenario())
        assert live_controller_count() == baseline

    def test_aclose_drains_queued_jobs(self):
        async def scenario():
            service = TreeVQAService(max_running_jobs=1)
            jobs = [
                await service.submit(
                    make_tasks(), make_ansatz(), make_config(seed)
                )
                for seed in (3, 4)
            ]
            await service.aclose()
            return jobs

        jobs = asyncio.run(scenario())
        assert all(job.state is JobState.DONE for job in jobs)


class TestWorkerDeathDuringService:
    def test_pool_worker_death_respawns_and_stays_bit_identical(self):
        reference = solo_fingerprint(4)

        async def scenario():
            async with TreeVQAService(workers=2) as service:
                warmup = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3, max_rounds=1)
                )
                await warmup.result()
                # Kill one pool worker between dispatches; the next round's
                # batch detects the death, warns, respawns the slot, and
                # stays fully parallel — no in-process fallback.
                victim = service.backend._pool[0].endpoint._process
                victim.kill()
                deadline = time.monotonic() + 5.0
                while victim.is_alive() and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                with pytest.warns(RuntimeWarning, match="respawning"):
                    job = await service.submit(
                        make_tasks(), make_ansatz(), make_config(4)
                    )
                    result = await job.result()
                return (
                    fingerprint(result),
                    result.metadata.get("transport"),
                    service.backend.fallback_batches,
                    service.stats()["backend_pool"],
                )

        job_fingerprint, transport_meta, fallback_batches, pool_stats = asyncio.run(
            scenario()
        )
        assert job_fingerprint == reference
        assert fallback_batches == 0
        # The respawn is recorded in both the job's result metadata and the
        # service-level pool stats.
        assert transport_meta is not None and transport_meta["worker_respawns"] >= 1
        assert pool_stats["worker_respawns"] >= 1

    def test_worker_killed_mid_round_with_two_streaming_jobs(self):
        reference_a = solo_fingerprint(4)
        reference_b = solo_fingerprint(5)

        async def scenario():
            async with TreeVQAService(workers=2, worker_timeout_s=60.0) as service:
                # The reroute/respawn warnings fire on the service's executor
                # thread at an arbitrary point of either job's rounds; record
                # rather than assert-match them (the counters below are the
                # deterministic signal).
                with warnings.catch_warnings():
                    warnings.simplefilter("always")
                    job_a = await service.submit(
                        make_tasks(), make_ansatz(), make_config(4)
                    )
                    job_b = await service.submit(
                        make_tasks(), make_ansatz(), make_config(5)
                    )
                    # Let the jobs start streaming, then kill a pool worker
                    # mid-run while both are in flight.
                    async for _ in job_a.updates:
                        break
                    assert not job_a.done and not job_b.done
                    victim = service.backend._pool[1].endpoint._process
                    victim.kill()
                    result_a = await job_a.result()
                    result_b = await job_b.result()
                return (
                    fingerprint(result_a),
                    fingerprint(result_b),
                    result_a.metadata.get("transport"),
                    result_b.metadata.get("transport"),
                    service.stats()["backend_pool"],
                )

        fp_a, fp_b, meta_a, meta_b, pool_stats = asyncio.run(scenario())
        # Both jobs finish and match their solo runs bit-for-bit despite the
        # mid-run worker kill.
        assert fp_a == reference_a
        assert fp_b == reference_b
        # The pool healed (respawn recorded service-wide), and every job
        # constructed before the kill carries it in its transport metadata.
        assert pool_stats["worker_respawns"] >= 1
        assert meta_a is not None and meta_a["worker_respawns"] >= 1
        assert meta_b is not None and meta_b["worker_respawns"] >= 1


class TestSubmissionValidation:
    def _submit_error(self, config) -> str:
        async def scenario():
            async with TreeVQAService() as service:
                with pytest.raises(ServiceError) as excinfo:
                    await service.submit(make_tasks(), make_ansatz(), config)
                return str(excinfo.value)

        return asyncio.run(scenario())

    def test_rejects_execution_workers(self):
        message = self._submit_error(make_config(3, execution_workers=2))
        assert "execution_workers" in message and "TreeVQAService(workers=" in message

    def test_rejects_worker_timeout(self):
        message = self._submit_error(
            make_config(3, execution_workers=2, worker_timeout_s=5.0)
        )
        assert "worker_timeout_s" in message and "shared pool" in message

    def test_rejects_backend_factory(self):
        from repro.quantum.backend import StatevectorBackend

        message = self._submit_error(make_config(3, backend_factory=StatevectorBackend))
        assert "backend_factory" in message

    def test_rejects_backend_name_mismatch(self):
        message = self._submit_error(make_config(3, backend="pauli_propagation"))
        assert "pauli_propagation" in message and "statevector" in message

    def test_rejects_duplicate_job_id(self):
        async def scenario():
            async with TreeVQAService() as service:
                await service.submit(
                    make_tasks(), make_ansatz(), make_config(3), job_id="dup"
                )
                with pytest.raises(ServiceError, match="duplicate"):
                    await service.submit(
                        make_tasks(), make_ansatz(), make_config(4), job_id="dup"
                    )

        asyncio.run(scenario())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TreeVQAService(backend="no-such-backend")
        with pytest.raises(ValueError, match="workers"):
            TreeVQAService(workers=0)
        with pytest.raises(ValueError):
            TreeVQAService(max_running_jobs=0)
        with pytest.raises(ValueError):
            TreeVQAService(max_inflight_shots=0)


class TestBackpressure:
    def test_max_running_jobs_queues_submissions_fifo(self):
        async def scenario():
            async with TreeVQAService(max_running_jobs=1) as service:
                first = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3), job_id="first"
                )
                second = await service.submit(
                    make_tasks(), make_ansatz(), make_config(4), job_id="second"
                )
                # While the first job runs, the second stays queued.
                async for _ in first.updates:
                    break
                queued_state = second.state
                await asyncio.gather(first.result(), second.result())
                sources = [record.source for record in service.ledger.records]
                return queued_state, sources

        queued_state, sources = asyncio.run(scenario())
        assert queued_state is JobState.QUEUED
        # Strictly sequential: every "first" round precedes every "second".
        assert sources == sorted(sources, key=lambda s: s != "first")

    def test_max_inflight_shots_pauses_admission_without_deadlock(self):
        async def scenario():
            # Cap far below one job's own footprint: the first job must
            # still be admitted (idle rotation always admits) and run to
            # completion; the second waits for its capacity release.
            async with TreeVQAService(max_inflight_shots=1) as service:
                first = await service.submit(
                    make_tasks(), make_ansatz(), make_config(3), job_id="first"
                )
                second = await service.submit(
                    make_tasks(), make_ansatz(), make_config(4), job_id="second"
                )
                await asyncio.gather(first.result(), second.result())
                return [record.source for record in service.ledger.records]

        sources = asyncio.run(scenario())
        assert sources == sorted(sources, key=lambda s: s != "first")


class TestDispatcherUnit:
    """Synchronous bookkeeping tests of FairShareDispatcher (stub jobs)."""

    @staticmethod
    def _stub_jobs(count):
        async def build():
            return [Job(f"job-{i}", controller=None) for i in range(count)]

        return asyncio.run(build())

    def test_round_robin_rotation(self):
        dispatcher = FairShareDispatcher()
        jobs = self._stub_jobs(3)
        for job in jobs:
            dispatcher.submit(job)
        assert dispatcher.admit_ready() == jobs
        served = []
        for _ in range(6):
            job = dispatcher.next_round()
            served.append(job.job_id)
            dispatcher.requeue(job)
        assert served == ["job-0", "job-1", "job-2"] * 2

    def test_caps_and_capacity_release(self):
        dispatcher = FairShareDispatcher(max_running_jobs=2)
        jobs = self._stub_jobs(3)
        for job in jobs:
            dispatcher.submit(job)
        assert dispatcher.admit_ready() == jobs[:2]
        assert dispatcher.num_queued == 1
        dispatcher.finish(jobs[0])
        assert dispatcher.admit_ready() == [jobs[2]]
        assert dispatcher.num_queued == 0

    def test_inflight_shot_cap_blocks_but_never_deadlocks(self):
        dispatcher = FairShareDispatcher(max_inflight_shots=100)
        jobs = self._stub_jobs(2)
        for job in jobs:
            dispatcher.submit(job)
        assert dispatcher.admit_ready() == [jobs[0], jobs[1]]  # both under cap
        jobs[0].shots_used = 500  # over cap now
        late = self._stub_jobs(1)[0]
        dispatcher.submit(late)
        assert dispatcher.admit_ready() == []
        dispatcher.finish(jobs[0])
        dispatcher.finish(jobs[1])
        # Rotation idle: the cap must not starve the queue.
        assert dispatcher.admit_ready() == [late]

    def test_cancelled_queued_job_is_skipped(self):
        dispatcher = FairShareDispatcher()
        jobs = self._stub_jobs(2)
        for job in jobs:
            dispatcher.submit(job)
        jobs[0].cancel()
        assert dispatcher.admit_ready() == [jobs[1]]
        assert jobs[0].state is JobState.CANCELLED


class TestRoundStream:
    def test_publish_then_close_delivers_in_order(self):
        async def scenario():
            stream = RoundStream()
            updates = [
                RoundUpdate(
                    job_id="j",
                    round_index=i,
                    mixed_losses={},
                    individual_losses={},
                    shots_this_round=0,
                    total_shots=0,
                    num_active_clusters=1,
                    splits=(),
                )
                for i in (1, 2, 3)
            ]
            for update in updates:
                stream.publish(update)
            stream.close()
            stream.close()  # idempotent
            drained = [update async for update in stream]
            drained_again = [update async for update in stream]
            return updates, drained, drained_again

        updates, drained, drained_again = asyncio.run(scenario())
        assert drained == updates
        assert drained_again == []  # the close sentinel re-arms

    def test_publish_after_close_raises(self):
        async def scenario():
            stream = RoundStream()
            stream.close()
            assert stream.closed
            with pytest.raises(RuntimeError, match="closed"):
                stream.publish(None)

        asyncio.run(scenario())
