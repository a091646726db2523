"""RNG-parity suite for the estimator conversion path and batched sampling.

Every estimator converts backend payloads through one entry point,
``estimate_backend_results``; one call over a batch must equal row-by-row
batches of one and per-request ``estimate_request`` byte for byte, shot
ledger included.  The sampling estimator's bit-identity contract extends
this to every level of the stack (estimator, scheduler, controller) and to
every ``max_batch_size`` and ``execution_workers`` setting: batched
evaluation over backend-prepared states must equal per-request evaluation —
same sampled term vectors, same values, same variances, same
``shots_used``.  The anchor is the per-request child-generator derivation
(keyed by strict consumption order), so these tests compare exactly — never
``allclose``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.ansatz import HardwareEfficientAnsatz
from repro.core import RoundScheduler, TreeVQAConfig, TreeVQAController, VQACluster, VQATask
from repro.hamiltonians import transverse_field_ising_chain
from repro.quantum import (
    ParallelBackend,
    StatevectorBackend,
    WidthRoutedBackend,
)
from repro.quantum.density_matrix import DensityMatrixBackend
from repro.quantum.noise import get_backend_profile
from repro.quantum.pauli_propagation import PauliPropagationBackend
from repro.quantum.sampling import (
    DensityMatrixEstimator,
    ExactEstimator,
    SamplingEstimator,
    ShotNoiseEstimator,
)


@pytest.fixture(autouse=True)
def _explicit_worker_counts(monkeypatch):
    """Neutralise any ambient ``REPRO_EXECUTION_WORKERS`` so the sequential
    reference runs really are sequential."""
    monkeypatch.delenv("REPRO_EXECUTION_WORKERS", raising=False)


SHOTS = 64
NOISY = get_backend_profile("hanoi").to_noise_model()


class PerRequestSampling(SamplingEstimator):
    """Same physics and RNG derivation, but advertises no batched
    capability — the scheduler drives it through per-request estimate()."""

    consumes_states = False


def _tasks(count=4, num_qubits=3):
    fields = np.linspace(0.7, 1.3, count)
    return [
        VQATask(
            name=f"tfim@{field:.3f}",
            hamiltonian=transverse_field_ising_chain(num_qubits, float(field)),
            scan_parameter=float(field),
        )
        for field in fields
    ]


def _clusters(tasks, estimator, *, seed=0):
    clusters = []
    for index, task in enumerate(tasks):
        config = TreeVQAConfig(
            max_rounds=4,
            warmup_iterations=0,
            window_size=2,
            shots_per_pauli_term=SHOTS,
            optimizer="spsa" if index % 2 == 0 else "cobyla",
            disable_automatic_splits=True,
            seed=seed,
        )
        ansatz = HardwareEfficientAnsatz(task.num_qubits, num_layers=1 + index % 2)
        clusters.append(
            VQACluster(
                cluster_id=f"C{index}",
                tasks=[task],
                ansatz=ansatz,
                optimizer=config.make_optimizer(),
                estimator=estimator,
                config=config,
                initial_parameters=ansatz.zero_parameters(),
            )
        )
    return clusters


def _run_rounds(scheduler, clusters, rounds=3):
    records = []
    for _ in range(rounds):
        records.extend(record for _, record in scheduler.run_round(clusters))
    return records


def _assert_records_identical(left, right):
    assert len(left) == len(right)
    for ours, reference in zip(left, right):
        assert ours.cluster_id == reference.cluster_id
        assert ours.mixed_loss == reference.mixed_loss
        assert ours.individual_losses == reference.individual_losses
        assert ours.shots == reference.shots
        np.testing.assert_array_equal(ours.parameters, reference.parameters)


def _requests(make_request, num_qubits=3, batch=6, seed=2):
    ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=2)
    rng = np.random.default_rng(seed)
    operators = [
        transverse_field_ising_chain(num_qubits, h) for h in (0.8, 1.0, 1.2)
    ]
    return [
        make_request(
            ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters)),
            operators[index % len(operators)],
        )
        for index in range(batch)
    ]


def _assert_estimates_identical(left, right):
    assert len(left) == len(right)
    for ours, reference in zip(left, right):
        assert ours.value == reference.value
        assert ours.variance == reference.variance
        assert ours.shots_used == reference.shots_used
        assert ours.term_basis == reference.term_basis
        assert ours.term_vector.tobytes() == reference.term_vector.tobytes()


# -- estimator (backend payload) level -------------------------------------------


#: name -> (same-seeded estimator factory, payload backend, need_states).
_ESTIMATOR_LEGS = {
    "exact": (lambda: ExactEstimator(shots_per_term=SHOTS, seed=7), StatevectorBackend, False),
    "shot_noise": (
        lambda: ShotNoiseEstimator(shots_per_term=SHOTS, seed=7),
        StatevectorBackend,
        False,
    ),
    "sampling": (
        lambda: SamplingEstimator(shots_per_term=SHOTS, seed=7),
        StatevectorBackend,
        True,
    ),
    "density_matrix": (
        lambda: DensityMatrixEstimator(NOISY, shots_per_term=SHOTS, seed=7),
        lambda: DensityMatrixBackend(NOISY),
        False,
    ),
    "density_matrix_shot_noise": (
        lambda: DensityMatrixEstimator(
            NOISY, shots_per_term=SHOTS, seed=7, add_shot_noise=True
        ),
        lambda: DensityMatrixBackend(NOISY),
        False,
    ),
}


class TestBackendLevelParity:
    @pytest.mark.parametrize("leg", sorted(_ESTIMATOR_LEGS))
    def test_batched_equals_per_request_equals_direct(self, bound_request, leg):
        make_estimator, make_backend, need_states = _ESTIMATOR_LEGS[leg]
        requests = _requests(bound_request)
        backend_results = make_backend().run_batch(requests, need_states=need_states)
        operators = [request.operator for request in requests]

        batched = make_estimator()
        from_batch = batched.estimate_backend_results(backend_results, operators)

        looped = make_estimator()
        from_loop = [
            looped.estimate_backend_results([result], [operator])[0]
            for result, operator in zip(backend_results, operators)
        ]
        direct = make_estimator()
        from_direct = [direct.estimate_request(request) for request in requests]
        _assert_estimates_identical(from_batch, from_loop)
        _assert_estimates_identical(from_batch, from_direct)
        assert batched.total_shots == looped.total_shots == direct.total_shots
        assert (
            batched.total_evaluations
            == looped.total_evaluations
            == direct.total_evaluations
            == len(requests)
        )

    def test_chunked_batches_share_the_ordinal_stream(self, bound_request):
        # Splitting one batch into consecutive sub-batches must not change
        # any request's draws: ordinals follow consumption order, not batch
        # position.
        requests = _requests(bound_request, batch=5)
        backend_results = StatevectorBackend().run_batch(requests, need_states=True)
        operators = [request.operator for request in requests]

        whole = SamplingEstimator(shots_per_term=SHOTS, seed=1)
        reference = whole.estimate_backend_results(backend_results, operators)

        chunked = SamplingEstimator(shots_per_term=SHOTS, seed=1)
        halves = chunked.estimate_backend_results(
            backend_results[:2], operators[:2]
        ) + chunked.estimate_backend_results(backend_results[2:], operators[2:])
        _assert_estimates_identical(halves, reference)

    def test_missing_state_raises_actionably(self, bound_request):
        requests = _requests(bound_request, batch=1)
        results = StatevectorBackend().run_batch(requests)  # no states attached
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        with pytest.raises(ValueError, match="need_states"):
            estimator.estimate_backend_results(results, [requests[0].operator])


# -- scheduler level --------------------------------------------------------------


class TestSchedulerLevelParity:
    def _reference(self, tasks):
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        return _run_rounds(
            RoundScheduler(StatevectorBackend(), estimator),
            _clusters(tasks, estimator),
        )

    def test_max_batch_size_one_bit_identical(self):
        tasks = _tasks()
        reference = self._reference(tasks)
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        scheduler = RoundScheduler(StatevectorBackend(), estimator, max_batch_size=1)
        records = _run_rounds(scheduler, _clusters(tasks, estimator))
        _assert_records_identical(records, reference)
        assert scheduler.batches_executed > 0

    def test_per_request_fallback_path_bit_identical(self):
        # The scheduler's estimate() fallback (estimators advertising no
        # batched capability) must see the same ordinals, hence the same
        # draws, as the batched path.
        tasks = _tasks()
        reference = self._reference(tasks)
        estimator = PerRequestSampling(shots_per_term=SHOTS, seed=0)
        scheduler = RoundScheduler(StatevectorBackend(), estimator)
        records = _run_rounds(scheduler, _clusters(tasks, estimator))
        _assert_records_identical(records, reference)
        assert scheduler.batches_executed == 0  # the backend never ran

    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_counts_bit_identical(self, workers):
        tasks = _tasks()
        reference = self._reference(tasks)
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        with RoundScheduler(
            ParallelBackend(StatevectorBackend, workers=workers), estimator
        ) as scheduler:
            records = _run_rounds(scheduler, _clusters(tasks, estimator))
        _assert_records_identical(records, reference)
        assert scheduler.backend.states_shipped > 0

    def test_width_router_batches_sampling_on_the_dense_tier(self):
        tasks = _tasks()
        reference = self._reference(tasks)
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        scheduler = RoundScheduler(WidthRoutedBackend(), estimator)
        records = _run_rounds(scheduler, _clusters(tasks, estimator))
        _assert_records_identical(records, reference)
        assert scheduler.batches_executed > 0
        assert scheduler.backend.routed["statevector"] > 0
        assert scheduler.backend.routed["pauli_propagation"] == 0


# -- controller level --------------------------------------------------------------


def _controller_run(tasks, ansatz, **config_kwargs):
    config = TreeVQAConfig(
        max_rounds=4,
        warmup_iterations=2,
        window_size=3,
        shots_per_pauli_term=SHOTS,
        estimator="sampling",
        seed=7,
        **config_kwargs,
    )
    return TreeVQAController(tasks, ansatz, config).run()


class TestControllerLevelParity:
    @pytest.mark.parametrize(
        "config_kwargs",
        (
            {"max_batch_size": 1},
            {"max_batch_size": 2},
            {"execution_workers": 2},
            {"backend": "auto"},
        ),
        ids=("batch1", "batch2", "workers2", "auto"),
    )
    def test_sampling_runs_bit_identical(self, config_kwargs):
        tasks = _tasks()
        ansatz = HardwareEfficientAnsatz(3, num_layers=1)
        reference = _controller_run(tasks, ansatz)
        result = _controller_run(tasks, ansatz, **config_kwargs)
        for ours, base in zip(result.outcomes, reference.outcomes):
            assert ours.energy == base.energy
        for name in (task.name for task in tasks):
            np.testing.assert_array_equal(
                result.trajectories[name].energies,
                reference.trajectories[name].energies,
            )

    def test_plan_cache_delta_in_result_metadata(self):
        tasks = _tasks(count=2)
        ansatz = HardwareEfficientAnsatz(3, num_layers=1)
        result = _controller_run(tasks, ansatz)
        delta = result.metadata["measurement_plan_cache"]
        assert delta["hits"] > 0
        assert delta["hits"] + delta["misses"] > 0
        assert delta["limit"] >= 1


# -- fallback and routing ----------------------------------------------------------


class TestFallbackAndRouting:
    def test_states_fallback_warns_once_naming_the_backend(self, bound_request):
        estimator = SamplingEstimator(shots_per_term=SHOTS, seed=0)
        scheduler = RoundScheduler(PauliPropagationBackend(), estimator)
        requests = _requests(bound_request, batch=2)
        with pytest.warns(RuntimeWarning, match="'pauli_propagation'.*provides_states"):
            first = scheduler.execute(requests)
        assert len(first) == 2
        assert scheduler.batches_executed == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second execute must stay silent
            scheduler.execute(requests)

    def test_wide_sampling_request_raises_actionably_on_auto(self, bound_request):
        backend = WidthRoutedBackend()
        requests = _requests(bound_request, batch=1) + _requests(
            bound_request, num_qubits=21, batch=1
        )
        with pytest.raises(
            ValueError, match=r"width \[21\].*dense tier.*term-vector estimator"
        ):
            backend.run_batch(requests, need_states=True)
        # All-or-nothing: the refusal comes before the statevector tier runs.
        assert backend.routed == {"pauli_propagation": 0, "statevector": 0}

    def test_auto_without_states_still_routes_wide_requests(self, bound_request):
        backend = WidthRoutedBackend()
        results = backend.run_batch(_requests(bound_request, num_qubits=21, batch=2))
        assert len(results) == 2
        assert backend.routed == {"pauli_propagation": 2, "statevector": 0}
