"""Parity and oracle tests for noisy execution through the density-matrix backend.

There is one noisy simulation: :class:`~repro.quantum.density_matrix.DensityMatrixBackend`
evolves whole request batches as stacked ``U ρ U†`` arrays, and
:meth:`~repro.quantum.sampling.DensityMatrixEstimator.estimate` is a batch of
one through it.  Two contracts are checked here:

* **Physics, to 1e-12.**  An independent dense oracle evolves ``ρ`` with each
  gate embedded as a full ``np.kron`` unitary (``ρ → UρU†``), applies each
  channel as ``Σ K ρ K†`` from its Kraus operators in the backend's order,
  folds readout as ``(1 − 2p)^weight`` and reads ``Tr(ρP)`` from dense Pauli
  matrices.  It shares no kernel with the backend (no
  ``apply_gate_batched``, no ``superoperator()``).
* **Composition, bit for bit.**  Batch composition, template vs.
  bound-structure programs, the batch-of-one ``estimate()`` path, and every
  wiring level (backend, round scheduler, controller) give identical bits.
  A noiseless model degenerates to the statevector path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from dense_reference import embed, every_gate_circuit, kron_pauli

from repro.ansatz import HardwareEfficientAnsatz
from repro.core import RoundScheduler, TreeVQAConfig, TreeVQAController, VQACluster, VQATask
from repro.hamiltonians import transverse_field_ising_chain
from repro.quantum import (
    DensityMatrixBackend,
    DensityMatrixEstimator,
    ExecutionRequest,
    PauliOperator,
    QuantumCircuit,
    Statevector,
    StatevectorBackend,
    compile_circuit_program,
    make_execution_backend,
)
from repro.quantum.density_matrix import apply_channel_to_density_batch
from repro.quantum.gates import gate_matrix
from repro.quantum.noise import (
    BACKEND_PROFILES,
    NoiseModel,
    amplitude_damping_channel,
    bit_flip_channel,
    dephasing_channel,
    depolarizing_channel,
    get_backend_profile,
    two_qubit_depolarizing_channel,
)

#: A realistic gate-attached noise model (depolarising + decoherence + readout).
NOISY = get_backend_profile("mumbai").to_noise_model()

TOLERANCE = 1e-12

#: Every noise model the oracle checks the backend under: noiseless,
#: readout alone, each channel knob alone, all knobs at large rates (so a
#: wrong channel order shows far above the tolerance), and the five profiles.
ORACLE_MODELS = {
    "noiseless": NoiseModel(),
    "readout": NoiseModel(readout_error=0.07),
    "depolarizing": NoiseModel(single_qubit_error=0.06),
    "two_qubit_depolarizing": NoiseModel(two_qubit_error=0.12),
    "dephasing": NoiseModel(dephasing=0.09),
    "amplitude_damping": NoiseModel(amplitude_damping=0.15),
    "strong": NoiseModel(
        single_qubit_error=0.05, two_qubit_error=0.1, readout_error=0.03,
        dephasing=0.08, amplitude_damping=0.2,
    ),
    **{name: profile.to_noise_model() for name, profile in BACKEND_PROFILES.items()},
}


def _random_operator(num_qubits: int, num_terms: int, seed: int) -> PauliOperator:
    rng = np.random.default_rng(seed)
    labels = set()
    while len(labels) < num_terms:
        labels.add("".join(rng.choice(list("IXYZ"), size=num_qubits)))
    return PauliOperator(num_qubits, dict(zip(sorted(labels), rng.normal(size=num_terms))))


def _random_amplitudes(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amplitudes / np.linalg.norm(amplitudes)


def _kraus_sum(rho: np.ndarray, operators: list[np.ndarray]) -> np.ndarray:
    """``Σ K ρ K†`` over already-embedded Kraus operators."""
    return sum(kraus @ rho @ kraus.conj().T for kraus in operators)


def _oracle_term_vector(circuit, operator, noise_model, amplitudes=None) -> np.ndarray:
    """Per-term noisy expectation values from dense ``2^n x 2^n`` algebra.

    After each gate come the two-qubit channels on the gate's qubits (for a
    two-qubit gate), then each single-qubit channel on each of its qubits.
    """
    num_qubits = circuit.num_qubits
    if amplitudes is None:
        amplitudes = Statevector.zero_state(num_qubits).data
    rho = np.outer(amplitudes, np.conj(amplitudes))
    single = noise_model.single_qubit_channels()
    two = noise_model.two_qubit_channels()
    embedded: dict[tuple, list[np.ndarray]] = {}

    def kraus(channel, qubits):
        key = (id(channel), qubits)
        if key not in embedded:
            embedded[key] = [embed(k, qubits, num_qubits) for k in channel.operators]
        return embedded[key]

    for inst in circuit.instructions:
        unitary = embed(gate_matrix(inst.gate, *inst.params), inst.qubits, num_qubits)
        rho = unitary @ rho @ unitary.conj().T
        if len(inst.qubits) == 2:
            for channel in two:
                rho = _kraus_sum(rho, kraus(channel, inst.qubits))
        for channel in single:
            for qubit in inst.qubits:
                rho = _kraus_sum(rho, kraus(channel, (qubit,)))
    contraction = 1.0 - 2.0 * noise_model.readout_error
    return np.array(
        [
            np.trace(rho @ kron_pauli(pauli.label)).real * contraction**pauli.weight
            for pauli in operator.paulis()
        ]
    )


def _requests(make_request, num_qubits=3, batch=5, seed=0, num_layers=2, **kwargs):
    rng = np.random.default_rng(seed)
    ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=num_layers)
    operator = _random_operator(num_qubits, 6, seed)
    return [
        make_request(
            ansatz.bound_circuit(rng.normal(0.0, 0.7, ansatz.num_parameters)),
            operator,
            **kwargs,
        )
        for _ in range(batch)
    ]


class TestDenseKrausOracle:
    @pytest.mark.parametrize(
        "maker",
        [
            depolarizing_channel,
            amplitude_damping_channel,
            dephasing_channel,
            bit_flip_channel,
            two_qubit_depolarizing_channel,
        ],
    )
    def test_channel_kernel_matches_kraus_sum(self, maker):
        # Every channel kind, on ordered, reversed and non-adjacent qubits:
        # the batch-wide superoperator GEMM equals Σ K ρ K† per slice.
        channel = maker(0.3)
        num_qubits, batch = 4, 2
        placements = [(0,), (3,)] if channel.num_qubits == 1 else [(0, 1), (3, 1), (2, 0)]
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(batch, 16, 16)) + 1j * rng.normal(size=(batch, 16, 16))
        rhos = raw @ np.conj(np.swapaxes(raw, 1, 2))
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        for qubits in placements:
            tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
            out = apply_channel_to_density_batch(
                tensor, channel.superoperator(), qubits, num_qubits
            ).reshape(batch, 16, 16)
            operators = [embed(k, qubits, num_qubits) for k in channel.operators]
            for row in range(batch):
                np.testing.assert_allclose(
                    out[row], _kraus_sum(rhos[row], operators), rtol=0, atol=TOLERANCE
                )

    @pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
    def test_every_gate_and_start_matches_oracle(self, model_name):
        # Every registered gate (reversed and non-adjacent pairs included)
        # under one noise model, from a bitstring start, a dense basis state,
        # a superposition and |0...0>: run_batch and the batch-of-one
        # estimate() both match the oracle, and agree with each other bitwise.
        model = ORACLE_MODELS[model_name]
        num_qubits = 4
        template = every_gate_circuit(num_qubits)
        program = compile_circuit_program(template)
        operator = _random_operator(num_qubits, 7, seed=1) + PauliOperator.from_terms(
            [("IIII", 0.5)]
        )
        rng = np.random.default_rng(2)
        points = rng.uniform(-np.pi, np.pi, size=(4, program.num_parameters))
        basis = Statevector.computational_basis(num_qubits, "0110")
        superposition = Statevector(_random_amplitudes(num_qubits, seed=3))
        starts = [
            ({"initial_bitstring": "1011"}, Statevector.computational_basis(4, "1011")),
            ({"initial_state": basis}, basis),
            ({"initial_state": superposition}, superposition),
            ({}, None),
        ]
        requests = [
            ExecutionRequest(operator, program, point, **kwargs)
            for point, (kwargs, _) in zip(points, starts)
        ]
        results = DensityMatrixBackend(model).run_batch(requests)
        estimator = DensityMatrixEstimator(model)
        coefficients = np.array([coeff.real for _, coeff in operator.items()])
        for point, (_, start), result in zip(points, starts, results):
            circuit = template.bind(point)
            expected = _oracle_term_vector(
                circuit, operator, model, None if start is None else start.data
            )
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=TOLERANCE)
            estimate = estimator.estimate(circuit, operator, start)
            np.testing.assert_array_equal(estimate.term_vector, result.term_vector)
            assert estimate.value == pytest.approx(
                float(coefficients @ expected), abs=TOLERANCE * np.abs(coefficients).sum()
            )


class TestDensityMatrixBackendParity:
    def test_batched_matches_oracle_and_batch_of_one_estimate(self, bound_request):
        requests = _requests(bound_request, batch=6, seed=1)
        results = DensityMatrixBackend(NOISY).run_batch(requests)
        estimator = DensityMatrixEstimator(NOISY)
        for request, result in zip(requests, results):
            circuit = request.program.bind(request.parameters)
            expected = _oracle_term_vector(circuit, request.operator, NOISY)
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=TOLERANCE)
            single = estimator.estimate(circuit, request.operator)
            np.testing.assert_array_equal(single.term_vector, result.term_vector)
            assert result.backend_name == "density_matrix"
            assert result.term_basis == tuple(request.operator.paulis())
            assert result.state is None

    def test_batching_is_grouping_invariant(self, bound_request):
        # The acceptance contract: batch composition never shows up in the
        # numbers — together, alone, and pairwise-chunked runs are bitwise equal.
        backend = DensityMatrixBackend(NOISY)
        requests = _requests(bound_request, batch=6, seed=2)
        together = backend.run_batch(requests)
        alone = [backend.run_batch([request])[0] for request in requests]
        pairs = [
            result
            for start in range(0, len(requests), 2)
            for result in backend.run_batch(requests[start : start + 2])
        ]
        for batched, single, paired in zip(together, alone, pairs):
            np.testing.assert_array_equal(batched.term_vector, single.term_vector)
            np.testing.assert_array_equal(batched.term_vector, paired.term_vector)

    def test_template_program_bit_identical_to_bound_structure_program(self, bound_request):
        ansatz = HardwareEfficientAnsatz(3, num_layers=2)
        operator = _random_operator(3, 6, seed=3)
        rng = np.random.default_rng(3)
        points = [rng.normal(0.0, 0.7, ansatz.num_parameters) for _ in range(4)]
        program = compile_circuit_program(ansatz.circuit)
        backend = DensityMatrixBackend(NOISY)
        via_template = backend.run_batch(
            [ExecutionRequest(operator, program, point) for point in points]
        )
        bound = [bound_request(ansatz.bound_circuit(p), operator) for p in points]
        assert bound[0].program is not program  # two programs, one structure
        via_bound = backend.run_batch(bound)
        for point, left, right in zip(points, via_template, via_bound):
            np.testing.assert_array_equal(left.term_vector, right.term_vector)
            expected = _oracle_term_vector(ansatz.bound_circuit(point), operator, NOISY)
            np.testing.assert_allclose(left.term_vector, expected, rtol=0, atol=TOLERANCE)

    def test_mixed_structures_and_request_kinds_in_one_batch(self, bound_request):
        shallow = HardwareEfficientAnsatz(3, num_layers=1)
        deep = HardwareEfficientAnsatz(3, num_layers=3)
        operator = _random_operator(3, 5, seed=4)
        rng = np.random.default_rng(4)
        requests = []
        for ansatz in (shallow, deep):
            program = compile_circuit_program(ansatz.circuit)
            requests.append(
                ExecutionRequest(operator, program, rng.normal(size=ansatz.num_parameters))
            )
            requests.append(
                bound_request(
                    ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters)), operator
                )
            )
        backend = DensityMatrixBackend(NOISY)
        results = backend.run_batch(requests)
        for request, result in zip(requests, results):
            alone = backend.run_batch([request])[0]
            np.testing.assert_array_equal(result.term_vector, alone.term_vector)
            expected = _oracle_term_vector(
                request.program.bind(request.parameters), operator, NOISY
            )
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=TOLERANCE)

    def test_initial_state_and_bitstring_handling(self, bound_request):
        circuit = QuantumCircuit(3).h(0).cx(0, 1)
        operator = PauliOperator.from_terms([("ZZI", 1.0), ("IIZ", 1.0)])
        backend = DensityMatrixBackend(NoiseModel())
        via_bitstring = backend.run_batch(
            [bound_request(circuit, operator, initial_bitstring="001")]
        )[0]
        # Qubit 2 starts in |1>: <IIZ> = -1; the Bell pair on 0,1 gives <ZZI> = 1.
        np.testing.assert_allclose(via_bitstring.term_vector, [1.0, -1.0], atol=1e-12)
        dense = Statevector.computational_basis(3, "001")
        via_state = backend.run_batch(
            [bound_request(circuit, operator, initial_state=dense)]
        )[0]
        np.testing.assert_array_equal(via_state.term_vector, via_bitstring.term_vector)

    def test_noiseless_model_degenerates_to_statevector_path(self, bound_request):
        requests = _requests(bound_request, batch=4, seed=5)
        noiseless = DensityMatrixBackend(NoiseModel())
        assert noiseless.noise_model.is_noiseless
        dense = StatevectorBackend()
        for noisy_free, pure in zip(
            noiseless.run_batch(requests), dense.run_batch(requests)
        ):
            np.testing.assert_allclose(
                noisy_free.term_vector, pure.term_vector, rtol=0, atol=1e-12
            )


def _make_clusters(estimator, *, num_tasks=5, num_qubits=3, seed=0):
    config = TreeVQAConfig(
        max_rounds=3, warmup_iterations=0, window_size=2,
        disable_automatic_splits=True, seed=seed,
    )
    ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=2)
    return [
        VQACluster(
            cluster_id=f"c{index}",
            tasks=[
                VQATask(
                    name=f"t{index}",
                    hamiltonian=transverse_field_ising_chain(num_qubits, 0.7 + 0.1 * index),
                    scan_parameter=float(index),
                )
            ],
            ansatz=ansatz,
            optimizer=config.make_optimizer(),
            estimator=estimator,
            config=config,
            initial_parameters=ansatz.zero_parameters(),
        )
        for index in range(num_tasks)
    ]


def _run_rounds(scheduler, clusters, rounds=2):
    records = []
    for _ in range(rounds):
        records.extend(record for _, record in scheduler.run_round(clusters))
    return records


class TestSchedulerNoisyParity:
    def test_batched_rounds_match_per_request_and_batch_size_one(self):
        # Three wirings of the same noisy workload: full batches through the
        # density-matrix backend, the max_batch_size=1 degenerate case, and
        # the legacy per-request fallback (statevector backend mismatch).
        runs = {}
        for mode, (backend, batch_size) in {
            "batched": (DensityMatrixBackend(NOISY), None),
            "one": (DensityMatrixBackend(NOISY), 1),
            "per_request": (StatevectorBackend(), None),
        }.items():
            estimator = DensityMatrixEstimator(NOISY, seed=7)
            scheduler = RoundScheduler(backend, estimator, max_batch_size=batch_size)
            runs[mode] = (
                _run_rounds(scheduler, _make_clusters(estimator, seed=1)),
                scheduler,
            )
        batched_records, batched_scheduler = runs["batched"]
        assert batched_scheduler.batches_executed > 0
        assert runs["per_request"][1].batches_executed == 0  # fell back
        for mode in ("one", "per_request"):
            records, _ = runs[mode]
            assert len(records) == len(batched_records)
            for left, right in zip(batched_records, records):
                assert left.mixed_loss == right.mixed_loss
                assert left.individual_losses == right.individual_losses
                np.testing.assert_array_equal(left.parameters, right.parameters)

    def test_shot_noise_draws_identical_across_paths(self):
        # With add_shot_noise the estimator consumes RNG per conversion; the
        # scheduler converts in cluster order on every path, so seeded runs
        # stay bit-identical batched vs per-request.
        def run(backend):
            estimator = DensityMatrixEstimator(NOISY, seed=11, add_shot_noise=True)
            scheduler = RoundScheduler(backend, estimator)
            return _run_rounds(scheduler, _make_clusters(estimator, num_tasks=3, seed=2))

        batched = run(DensityMatrixBackend(NOISY))
        per_request = run(StatevectorBackend())
        for left, right in zip(batched, per_request):
            assert left.mixed_loss == right.mixed_loss
            np.testing.assert_array_equal(left.parameters, right.parameters)

    def test_mismatched_noise_models_fall_back_to_per_request(self):
        estimator = DensityMatrixEstimator(NOISY, seed=0)
        other = DensityMatrixBackend(get_backend_profile("hanoi").to_noise_model())
        scheduler = RoundScheduler(other, estimator)
        records = _run_rounds(scheduler, _make_clusters(estimator, num_tasks=2), rounds=1)
        assert records
        # Correctness first: the mismatched backend was never dispatched.
        assert scheduler.batches_executed == 0
        assert other.batches_run == 0

    def test_none_noise_model_is_noiseless_and_never_served_noisy_payloads(self):
        # DensityMatrixEstimator(None) means the noiseless model: per-request
        # estimate() works and returns the noiseless value, and a noisy
        # backend is not a match for it (the scheduler falls back instead of
        # feeding it hanoi-noise term vectors).
        estimator = DensityMatrixEstimator(None)
        assert estimator.noise_model == NoiseModel()
        bell = QuantumCircuit(2).h(0).cx(0, 1)
        zz = PauliOperator.from_terms([("ZZ", 1.0)])
        assert estimator.estimate(bell, zz).value == pytest.approx(1.0, abs=TOLERANCE)
        hanoi = DensityMatrixBackend(get_backend_profile("hanoi").to_noise_model())
        scheduler = RoundScheduler(hanoi, DensityMatrixEstimator(None, seed=0))
        records = _run_rounds(
            scheduler, _make_clusters(scheduler.estimator, num_tasks=2, seed=6), rounds=1
        )
        assert scheduler.batches_executed == 0
        assert hanoi.batches_run == 0
        reference_estimator = DensityMatrixEstimator(NoiseModel(), seed=0)
        reference = _run_rounds(
            RoundScheduler(DensityMatrixBackend(NoiseModel()), reference_estimator),
            _make_clusters(reference_estimator, num_tasks=2, seed=6),
            rounds=1,
        )
        assert len(records) == len(reference)
        for left, right in zip(records, reference):
            assert left.mixed_loss == right.mixed_loss

    def test_exact_estimator_never_consumes_noisy_backend_payloads(self):
        # An estimator without a requires_backend pin has exact pure-state
        # physics; a noise-applying backend must not silently feed it noisy
        # term vectors.  Per-request fallback keeps the values exact.
        from repro.quantum import ExactEstimator

        estimator = ExactEstimator(seed=0)
        backend = DensityMatrixBackend(NOISY)
        scheduler = RoundScheduler(backend, estimator)
        clusters = _make_clusters(estimator, num_tasks=2, seed=3)
        records = _run_rounds(scheduler, clusters, rounds=1)
        assert scheduler.batches_executed == 0
        assert backend.batches_run == 0
        # Reference: the same seeded workload through the exact pure path.
        reference_estimator = ExactEstimator(seed=0)
        reference = _run_rounds(
            RoundScheduler(StatevectorBackend(), reference_estimator),
            _make_clusters(reference_estimator, num_tasks=2, seed=3),
            rounds=1,
        )
        for left, right in zip(records, reference):
            assert left.mixed_loss == right.mixed_loss

    def test_noiseless_density_backend_may_serve_exact_estimators(self):
        from repro.quantum import ExactEstimator

        estimator = ExactEstimator(seed=0)
        scheduler = RoundScheduler(DensityMatrixBackend(NoiseModel()), estimator)
        _run_rounds(scheduler, _make_clusters(estimator, num_tasks=2, seed=4), rounds=1)
        assert scheduler.batches_executed > 0

    def test_states_consuming_estimator_falls_back_instead_of_crashing(self):
        # SamplingEstimator needs prepared states, which a mixed-state backend
        # cannot attach — the round must fall back per-request, not raise.
        from repro.quantum import SamplingEstimator

        estimator = SamplingEstimator(shots_per_term=64, seed=0)
        backend = DensityMatrixBackend(NoiseModel())
        scheduler = RoundScheduler(backend, estimator)
        records = _run_rounds(scheduler, _make_clusters(estimator, num_tasks=2), rounds=1)
        assert records
        assert scheduler.batches_executed == 0
        assert backend.batches_run == 0


class TestControllerNoisyParity:
    def test_batched_controller_reproduces_per_request_trajectories(self):
        tasks = [
            VQATask(
                name=f"tfim@{field:.2f}",
                hamiltonian=transverse_field_ising_chain(4, field),
                scan_parameter=field,
            )
            for field in (0.8, 1.0, 1.2)
        ]
        ansatz = HardwareEfficientAnsatz(4, num_layers=1)
        batched_config = TreeVQAConfig(
            max_rounds=4, warmup_iterations=0, window_size=2,
            disable_automatic_splits=True, seed=5,
            backend="density_matrix", estimator="density_matrix", noise_model=NOISY,
        )
        per_request_config = dataclasses.replace(batched_config, backend="statevector")
        batched = TreeVQAController(tasks, ansatz, batched_config).run()
        per_request = TreeVQAController(tasks, ansatz, per_request_config).run()
        for task in tasks:
            assert (
                batched.trajectories[task.name].energies
                == per_request.trajectories[task.name].energies
            )
        assert batched.ledger.total == per_request.ledger.total

    def test_config_wires_one_noise_model_to_backend_and_estimator(self):
        config = TreeVQAConfig(
            backend="density_matrix", estimator="density_matrix", noise_profile="cairo"
        )
        backend = config.make_backend()
        estimator = config.make_estimator()
        assert isinstance(backend, DensityMatrixBackend)
        assert isinstance(estimator, DensityMatrixEstimator)
        assert backend.noise_model == estimator.noise_model
        assert backend.noise_model.name == "cairo"


class TestErrorPaths:
    def test_qubit_guard_before_evolution(self, bound_request):
        circuit = QuantumCircuit(13).h(0)
        operator = PauliOperator.from_terms([("Z" + "I" * 12, 1.0)])
        with pytest.raises(ValueError, match="13 qubits"):
            DensityMatrixBackend(NOISY).run_batch([bound_request(circuit, operator)])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"backend": "density_matrix", "estimator": "density_matrix"},
            # The per-request path (statevector backend, density estimator)
            # must fail at wiring time too, not at the first 2^n allocation.
            {"backend": "statevector", "estimator": "density_matrix"},
        ],
    )
    def test_cluster_rejects_oversized_density_matrix_wiring(self, overrides):
        config = TreeVQAConfig(noise_model=NOISY, **overrides)
        ansatz = HardwareEfficientAnsatz(13, num_layers=1)
        task = VQATask(
            name="too-wide",
            hamiltonian=transverse_field_ising_chain(13, 1.0),
            scan_parameter=0.0,
        )
        with pytest.raises(ValueError, match="statevector"):
            VQACluster(
                cluster_id="c0",
                tasks=[task],
                ansatz=ansatz,
                optimizer=config.make_optimizer(),
                estimator=config.make_estimator(),
                config=config,
                initial_parameters=ansatz.zero_parameters(),
            )

    def test_estimator_guards_width_before_allocation(self):
        circuit = QuantumCircuit(13).h(0)
        operator = PauliOperator.from_terms([("Z" + "I" * 12, 1.0)])
        with pytest.raises(ValueError, match="limited to 12 qubits"):
            DensityMatrixEstimator(NOISY).estimate(circuit, operator)

    def test_need_states_rejected(self, bound_request):
        requests = _requests(bound_request, batch=1, seed=6)
        with pytest.raises(ValueError, match="need_states"):
            DensityMatrixBackend(NOISY).run_batch(requests, need_states=True)

    def test_estimator_rejects_foreign_backend_result(self, bound_request):
        requests = _requests(bound_request, batch=1, seed=7)
        pure_result = StatevectorBackend().run_batch(requests)[0]
        estimator = DensityMatrixEstimator(NOISY)
        with pytest.raises(ValueError, match="density_matrix"):
            estimator.estimate_backend_results([pure_result], [requests[0].operator])

    def test_noise_model_rejected_by_unitary_backends(self):
        with pytest.raises(ValueError, match="noise model"):
            make_execution_backend("statevector", noise_model=NOISY)
        backend = make_execution_backend("density_matrix", noise_model=NOISY)
        assert isinstance(backend, DensityMatrixBackend)
        assert backend.noise_model == NOISY

    def test_config_rejects_conflicting_or_unknown_noise_settings(self):
        with pytest.raises(ValueError, match="not both"):
            TreeVQAConfig(
                backend="density_matrix", estimator="density_matrix",
                noise_model=NOISY, noise_profile="hanoi",
            )
        with pytest.raises(ValueError, match="hanoi"):
            TreeVQAConfig(
                backend="density_matrix", estimator="density_matrix",
                noise_profile="brisbane",
            )

    def test_config_rejects_noise_knobs_nothing_consumes(self):
        # Only the density-matrix estimator consumes the noise model; any
        # other estimator pairing would silently run noiseless — rejected at
        # configuration time instead.
        with pytest.raises(ValueError, match="no effect"):
            TreeVQAConfig(noise_profile="hanoi")
        with pytest.raises(ValueError, match="density_matrix"):
            TreeVQAConfig(noise_model=NOISY, estimator="exact")
        # A noisy backend alone is not enough: the scheduler keeps noisy
        # payloads away from exact estimators, so that run is noiseless too.
        with pytest.raises(ValueError, match="estimator"):
            TreeVQAConfig(
                backend="density_matrix", estimator="exact", noise_profile="hanoi"
            )
        # A density-matrix estimator (or a trusted factory) makes it valid.
        TreeVQAConfig(estimator="density_matrix", noise_profile="hanoi")
        TreeVQAConfig(
            noise_model=NOISY,
            estimator_factory=lambda: DensityMatrixEstimator(NOISY),
        )
