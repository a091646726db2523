"""Tests for the execution backends: batching parity and Clifford dispatch."""

from __future__ import annotations

import math

import numpy as np
import pytest
from program_stream import check_stream

from repro.ansatz import HardwareEfficientAnsatz
from repro.quantum import (
    CliffordBackend,
    ExecutionRequest,
    Parameter,
    PauliOperator,
    QuantumCircuit,
    Statevector,
    StatevectorBackend,
    clear_program_cache,
    compile_circuit_program,
    make_execution_backend,
    program_cache_stats,
    program_for_bound_circuit,
)
from repro.quantum.engine import compiled_pauli_operator
from repro.quantum.sampling import ExactEstimator, SamplingEstimator, ShotNoiseEstimator


def _random_operator(num_qubits: int, num_terms: int, seed: int) -> PauliOperator:
    rng = np.random.default_rng(seed)
    labels = set()
    while len(labels) < num_terms:
        labels.add("".join(rng.choice(list("IXYZ"), size=num_qubits)))
    return PauliOperator(num_qubits, dict(zip(sorted(labels), rng.normal(size=num_terms))))


def _legacy_term_vector(circuit, operator, initial_state):
    """The per-request path the backends replace: evolve + engine."""
    state = (initial_state or Statevector.zero_state(circuit.num_qubits)).evolve(circuit)
    engine = compiled_pauli_operator(operator)
    vector = engine.expectation_values(state)
    vector[engine.identity_mask] = 1.0
    return vector


def _requests(make_request, num_qubits=4, batch=6, seed=0, clifford_angles=False):
    rng = np.random.default_rng(seed)
    ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=2)
    operator = _random_operator(num_qubits, 8, seed)
    requests = []
    for _ in range(batch):
        if clifford_angles:
            params = (math.pi / 2) * rng.integers(0, 4, size=ansatz.num_parameters)
        else:
            params = rng.normal(0.0, 0.7, size=ansatz.num_parameters)
        requests.append(
            make_request(
                ansatz.bound_circuit(params),
                operator,
                initial_state=Statevector.zero_state(num_qubits),
            )
        )
    return requests


class TestStatevectorBackend:
    def test_batched_matches_per_request_path(self, bound_request):
        requests = _requests(bound_request)
        results = StatevectorBackend().run_batch(requests)
        for request, result in zip(requests, results):
            expected = _legacy_term_vector(
                request.program.bind(request.parameters), request.operator, request.initial_state
            )
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=1e-12)
            assert result.backend_name == "statevector"
            assert result.term_basis == tuple(request.operator.paulis())

    def test_batching_is_grouping_invariant(self, bound_request):
        # The acceptance contract: stacked execution is bit-identical to
        # one-request-at-a-time execution, so batch composition never shows
        # up in the numbers.
        backend = StatevectorBackend()
        requests = _requests(bound_request, batch=8, seed=3)
        together = backend.run_batch(requests)
        alone = [backend.run_batch([request])[0] for request in requests]
        for batched, single in zip(together, alone):
            np.testing.assert_array_equal(batched.term_vector, single.term_vector)

    def test_mixed_circuit_structures_in_one_batch(self, bound_request):
        shallow = HardwareEfficientAnsatz(3, num_layers=1)
        deep = HardwareEfficientAnsatz(3, num_layers=3)
        operator = _random_operator(3, 5, seed=1)
        rng = np.random.default_rng(1)
        requests = [
            bound_request(ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters)), operator)
            for ansatz in (shallow, deep, shallow, deep)
        ]
        results = StatevectorBackend().run_batch(requests)
        for request, result in zip(requests, results):
            expected = _legacy_term_vector(
                request.program.bind(request.parameters), request.operator, None
            )
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=1e-12)

    def test_initial_bitstring_without_dense_state(self, bound_request):
        circuit = QuantumCircuit(3).h(0).cx(0, 1)
        operator = PauliOperator.from_terms([("ZZI", 1.0), ("IIZ", 1.0)])
        result = StatevectorBackend().run_batch(
            [bound_request(circuit, operator, initial_bitstring="001")]
        )[0]
        # Qubit 2 starts in |1>: <IIZ> = -1; the Bell pair on 0,1 gives <ZZI> = 1.
        np.testing.assert_allclose(result.term_vector, [1.0, -1.0], atol=1e-12)

    def test_wide_request_rejected_before_allocation(self, bound_request):
        # 2^40 amplitudes: if the guard regresses, np.empty fails fast with
        # MemoryError instead of this ValueError.
        operator = PauliOperator.from_terms([("Z" + "I" * 39, 1.0)])
        request = bound_request(QuantumCircuit(40).h(0), operator)
        backend = StatevectorBackend()
        with pytest.raises(ValueError, match="limit: 26 qubits"):
            backend.run_batch([request])
        assert backend.batches_run == backend.requests_run == 0
        with pytest.raises(ValueError, match="limit: 26 qubits"):
            ExactEstimator().estimate(QuantumCircuit(40).h(0), operator)

    def test_states_attached_on_demand(self, bound_request):
        requests = _requests(bound_request, batch=2)
        backend = StatevectorBackend()
        without = backend.run_batch(requests)
        with_states = backend.run_batch(requests, need_states=True)
        assert all(result.state is None for result in without)
        for request, result in zip(requests, with_states):
            expected = request.initial_state.evolve(request.program.bind(request.parameters))
            assert result.state is not None
            np.testing.assert_array_equal(result.state.data, expected.data)

    def test_unbound_circuit_rejected(self, bound_request):
        ansatz = HardwareEfficientAnsatz(2, num_layers=1)
        operator = _random_operator(2, 3, seed=0)
        with pytest.raises(ValueError):
            bound_request(ansatz.circuit, operator)


def _template_requests(ansatz, operator, points, **kwargs):
    program = compile_circuit_program(ansatz.circuit)
    return [ExecutionRequest(operator, program, point, **kwargs) for point in points]


class TestCircuitProgram:
    """The program contract: template programs, bound-structure programs and
    ``Statevector.evolve`` (a batch of one) agree bit-for-bit,
    grouping-independently."""

    def test_program_path_bit_identical_to_bound_circuit_path(self, bound_request):
        ansatz = HardwareEfficientAnsatz(4, num_layers=2)
        operator = _random_operator(4, 8, seed=0)
        rng = np.random.default_rng(0)
        points = [rng.normal(0.0, 0.7, ansatz.num_parameters) for _ in range(6)]
        via_programs = StatevectorBackend().run_batch(
            _template_requests(ansatz, operator, points), need_states=True
        )
        via_circuits = StatevectorBackend().run_batch(
            [bound_request(ansatz.bound_circuit(p), operator) for p in points],
            need_states=True,
        )
        for point, left, right in zip(points, via_programs, via_circuits):
            np.testing.assert_array_equal(left.term_vector, right.term_vector)
            np.testing.assert_array_equal(left.state.data, right.state.data)
            sequential = Statevector.zero_state(4).evolve(ansatz.bound_circuit(point))
            np.testing.assert_array_equal(left.state.data, sequential.data)

    def test_program_grouping_invariant(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=2)
        operator = _random_operator(3, 6, seed=1)
        rng = np.random.default_rng(1)
        points = [rng.normal(size=ansatz.num_parameters) for _ in range(5)]
        requests = _template_requests(ansatz, operator, points)
        backend = StatevectorBackend()
        together = backend.run_batch(requests)
        alone = [backend.run_batch([request])[0] for request in requests]
        for batched, single in zip(together, alone):
            np.testing.assert_array_equal(batched.term_vector, single.term_vector)

    def test_affine_parameter_expressions_bit_identical(self):
        # QAOA-style circuit: shared parameters entering several gates through
        # scale/offset expressions.
        gamma, beta = Parameter("gamma"), Parameter("beta")
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        circuit.rzz(2.0 * gamma, 0, 1).rzz(2.0 * gamma, 1, 2)
        circuit.rx(2.0 * beta, 0).rx(beta + 0.25, 1).rx(-beta, 2)
        operator = _random_operator(3, 5, seed=2)
        program = compile_circuit_program(circuit)
        assert program.num_parameters == 2
        rng = np.random.default_rng(2)
        points = [rng.normal(size=2) for _ in range(4)]
        via_programs = StatevectorBackend().run_batch(
            [ExecutionRequest(operator, program, p) for p in points],
            need_states=True,
        )
        for point, result in zip(points, via_programs):
            sequential = Statevector.zero_state(3).evolve(circuit.bind(point))
            np.testing.assert_array_equal(result.state.data, sequential.data)

    def test_mixed_program_and_circuit_requests_in_one_batch(self, bound_request):
        shallow = HardwareEfficientAnsatz(3, num_layers=1)
        deep = HardwareEfficientAnsatz(3, num_layers=3)
        operator = _random_operator(3, 5, seed=3)
        rng = np.random.default_rng(3)
        requests = []
        for ansatz in (shallow, deep):
            point = rng.normal(size=ansatz.num_parameters)
            requests.extend(_template_requests(ansatz, operator, [point]))
            requests.append(
                bound_request(
                    ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters)),
                    operator,
                )
            )
        results = StatevectorBackend().run_batch(requests, need_states=True)
        for request, result in zip(requests, results):
            expected = _legacy_term_vector(request.program.bind(request.parameters), operator, None)
            np.testing.assert_allclose(result.term_vector, expected, rtol=0, atol=1e-12)

    def test_persistent_cache_shared_across_ansatz_instances(self):
        clear_program_cache()
        first = compile_circuit_program(HardwareEfficientAnsatz(3, num_layers=2).circuit)
        second = compile_circuit_program(HardwareEfficientAnsatz(3, num_layers=2).circuit)
        assert first is second  # structurally identical circuits share one program
        stats = program_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_bound_circuits_share_one_cached_program(self, bound_request):
        clear_program_cache()
        ansatz = HardwareEfficientAnsatz(3, num_layers=1)
        operator = _random_operator(3, 4, seed=4)
        rng = np.random.default_rng(4)
        backend = StatevectorBackend()
        for _ in range(3):
            backend.run_batch(
                [
                    bound_request(
                        ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters)),
                        operator,
                    )
                    for _ in range(2)
                ]
            )
        stats = program_cache_stats()
        # One structure: compiled once, every later request is a cache hit.
        assert stats["misses"] == 1
        assert stats["hits"] == 5

    def test_program_bind_matches_circuit_bind(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=2)
        program = compile_circuit_program(ansatz.circuit)
        point = np.random.default_rng(5).normal(size=ansatz.num_parameters)
        bound = ansatz.bound_circuit(point)
        materialised = program.bind(point)
        assert [
            (inst.gate, inst.qubits, inst.params) for inst in bound.instructions
        ] == [
            (inst.gate, inst.qubits, inst.params) for inst in materialised.instructions
        ]

    def test_bound_structure_programs_group_across_angles(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=1)
        rng = np.random.default_rng(6)
        first, row_first = program_for_bound_circuit(
            ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters))
        )
        second, row_second = program_for_bound_circuit(
            ansatz.bound_circuit(rng.normal(size=ansatz.num_parameters))
        )
        assert first is second  # same structure, different angles: one program
        assert not np.array_equal(row_first, row_second)
        with pytest.raises(ValueError):
            program_for_bound_circuit(ansatz.circuit)  # still parameterized

    def test_request_validation(self):
        ansatz = HardwareEfficientAnsatz(2, num_layers=1)
        operator = _random_operator(2, 3, seed=7)
        program = compile_circuit_program(ansatz.circuit)
        point = np.zeros(ansatz.num_parameters)
        with pytest.raises(TypeError):
            ExecutionRequest(operator, program)  # missing parameters
        with pytest.raises(ValueError):
            ExecutionRequest(operator, program, np.zeros(3))  # wrong row length
        request = ExecutionRequest(operator, program, point.tolist())
        assert request.parameters.dtype == float
        assert request.num_qubits == 2

    # -- the layout plan: copy-free gates at widths where the window opens --

    @pytest.mark.parametrize("num_qubits", [10, 12, 13])
    @pytest.mark.parametrize("shape", ["circular", "linear", "full", "qaoa", "sliding"])
    def test_wide_programs_bit_identical_to_sequential_evolve(self, num_qubits, shape):
        if shape == "qaoa":
            circuit = _qaoa_style_circuit(num_qubits)
        elif shape == "sliding":
            circuit = _sliding_window_circuit(num_qubits)
        else:
            circuit = HardwareEfficientAnsatz(
                num_qubits, num_layers=2, entanglement=shape
            ).circuit
        program = compile_circuit_program(circuit)
        check_stream(program)
        copy_free = [step for step in program._steps[1:] if not step.gather]
        if (num_qubits, shape) in _EVERY_LATER_BLOCK_GATHERS:
            assert not copy_free
        else:  # the window path ran: copy-free GEMMs at a position > 0
            assert any(step.view[0] > 1 for step in copy_free)
        rng = np.random.default_rng(num_qubits)
        points = rng.normal(0.0, 0.7, size=(3, program.num_parameters))
        initial = np.zeros((3, 1 << num_qubits), dtype=complex)
        initial[:, 0] = 1.0
        batched = program.execute(points, initial)
        for row, point in enumerate(points):
            sequential = Statevector.zero_state(num_qubits).evolve(circuit.bind(point))
            np.testing.assert_array_equal(batched[row], sequential.data)
            alone = program.execute(point[None, :], initial[row : row + 1])
            assert alone.tobytes() == batched[row : row + 1].tobytes()
        # need_states hands back canonical-order states through the backend.
        operator = _random_operator(num_qubits, 4, seed=num_qubits)
        requests = [ExecutionRequest(operator, program, point) for point in points]
        results = StatevectorBackend().run_batch(requests, need_states=True)
        for row, result in enumerate(results):
            np.testing.assert_array_equal(result.state.data, batched[row])

    def test_layout_plan_gathers(self):
        wide = compile_circuit_program(HardwareEfficientAnsatz(14, num_layers=3).circuit)
        assert wide.num_instructions == len(wide.tape) == 154  # the tape stays unfused
        # Each layer's ry-rz runs and 14-CX ring fuse into seven 3-qubit
        # blocks; the last layer's runs pack into five blocks.
        assert [len(step.qubits) for step in wide._steps] == [3] * 25 + [2]
        assert sum(1 for step in wide._steps if step.gather) == 12
        check_stream(wide)
        # A gather puts the qubits the next block shares last, so blocks that
        # overlap by two qubits alternate with a copy-free GEMM at position 1.
        sliding = compile_circuit_program(_sliding_window_circuit(12))
        check_stream(sliding)
        assert [(bool(step.gather), step.view[0]) for step in sliding._steps] == [
            (False, 1),
            (False, 2),
        ] + [(True, 1), (False, 2)] * 5
        # At 8 qubits no block leaves 256 trailing columns, so every GEMM runs
        # at position 0, after a plain move-to-front (the block's qubits in
        # any order) that keeps the other axes in their order.
        narrow = compile_circuit_program(HardwareEfficientAnsatz(8, num_layers=3).circuit)
        check_stream(narrow)
        layout = list(range(8))
        for step in narrow._steps:
            k = len(step.qubits)
            if step.gather:
                moved = [layout[axis - 1] for axis in step.gather[1:]]
                assert moved[k:] == [qubit for qubit in layout if qubit not in step.qubits]
                layout = moved
            assert tuple(layout[:k]) == step.qubits
            assert step.view == (1, 1 << k, 1 << (8 - k))


#: Streams with no copy-free GEMM after the first block.  The window of
#: n - 8 leading axes holds only a 1-qubit block at position 1 at 10 qubits,
#: and at 12 the circular ring's blocks overlap by one qubit, so a 3-qubit
#: block never fits the 4-axis window after its neighbour.
_EVERY_LATER_BLOCK_GATHERS = {
    (10, "circular"),
    (10, "linear"),
    (10, "full"),
    (10, "qaoa"),
    (12, "circular"),
}


def _sliding_window_circuit(num_qubits: int) -> QuantumCircuit:
    """Three-qubit blocks that overlap by two qubits, then a 2-qubit ring
    block and a rotation on its last qubit: blocks that fit the copy-free
    window after a gather at every width from 10 qubits on."""
    theta = Parameter("theta")
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.ry(theta, qubit)
    circuit.rzz(theta, 0, 1)
    for qubit in range(num_qubits - 2):
        circuit.cx(qubit + 1, qubit + 2).rzz(0.5 * theta, qubit, qubit + 2)
    circuit.cz(num_qubits - 1, 0).rx(theta, 0)
    return circuit


def _qaoa_style_circuit(num_qubits: int) -> QuantumCircuit:
    """Affine ``rzz``/``rxx`` layers with reversed and wrap-around pairs."""
    gamma, beta = Parameter("gamma"), Parameter("beta")
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits):
        circuit.rzz(2.0 * gamma, qubit, (qubit + 1) % num_qubits)
    circuit.swap(num_qubits - 1, 0).cz(num_qubits - 2, 1).cz(3, 2)
    circuit.rxx(beta + 0.25, num_qubits - 1, 2).rzz(-gamma, 5, 4)
    for qubit in range(num_qubits):
        circuit.rx(2.0 * beta, qubit)
    for qubit in reversed(range(1, num_qubits)):
        circuit.rxx(0.5 * beta, qubit, qubit - 1)
    return circuit


class TestCliffordBackend:
    def test_clifford_angles_route_to_stabilizer_simulator(self, bound_request):
        backend = CliffordBackend()
        requests = _requests(bound_request, clifford_angles=True, batch=4, seed=2)
        results = backend.run_batch(requests)
        assert backend.routed == {"clifford": 4, "statevector": 0}
        assert all(result.backend_name == "clifford" for result in results)

    def test_non_clifford_angles_fall_back(self, bound_request):
        backend = CliffordBackend()
        mixed = _requests(
            bound_request, clifford_angles=True, batch=2, seed=4
        ) + _requests(bound_request, clifford_angles=False, batch=2, seed=5)
        results = backend.run_batch(mixed)
        assert backend.routed == {"clifford": 2, "statevector": 2}
        assert [result.backend_name for result in results] == [
            "clifford", "clifford", "statevector", "statevector",
        ]

    def test_three_way_parity_on_clifford_circuits(self, bound_request):
        # Random Clifford-angle circuits must agree across the stabilizer
        # backend, the dense batched backend, and the per-request legacy path.
        requests = _requests(bound_request, clifford_angles=True, batch=6, seed=6)
        clifford = CliffordBackend().run_batch(requests)
        dense = StatevectorBackend().run_batch(requests)
        for request, stab, dns in zip(requests, clifford, dense):
            legacy = _legacy_term_vector(
                request.program.bind(request.parameters), request.operator, request.initial_state
            )
            np.testing.assert_allclose(stab.term_vector, legacy, atol=1e-9)
            np.testing.assert_allclose(dns.term_vector, legacy, atol=1e-9)

    def test_nonzero_initial_bitstring(self, bound_request):
        circuit = QuantumCircuit(3).cx(0, 1)
        operator = PauliOperator.from_terms([("ZII", 1.0), ("IZI", 1.0), ("IIZ", 1.0)])
        backend = CliffordBackend()
        result = backend.run_batch(
            [bound_request(circuit, operator, initial_bitstring="101")]
        )[0]
        assert backend.routed == {"clifford": 1, "statevector": 0}
        # |101> -> CX(0,1) -> |111>: every Z expectation is -1.
        np.testing.assert_allclose(result.term_vector, [-1.0, -1.0, -1.0])

    @pytest.mark.parametrize("phase", [-1.0, 1j, np.exp(0.25j)])
    def test_phase_shifted_basis_state_routes_to_stabilizer(self, phase, bound_request):
        # Regression: a basis state carrying a global phase (e.g. amplitude −1
        # after an evolved preparation) used to fail the exact `== 1.0` check
        # and silently fall back to dense simulation.  Pauli expectations are
        # phase-invariant, so these states are stabilizer-safe.
        circuit = QuantumCircuit(3).cx(0, 1)
        operator = PauliOperator.from_terms([("ZII", 1.0), ("IZI", 1.0), ("IIZ", 1.0)])
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[0b101] = phase
        backend = CliffordBackend()
        result = backend.run_batch(
            [bound_request(circuit, operator, initial_state=Statevector(amplitudes))]
        )[0]
        assert backend.routed == {"clifford": 1, "statevector": 0}
        # |101> -> CX(0,1) -> |111>: every Z expectation is -1, phase or not.
        np.testing.assert_allclose(result.term_vector, [-1.0, -1.0, -1.0])

    def test_subnormalised_single_amplitude_still_falls_back(self, bound_request):
        # A lone amplitude that is not unit-modulus is not a basis state.
        circuit = QuantumCircuit(2).cx(0, 1)
        operator = PauliOperator.from_terms([("ZZ", 1.0)])
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[2] = 0.5
        backend = CliffordBackend()
        backend.run_batch(
            [bound_request(circuit, operator, initial_state=Statevector(amplitudes))]
        )
        assert backend.routed == {"clifford": 0, "statevector": 1}

    def test_template_programs_route_through_stabilizer(self):
        ansatz = HardwareEfficientAnsatz(4, num_layers=2)
        operator = _random_operator(4, 8, seed=11)
        rng = np.random.default_rng(11)
        points = [
            (math.pi / 2) * rng.integers(0, 4, size=ansatz.num_parameters).astype(float)
            for _ in range(3)
        ]
        backend = CliffordBackend()
        results = backend.run_batch(_template_requests(ansatz, operator, points))
        assert backend.routed == {"clifford": 3, "statevector": 0}
        for point, result in zip(points, results):
            legacy = _legacy_term_vector(ansatz.bound_circuit(point), operator, None)
            np.testing.assert_allclose(result.term_vector, legacy, atol=1e-9)

    def test_template_requests_with_generic_angles_fall_back(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=1)
        operator = _random_operator(3, 5, seed=12)
        rng = np.random.default_rng(12)
        points = [rng.normal(size=ansatz.num_parameters) for _ in range(2)]
        backend = CliffordBackend()
        results = backend.run_batch(_template_requests(ansatz, operator, points))
        assert backend.routed == {"clifford": 0, "statevector": 2}
        assert all(result.backend_name == "statevector" for result in results)

    def test_superposition_initial_state_falls_back(self, bound_request):
        circuit = QuantumCircuit(2).cx(0, 1)
        operator = PauliOperator.from_terms([("ZZ", 1.0)])
        plus = Statevector(np.full(4, 0.5))
        backend = CliffordBackend()
        backend.run_batch([bound_request(circuit, operator, initial_state=plus)])
        assert backend.routed == {"clifford": 0, "statevector": 1}

    def test_need_states_forces_dense_execution(self, bound_request):
        backend = CliffordBackend()
        requests = _requests(bound_request, clifford_angles=True, batch=2, seed=7)
        results = backend.run_batch(requests, need_states=True)
        assert backend.routed == {"clifford": 0, "statevector": 2}
        assert all(result.state is not None for result in results)


class TestEstimatorBackendResults:
    def test_exact_estimator_matches_legacy_estimate(self, bound_request):
        requests = _requests(bound_request, batch=3, seed=8)
        backend_results = StatevectorBackend().run_batch(requests)
        from_backend = ExactEstimator(seed=0)
        legacy = ExactEstimator(seed=0)
        for request, backend_result in zip(requests, backend_results):
            (via_backend,) = from_backend.estimate_backend_results(
                [backend_result], [request.operator]
            )
            direct = legacy.estimate(
                request.program.bind(request.parameters), request.operator, request.initial_state
            )
            assert via_backend.value == direct.value
            assert via_backend.shots_used == direct.shots_used
            np.testing.assert_array_equal(via_backend.term_vector, direct.term_vector)
        assert from_backend.total_shots == legacy.total_shots
        assert from_backend.total_evaluations == legacy.total_evaluations

    def test_shot_noise_estimator_consumes_term_vectors(self, bound_request):
        requests = _requests(bound_request, batch=2, seed=9)
        backend_results = StatevectorBackend().run_batch(requests)
        estimator = ShotNoiseEstimator(shots_per_term=256, seed=1)
        (result,) = estimator.estimate_backend_results(
            backend_results[:1], [requests[0].operator]
        )
        assert result.variance > 0
        assert estimator.total_evaluations == 1

    def test_estimator_without_payload_raises(self, bound_request):
        requests = _requests(bound_request, clifford_angles=True, batch=1, seed=10)
        clifford_result = CliffordBackend().run_batch(requests)[0]
        # The stabilizer tier attaches no state, and sampling needs one.
        with pytest.raises(ValueError, match="need_states"):
            SamplingEstimator(seed=0).estimate_backend_results(
                [clifford_result], [requests[0].operator]
            )


def test_make_execution_backend_registry():
    assert isinstance(make_execution_backend("statevector"), StatevectorBackend)
    assert isinstance(make_execution_backend("clifford"), CliffordBackend)
    with pytest.raises(ValueError):
        make_execution_backend("tensor-network")


#: Initial inputs no backend may run: unchecked, the dense path reads the
#: state while the stabilizer and propagation paths read the bitstring (and
#: pad or misparse a malformed one), so backends would disagree.
_MALFORMED_INITIAL_INPUTS = {
    "short bitstring": {"initial_bitstring": "01"},
    "non-binary bitstring": {"initial_bitstring": "0a1"},
    "state disagrees with bitstring": {
        "initial_state": Statevector.computational_basis(3, "100"),
        "initial_bitstring": "000",
    },
    "state of the wrong width": {"initial_state": Statevector.zero_state(2)},
}


@pytest.mark.parametrize(
    "backend", ["statevector", "clifford", "pauli_propagation", "density_matrix"]
)
@pytest.mark.parametrize("case", sorted(_MALFORMED_INITIAL_INPUTS))
def test_malformed_initial_input_rejected_for_every_backend(backend, case):
    program = HardwareEfficientAnsatz(3, num_layers=1).program()
    operator = PauliOperator.from_terms([("IZI", 1.0), ("IIZ", 1.0)])
    zeros = np.zeros(program.num_parameters)
    with pytest.raises(ValueError):
        request = ExecutionRequest(
            operator, program, zeros, **_MALFORMED_INITIAL_INPUTS[case]
        )
        make_execution_backend(backend).run_batch([request])
    # The agreeing pair runs |100> on every backend; the CX ladder of the
    # zero-angle ansatz takes it to |111>.
    request = ExecutionRequest(
        operator,
        program,
        zeros,
        initial_state=Statevector.computational_basis(3, "100"),
        initial_bitstring="100",
    )
    result = make_execution_backend(backend).run_batch([request])[0]
    np.testing.assert_allclose(result.term_vector, [-1.0, -1.0], atol=1e-12)
