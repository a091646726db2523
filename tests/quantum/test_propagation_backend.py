"""Tests for the vectorized Pauli-propagation backend and width routing.

Property tests pin the three contracts the backend is allowed to claim:

* with truncation disabled, propagation matches the dense statevector path
  to 1e-10 over every gate in the registry;
* Clifford-only circuits propagate without branching and with exact ±1
  coefficients (the integer-snapped structure tables);
* the batched backend is bit-identical to per-request compiled runs, and
  bit-identical across batch sizes and worker counts through the controller.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import HardwareEfficientAnsatz
from repro.core.config import TreeVQAConfig
from repro.core.controller import TreeVQAController
from repro.core.task import VQATask
from repro.quantum import (
    CompiledPropagation,
    ExecutionRequest,
    PauliOperator,
    PauliPropagationBackend,
    PauliPropagationConfig,
    QuantumCircuit,
    Statevector,
    StatevectorBackend,
    WidthRoutedBackend,
    clear_conjugation_cache,
    conjugation_cache_stats,
)
from repro.quantum.engine import compiled_pauli_operator
from repro.quantum.gates import GATE_REGISTRY

#: Gates whose static conjugation tables are single-branch (Clifford group).
_CLIFFORD_GATES = ("x", "y", "z", "h", "s", "sdg", "sx", "cx", "cz", "swap")


def _untruncated(num_qubits: int) -> PauliPropagationConfig:
    return PauliPropagationConfig(
        max_weight=num_qubits, coefficient_threshold=0.0, max_terms=10**7
    )


def _random_operator(num_qubits: int, num_terms: int, rng) -> PauliOperator:
    labels = set()
    while len(labels) < num_terms:
        labels.add("".join(rng.choice(list("IXYZ"), size=num_qubits)))
    return PauliOperator(
        num_qubits, dict(zip(sorted(labels), rng.normal(size=num_terms)))
    )


def _all_gates_circuit(num_qubits: int, rng) -> QuantumCircuit:
    """A bound circuit containing every registry gate once, in random order."""
    names = list(GATE_REGISTRY)
    rng.shuffle(names)
    circuit = QuantumCircuit(num_qubits)
    for name in names:
        spec = GATE_REGISTRY[name]
        qubits = rng.choice(num_qubits, size=spec.num_qubits, replace=False)
        params = rng.uniform(-math.pi, math.pi, size=spec.num_params)
        circuit.append(name, [int(q) for q in qubits], [float(p) for p in params])
    return circuit


def _random_bits(num_qubits: int, rng) -> str:
    return "".join(rng.choice(["0", "1"], size=num_qubits))


def _dense_expectation(circuit, operator, bits) -> float:
    state = Statevector.computational_basis(circuit.num_qubits, bits).evolve(circuit)
    engine = compiled_pauli_operator(operator)
    return float(engine.coefficients @ engine.expectation_values(state))


class TestCompiledPropagationParity:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_untruncated_matches_statevector_over_all_registry_gates(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = 3
        circuit = _all_gates_circuit(num_qubits, rng)
        operator = _random_operator(num_qubits, 6, rng)
        bits = _random_bits(num_qubits, rng)
        compiled, row = CompiledPropagation.for_circuit(
            circuit, operator, _untruncated(num_qubits)
        )
        value = compiled.expectation(row, bits)
        assert value == pytest.approx(
            _dense_expectation(circuit, operator, bits), abs=1e-10
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_clifford_circuits_never_branch_and_stay_exact(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = 4
        circuit = QuantumCircuit(num_qubits)
        for _ in range(20):
            name = str(rng.choice(_CLIFFORD_GATES))
            spec = GATE_REGISTRY[name]
            qubits = rng.choice(num_qubits, size=spec.num_qubits, replace=False)
            circuit.append(name, [int(q) for q in qubits])
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        if set(label) == {"I"}:
            label = "Z" + label[1:]
        operator = PauliOperator(num_qubits, {label: 1.0})
        compiled, row = CompiledPropagation.for_circuit(
            circuit, operator, _untruncated(num_qubits)
        )
        outcome = compiled.run(row)
        # A Clifford conjugation is a signed permutation of the Pauli group:
        # one term in, one term out, coefficient exactly ±1.
        assert outcome.peak_terms == 1
        assert outcome.final_terms == 1
        labels, coeffs = compiled.propagate_terms(row)
        assert len(labels) == 1
        assert abs(float(coeffs[0, 0])) == 1.0
        # The evaluated value is an exact integer (the dense reference only
        # agrees to float precision — its H gates carry 1/sqrt(2) rounding).
        bits = _random_bits(num_qubits, rng)
        value = compiled.expectation(row, bits)
        assert value in (-1.0, 0.0, 1.0)
        assert value == pytest.approx(
            _dense_expectation(circuit, operator, bits), abs=1e-10
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_batched_backend_bit_identical_to_per_request_runs(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = 4
        ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=2)
        operator = _random_operator(num_qubits, 8, rng)
        program = ansatz.program()
        rows = [
            rng.normal(0.0, 0.7, size=ansatz.num_parameters) for _ in range(5)
        ]
        requests = [
            ExecutionRequest(
                operator=operator,
                initial_bitstring="0" * num_qubits,
                program=program,
                parameters=row,
            )
            for row in rows
        ]
        backend = PauliPropagationBackend()
        results = backend.run_batch(requests)
        compiled = CompiledPropagation(
            program, operator, backend.config, per_term=True
        )
        for row, result in zip(rows, results):
            outcome = compiled.run(row, "0" * num_qubits)
            expected = outcome.values.copy()
            engine = compiled_pauli_operator(operator)
            expected[engine.identity_mask] = 1.0
            np.testing.assert_array_equal(result.term_vector, expected)
            assert result.metadata == outcome.as_metadata()


class TestPauliPropagationBackend:
    def _requests(self, num_qubits=4, batch=4, seed=0):
        rng = np.random.default_rng(seed)
        ansatz = HardwareEfficientAnsatz(num_qubits, num_layers=2)
        operator = _random_operator(num_qubits, 8, rng)
        return [
            ExecutionRequest(
                operator=operator,
                initial_bitstring="0" * num_qubits,
                program=ansatz.program(),
                parameters=rng.normal(0.0, 0.7, size=ansatz.num_parameters),
                tag=index,
            )
            for index in range(batch)
        ]

    def test_results_carry_order_tags_and_metadata(self):
        requests = self._requests()
        results = PauliPropagationBackend().run_batch(requests)
        assert [result.tag for result in results] == [0, 1, 2, 3]
        for result in results:
            assert result.backend_name == "pauli_propagation"
            assert result.state is None
            assert set(result.metadata) == {
                "final_terms",
                "peak_terms",
                "truncated_weight_terms",
                "truncated_coefficient_terms",
            }

    def test_need_states_is_rejected(self):
        backend = PauliPropagationBackend()
        with pytest.raises(ValueError, match="statevector"):
            backend.run_batch(self._requests(batch=1), need_states=True)

    def test_matches_statevector_backend_when_untruncated(self):
        requests = self._requests()
        loose = PauliPropagationBackend(_untruncated(4))
        dense = StatevectorBackend()
        for ours, reference in zip(
            loose.run_batch(requests), dense.run_batch(requests)
        ):
            np.testing.assert_allclose(
                ours.term_vector, reference.term_vector, rtol=0, atol=1e-10
            )
            assert ours.term_basis == reference.term_basis

    def test_truncation_counters_aggregate(self):
        backend = PauliPropagationBackend(
            PauliPropagationConfig(max_weight=1, coefficient_threshold=1e-3)
        )
        results = backend.run_batch(self._requests())
        # Truncation counts live on each result (they ride the worker wire);
        # the scheduler sums them into the run's metadata.
        assert len(results) == 4
        assert sum(result.metadata["truncated_weight_terms"] for result in results) > 0


def _tfim_tasks(num_qubits=4, fields=(0.5, 1.0)):
    tasks = []
    for g in fields:
        terms = [
            (
                "".join("Z" if i in (j, j + 1) else "I" for i in range(num_qubits)),
                -1.0,
            )
            for j in range(num_qubits - 1)
        ]
        terms += [
            ("".join("X" if i == j else "I" for i in range(num_qubits)), -g)
            for j in range(num_qubits)
        ]
        tasks.append(
            VQATask(
                name=f"tfim@{g}",
                hamiltonian=PauliOperator.from_terms(terms, num_qubits=num_qubits),
            )
        )
    return tasks


def _run_controller(**config_kwargs):
    config = TreeVQAConfig(max_rounds=3, seed=5, **config_kwargs)
    ansatz = HardwareEfficientAnsatz(4, num_layers=2)
    result = TreeVQAController(_tfim_tasks(), ansatz, config).run()
    return result


class TestControllerIntegration:
    def test_bit_identical_across_batch_sizes(self):
        energies = {}
        for batch_size in (None, 1, 3):
            result = _run_controller(
                backend="pauli_propagation", max_batch_size=batch_size
            )
            energies[batch_size] = [outcome.energy for outcome in result.outcomes]
        assert energies[None] == energies[1] == energies[3]

    def test_bit_identical_across_worker_counts_with_metadata(self):
        # Propagation metadata is summed from per-result metadata, which
        # rides the wire, so the whole dict is worker-count independent.
        runs = {}
        for backend in ("pauli_propagation", "auto"):
            in_process = _run_controller(backend=backend)
            pooled = _run_controller(backend=backend, execution_workers=2)
            assert [o.energy for o in in_process.outcomes] == [
                o.energy for o in pooled.outcomes
            ]
            assert in_process.metadata.get("propagation") == pooled.metadata.get(
                "propagation"
            )
            runs[backend] = (in_process, pooled)
        for result in runs["pauli_propagation"]:
            assert result.metadata["propagation"]["requests"] > 0
        # auto keeps these 4-qubit tasks on its statevector tier: nothing
        # propagated, so neither run reports propagation metadata.
        for result in runs["auto"]:
            assert "propagation" not in result.metadata

    def test_matches_statevector_controller_when_untruncated(self):
        dense = _run_controller(backend="statevector")
        propagated = _run_controller(
            backend="pauli_propagation",
            propagation_max_weight=4,
            propagation_coefficient_threshold=0.0,
        )
        np.testing.assert_allclose(
            [o.energy for o in dense.outcomes],
            [o.energy for o in propagated.outcomes],
            rtol=0,
            atol=1e-10,
        )

    def test_auto_backend_matches_statevector_below_width_limit(self):
        dense = _run_controller(backend="statevector")
        routed = _run_controller(backend="auto")
        assert [o.energy for o in dense.outcomes] == [
            o.energy for o in routed.outcomes
        ]


class TestWidthRoutedBackend:
    def test_routes_by_request_width(self):
        rng = np.random.default_rng(2)
        backend = WidthRoutedBackend()
        ansatz = HardwareEfficientAnsatz(21, num_layers=1)
        wide = ExecutionRequest(
            operator=PauliOperator.from_terms(
                [("Z" * 2 + "I" * 19, 1.0), ("I" * 20 + "X", 0.5)]
            ),
            initial_bitstring="0" * 21,
            program=ansatz.program(),
            parameters=rng.normal(size=ansatz.num_parameters),
        )
        narrow_ansatz = HardwareEfficientAnsatz(2, num_layers=1)
        narrow = ExecutionRequest(
            operator=_random_operator(2, 3, rng),
            initial_bitstring="00",
            program=narrow_ansatz.program(),
            parameters=rng.normal(size=narrow_ansatz.num_parameters),
        )
        results = backend.run_batch([wide, narrow, wide])
        assert backend.routed == {"pauli_propagation": 2, "statevector": 1}
        assert [result.backend_name for result in results] == [
            "pauli_propagation",
            "statevector",
            "pauli_propagation",
        ]
        np.testing.assert_array_equal(
            results[0].term_vector, results[2].term_vector
        )

    def test_narrow_results_match_pure_dense_backend(self):
        rng = np.random.default_rng(3)
        ansatz = HardwareEfficientAnsatz(3, num_layers=2)
        operator = _random_operator(3, 5, rng)
        requests = [
            ExecutionRequest(
                operator=operator,
                initial_bitstring="000",
                program=ansatz.program(),
                parameters=rng.normal(size=ansatz.num_parameters),
            )
            for _ in range(3)
        ]
        routed = WidthRoutedBackend().run_batch(requests)
        dense = StatevectorBackend().run_batch(requests)
        for ours, reference in zip(routed, dense):
            np.testing.assert_array_equal(ours.term_vector, reference.term_vector)


class TestConjugationCache:
    def test_fresh_angles_hit_the_structure_cache(self):
        clear_conjugation_cache()
        rng = np.random.default_rng(7)
        num_qubits = 3
        operator = _random_operator(num_qubits, 4, rng)
        config = _untruncated(num_qubits)
        for _ in range(3):
            circuit = QuantumCircuit(num_qubits)
            for qubit in range(num_qubits):
                # Fresh random angles every circuit: the legacy per-params
                # cache key guaranteed a miss here; the split cache hits the
                # per-gate-name structure after the first build.
                circuit.append("rx", [qubit], [float(rng.uniform(-3, 3))])
                circuit.append("rzz", [qubit, (qubit + 1) % num_qubits], [
                    float(rng.uniform(-3, 3))
                ])
            compiled, row = CompiledPropagation.for_circuit(circuit, operator, config)
            compiled.run(row)
        stats = conjugation_cache_stats()
        # Two structures built (rx, rzz); every subsequent lookup is a hit.
        assert stats["misses"] == 2
        assert stats["hits"] >= 4
        assert stats["size"] == 2

    def test_size_never_exceeds_limit(self):
        # Five trig structures plus more distinct static u3 tables than the
        # limit: structures and tables share one bound.
        clear_conjugation_cache()
        limit = conjugation_cache_stats()["limit"]
        angles = np.linspace(-3.0, 3.0, limit + 4)
        circuit = QuantumCircuit(2)
        for gate in ("rx", "ry", "rz", "p"):
            circuit.append(gate, [0], [0.3])
        circuit.append("rzz", [0, 1], [0.3])
        for angle in angles:
            circuit.append("u3", [1], [float(angle), 0.1, 0.2])
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XI", 0.5)])
        compiled, row = CompiledPropagation.for_circuit(circuit, operator)
        compiled.run(row)
        stats = conjugation_cache_stats()
        clear_conjugation_cache()
        assert stats["misses"] == 5 + len(angles)
        assert stats["size"] <= stats["limit"] == limit
        assert stats["evictions"] == stats["misses"] - limit

    def test_clear_resets_counters(self):
        clear_conjugation_cache()
        stats = conjugation_cache_stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
        assert stats["size"] == 0


class TestConfigKnobs:
    def test_knobs_require_a_propagation_capable_backend(self):
        with pytest.raises(ValueError, match="propagation"):
            TreeVQAConfig(backend="statevector", propagation_max_weight=4)

    def test_invalid_knob_values_are_rejected(self):
        with pytest.raises(ValueError):
            TreeVQAConfig(backend="pauli_propagation", propagation_max_weight=0)
        with pytest.raises(ValueError):
            TreeVQAConfig(
                backend="pauli_propagation", propagation_coefficient_threshold=-1.0
            )
        with pytest.raises(ValueError):
            TreeVQAConfig(backend="pauli_propagation", propagation_max_terms=0)

    def test_resolved_config_applies_overrides(self):
        config = TreeVQAConfig(
            backend="auto",
            propagation_max_weight=5,
            propagation_max_terms=1234,
        )
        resolved = config.resolve_propagation_config()
        assert resolved.max_weight == 5
        assert resolved.max_terms == 1234
        # Unset knobs keep the paper defaults.
        assert resolved.coefficient_threshold == pytest.approx(1e-8)


class TestWideTaskGuards:
    def test_error_and_fidelity_are_nan_without_feasible_reference(self):
        operator = PauliOperator(50, {"Z" + "I" * 49: 1.0})
        task = VQATask(name="wide", hamiltonian=operator)
        assert math.isnan(task.error(-1.0))
        assert math.isnan(task.fidelity(-1.0))

    def test_explicit_reference_energy_still_works_when_wide(self):
        operator = PauliOperator(50, {"Z" + "I" * 49: 1.0})
        task = VQATask(name="wide", hamiltonian=operator, reference_energy=-1.0)
        assert task.fidelity(-1.0) == 1.0
