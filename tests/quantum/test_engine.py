"""Parity tests: the compiled engine must match the naive per-term path."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from dense_reference import kron_pauli, kron_sum_matrix
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.quantum import QuantumCircuit
from repro.quantum import engine as engine_module
from repro.quantum.engine import CompiledPauliOperator, compiled_pauli_operator
from repro.quantum.pauli import PAULI_LABELS, PauliOperator
from repro.quantum.statevector import Statevector


def random_state(num_qubits: int, rng: np.random.Generator) -> Statevector:
    amplitudes = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return Statevector(amplitudes / np.linalg.norm(amplitudes))


def random_operator(
    num_qubits: int, num_terms: int, rng: np.random.Generator
) -> PauliOperator:
    labels = set()
    while len(labels) < num_terms:
        labels.add("".join(rng.choice(list(PAULI_LABELS), size=num_qubits)))
    coefficients = rng.normal(size=num_terms)
    return PauliOperator(num_qubits, dict(zip(sorted(labels), coefficients)))


class TestEngineParity:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 6, 8])
    def test_matches_naive_pauli_expectation(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for _ in range(3):
            operator = random_operator(num_qubits, min(12, 4 ** num_qubits), rng)
            state = random_state(num_qubits, rng)
            engine = compiled_pauli_operator(operator)
            vector = engine.expectation_values(state)
            naive = np.array([state.pauli_expectation(p) for p in engine.paulis])
            np.testing.assert_allclose(vector, naive, atol=1e-10)

    @pytest.mark.parametrize(
        "label", ["X", "Y", "Z", "I", "XY", "YZ", "ZI", "YY", "XYZ", "ZYX", "III"]
    )
    def test_single_term_matches_dense_matrix(self, label):
        rng = np.random.default_rng(hash(label) % 2 ** 32)
        state = random_state(len(label), rng)
        engine = CompiledPauliOperator([label])
        expected = np.vdot(state.data, kron_pauli(label) @ state.data).real
        assert engine.expectation_values(state)[0] == pytest.approx(expected, abs=1e-10)

    def test_matches_dense_operator_expectation(self):
        rng = np.random.default_rng(9)
        operator = random_operator(4, 20, rng)
        state = random_state(4, rng)
        engine = compiled_pauli_operator(operator)
        dense = np.vdot(state.data, kron_sum_matrix(operator) @ state.data).real
        assert engine.expectation(state) == pytest.approx(dense, abs=1e-10)
        assert state.expectation(operator) == pytest.approx(dense, abs=1e-10)

    def test_density_path_matches_statevector_path(self):
        rng = np.random.default_rng(11)
        operator = random_operator(3, 15, rng)
        state = random_state(3, rng)
        engine = compiled_pauli_operator(operator)
        rho = np.outer(state.data, state.data.conj())
        np.testing.assert_allclose(
            engine.expectation_values_density(rho),
            engine.expectation_values(state),
            atol=1e-10,
        )

    def test_batched_matches_single(self):
        rng = np.random.default_rng(13)
        operator = random_operator(4, 10, rng)
        engine = compiled_pauli_operator(operator)
        states = [random_state(4, rng) for _ in range(5)]
        batch = engine.expectation_values_batch(states)
        assert batch.shape == (5, engine.num_terms)
        for row, state in zip(batch, states):
            np.testing.assert_allclose(row, engine.expectation_values(state), atol=1e-12)

    def test_identity_term_is_one_on_normalized_states(self):
        rng = np.random.default_rng(17)
        engine = CompiledPauliOperator(["II", "ZZ"])
        state = random_state(2, rng)
        values = engine.expectation_values(state)
        assert values[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(engine.identity_mask, [True, False])
        np.testing.assert_array_equal(engine.weights, [0, 2])


class TestEngineApi:
    def test_term_order_follows_operator_insertion_order(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XI", 0.5), ("IY", -0.25)])
        engine = compiled_pauli_operator(operator)
        assert [p.label for p in engine.paulis] == ["ZZ", "XI", "IY"]
        np.testing.assert_allclose(engine.coefficients, [1.0, 0.5, -0.25])

    def test_zero_coefficient_terms_are_compiled(self):
        operator = PauliOperator(2, {"ZZ": 0.0, "XX": 1.0})
        engine = compiled_pauli_operator(operator)
        assert engine.num_terms == 2
        state = Statevector.zero_state(2)
        assert engine.expectation_values(state)[0] == pytest.approx(1.0)  # <00|ZZ|00>

    def test_cache_reuses_and_invalidates(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XX", 0.5)])
        engine = compiled_pauli_operator(operator)
        assert compiled_pauli_operator(operator) is engine
        operator.chop(0.6)  # in-place mutation drops the XX term
        recompiled = compiled_pauli_operator(operator)
        assert recompiled is not engine
        assert recompiled.num_terms == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            CompiledPauliOperator([])  # no num_qubits
        with pytest.raises(ValueError):
            CompiledPauliOperator(["XI", "X"])  # mismatched qubit counts
        with pytest.raises(ValueError):
            CompiledPauliOperator(["XX"], coefficients=[1.0, 2.0])
        engine = CompiledPauliOperator(["XX"])
        with pytest.raises(ValueError):
            engine.expectation_values(np.ones(8))  # wrong dimension
        with pytest.raises(ValueError):
            engine.expectation_values_density(np.ones((2, 2)))

    def test_empty_engine(self):
        engine = CompiledPauliOperator([], num_qubits=2)
        assert engine.num_terms == 0
        assert engine.expectation_values(Statevector.zero_state(2)).shape == (0,)
        assert engine.expectation(Statevector.zero_state(2)) == 0.0

    def test_estimator_term_vector_alignment(self):
        # The estimator contract: term_vector follows the operator's order.
        from repro.quantum.sampling import ExactEstimator

        operator = PauliOperator.from_terms([("ZZ", 0.7), ("XI", -0.4), ("II", 0.5)])
        circuit = QuantumCircuit(2).ry(0.3, 0).cx(0, 1)
        result = ExactEstimator().estimate(circuit, operator)
        assert result.term_basis == compiled_pauli_operator(operator).paulis
        state = Statevector.zero_state(2).evolve(circuit)
        for pauli, value in zip(result.term_basis, result.term_vector):
            assert value == pytest.approx(state.pauli_expectation(pauli), abs=1e-10)
        assert result.value == pytest.approx(
            sum(c.real * v for c, v in zip([0.7, -0.4, 0.5], result.term_vector))
        )


def _real_coefficients(operator: PauliOperator) -> np.ndarray:
    """The operator's real coefficients in its insertion order."""
    return np.array([operator.coefficient(p).real for p in operator.paulis()])


class TestSharedTermTables:
    def test_operators_over_one_basis_share_one_table(self):
        basis = ["ZZI", "XIX", "IYY", "III"]
        first = PauliOperator(3, dict(zip(basis, [1.0, -0.5, 0.25, 2.0])))
        second = PauliOperator(3, dict(zip(basis, [0.3, 0.7, 0.0, 1.5])))
        engine_a = compiled_pauli_operator(first)
        engine_b = compiled_pauli_operator(second)
        assert engine_a is not engine_b
        assert engine_a._tables is engine_b._tables
        assert not hasattr(engine_a, "_perm") and not hasattr(engine_a, "_signs")
        state = random_state(3, np.random.default_rng(23))
        values = engine_a.expectation_values(state)
        np.testing.assert_array_equal(values, engine_b.expectation_values(state))
        assert engine_a.expectation(state) == float(_real_coefficients(first) @ values)
        assert engine_b.expectation(state) == float(_real_coefficients(second) @ values)
        assert engine_a.expectation(state) != engine_b.expectation(state)
        assert engine_a.num_measured_terms == 3
        assert engine_b.num_measured_terms == 2

    def test_chop_recompiles_only_that_operator(self):
        basis = ["XXZ", "ZIZ", "YYI"]
        first = PauliOperator(3, dict(zip(basis, [1.0, 0.01, -0.4])))
        second = PauliOperator(3, dict(zip(basis, [0.5, 0.02, 0.6])))
        engine_a = compiled_pauli_operator(first)
        engine_b = compiled_pauli_operator(second)
        shared = engine_a._tables
        first.chop(0.1)
        recompiled = compiled_pauli_operator(first)
        assert recompiled is not engine_a
        assert [p.label for p in recompiled.paulis] == ["XXZ", "YYI"]
        assert recompiled._tables is not shared
        assert compiled_pauli_operator(second) is engine_b
        assert engine_b._tables is shared

    def test_table_is_dropped_with_its_last_engine(self):
        key = (5, ("XYZIX", "ZZZZZ", "IYIYI"))
        engine = CompiledPauliOperator(list(key[1]), [1.0, 2.0, 3.0])
        other = CompiledPauliOperator(list(key[1]), [4.0, 5.0, 6.0])
        assert engine_module._TERM_TABLES[key] is engine._tables
        del engine
        gc.collect()
        assert key in engine_module._TERM_TABLES
        del other
        gc.collect()
        assert key not in engine_module._TERM_TABLES


def _reference_tables(labels: list[str], num_qubits: int):
    """The per-operator tables of the unshared engine, built per qubit:
    ``perm[t, b] = b ^ flip_t``, ``signs[t, b] = (-1)^popcount(b & phase_t)``
    and ``i^{n_Y}`` (qubit 0 is the most significant bit)."""
    indices = np.arange(1 << num_qubits, dtype=np.int64)
    perm = np.empty((len(labels), indices.size), dtype=np.int64)
    signs = np.empty((len(labels), indices.size))
    for t, label in enumerate(labels):
        flipped = indices.copy()
        parity = np.zeros_like(indices)
        for qubit, factor in enumerate(label):
            bit = 1 << (num_qubits - 1 - qubit)
            if factor in "XY":
                flipped ^= bit
            if factor in "YZ":
                parity ^= (indices & bit) != 0
        perm[t] = flipped
        signs[t] = 1.0 - 2.0 * parity.astype(float)
    y_counts = np.array([label.count("Y") for label in labels], dtype=np.int64)
    return indices, perm, signs, np.power(1j, y_counts)


#: Widths up to which the property also checks the density path (a dense
#: ``2^n x 2^n`` matrix; 12 qubits would need 256 MB).
_DENSITY_MAX_QUBITS = 7


@st.composite
def _bases_and_states(draw):
    """Term lists with shared flip masks, Y factors and repeated labels, and
    unnormalised states whose parts include +0.0 and -0.0."""
    num_qubits = draw(st.integers(1, 12))
    flips = draw(st.lists(st.integers(0, (1 << num_qubits) - 1), min_size=1, max_size=4))
    labels = []
    for flip in flips:
        for _ in range(draw(st.integers(1, 4))):
            labels.append(
                "".join(
                    draw(st.sampled_from("XY" if flip >> (num_qubits - 1 - q) & 1 else "IZ"))
                    for q in range(num_qubits)
                )
            )
    if draw(st.booleans()):
        labels.append(labels[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_fraction = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    psi = np.empty(1 << num_qubits, dtype=complex)
    for part in (psi.real, psi.imag):  # set in place: arithmetic would drop -0.0
        part[:] = rng.normal(size=psi.size)
        zeros = rng.random(psi.size) < zero_fraction
        part[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zeros.sum())))
    return num_qubits, labels, psi


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(case=_bases_and_states())
def test_signed_gather_is_byte_equal_to_perm_and_sign_tables(case):
    """The signed gather reproduces the unshared engine's formula,
    ``conj(psi)[perm] * signs`` through ``_term_products``, to the byte."""
    num_qubits, labels, psi = case
    indices, perm, signs, prefactors = _reference_tables(labels, num_qubits)
    engine = CompiledPauliOperator(labels)
    expected = np.real(prefactors * engine_module._term_products(np.conj(psi)[perm] * signs, psi))
    assert engine.expectation_values(psi).tobytes() == expected.tobytes()
    if num_qubits <= _DENSITY_MAX_QUBITS:
        rho = np.outer(psi, np.roll(psi, 1).conj())
        expected = np.real(prefactors * (rho[indices[None, :], perm] * signs).sum(axis=1))
        assert engine.expectation_values_density(rho).tobytes() == expected.tobytes()
