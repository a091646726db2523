"""Measurement-plan unit and property tests.

The compile-once :class:`~repro.quantum.measurement.MeasurementPlan` must be
a pure refactor of the legacy per-group sampling loop: identical rotated
probabilities (bit-for-bit, via the batched gate kernel), identical sign
evaluation (mask parity vs. the bit-table product), identical shot
accounting — plus the new guarantees: the vectorized inverse-CDF sampler,
the normalization guard, and the persistent LRU plan cache with stats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import (
    NORMALIZATION_ATOL,
    MeasurementPlan,
    basis_rotation_circuit,
    clear_measurement_plan_cache,
    measurement_basis,
    measurement_plan_for,
    sample_outcomes,
    set_measurement_plan_cache_limit,
)
from repro.quantum.pauli import PauliOperator
from repro.quantum.sampling import SamplingEstimator
from repro.quantum.statevector import Statevector

# -- strategies ------------------------------------------------------------------


@st.composite
def _operators(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    labels = draw(
        st.lists(
            st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    coefficients = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=len(labels),
            max_size=len(labels),
        )
    )
    return PauliOperator.from_terms(
        list(zip(labels, coefficients)), num_qubits=num_qubits
    )


def _random_state(num_qubits: int, seed: int) -> Statevector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(amplitudes / np.linalg.norm(amplitudes))


def _bit_table(outcomes: np.ndarray, num_qubits: int) -> np.ndarray:
    """Bit value of each qubit for each sampled outcome (qubit 0 = MSB).

    This is the reference sign evaluation the measurement plan's mask-parity
    path is tested against.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    shifts = np.arange(num_qubits - 1, -1, -1, dtype=np.int64)
    return ((outcomes[:, None] >> shifts[None, :]) & 1).astype(float)


def _legacy_group_values(plan, group, outcomes: np.ndarray) -> np.ndarray:
    """The pre-plan sign evaluation: per-qubit bit-table product per term."""
    bit_table = _bit_table(outcomes, plan.num_qubits)
    values = []
    for term_index in group.term_indices:
        signs = np.ones(len(outcomes))
        for qubit in plan.paulis[term_index].support():
            signs *= 1.0 - 2.0 * bit_table[:, qubit]
        values.append(signs.mean())
    return np.array(values)


# -- plan vs. legacy loop --------------------------------------------------------


class TestPlanMatchesLegacyLoop:
    @given(operator=_operators(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_rotations_and_signs_match_legacy_per_group_loop(self, operator, seed):
        plan = MeasurementPlan(operator)
        state = _random_state(operator.num_qubits, seed)
        stacked = state.data.reshape(1, -1)
        rng = np.random.default_rng(seed)
        for group in plan.groups:
            probabilities = plan.group_probabilities(stacked, group)[0]
            rotated = state.evolve(basis_rotation_circuit(list(group.basis)))
            # Bit-identical to evolving the request alone (a batch of one).
            np.testing.assert_array_equal(probabilities, rotated.probabilities())
            # Independent oracle: the rotated distribution's exact term means
            # equal the Pauli expectations of the unrotated state.
            signs = plan.group_term_values(group, np.arange(probabilities.size)[:, None])
            for term_index, sign in zip(group.term_indices, signs.T):
                expected = state.pauli_expectation(plan.paulis[term_index])
                assert abs(probabilities @ sign - expected) <= 1e-12
            outcomes = rng.integers(0, probabilities.size, size=48)
            np.testing.assert_array_equal(
                plan.group_term_values(group, outcomes[None, :])[0],
                _legacy_group_values(plan, group, outcomes),
            )

    @given(operator=_operators(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_term_matrix_covers_every_term(self, operator, seed):
        plan = MeasurementPlan(operator)
        state = _random_state(operator.num_qubits, seed)
        matrix = plan.term_matrix(
            state.data.reshape(1, -1), 32, [np.random.default_rng(seed)]
        )
        assert matrix.shape == (1, len(plan.paulis))
        for index, pauli in enumerate(plan.paulis):
            if pauli.is_identity:
                assert matrix[0, index] == 1.0
            else:
                assert -1.0 <= matrix[0, index] <= 1.0

    def test_group_structure(self):
        operator = PauliOperator.from_terms(
            [("XI", 0.5), ("ZZ", 1.0), ("ZI", -0.25), ("II", 2.0)]
        )
        plan = measurement_plan_for(operator)
        assert plan.num_terms == 4
        # ZZ and ZI are qubit-wise commuting; XI needs its own X-basis group.
        assert plan.num_groups == 2
        assert plan.shots_used(100) == 200
        bases = {group.basis for group in plan.groups}
        assert bases == {("Z", "Z"), ("X", "I")}
        np.testing.assert_array_equal(plan.identity_mask, [False, False, False, True])
        # Support masks are MSB-first: ZI on 2 qubits is bit 0b10.
        (zz_group,) = [g for g in plan.groups if g.basis == ("Z", "Z")]
        mask_by_term = dict(zip(zz_group.term_indices, zz_group.support_masks))
        assert mask_by_term == {1: 0b11, 2: 0b10}

    def test_identity_only_operator_samples_nothing(self):
        plan = MeasurementPlan(PauliOperator.from_terms([("II", 3.0)]))
        assert plan.num_groups == 0
        assert plan.shots_used(64) == 64  # legacy floor: one block minimum
        matrix = plan.term_matrix(
            np.array([[1.0, 0, 0, 0]], dtype=complex), 64, [np.random.default_rng(0)]
        )
        np.testing.assert_array_equal(matrix, [[1.0]])

    def test_non_commuting_basis_rejected(self):
        with pytest.raises(ValueError, match="commuting"):
            measurement_basis(
                [PauliOperator.from_terms([("X", 1.0)]).paulis()[0],
                 PauliOperator.from_terms([("Z", 1.0)]).paulis()[0]]
            )


# -- vectorized sampling helper --------------------------------------------------


class TestSampleOutcomes:
    def test_inverse_cdf_is_deterministic_in_the_uniforms(self):
        probabilities = np.array([[0.0, 0.5, 0.0, 0.5]])
        uniforms = np.array([[0.0, 0.25, 0.499, 0.5, 0.75, 0.999]])
        np.testing.assert_array_equal(
            sample_outcomes(probabilities, uniforms), [[1, 1, 1, 3, 3, 3]]
        )

    def test_rows_are_independent(self):
        probabilities = np.array([[1.0, 0.0], [0.0, 1.0]])
        uniforms = np.full((2, 5), 0.5)
        np.testing.assert_array_equal(
            sample_outcomes(probabilities, uniforms),
            [[0] * 5, [1] * 5],
        )

    def test_outcomes_stay_in_range_at_the_edges(self):
        rng = np.random.default_rng(0)
        probabilities = rng.random((3, 8))
        outcomes = sample_outcomes(probabilities, np.full((3, 4), 1.0 - 1e-16))
        assert outcomes.max() <= 7

    def test_row_totals_scale_like_renormalization(self):
        # Scaling uniforms by the row total must pick the same outcomes as
        # dividing the probabilities — the drift absorption contract.
        rng = np.random.default_rng(1)
        raw = rng.random((2, 16))
        uniforms = rng.random((2, 64))
        np.testing.assert_array_equal(
            sample_outcomes(raw, uniforms),
            sample_outcomes(raw / raw.sum(axis=1, keepdims=True), uniforms),
        )


def test_bit_table_matches_per_column_loop():
    outcomes = np.array([0, 1, 5, 7, 6], dtype=np.int64)
    table = _bit_table(outcomes, 3)
    expected = np.zeros((5, 3))
    for column in range(3):
        expected[:, column] = (outcomes >> (2 - column)) & 1
    np.testing.assert_array_equal(table, expected)


# -- normalization guard ---------------------------------------------------------


class TestNormalizationGuard:
    def test_unnormalized_state_rejected_with_actionable_message(self):
        plan = MeasurementPlan(PauliOperator.from_terms([("Z", 1.0)]))
        bad = np.array([[1.0, 1.0]], dtype=complex)  # norm sqrt(2)
        with pytest.raises(ValueError, match="normalize"):
            plan.term_matrix(bad, 16, [np.random.default_rng(0)])

    def test_fp_drift_within_tolerance_is_absorbed(self):
        plan = MeasurementPlan(PauliOperator.from_terms([("Z", 1.0)]))
        drift = np.sqrt(1.0 + NORMALIZATION_ATOL / 4)
        amplitudes = np.array([[drift, 0.0]], dtype=complex)
        matrix = plan.term_matrix(amplitudes, 16, [np.random.default_rng(0)])
        np.testing.assert_array_equal(matrix, [[1.0]])


# -- plan cache ------------------------------------------------------------------


@pytest.fixture
def _fresh_plan_cache():
    clear_measurement_plan_cache()
    set_measurement_plan_cache_limit(2)
    yield
    set_measurement_plan_cache_limit(256)
    clear_measurement_plan_cache()


class TestPlanCache:
    def test_interned_by_value_not_identity(self, _fresh_plan_cache):
        left = PauliOperator.from_terms([("XZ", 0.5), ("II", 1.0)])
        right = PauliOperator.from_terms([("XZ", 0.5), ("II", 1.0)])
        assert measurement_plan_for(left) is measurement_plan_for(right)
        changed = PauliOperator.from_terms([("XZ", 0.75), ("II", 1.0)])
        assert measurement_plan_for(changed) is not measurement_plan_for(left)


# -- estimator accounting over plans ---------------------------------------------


class TestSamplingEstimatorAccounting:
    def test_empirical_variance_matches_formula(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XI", 0.5), ("II", 2.0)])
        estimator = SamplingEstimator(shots_per_term=128, seed=3)
        state = _random_state(2, 9)
        result = estimator.estimate(QuantumCircuit(2), operator, state)
        plan = measurement_plan_for(operator)
        expected = 0.0
        for coefficient, mean, identity in zip(
            plan.coefficients, result.term_vector, plan.identity_mask
        ):
            if not identity:
                expected += coefficient**2 * max(1.0 - mean**2, 0.0) / 128
        assert result.variance == pytest.approx(expected)
        assert result.variance > 0.0

    def test_shots_used_charges_per_sampled_group(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XI", 0.5), ("IY", 0.5)])
        estimator = SamplingEstimator(shots_per_term=100, seed=0)
        result = estimator.estimate(QuantumCircuit(2), operator, _random_state(2, 1))
        plan = measurement_plan_for(operator)
        assert result.shots_used == 100 * plan.num_groups
        assert estimator.total_shots == result.shots_used
