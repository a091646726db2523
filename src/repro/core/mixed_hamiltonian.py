"""Cluster mixed-Hamiltonian construction (paper §5.2.1).

A cluster handling Hamiltonians {H_1 … H_N} first finds the superset of their
Pauli terms, zero-pads every Hamiltonian onto it, and optimises the average

    H_mixed = (1/N) Σ_i H_i^padded.

The padded basis is kept alongside the mixed operator because the individual
task losses are later recombined classically from the per-term expectation
values measured for the mixed Hamiltonian (§5.2.2, §5.3).  The recombination
is a single matrix-vector product: ``coefficient_matrix @ term_vector``,
where the term vector follows the basis order — the same order the compiled
expectation engine and every :class:`~repro.quantum.sampling.EstimatorResult`
use.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..quantum.engine import CompiledPauliOperator, compiled_pauli_operator
from ..quantum.pauli import PauliOperator, PauliString

__all__ = ["MixedHamiltonian", "build_mixed_hamiltonian"]


@dataclass(frozen=True)
class MixedHamiltonian:
    """The mixed operator plus the shared padded term basis.

    ``coefficient_matrix[i, j]`` is task ``i``'s (real) coefficient of basis
    term ``j``; the mixed operator's terms are stored in basis order, so a
    term-value vector measured for the mixed operator recombines into all
    member-task energies with one matmul (:meth:`individual_values`).
    """

    operator: PauliOperator
    basis: tuple[PauliString, ...]
    coefficient_matrix: np.ndarray  # shape (num_tasks, num_terms)

    @property
    def num_tasks(self) -> int:
        return self.coefficient_matrix.shape[0]

    @property
    def num_terms(self) -> int:
        return len(self.basis)

    @cached_property
    def engine(self) -> CompiledPauliOperator:
        """Compiled expectation engine over the mixed operator (basis order)."""
        engine = compiled_pauli_operator(self.operator)
        if engine.paulis != self.basis:  # pragma: no cover - construction invariant
            raise RuntimeError("compiled term order diverged from the padded basis")
        return engine

    def term_vector(self, term_values: Mapping[PauliString, float]) -> np.ndarray:
        """Basis-ordered value vector from a ``{pauli: value}`` mapping.

        Missing terms contribute their identity value when they are the
        identity and zero otherwise (they were not measured because their
        mixed coefficient is zero).
        """
        return np.array(
            [
                term_values.get(pauli, 1.0 if pauli.is_identity else 0.0)
                for pauli in self.basis
            ],
            dtype=float,
        )

    def _coerce_vector(
        self, term_values: Mapping[PauliString, float] | np.ndarray
    ) -> np.ndarray:
        if isinstance(term_values, Mapping):
            return self.term_vector(term_values)
        vector = np.asarray(term_values, dtype=float)
        if vector.shape != (self.num_terms,):
            raise ValueError(
                f"term vector has shape {vector.shape}, expected ({self.num_terms},)"
            )
        return vector

    def individual_value(
        self, task_index: int, term_values: Mapping[PauliString, float] | np.ndarray
    ) -> float:
        """Recombine stored per-term expectation values into one task's energy.

        This is the classical recombination of §5.3: no quantum cost.
        ``term_values`` may be a basis-ordered vector or a ``{pauli: value}``
        mapping.
        """
        if not 0 <= task_index < self.num_tasks:
            raise IndexError("task_index out of range")
        return float(self.coefficient_matrix[task_index] @ self._coerce_vector(term_values))

    def individual_values(
        self, term_values: Mapping[PauliString, float] | np.ndarray
    ) -> np.ndarray:
        """Energies of every member task from one set of term values.

        A single ``coefficient_matrix @ term_vector`` product — the vectorized
        form of the per-task recombination loops.
        """
        return self.coefficient_matrix @ self._coerce_vector(term_values)


def build_mixed_hamiltonian(hamiltonians: list[PauliOperator]) -> MixedHamiltonian:
    """Pad the Hamiltonians to a shared term basis and average them."""
    if not hamiltonians:
        raise ValueError("hamiltonians must be non-empty")
    num_qubits = hamiltonians[0].num_qubits
    for hamiltonian in hamiltonians:
        if hamiltonian.num_qubits != num_qubits:
            raise ValueError("all Hamiltonians in a cluster must share the qubit count")
    basis = tuple(PauliOperator.term_superset(hamiltonians))
    coefficient_matrix = np.array(
        [hamiltonian.coefficient_vector(list(basis)) for hamiltonian in hamiltonians]
    )
    mean_coefficients = coefficient_matrix.mean(axis=0)
    operator = PauliOperator(
        num_qubits,
        {pauli: coefficient for pauli, coefficient in zip(basis, mean_coefficients)},
    )
    return MixedHamiltonian(
        operator=operator, basis=basis, coefficient_matrix=coefficient_matrix
    )
