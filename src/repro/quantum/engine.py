"""Compile-once, vectorized Pauli expectation engine.

Every optimizer step of every TreeVQA cluster bottoms out in evaluating all
Pauli terms of a (mixed) Hamiltonian against a statevector.  Doing that one
term at a time with :meth:`Statevector.pauli_expectation` costs dozens of
small NumPy calls per term; this module instead compiles a term basis
**once** into one signed index table and evaluates **all terms in one
vectorized pass** over the 2^n amplitudes.

The compilation uses each term's flip and phase masks
(:func:`~repro.quantum.pauli.pauli_masks`:
``P|b> = i^{n_Y} (-1)^{popcount(b & phase)} |b ^ flip>``), so the expectation
value of term ``t`` is

    <psi|P_t|psi> = i^{n_Y_t} * sum_b conj(psi[b ^ f_t]) * s_t[b] * psi[b].

The sign ``s_t[b]`` is folded into the index: with
``signed_perm[t, b] = (b ^ f_t) + 2^n * popcount(b & phase_t) % 2`` and the
per-state row ``ext = [conj(psi), -conj(psi)]``, the factor
``conj(psi[b ^ f_t]) * s_t[b]`` is the gather ``ext[signed_perm[t, b]]``.
An evaluation is that one gather and one BLAS matrix-vector product for the
whole operator (issued in four-row blocks that keep it on the calling thread,
see :data:`_GEMV_BLOCK_ROWS`).

The table depends only on the term basis, never on coefficients, and TreeVQA
pads every task of a cluster onto one shared basis.  So there is **one signed
index table per term basis**: tables are interned by ``(num_qubits, term
labels)`` for exactly as long as some :class:`CompiledPauliOperator` holds
them, and each operator keeps only its own coefficients.

Contract used throughout the code base:

* :meth:`CompiledPauliOperator.expectation_values` returns one value per term
  in the engine's term order (:attr:`CompiledPauliOperator.paulis`), which for
  an engine compiled from a :class:`~repro.quantum.pauli.PauliOperator` is the
  operator's insertion order — the same order
  :class:`~repro.quantum.sampling.EstimatorResult` uses for its term vector
  and :class:`~repro.core.mixed_hamiltonian.MixedHamiltonian` uses for its
  padded basis and coefficient matrix.
* Zero-coefficient terms are compiled and evaluated too: clusters reuse the
  measured term vector to recombine *individual* task energies whose
  coefficients need not vanish where the mixed coefficient does.

Use :func:`compiled_pauli_operator` to get a cached engine for an operator;
the cache lives on the operator instance and is invalidated when its terms
change (e.g. via :meth:`~repro.quantum.pauli.PauliOperator.chop`).
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from .pauli import PauliOperator, PauliString, operator_fingerprint, pauli_masks, popcount

__all__ = ["CompiledPauliOperator", "compiled_pauli_operator", "pauli_evaluator"]

#: Compiling allocates an O(num_terms * 2^n) table; past this qubit count
#: :func:`pauli_evaluator` falls back to a per-term evaluator with the same
#: interface instead.
_MAX_COMPILED_QUBITS = 16

#: Table-size budget for the factory: beyond ``num_terms * 2^n`` elements the
#: one signed index table of a term basis (and the per-call gather) stops
#: paying for itself in memory, so :func:`pauli_evaluator` falls back to the
#: per-term evaluator.  The table is shared by every operator over the basis,
#: but the budget stays per basis so that which evaluator serves a width, and
#: therefore every result bit, does not depend on what else is compiled.
_MAX_COMPILED_ELEMENTS = 1 << 23

#: Rows per BLAS call of the term product in
#: :meth:`CompiledPauliOperator.expectation_values`.  OpenBLAS hands a complex
#: GEMV of more than four rows (and 4096+ elements) to its worker threads; on
#: a 2-vCPU VM each hand-off can wait ~8 ms for the idle worker to be
#: scheduled, 500x the ~15 us product itself (a 50-term, 10-qubit operator).
#: A GEMV of at most four rows always runs on the calling thread, and
#: OpenBLAS computes each output row the same way whatever rows share its
#: call, so the blocked product is bit-identical to the whole one.
_GEMV_BLOCK_ROWS = 4


def _term_products(gathered: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``gathered @ psi`` as GEMVs of two to :data:`_GEMV_BLOCK_ROWS` rows.

    No block has a single row: NumPy computes a one-row product with a dot
    kernel that rounds differently from GEMV.
    """
    rows = gathered.shape[0]
    if rows <= _GEMV_BLOCK_ROWS:
        return gathered @ psi
    head = rows - rows % _GEMV_BLOCK_ROWS
    if rows % _GEMV_BLOCK_ROWS == 1:
        head -= _GEMV_BLOCK_ROWS  # the last five rows go as three and two
    products = np.empty(rows, dtype=complex)
    blocks = gathered[:head].reshape(-1, _GEMV_BLOCK_ROWS, psi.size)
    products[:head] = np.matmul(blocks, psi).ravel()
    cuts = (head, head + 3, rows) if rows - head == 5 else (head, rows)
    for start, stop in zip(cuts, cuts[1:]):
        products[start:stop] = gathered[start:stop] @ psi
    return products


def _coerce_terms(
    paulis: Iterable[PauliString | str],
    coefficients: Sequence[complex] | np.ndarray | None,
    num_qubits: int | None,
) -> tuple[tuple[PauliString, ...], int, np.ndarray]:
    """Shared term/coefficient validation for both evaluator types."""
    terms = tuple(p if isinstance(p, PauliString) else PauliString(p) for p in paulis)
    if terms:
        num_qubits = terms[0].num_qubits
        for pauli in terms:
            if pauli.num_qubits != num_qubits:
                raise ValueError("all terms must share the qubit count")
    elif num_qubits is None:
        raise ValueError("num_qubits required for an empty term list")
    if coefficients is None:
        real_coefficients = np.zeros(len(terms))
    else:
        real_coefficients = np.asarray(coefficients, dtype=complex).real.astype(float)
        if real_coefficients.shape != (len(terms),):
            raise ValueError("coefficients must align with the term list")
    return terms, int(num_qubits), real_coefficients


def _as_amplitudes(state) -> np.ndarray:
    """Flat complex amplitude array from a Statevector or array-like."""
    data = getattr(state, "data", state)
    return np.asarray(data, dtype=complex).ravel()


#: ``ext = conj(psi) * _EXT_SIGNS`` holds ``[conj(psi), -conj(psi)]`` as two
#: rows.  Multiplying by ``-1.0`` rather than negating keeps the signed zeros
#: the complex product gives, so the gathered values equal the factors
#: ``conj(psi[b ^ f_t]) * s_t[b]`` bit for bit.
_EXT_SIGNS = np.array([[1.0], [-1.0]])


class _TermTables:
    """The signed index table and per-term constants of one term basis
    (read-only: every engine over the basis shares them)."""

    __slots__ = ("signed_perm", "prefactors", "weights", "identity_mask", "__weakref__")

    def __init__(self, terms: tuple[PauliString, ...], num_qubits: int) -> None:
        flip_masks, phase_masks, y_counts = pauli_masks(terms, num_qubits)
        indices = np.arange(1 << num_qubits, dtype=np.int64)
        parity = (popcount(indices[None, :] & phase_masks[:, None]) & 1).astype(np.int64)
        # signed_perm[t, b] = (b XOR flip_t) + 2^n * parity_t(b): the index of
        # conj(psi[b ^ flip_t]) * (-1)^parity_t(b) in ``ext``.
        self.signed_perm = (indices[None, :] ^ flip_masks[:, None]) + (parity << num_qubits)
        self.prefactors = np.power(1j, y_counts)
        self.weights = popcount(flip_masks | phase_masks).astype(np.int64)
        self.identity_mask = self.weights == 0
        for table in (self.signed_perm, self.prefactors, self.weights, self.identity_mask):
            table.flags.writeable = False


#: One :class:`_TermTables` per ``(num_qubits, term labels)``, alive while some
#: engine holds it.  Two threads compiling the same new basis at once both
#: build it; each engine keeps the table it built, so neither is wrong.
_TERM_TABLES: weakref.WeakValueDictionary[tuple[int, tuple[str, ...]], _TermTables] = (
    weakref.WeakValueDictionary()
)


def _term_tables(terms: tuple[PauliString, ...], num_qubits: int) -> _TermTables:
    key = (num_qubits, tuple(pauli.label for pauli in terms))
    tables = _TERM_TABLES.get(key)
    if tables is None:
        tables = _TermTables(terms, num_qubits)
        _TERM_TABLES[key] = tables
    return tables


class CompiledPauliOperator:
    """Coefficients over a shared signed index table, for vectorized evaluation.

    Parameters
    ----------
    paulis:
        The Pauli terms, as :class:`PauliString` instances or labels.  Their
        order defines the term order of every returned vector.
    coefficients:
        Optional real coefficients aligned with ``paulis`` (imaginary parts
        are dropped, matching the Hermitian-observable convention used by the
        estimators).  Defaults to zeros when omitted; only
        :meth:`expectation` needs them.
    num_qubits:
        Required only when ``paulis`` is empty.
    """

    def __init__(
        self,
        paulis: Iterable[PauliString | str],
        coefficients: Sequence[complex] | np.ndarray | None = None,
        *,
        num_qubits: int | None = None,
    ) -> None:
        terms, num_qubits, real_coefficients = _coerce_terms(
            paulis, coefficients, num_qubits
        )
        if not 1 <= num_qubits <= _MAX_COMPILED_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {_MAX_COMPILED_QUBITS}], got {num_qubits}"
            )
        self._paulis = terms
        self._num_qubits = num_qubits
        self._coefficients = real_coefficients
        self._tables = _term_tables(terms, num_qubits)
        self._num_measured_terms = int(
            np.count_nonzero(~self._tables.identity_mask & (real_coefficients != 0))
        )

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._paulis)

    @property
    def paulis(self) -> tuple[PauliString, ...]:
        """The compiled terms; every returned vector follows this order."""
        return self._paulis

    @property
    def coefficients(self) -> np.ndarray:
        """Real coefficients aligned with :attr:`paulis` (copy)."""
        return self._coefficients.copy()

    @property
    def weights(self) -> np.ndarray:
        """Number of non-identity factors per term (copy)."""
        return self._tables.weights.copy()

    @property
    def identity_mask(self) -> np.ndarray:
        """Boolean mask of all-identity terms (copy)."""
        return self._tables.identity_mask.copy()

    @property
    def num_measured_terms(self) -> int:
        """Terms that cost shots: non-identity with nonzero coefficient."""
        return self._num_measured_terms

    # -- evaluation -----------------------------------------------------------

    def expectation_values(self, state) -> np.ndarray:
        """``<psi|P_t|psi>`` for every term, in one vectorized pass.

        ``state`` may be a :class:`~repro.quantum.statevector.Statevector` or
        any array-like of 2^n amplitudes.  Returns a float vector aligned with
        :attr:`paulis`.
        """
        psi = _as_amplitudes(state)
        dim = 1 << self._num_qubits
        if psi.size != dim:
            raise ValueError(f"state has {psi.size} amplitudes, engine expects {dim}")
        if not self._paulis:
            return np.zeros(0)
        ext = (np.conj(psi) * _EXT_SIGNS).ravel()
        gathered = ext[self._tables.signed_perm]
        return np.real(self._tables.prefactors * _term_products(gathered, psi))

    def expectation_values_batch(self, states) -> np.ndarray:
        """Term values for several states: shape ``(num_states, num_terms)``.

        ``states`` is an iterable of statevectors / amplitude arrays (or a 2-D
        array with one state per row).
        """
        rows = [_as_amplitudes(state) for state in states]
        out = np.zeros((len(rows), self.num_terms))
        for s, psi in enumerate(rows):
            out[s] = self.expectation_values(psi)
        return out

    def expectation(self, state) -> float:
        """``<psi|H|psi>`` using the compiled coefficients."""
        return float(self._coefficients @ self.expectation_values(state))

    def expectation_values_density(self, rho: np.ndarray) -> np.ndarray:
        """``tr(rho P_t)`` for every term, from a dense density matrix.

        Uses ``tr(rho P_t) = i^{n_Y} sum_b s_t[b] rho[b, b ^ f_t]`` — a single
        fancy-indexed gather per call instead of dense matrix products.  The
        flip index and the sign are split back out of the signed index table.
        """
        rho = np.asarray(rho, dtype=complex)
        dim = 1 << self._num_qubits
        if rho.shape != (dim, dim):
            raise ValueError(f"density matrix must have shape ({dim}, {dim})")
        if not self._paulis:
            return np.zeros(0)
        signed_perm = self._tables.signed_perm
        signs = 1.0 - 2.0 * (signed_perm >> self._num_qubits).astype(float)
        gathered = rho[np.arange(dim)[None, :], signed_perm & (dim - 1)] * signs
        return np.real(self._tables.prefactors * gathered.sum(axis=1))


class _PerTermPauliEvaluator:
    """Per-term fallback with the :class:`CompiledPauliOperator` interface.

    Used above :data:`_MAX_COMPILED_QUBITS`, where the O(terms × 2^n) signed
    index table would dwarf the statevector itself.  Evaluation loops over terms
    (each term is still a vectorized NumPy pass over the amplitudes).
    """

    def __init__(
        self,
        paulis: Iterable[PauliString | str],
        coefficients: Sequence[complex] | np.ndarray | None = None,
        *,
        num_qubits: int | None = None,
    ) -> None:
        terms, num_qubits, real_coefficients = _coerce_terms(
            paulis, coefficients, num_qubits
        )
        self._paulis = terms
        self._num_qubits = num_qubits
        self._coefficients = real_coefficients
        weights = np.array([p.weight for p in terms], dtype=np.int64)
        self._weights = weights
        self._identity_mask = weights == 0
        self._num_measured_terms = int(
            np.count_nonzero(~self._identity_mask & (self._coefficients != 0))
        )

    num_qubits = property(lambda self: self._num_qubits)
    num_terms = property(lambda self: len(self._paulis))
    paulis = property(lambda self: self._paulis)
    coefficients = property(lambda self: self._coefficients.copy())
    weights = property(lambda self: self._weights.copy())
    identity_mask = property(lambda self: self._identity_mask.copy())
    num_measured_terms = property(lambda self: self._num_measured_terms)

    def expectation_values(self, state) -> np.ndarray:
        from .statevector import apply_pauli_string  # deferred: cycle-free at call time

        psi = _as_amplitudes(state)
        if psi.size != 1 << self._num_qubits:
            raise ValueError(
                f"state has {psi.size} amplitudes, evaluator expects {1 << self._num_qubits}"
            )
        tensor = psi.reshape((2,) * self._num_qubits)
        return np.array(
            [
                np.vdot(tensor, apply_pauli_string(tensor, pauli.label)).real
                for pauli in self._paulis
            ]
        )

    def expectation_values_batch(self, states) -> np.ndarray:
        rows = [_as_amplitudes(state) for state in states]
        out = np.zeros((len(rows), self.num_terms))
        for s, psi in enumerate(rows):
            out[s] = self.expectation_values(psi)
        return out

    def expectation(self, state) -> float:
        return float(self._coefficients @ self.expectation_values(state))

    def expectation_values_density(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return np.array(
            [np.trace(rho @ pauli.to_matrix()).real for pauli in self._paulis]
        )


def pauli_evaluator(
    paulis: Iterable[PauliString | str],
    coefficients: Sequence[complex] | np.ndarray | None = None,
    *,
    num_qubits: int | None = None,
) -> CompiledPauliOperator | _PerTermPauliEvaluator:
    """Best evaluator for a term list: compiled when feasible, per-term beyond.

    Falls back to the per-term evaluator past the qubit cap or when the
    signed index table (``num_terms * 2^n`` elements) would exceed the memory
    budget.  Both returned types share the evaluation interface
    (``expectation_values`` / ``expectation_values_batch`` / ``expectation`` /
    ``expectation_values_density`` plus the term-order properties), so callers
    need not care which they got.
    """
    terms = tuple(p if isinstance(p, PauliString) else PauliString(p) for p in paulis)
    width = terms[0].num_qubits if terms else num_qubits
    if width is not None and (
        width > _MAX_COMPILED_QUBITS or len(terms) << width > _MAX_COMPILED_ELEMENTS
    ):
        return _PerTermPauliEvaluator(terms, coefficients, num_qubits=num_qubits)
    return CompiledPauliOperator(terms, coefficients, num_qubits=num_qubits)


def compiled_pauli_operator(
    operator: PauliOperator,
) -> CompiledPauliOperator | _PerTermPauliEvaluator:
    """Cached expectation evaluator for a :class:`PauliOperator`.

    Returns a :class:`CompiledPauliOperator` (or the per-term fallback above
    the compile cap — same interface).  The evaluator is memoised on the
    operator instance, keyed by a fingerprint of its terms, so repeated
    evaluations (every objective call of every cluster step) pay the
    compilation cost only once.  In-place mutation (``chop``) changes the
    fingerprint and triggers a transparent recompile.
    """
    key = operator_fingerprint(operator)
    cached = operator.__dict__.get("_compiled_engine_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    coefficients = [operator.coefficient(p) for p in operator.paulis()]
    engine = pauli_evaluator(
        operator.paulis(), coefficients, num_qubits=operator.num_qubits
    )
    operator.__dict__["_compiled_engine_cache"] = (key, engine)
    return engine
