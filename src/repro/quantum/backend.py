"""Pluggable execution backends: batched state preparation and term evaluation.

A TreeVQA round is a bag of independent circuit executions — every active
cluster contributes the parameter points its optimizer asked for.  Executing
those one at a time wastes most of the wall-clock on per-call overhead (gate
matrix construction, per-gate bookkeeping, Python dispatch).  This module
turns a whole round into a small number of linear-algebra dispatches:

* :class:`ExecutionRequest` — one circuit execution to perform: a compiled
  :class:`~repro.quantum.program.CircuitProgram` plus the parameter row to
  execute it at (no circuit objects on the hot path), together with the
  operator whose Pauli terms to measure and the initial state.  This is the
  only request shape; a bound circuit enters it once, through
  :func:`~repro.quantum.program.program_for_bound_circuit`.
* :class:`ExecutionBackend` — the protocol: ``run_batch(requests)`` returns
  one :class:`BackendResult` (an exact per-term expectation vector, plus the
  prepared state on demand) per request, in request order.
* :class:`StatevectorBackend` — groups requests by program fingerprint and
  executes each group as one stacked ``(batch, 2**n)`` dispatch straight
  from the stacked parameter matrix.  :meth:`~repro.quantum.statevector.
  Statevector.evolve` is the same program run as a batch of one, so the
  prepared amplitudes are bit-identical to the per-request path and
  independent of how requests are grouped into batches.
* :class:`CliffordBackend` — a routing table over :func:`route_batch`, the
  one classify-split-stitch loop: requests whose bound angles are all
  multiples of π/2 (the CAFQA regime, paper §8.5) go to the polynomial
  stabilizer simulator, everything else to the statevector tier.  The
  width router ``"auto"`` is the other table over the same loop.

Backends compute *exact* expectation values; shot/sampling noise remains the
estimator layer's job (see
:meth:`~repro.quantum.sampling.BaseEstimator.estimate_backend_results`).
Identity terms are pinned to exactly 1 in every returned term vector.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .circuit import QuantumCircuit
from .clifford import CliffordSimulator, is_clifford_angle
from .engine import compiled_pauli_operator
from .pauli import PauliOperator, PauliString
from .program import CircuitProgram
from .statevector import Statevector

__all__ = [
    "ExecutionRequest",
    "BackendResult",
    "ExecutionBackend",
    "StatevectorBackend",
    "CliffordBackend",
    "route_batch",
    "BACKEND_REGISTRY",
    "make_execution_backend",
    "request_initial_amplitudes",
    "DENSE_STATE_QUBIT_LIMIT",
]


#: Tolerance for recognising a unit-modulus basis-state amplitude.
_BASIS_AMPLITUDE_ATOL = 1e-9

#: Widest system for which a dense 2^n statevector may be materialized
#: (2^26 complex amplitudes = 1 GiB).  Wider executions belong on the
#: propagation backend, which prepares from the bitstring label.
DENSE_STATE_QUBIT_LIMIT = 26


@dataclass(frozen=True)
class ExecutionRequest:
    """One circuit execution: run a program at one parameter row from an
    initial state, then measure an operator's terms.

    The initial input is validated here, once, so every backend reads the
    same starting state from the same request.

    Attributes:
        operator: The Pauli operator whose term expectation values to report
            (in the operator's term order).
        program: Compiled circuit program to execute.
        parameters: Parameter row for ``program``.
        initial_state: Optional starting state (defaults to ``|0...0>``); it
            must span the program's qubits.
        initial_bitstring: The starting computational-basis label when known
            (one ``0``/``1`` per qubit, qubit 0 first).  Lets the Clifford
            and propagation backends skip dense-state inspection.  Given
            together with ``initial_state``, the state must be that basis
            state (up to a global phase).
        tag: Free-form correlation handle echoed back on the result.
    """

    operator: PauliOperator
    program: CircuitProgram
    #: compare=False keeps the generated __eq__/__hash__ usable: an ndarray
    #: field would make equality raise and the request unhashable.
    parameters: np.ndarray = field(compare=False)
    initial_state: Statevector | None = None
    initial_bitstring: str | None = None
    tag: object = None

    def __post_init__(self) -> None:
        row = np.asarray(self.parameters, dtype=float).ravel()
        if row.size != self.program.num_parameters:
            raise ValueError(
                f"program expects {self.program.num_parameters} parameters, "
                f"got {row.size}"
            )
        object.__setattr__(self, "parameters", row)
        num_qubits = self.program.num_qubits
        bits = self.initial_bitstring
        if bits is not None and (len(bits) != num_qubits or not set(bits) <= {"0", "1"}):
            raise ValueError(
                f"initial bitstring {bits!r} is not a {num_qubits}-qubit "
                "label of 0s and 1s"
            )
        state = self.initial_state
        if state is None:
            return
        if state.num_qubits != num_qubits:
            raise ValueError(
                f"initial state has {state.num_qubits} qubits, "
                f"program has {num_qubits}"
            )
        # O(1): a normalised state is the basis state |bits> (up to a global
        # phase) exactly when that amplitude has unit modulus.
        if bits is not None and (
            abs(abs(state.tensor().ravel()[int(bits, 2)]) - 1.0) > _BASIS_AMPLITUDE_ATOL
        ):
            raise ValueError(
                f"initial state is not the basis state |{bits}> named by "
                "initial_bitstring; give one of them, or a matching pair"
            )

    @property
    def num_qubits(self) -> int:
        """Qubit count of the execution."""
        return self.program.num_qubits


@dataclass(frozen=True)
class BackendResult:
    """Exact per-term expectation values for one executed request.

    ``term_vector[i]`` is the exact expectation value of ``term_basis[i]``
    (the request operator's term order, identity terms pinned to 1.0).
    ``state`` carries the prepared statevector when the caller asked for it
    and the backend produced one (the Clifford backend does not).
    ``metadata``, when present, carries backend-specific per-request
    diagnostics (e.g. the Pauli-propagation backend's truncation counts);
    it survives multi-process dispatch and is accumulated by the scheduler.
    """

    term_basis: tuple[PauliString, ...]
    term_vector: np.ndarray
    state: Statevector | None
    backend_name: str
    tag: object = None
    metadata: dict | None = None


class ExecutionBackend:
    """Protocol: execute a batch of requests through one dispatch."""

    name = "abstract"
    #: Whether ``need_states=True`` can be honoured (pure-state backends can
    #: attach prepared statevectors; the density-matrix backend cannot).
    provides_states = True

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        """Execute ``requests`` and return results in request order.

        Contract every implementation (and wrapper) must honour:

        * **Ordering** — exactly one :class:`BackendResult` per request, in
          request order, each echoing its request's ``tag``.  Backends are
          free to reorder *internally* (group by program fingerprint, shard
          across worker processes), but the returned list order is the
          caller's request order.
        * **Composition-independence** — each request's payload depends only
          on that request (its program, parameter row, and initial state),
          never on which other requests share the batch.  Together with
          deterministic per-request execution this is what makes
          batched, chunked (``max_batch_size``), and multi-process
          (``execution_workers``) dispatch bit-identical to sequential
          execution; see ``docs/ARCHITECTURE.md``.
        * **Determinism** — no randomness below this layer: backends report
          exact expectation values (noisy backends apply their physics
          through deterministic superoperators).  Shot/sampling noise is the
          estimator layer's job.
        * **Errors** — malformed input (parameter-row length, initial
          state or bitstring that does not fit the program) is rejected
          when the request is constructed, so every backend sees only
          well-formed requests; an unservable request (width beyond a
          backend's limit, a superposition on a basis-state-only backend)
          raises with an actionable message and no partial results;
          batches are all-or-nothing.
        * **States** — ``need_states=True`` asks for the prepared
          statevector on each result (required by estimators that sample
          from states rather than consuming exact term vectors); backends
          that cannot attach one advertise ``provides_states = False`` so
          the scheduler never pairs them with a states-consuming estimator
          (it warns and falls back per request instead).  The sampling
          estimator stacks the attached states into one ``(B, 2^n)`` array
          and evaluates its compile-once measurement plans over the whole
          batch (:mod:`repro.quantum.measurement`), so states must obey the
          same composition-independence as every other payload field.
        """
        raise NotImplementedError


def request_initial_amplitudes(request: ExecutionRequest) -> np.ndarray:
    """Flat initial amplitudes for a request (defaults to ``|0...0>``).

    Shared by every dense backend (the statevector path uses the amplitudes
    directly; the density-matrix path takes their outer product), so request
    initial-state semantics cannot drift between execution modes.
    """
    num_qubits = request.num_qubits
    if request.initial_state is not None:
        return request.initial_state.data
    if request.initial_bitstring is not None:
        return Statevector.computational_basis(num_qubits, request.initial_bitstring).data
    return Statevector.zero_state(num_qubits).data


def _program_groups(
    requests: Sequence[ExecutionRequest],
) -> list[tuple[CircuitProgram, list[int], np.ndarray]]:
    """Requests grouped by program fingerprint, in first-seen order: each
    group's program, its request indices, and its stacked ``(B, P)``
    parameter matrix.  Shared by every backend that executes a program group
    as one stacked dispatch."""
    groups: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.program.fingerprint, []).append(index)
    return [
        (
            requests[indices[0]].program,
            indices,
            np.stack([requests[index].parameters for index in indices]),
        )
        for indices in groups.values()
    ]


def _request_bitstring(request: ExecutionRequest) -> str | None:
    """Computational-basis label of the request's initial state, if it is one.

    A basis state carrying a global phase (e.g. amplitude −1 or i after an
    evolved preparation) still counts: Pauli expectation values are invariant
    under global phases, so such states are safe to route to phase-oblivious
    simulators.  Only the modulus of the single nonzero amplitude is checked
    (with tolerance for normalisation round-off).
    """
    if request.initial_bitstring is not None:
        return request.initial_bitstring
    if request.initial_state is None:
        return "0" * request.num_qubits
    data = request.initial_state.data
    nonzero = np.flatnonzero(data)
    if nonzero.size == 1 and abs(abs(data[nonzero[0]]) - 1.0) <= _BASIS_AMPLITUDE_ATOL:
        return format(int(nonzero[0]), f"0{request.initial_state.num_qubits}b")
    return None


class StatevectorBackend(ExecutionBackend):
    """Dense batched execution: one stacked dispatch per circuit program.

    Requests are grouped by program fingerprint (the common case: every
    cluster of a controller round runs the same ansatz program) and each
    group is executed straight from its stacked parameter matrix; requests
    with different programs still execute correctly, each group in its own
    dispatch.
    """

    name = "statevector"
    provides_states = True

    def __init__(self) -> None:
        self.batches_run = 0
        self.requests_run = 0

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        requests = list(requests)
        for request in requests:
            if request.num_qubits > DENSE_STATE_QUBIT_LIMIT:
                raise ValueError(
                    f"the statevector backend cannot materialize a dense "
                    f"2^{request.num_qubits} state (limit: "
                    f"{DENSE_STATE_QUBIT_LIMIT} qubits); pair wide circuits "
                    "with a term-vector estimator and the "
                    "'pauli_propagation'/'auto' backend"
                )
        results: list[BackendResult | None] = [None] * len(requests)
        for program, indices, parameter_matrix in _program_groups(requests):
            initial = np.empty((len(indices), 1 << program.num_qubits), dtype=complex)
            for slot, index in enumerate(indices):
                initial[slot] = request_initial_amplitudes(requests[index])
            states = program.execute(parameter_matrix, initial)
            for slot, index in enumerate(indices):
                request = requests[index]
                engine = compiled_pauli_operator(request.operator)
                vector = engine.expectation_values(states[slot])
                vector[engine.identity_mask] = 1.0
                results[index] = BackendResult(
                    term_basis=engine.paulis,
                    term_vector=vector,
                    state=Statevector(states[slot]) if need_states else None,
                    backend_name=self.name,
                    tag=request.tag,
                )
        self.batches_run += 1
        self.requests_run += len(requests)
        return results  # type: ignore[return-value]


#: Gates the stabilizer simulator handles unconditionally.
_CLIFFORD_FIXED_GATES = frozenset(
    {"i", "h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"}
)
#: Rotation gates the stabilizer simulator handles at multiples of π/2.
_CLIFFORD_ROTATION_GATES = frozenset({"rx", "ry", "rz", "p", "rzz"})


#: One routing tier: ``(label, accepts(request, need_states), run)``, where
#: ``run(requests, need_states=...)`` executes a sub-batch in order (an
#: :meth:`ExecutionBackend.run_batch` fits as is).
Route = tuple[str, Callable[[ExecutionRequest, bool], bool], Callable[..., list[BackendResult]]]


def route_batch(
    requests: Sequence[ExecutionRequest],
    routes: Sequence[Route],
    default: tuple[str, Callable[..., list[BackendResult]]],
    need_states: bool,
    routed: dict[str, int],
) -> list[BackendResult]:
    """Classify, split, run and stitch: the one loop every router runs.

    A request goes to the first route that accepts it, else to the
    ``(label, run)`` default.  Each tier runs its sub-batch once, the routes
    in table order before the default, so a tier that refuses its sub-batch
    (a stateless tier asked for states) raises before the default runs.
    Results come back in request order; once the batch has succeeded,
    ``routed`` counts the requests each tier label served.
    """
    requests = list(requests)
    tiers = [(label, run) for label, _, run in routes] + [default]
    assigned: list[list[int]] = [[] for _ in tiers]
    for index, request in enumerate(requests):
        tier = 0
        while tier < len(routes) and not routes[tier][1](request, need_states):
            tier += 1
        assigned[tier].append(index)
    results: list[BackendResult | None] = [None] * len(requests)
    for (_, run), indices in zip(tiers, assigned):
        if indices:
            served = run([requests[i] for i in indices], need_states=need_states)
            for index, result in zip(indices, served):
                results[index] = result
    for (label, _), indices in zip(tiers, assigned):
        routed[label] = routed.get(label, 0) + len(indices)
    return results  # type: ignore[return-value]


#: Gates the stabilizer simulator handles unconditionally.
_CLIFFORD_FIXED_GATES = frozenset(
    {"i", "h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"}
)
#: Rotation gates the stabilizer simulator handles at multiples of π/2.
_CLIFFORD_ROTATION_GATES = frozenset({"rx", "ry", "rz", "p", "rzz"})


def is_clifford_request(request: ExecutionRequest) -> bool:
    """True if the stabilizer simulator can execute this request."""
    if _request_bitstring(request) is None:
        return False
    for gate, _, params in request.program.bound_instruction_params(
        request.parameters
    ):
        if gate in _CLIFFORD_FIXED_GATES:
            continue
        if gate in _CLIFFORD_ROTATION_GATES and all(
            isinstance(param, (int, float)) and is_clifford_angle(param)
            for param in params
        ):
            continue
        return False
    return True


def _accepts_clifford(request: ExecutionRequest, need_states: bool) -> bool:
    return not need_states and is_clifford_request(request)


def _run_clifford(
    requests: Sequence[ExecutionRequest], *, need_states: bool = False
) -> list[BackendResult]:
    """Stabilizer tier: each request on its own ``CliffordSimulator`` (the
    tier never accepts a ``need_states`` request)."""
    results = []
    for request in requests:
        num_qubits = request.num_qubits
        bitstring = _request_bitstring(request)
        assert bitstring is not None  # guaranteed by is_clifford_request
        simulator = CliffordSimulator(num_qubits)
        if "1" in bitstring:
            preparation = QuantumCircuit(num_qubits, name="basis-prep")
            for qubit, bit in enumerate(bitstring):
                if bit == "1":
                    preparation.x(qubit)
            simulator.apply_circuit(preparation)
        simulator.apply_circuit(request.program.bind(request.parameters))
        engine = compiled_pauli_operator(request.operator)
        vector = np.array(
            [
                1.0 if pauli.is_identity else simulator.pauli_expectation(pauli)
                for pauli in engine.paulis
            ]
        )
        results.append(
            BackendResult(
                term_basis=engine.paulis,
                term_vector=vector,
                state=None,
                backend_name=CliffordBackend.name,
                tag=request.tag,
            )
        )
    return results


class CliffordBackend(ExecutionBackend):
    """Stabilizer fast path with dense fallback (paper §8.5, CAFQA regime).

    The angle table over :func:`route_batch`: requests that need no prepared
    state, start from a computational-basis state (up to a global phase) and
    bind every angle to a multiple of π/2 run on
    :class:`~repro.quantum.clifford.CliffordSimulator` in polynomial time;
    the rest run on a :class:`StatevectorBackend`.  ``routed`` counts the
    requests each tier served.
    """

    name = "clifford"
    provides_states = True

    def __init__(self) -> None:
        self.routes: tuple[Route, ...] = (("clifford", _accepts_clifford, _run_clifford),)
        self.default = ("statevector", StatevectorBackend().run_batch)
        self.routed = {"clifford": 0, "statevector": 0}

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        return route_batch(requests, self.routes, self.default, need_states, self.routed)


#: Name → backend class.  :mod:`repro.quantum.density_matrix` registers
#: ``"density_matrix"`` here at import time, and
#: :mod:`repro.quantum.pauli_propagation` registers ``"pauli_propagation"``
#: and ``"auto"`` (they depend on this module, so they cannot be listed
#: directly without an import cycle).
BACKEND_REGISTRY: dict[str, type[ExecutionBackend]] = {
    "statevector": StatevectorBackend,
    "clifford": CliffordBackend,
}


def make_execution_backend(
    name: str, *, noise_model=None, propagation=None
) -> ExecutionBackend:
    """Construct a registered execution backend by name.

    ``noise_model`` is forwarded to backends that execute under one (class
    attribute ``accepts_noise_model``, e.g. the density-matrix backend);
    passing it to a purely unitary backend is rejected rather than silently
    ignored.  ``propagation`` (a ``PauliPropagationConfig``) is likewise
    forwarded to backends that truncate a Pauli propagation (class attribute
    ``accepts_propagation_config``: the propagation backend and the width
    router) and rejected elsewhere.
    """
    if name not in BACKEND_REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKEND_REGISTRY)}"
        )
    cls = BACKEND_REGISTRY[name]
    kwargs: dict = {}
    if getattr(cls, "accepts_noise_model", False):
        kwargs["noise_model"] = noise_model
    elif noise_model is not None:
        raise ValueError(
            f"backend {name!r} executes noiselessly and does not accept a "
            "noise model; use backend='density_matrix' for noisy execution"
        )
    if propagation is not None:
        if not getattr(cls, "accepts_propagation_config", False):
            raise ValueError(
                f"backend {name!r} does not truncate a Pauli propagation and "
                "does not accept a propagation config; use "
                "backend='pauli_propagation' or backend='auto'"
            )
        kwargs["propagation"] = propagation
    return cls(**kwargs)
