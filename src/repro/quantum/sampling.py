"""Shot-based expectation-value estimation.

The paper evaluates every Pauli term with 4096 shots per evaluation (§7.3).
Running billions of literal shots is infeasible in a reproduction, so three
estimators with the same interface are provided:

* :class:`ExactEstimator` — noiseless expectation values (the shot ledger
  still charges shots, exactly as §7.3 prescribes).
* :class:`ShotNoiseEstimator` — exact value plus Gaussian noise with the
  correct single-Pauli sampling variance ``(1 - <P>^2) / shots`` per term,
  which is statistically equivalent to sampling each Pauli term with ``shots``
  shots at a tiny fraction of the cost.
* :class:`SamplingEstimator` — literal bitstring sampling per qubit-wise
  commuting measurement basis, evaluated through compile-once
  :class:`~repro.quantum.measurement.MeasurementPlan` objects (stacked basis
  rotations, vectorized inverse-CDF draws) with a deterministic per-request
  RNG derivation that keeps batched and per-request sampling bit-identical.

Term-vector contract
--------------------
All estimators are thin noise layers over the compiled expectation engine
(:mod:`repro.quantum.engine`): every :class:`EstimatorResult` carries
``term_vector``, one estimate per Pauli term of the evaluated operator,
aligned with ``term_basis`` — the operator's term order, i.e. exactly the
order :meth:`PauliOperator.paulis` / a compiled engine reports.  Consumers
such as :class:`~repro.core.mixed_hamiltonian.MixedHamiltonian` recombine
per-task energies from this vector with a single matrix-vector product; a
dict view is available via :attr:`EstimatorResult.term_values`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .backend import ExecutionBackend, ExecutionRequest, StatevectorBackend
from .circuit import QuantumCircuit
from .density_matrix import DensityMatrixBackend
from .engine import compiled_pauli_operator
from .measurement import (
    MeasurementPlan,
    measurement_plan_for,
)
from .pauli import PauliOperator, PauliString
from .program import program_for_bound_circuit
from .statevector import Statevector

__all__ = [
    "EstimatorResult",
    "BaseEstimator",
    "ExactEstimator",
    "ShotNoiseEstimator",
    "SamplingEstimator",
    "DensityMatrixEstimator",
]


@dataclass(frozen=True)
class EstimatorResult:
    """One expectation-value estimate and its shot cost.

    ``term_vector[i]`` is the estimated expectation value of
    ``term_basis[i]``; the basis follows the evaluated operator's term order
    (including zero-coefficient padded terms, which downstream recombination
    needs), so consumers can combine it with any coefficient vector expressed
    in the same order without dictionary lookups.
    """

    value: float
    shots_used: int
    variance: float = 0.0
    term_basis: tuple[PauliString, ...] = ()
    term_vector: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)

    @property
    def term_values(self) -> dict[PauliString, float]:
        """Dict view of the term vector (compatibility/UX helper)."""
        return {
            pauli: float(value)
            for pauli, value in zip(self.term_basis, self.term_vector)
        }


class BaseEstimator:
    """Common machinery: run a request, account shots, return an estimate.

    Estimators are the *noise layer* between execution backends and
    consumers: an :class:`~repro.quantum.backend.ExecutionBackend` produces
    exact per-term expectation values (and, on demand, prepared states), and
    :meth:`estimate_backend_results` — the one conversion entry point — turns
    those payloads into :class:`EstimatorResult` objects with this
    estimator's noise model and shot accounting.  The capability flags tell
    the scheduler which payload to request: ``consumes_term_vectors``
    estimators work from exact term vectors (any backend, including
    Clifford); ``consumes_states`` estimators need the prepared statevector;
    estimators with neither flag are driven one request at a time through
    :meth:`estimate_request`.

    Every estimator owns a backend (:attr:`backend`: a
    :class:`~repro.quantum.backend.StatevectorBackend` by default, the
    noise-model's density-matrix backend for
    :class:`DensityMatrixEstimator`), and :meth:`estimate_request` runs a
    request on it as a batch of one — the single per-request path.
    """

    #: Can build an EstimatorResult from a backend's exact term vector.
    consumes_term_vectors = False
    #: Can build an EstimatorResult from a backend-prepared statevector.
    #: Both flags are opt-in: a custom estimator that advertises nothing is
    #: safely driven through per-request estimate_request() calls, whatever
    #: it overrides internally.
    consumes_states = False
    #: Name of the only backend whose payloads this estimator may consume
    #: (None = any).  The density-matrix estimator sets this to
    #: ``"density_matrix"``: its term vectors must be produced *under its
    #: noise model*, so the scheduler batches only through a matching noisy
    #: backend and falls back to per-request estimate_request() otherwise.
    requires_backend: str | None = None

    def __init__(self, shots_per_term: int = 4096, seed: int | None = None) -> None:
        if shots_per_term < 1:
            raise ValueError("shots_per_term must be >= 1")
        self.shots_per_term = shots_per_term
        self.rng = np.random.default_rng(seed)
        self.total_shots = 0
        self.total_evaluations = 0
        #: The backend :meth:`estimate_request` runs requests on.
        self.backend: ExecutionBackend = StatevectorBackend()

    def estimate(
        self,
        circuit: QuantumCircuit,
        operator: PauliOperator,
        initial_state: Statevector | None = None,
    ) -> EstimatorResult:
        """Estimate <H> for the bound circuit, charging shots to the ledger.

        The circuit enters the request shape once, through
        :func:`~repro.quantum.program.program_for_bound_circuit`, and runs
        through :meth:`estimate_request`.
        """
        program, row = program_for_bound_circuit(circuit)
        return self.estimate_request(
            ExecutionRequest(operator, program, row, initial_state=initial_state)
        )

    def estimate_request(self, request: ExecutionRequest) -> EstimatorResult:
        """Estimate one request, run as a batch of one on :attr:`backend`.

        The payload follows the scheduler's rule: exact term vectors for
        ``consumes_term_vectors`` estimators, prepared states otherwise.
        The backend checks the request's width before allocating.
        """
        result = self.backend.run_batch(
            [request], need_states=not self.consumes_term_vectors
        )[0]
        return self.estimate_backend_results([result], [request.operator])[0]

    def estimate_backend_results(
        self, results, operators: Sequence[PauliOperator]
    ) -> list[EstimatorResult]:
        """Estimate a batch of backend payloads, one per request, in order.

        ``results`` are :class:`~repro.quantum.backend.BackendResult` objects.
        Each exact term vector is copied, its identity terms are pinned to 1,
        and :meth:`_apply_noise` draws this estimator's noise, so noise draws
        and shot accounting happen once per result in consumption order.
        Estimators whose evaluation vectorizes across requests (the sampling
        estimator) override this — and must stay **bit-identical** to
        converting each result as a batch of one, the contract the round
        scheduler's parity guarantees rest on.
        """
        estimates = []
        for result, operator in zip(results, operators):
            engine = compiled_pauli_operator(operator)
            vector = np.asarray(result.term_vector, dtype=float).copy()
            vector[engine.identity_mask] = 1.0
            vector, variance = self._apply_noise(engine, vector)
            estimate = EstimatorResult(
                value=float(engine.coefficients @ vector),
                shots_used=self.shots_per_term * max(engine.num_measured_terms, 1),
                variance=variance,
                term_basis=engine.paulis,
                term_vector=vector,
            )
            self.total_shots += estimate.shots_used
            self.total_evaluations += 1
            estimates.append(estimate)
        return estimates

    def _apply_noise(self, engine, vector: np.ndarray) -> tuple[np.ndarray, float]:
        """This estimator's noise over an identity-pinned term vector:
        ``(estimated term vector, reported variance)``."""
        raise NotImplementedError

    def _shot_noise(self, engine, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized Gaussian draw of the per-term finite-shot noise:
        ``(noisy vector clipped to [-1, 1], per-term variance)``."""
        term_variance = np.where(
            engine.identity_mask,
            0.0,
            np.clip(1.0 - vector ** 2, 0.0, None) / self.shots_per_term,
        )
        noisy = np.clip(
            vector + self.rng.normal(0.0, np.sqrt(term_variance)), -1.0, 1.0
        )
        return noisy, term_variance


class ExactEstimator(BaseEstimator):
    """Noiseless expectation values with §7.3 shot accounting."""

    consumes_term_vectors = True

    def _apply_noise(self, engine, vector: np.ndarray) -> tuple[np.ndarray, float]:
        return vector, 0.0


class ShotNoiseEstimator(BaseEstimator):
    """Exact value perturbed by the per-term finite-shot sampling variance.

    For a Pauli string P with expectation value p = <P> measured with ``s``
    shots, the sample-mean variance is (1 - p^2) / s.  The per-term estimates
    are independent, so the Hamiltonian estimate carries the summed,
    coefficient-weighted variance.  The Gaussian perturbations for all terms
    are drawn in one vectorized call.
    """

    consumes_term_vectors = True

    def _apply_noise(self, engine, vector: np.ndarray) -> tuple[np.ndarray, float]:
        noisy, term_variance = self._shot_noise(engine, vector)
        return noisy, float((engine.coefficients ** 2) @ term_variance)


class SamplingEstimator(BaseEstimator):
    """Literal measurement sampling over compile-once measurement plans.

    Each operator is compiled (once, process-wide — see
    :func:`~repro.quantum.measurement.measurement_plan_for`) into a
    :class:`~repro.quantum.measurement.MeasurementPlan`: the qubit-wise
    commuting grouping, each group's basis rotation as stacked single-qubit
    matrix applications, and packed per-term support masks.  Evaluation is
    then pure array work — all groups' probability vectors for the whole
    request batch, one ``(B, shots)`` inverse-CDF draw per group, and the
    ``(B, T)`` term-value matrix from mask-parity signs.  Cost grows with
    the number of commuting groups rather than with the number of terms.

    RNG derivation rule (the bit-identity anchor)
    ---------------------------------------------
    Outcomes for the k-th sampling evaluation this estimator performs are
    drawn from a child generator spawned deterministically from the
    estimator seed and k alone (``SeedSequence(entropy=root_entropy,
    spawn_key=(k,))``) — keyed by *request identity* (strict consumption
    order), never by batch position.  Every evaluation draws all of its
    uniforms in one ``rng.random((num_groups, shots))`` call, in both the
    per-request and batched paths.  Batched estimation
    (:meth:`estimate_backend_results`) is therefore **bit-identical** to
    per-request :meth:`estimate_request`, to ``max_batch_size=1``, and across
    ``execution_workers`` counts — the same invariant the backends uphold
    for amplitudes, extended to sampled term vectors
    (``docs/ARCHITECTURE.md``).

    The reported ``variance`` is the empirical coefficient-weighted sample
    variance ``sum_t c_t^2 (1 - m_t^2) / shots`` over non-identity terms,
    the same estimate the shot-noise estimator charges.
    """

    #: Sampling needs the prepared state (basis rotations), not term vectors.
    consumes_states = True

    def __init__(self, shots_per_term: int = 4096, seed: int | None = None) -> None:
        super().__init__(shots_per_term=shots_per_term, seed=seed)
        #: Root entropy all per-request child generators derive from.
        self._entropy = np.random.SeedSequence(seed).entropy
        #: Lifetime count of sampling evaluations — the ordinal that keys
        #: each request's child generator.
        self.sampling_evaluations = 0

    def _request_rng(self, ordinal: int) -> np.random.Generator:
        """Child generator for the ``ordinal``-th sampling evaluation."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=(ordinal,))
        )

    def estimate_backend_results(
        self, results, operators: Sequence[PauliOperator]
    ) -> list[EstimatorResult]:
        """Batched sampling over the backend's prepared states.

        Requests are grouped by measurement plan (operator fingerprint), each
        group's states are stacked into one ``(B, 2^n)`` array, and the plan
        evaluates every group/probability/draw for the whole stack at once.
        Per-request child generators are assigned by position in ``results``
        — the scheduler's strict consumption order — before any grouping, so
        the returned estimates are bit-identical to converting each result
        as a batch of one.
        """
        results = list(results)
        operators = list(operators)
        for result in results:
            if result.state is None:
                raise ValueError(
                    f"{type(self).__name__} cannot consume a backend result "
                    "without a prepared state; request need_states=True or "
                    "use estimate_request()"
                )
        first_ordinal = self.sampling_evaluations
        self.sampling_evaluations += len(results)
        plans: dict[int, MeasurementPlan] = {}
        members: dict[int, list[int]] = {}
        for index, operator in enumerate(operators):
            plan = measurement_plan_for(operator)
            plans[id(plan)] = plan
            members.setdefault(id(plan), []).append(index)
        estimates: list[EstimatorResult | None] = [None] * len(results)
        for plan_id, indices in members.items():
            plan = plans[plan_id]
            amplitudes = np.stack(
                [np.asarray(results[i].state.data, dtype=complex) for i in indices]
            )
            rngs = [self._request_rng(first_ordinal + i) for i in indices]
            for slot, estimate in zip(indices, self._plan_results(plan, amplitudes, rngs)):
                estimates[slot] = estimate
        for estimate in estimates:
            self.total_shots += estimate.shots_used
            self.total_evaluations += 1
        return estimates  # type: ignore[return-value]

    def _plan_results(
        self,
        plan: MeasurementPlan,
        amplitudes: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> list[EstimatorResult]:
        """Evaluate one plan over a stack of states, one result per row.

        All per-row arithmetic (term means, value, variance) is row-local, so
        a batch of B rows yields exactly the B results the rows would yield
        alone — given the same generators.
        """
        matrix = plan.term_matrix(amplitudes, self.shots_per_term, rngs)
        shots_used = plan.shots_used(self.shots_per_term)
        coefficients = plan.coefficients
        results = []
        for row in range(matrix.shape[0]):
            vector = matrix[row]
            term_variance = np.where(
                plan.identity_mask,
                0.0,
                np.clip(1.0 - vector ** 2, 0.0, None) / self.shots_per_term,
            )
            results.append(
                EstimatorResult(
                    value=float(coefficients @ vector),
                    shots_used=shots_used,
                    variance=float((coefficients ** 2) @ term_variance),
                    term_basis=plan.paulis,
                    term_vector=vector,
                )
            )
        return results


class DensityMatrixEstimator(BaseEstimator):
    """Noisy expectation values via density-matrix simulation (paper §8.7).

    The circuit is executed under a :class:`~repro.quantum.noise.NoiseModel`
    (gate-attached depolarising / decoherence channels, readout error folded
    into the Pauli expectations) and the shot ledger charges the same
    4096-per-term cost as every other estimator.  Sampling noise on top of the
    noisy expectation can be enabled with ``add_shot_noise``.  ``None`` means
    the noiseless model.

    There is one noisy simulation: the estimator's :attr:`backend` is a
    :class:`~repro.quantum.density_matrix.DensityMatrixBackend` built once
    from its noise model, so per-request
    :meth:`~BaseEstimator.estimate_request` runs each request as a batch of
    one under that model.  For batched rounds, ``requires_backend`` tells the
    round scheduler to consume term vectors only from a density-matrix
    backend with the same noise model, and to fall back to per-request
    :meth:`~BaseEstimator.estimate_request` for every other backend.
    """

    consumes_term_vectors = True
    #: A noiselessly prepared pure state is not usable — noise must be
    #: applied during execution.
    consumes_states = False
    requires_backend = "density_matrix"

    def __init__(
        self,
        noise_model,
        shots_per_term: int = 4096,
        seed: int | None = None,
        *,
        add_shot_noise: bool = False,
    ) -> None:
        super().__init__(shots_per_term=shots_per_term, seed=seed)
        self.backend = DensityMatrixBackend(noise_model)
        self.noise_model = self.backend.noise_model
        self.add_shot_noise = add_shot_noise

    def estimate_backend_results(
        self, results, operators: Sequence[PauliOperator]
    ) -> list[EstimatorResult]:
        """Convert density-matrix payloads; a payload from any other backend
        is refused before any result is converted."""
        results = list(results)
        for result in results:
            if result.backend_name != self.requires_backend:
                raise ValueError(
                    "DensityMatrixEstimator needs term vectors produced under its "
                    f"noise model by the {self.requires_backend!r} backend; got a "
                    f"result from {result.backend_name!r} — configure "
                    "TreeVQAConfig(backend='density_matrix', noise_model=...) or "
                    "use per-request estimate_request()"
                )
        return super().estimate_backend_results(results, operators)

    def _apply_noise(self, engine, vector: np.ndarray) -> tuple[np.ndarray, float]:
        """Noise layer over an already-noisy term vector (readout included):
        optional shot noise; the reported variance stays 0."""
        if self.add_shot_noise:
            vector, _ = self._shot_noise(engine, vector)
        return vector, 0.0
