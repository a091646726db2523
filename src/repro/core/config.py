"""TreeVQA configuration (paper §5, §7.3, §9.1).

All tunables of the framework live here: the shot ledger rate (4096 per Pauli
term per evaluation), the slope monitor's warm-up and window size, the split
threshold ε_split, the optimizer and estimator choices, and the knobs used by
the hyper-parameter studies of §9.1 (forced split timing, disabled automatic
splits).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..optimizers import COBYLA, SPSA, IterativeOptimizer
from ..quantum.backend import BACKEND_REGISTRY, ExecutionBackend, make_execution_backend
from ..quantum.noise import NoiseModel, get_backend_profile
from ..quantum.parallel import ParallelBackend
from ..quantum.sampling import (
    BaseEstimator,
    DensityMatrixEstimator,
    ExactEstimator,
    SamplingEstimator,
    ShotNoiseEstimator,
)
from .shots import DEFAULT_SHOTS_PER_PAULI_TERM

__all__ = ["TreeVQAConfig"]

_OPTIMIZERS: dict[str, type[IterativeOptimizer]] = {"spsa": SPSA, "cobyla": COBYLA}
_ESTIMATORS: dict[str, type[BaseEstimator]] = {
    "exact": ExactEstimator,
    "shot_noise": ShotNoiseEstimator,
    "sampling": SamplingEstimator,
    "density_matrix": DensityMatrixEstimator,
}


@dataclass
class TreeVQAConfig:
    """Execution configuration shared by TreeVQA and the baseline.

    The process-wide program and measurement-plan caches are shared by every
    run in the process, so they are sized there, not per run: call
    :func:`~repro.quantum.program.set_program_cache_limit` /
    :func:`~repro.quantum.measurement.set_measurement_plan_cache_limit`.
    Every controller result reports its own cache activity under
    ``metadata["program_cache"]`` / ``metadata["measurement_plan_cache"]``.

    Attributes:
        max_total_shots: Global shot budget S_max (Algorithm 1).  ``None``
            (default) means "until max_rounds"; must be ≥ 1 when set.  A
            budget break lands mid-round in the same strict cluster order
            regardless of ``max_batch_size``/``execution_workers``.
        max_rounds: Maximum number of controller rounds (each active cluster
            performs one VQA iteration per round).  Default 200; must be
            ≥ 1.
        shots_per_pauli_term: Shots charged per Pauli term per evaluation
            (§7.3; 4096 by default, must be ≥ 1).  Also the variance scale
            of the ``shot_noise`` estimator and the per-basis sample count
            of the ``sampling`` estimator.
        warmup_iterations: Iterations before the slope monitor may trigger a
            split (§5.2.2).  Default 20; must be ≥ 0.
        window_size: Sliding-window length W for the slope regressions.
            Default 10; must be ≥ 2 (a slope needs two points).
        epsilon_split: Stall threshold ε_split on the mixed-loss slope.
            Default 1e-3; must be ≥ 0.  Meaningful only relative to the
            loss scale of the task family; the §9.1 knobs
            (``forced_split_iteration`` / ``disable_automatic_splits``)
            bypass it.
        individual_slope_threshold: Threshold on per-task slopes (default
            0.0, which reproduces the paper's "any slope_i > 0" condition).
            Must be finite: a NaN would silently disable divergence-based
            splits (``slope > nan`` is always False), so non-finite values
            are rejected at construction time.
        optimizer: ``"spsa"`` (default) or ``"cobyla"``; validated against
            the registry unless ``optimizer_factory`` is supplied (a factory
            makes the name moot).
        optimizer_kwargs: Keyword arguments forwarded to the optimizer
            constructor (default ``{}``).  SPSA additionally receives
            ``seed`` from the config unless the kwargs override it.
        optimizer_factory: Optional callable overriding optimizer creation;
            called once per cluster (and per baseline task), so it must
            return a *fresh* optimizer each call.
        estimator: ``"exact"`` (default), ``"shot_noise"``, ``"sampling"``
            or ``"density_matrix"`` (noisy simulation under the resolved
            noise model); validated against the registry unless
            ``estimator_factory`` is supplied.  Interaction:
            ``noise_model``/``noise_profile`` require a noise-consuming
            estimator (``"density_matrix"`` or a factory), and the
            ``"density_matrix"`` estimator only *batches* when the backend
            is ``"density_matrix"`` with the same noise model — any other
            pairing falls back to per-request estimation.
        estimator_factory: Optional callable overriding estimator creation
            (one shared instance per controller; its RNG stream is consumed
            in strict cluster order, which is what keeps noisy trajectories
            independent of batching and worker count).
        backend: Execution backend for batched state preparation:
            ``"statevector"`` (dense, batched), ``"clifford"`` (routing
            table: π/2-multiple angles to the stabilizer simulator, the
            rest to statevector),
            ``"density_matrix"`` (batched noisy ``U ρ U†`` execution under
            the resolved noise model — pair it with
            ``estimator="density_matrix"`` so noisy rounds batch),
            ``"pauli_propagation"`` (vectorized Heisenberg propagation with
            truncation — no state is ever materialized, opening the
            50–100 qubit band) or ``"auto"`` (the width table over the same
            routing loop: statevector up to its 20-qubit routing threshold,
            propagation above; the dense hard cap is 26 qubits).
        propagation_max_weight / propagation_coefficient_threshold /
            propagation_max_terms: Truncation knobs for the
            ``"pauli_propagation"``/``"auto"`` backends (defaults: the
            paper's weight-8 truncation, threshold 1e-8, 200k terms).
            Rejected for backends that do not propagate.
        backend_factory: Optional callable overriding backend creation.  Must
            build a *fresh* backend per call: with ``execution_workers`` set
            it also runs once inside every worker process (so under the
            ``spawn`` start method it must be picklable).
        noise_model: Explicit :class:`~repro.quantum.noise.NoiseModel` for the
            density-matrix backend/estimator (exclusive with
            ``noise_profile``; None means noiseless).
        noise_profile: Name of a synthetic backend calibration profile
            (``"hanoi"``, ``"cairo"``, ...; see
            :data:`~repro.quantum.noise.BACKEND_PROFILES`) converted to a
            noise model at construction time.
        max_batch_size: Cap on requests per backend dispatch.  ``None``
            (default) executes each round's full request set in one batch;
            ``1`` is the sequential degenerate case (bit-identical
            trajectories under the exact estimator either way).  Interacts
            with ``execution_workers``: each chunk is what gets sharded
            across the pool, so a cap far below
            ``workers x per-worker batch`` serialises the round — leave it
            ``None`` unless peak memory (``batch x 2^n`` amplitudes, or
            ``batch x 2^n x 2^n`` with ``noise_model``) forces a cap.
        execution_workers: Number of worker processes for multi-process
            execution sharding (validated ≥ 1 when set).  ``None`` (default)
            executes in-process; any value wraps the configured backend in a
            :class:`~repro.quantum.parallel.ParallelBackend` whose merged
            results are bit-identical to in-process dispatch for every
            worker count (``1`` is the exact degenerate case), for every
            backend — including ``"density_matrix"``, whose per-request cost
            dominates and parallelises best.  Shot-noise RNG streams live in
            the estimator layer of the parent process, so noisy trajectories
            are also worker-count independent.  When unset, the
            ``REPRO_EXECUTION_WORKERS`` environment variable supplies the
            value (the CI parallel smoke uses this); ``0`` there forces
            in-process execution, so an env-driven matrix can express the
            workers-off leg.  Jobs submitted to a
            :class:`~repro.service.TreeVQAService` must leave this unset —
            the service owns the one shared pool all jobs multiplex onto,
            and sizes it at service construction.
        worker_timeout_s: Deadline in seconds for each worker shard reply
            (validated > 0 when set); requires ``execution_workers``.
            ``None`` (default) waits indefinitely — the safe choice for
            arbitrarily large batches — while a value bounds every reply
            wait, so a hung (not dead) worker is reaped, respawned, and its
            shard rerouted within that many seconds instead of deadlocking
            the round.  Results are unaffected either way (rerouted and
            original execution are bit-identical); size it generously above
            the slowest expected shard (e.g. several minutes for
            density-matrix workloads) so slow-but-healthy workers are never
            reaped.  Jobs submitted to a service must leave this unset too —
            the deadline is a property of the shared pool, set at service
            construction.
        forced_split_iteration: §9.1 study — force exactly one split (per
            root cluster) at this cluster iteration.  Default ``None``
            (condition-based splitting); must be ≥ 1 when set (the trigger
            compares against 1-based cluster iterations, so 0 or negative
            values would force the split before any optimization happened).
        disable_automatic_splits: §9.1 study — suppress condition-based
            splits (default False).
        seed: Seed for optimizers, estimators and spectral clustering
            (default 0; ``None`` draws fresh OS entropy — runs are then not
            reproducible and the parity guarantees above become
            distributional rather than bitwise between repeats).  Must be
            ≥ 0 when set: ``np.random.SeedSequence`` rejects negative
            entropy, and validating here fails at configuration time rather
            than deep inside the first sampling round.
    """

    max_total_shots: int | None = None
    max_rounds: int = 200
    shots_per_pauli_term: int = DEFAULT_SHOTS_PER_PAULI_TERM
    warmup_iterations: int = 20
    window_size: int = 10
    epsilon_split: float = 1e-3
    individual_slope_threshold: float = 0.0
    optimizer: str = "spsa"
    optimizer_kwargs: dict = field(default_factory=dict)
    optimizer_factory: Callable[[], IterativeOptimizer] | None = None
    estimator: str = "exact"
    estimator_factory: Callable[[], BaseEstimator] | None = None
    backend: str = "statevector"
    backend_factory: Callable[[], ExecutionBackend] | None = None
    noise_model: NoiseModel | None = None
    noise_profile: str | None = None
    propagation_max_weight: int | None = None
    propagation_coefficient_threshold: float | None = None
    propagation_max_terms: int | None = None
    max_batch_size: int | None = None
    execution_workers: int | None = None
    worker_timeout_s: float | None = None
    forced_split_iteration: int | None = None
    disable_automatic_splits: bool = False
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_total_shots is not None and self.max_total_shots < 1:
            raise ValueError("max_total_shots must be positive when set")
        if self.shots_per_pauli_term < 1:
            raise ValueError("shots_per_pauli_term must be >= 1")
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.epsilon_split < 0:
            raise ValueError("epsilon_split must be >= 0")
        if not math.isfinite(self.individual_slope_threshold):
            # A NaN here would silently disable divergence splits: every
            # ``slope > threshold`` comparison is False against NaN.
            raise ValueError("individual_slope_threshold must be finite")
        if self.forced_split_iteration is not None and self.forced_split_iteration < 1:
            raise ValueError("forced_split_iteration must be >= 1 when set")
        if self.seed is not None and self.seed < 0:
            # np.random.SeedSequence rejects negative entropy; fail at
            # configuration time instead of inside the first sampling round.
            raise ValueError("seed must be >= 0 when set (or None for OS entropy)")
        if self.optimizer_factory is None and self.optimizer not in _OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; choose from {sorted(_OPTIMIZERS)}"
            )
        # Like the optimizer path, a supplied factory makes the name moot.
        if self.estimator_factory is None and self.estimator not in _ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; choose from {sorted(_ESTIMATORS)}"
            )
        if self.backend_factory is None and self.backend not in BACKEND_REGISTRY:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {sorted(BACKEND_REGISTRY)}"
            )
        if self.noise_model is not None and self.noise_profile is not None:
            raise ValueError("give noise_model or noise_profile, not both")
        if self.noise_profile is not None:
            # Resolve eagerly: an unknown profile fails here, at configuration
            # time, with the available names listed.
            get_backend_profile(self.noise_profile)
        if self.noise_model is not None or self.noise_profile is not None:
            # Only the density-matrix *estimator* ever consumes the noise
            # model (the scheduler keeps noisy backend payloads away from
            # exact estimators), so without one the run would silently be
            # noiseless.  Factories are trusted to read resolve_noise_model().
            noise_aware_estimator = (
                self.estimator_factory is not None or self.estimator == "density_matrix"
            )
            if not noise_aware_estimator:
                raise ValueError(
                    "noise_model/noise_profile have no effect with "
                    f"estimator={self.estimator!r}; use "
                    "estimator='density_matrix' (plus backend='density_matrix' "
                    "to batch noisy rounds)"
                )
        if self.max_batch_size is not None and self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1 when set")
        propagation_knobs = (
            self.propagation_max_weight,
            self.propagation_coefficient_threshold,
            self.propagation_max_terms,
        )
        if any(knob is not None for knob in propagation_knobs):
            propagation_capable = self.backend_factory is not None or getattr(
                BACKEND_REGISTRY.get(self.backend), "accepts_propagation_config", False
            )
            if not propagation_capable:
                raise ValueError(
                    "propagation_* knobs have no effect with "
                    f"backend={self.backend!r}; use backend='pauli_propagation' "
                    "or backend='auto'"
                )
            # Delegate range validation (and error wording) to the config type.
            self.resolve_propagation_config()
        if self.execution_workers is None:
            env = os.environ.get("REPRO_EXECUTION_WORKERS")
            if env:
                try:
                    workers = int(env)
                except ValueError:
                    raise ValueError(
                        f"REPRO_EXECUTION_WORKERS must be an integer, got {env!r}"
                    ) from None
                if workers < 0:
                    raise ValueError(
                        "REPRO_EXECUTION_WORKERS must be >= 0 "
                        f"(0 forces in-process execution), got {workers}"
                    )
                # 0 means "force in-process" so an env-driven test matrix can
                # express the workers-off leg; > 0 supplies the pool size.
                if workers > 0:
                    self.execution_workers = workers
        if self.execution_workers is not None and self.execution_workers < 1:
            raise ValueError("execution_workers must be >= 1 when set")
        if self.worker_timeout_s is not None:
            if not self.worker_timeout_s > 0:
                raise ValueError("worker_timeout_s must be > 0 when set")
            if self.execution_workers is None:
                raise ValueError(
                    "worker_timeout_s requires execution_workers (the deadline "
                    "bounds worker shard replies; in-process execution has none)"
                )

    # -- factories -------------------------------------------------------------

    def make_optimizer(self) -> IterativeOptimizer:
        """Construct a fresh optimizer instance (one per cluster / baseline task)."""
        if self.optimizer_factory is not None:
            return self.optimizer_factory()
        kwargs = dict(self.optimizer_kwargs)
        if self.optimizer == "spsa" and "seed" not in kwargs:
            kwargs["seed"] = self.seed
        return _OPTIMIZERS[self.optimizer](**kwargs)

    def resolve_noise_model(self) -> NoiseModel | None:
        """The configured noise model: explicit, profile-derived, or None."""
        if self.noise_model is not None:
            return self.noise_model
        if self.noise_profile is not None:
            return get_backend_profile(self.noise_profile).to_noise_model()
        return None

    def resolve_propagation_config(self):
        """The Pauli-propagation truncation policy for propagation-capable
        backends — configured knobs override the paper defaults (weight 8,
        threshold 1e-8, 200k terms)."""
        from ..quantum.pauli_propagation import PauliPropagationConfig

        defaults = PauliPropagationConfig()
        return PauliPropagationConfig(
            max_weight=(
                defaults.max_weight
                if self.propagation_max_weight is None
                else self.propagation_max_weight
            ),
            coefficient_threshold=(
                defaults.coefficient_threshold
                if self.propagation_coefficient_threshold is None
                else self.propagation_coefficient_threshold
            ),
            max_terms=(
                defaults.max_terms
                if self.propagation_max_terms is None
                else self.propagation_max_terms
            ),
        )

    def make_estimator(self) -> BaseEstimator:
        """Construct the expectation-value estimator."""
        if self.estimator_factory is not None:
            return self.estimator_factory()
        if self.estimator == "density_matrix":
            return DensityMatrixEstimator(
                self.resolve_noise_model() or NoiseModel(),
                shots_per_term=self.shots_per_pauli_term,
                seed=self.seed,
            )
        return _ESTIMATORS[self.estimator](
            shots_per_term=self.shots_per_pauli_term, seed=self.seed
        )

    def _inner_backend_factory(self) -> Callable[[], ExecutionBackend]:
        """Zero-argument factory for the configured (inner) backend.

        The factory — not a backend instance — is what multi-process
        execution needs: every worker process builds its own backend from it.
        The resolved noise model is forwarded to noise-capable backends
        (``"density_matrix"``); purely unitary backends are constructed
        without it, so a noise model configured for a per-request noisy
        estimator does not break a statevector-backend run.
        """
        if self.backend_factory is not None:
            return self.backend_factory
        backend_cls = BACKEND_REGISTRY[self.backend]
        if getattr(backend_cls, "accepts_noise_model", False):
            return partial(
                make_execution_backend, self.backend, noise_model=self.resolve_noise_model()
            )
        if getattr(backend_cls, "accepts_propagation_config", False):
            # The frozen config pickles into each worker, which compiles its
            # own conjugation structures once (like programs, shipped by id).
            return partial(
                make_execution_backend,
                self.backend,
                propagation=self.resolve_propagation_config(),
            )
        return partial(make_execution_backend, self.backend)

    def make_backend(self) -> ExecutionBackend:
        """Construct the execution backend for batched rounds.

        With ``execution_workers`` set, the configured backend is wrapped in
        a :class:`~repro.quantum.parallel.ParallelBackend` that shards every
        dispatch across that many worker processes (bit-identical results;
        the pool spawns lazily and is released by
        :meth:`~repro.core.controller.TreeVQAController.close` /
        ``ParallelBackend.close``).
        """
        factory = self._inner_backend_factory()
        if self.execution_workers is None:
            return factory()
        return ParallelBackend(
            factory,
            workers=self.execution_workers,
            worker_timeout_s=self.worker_timeout_s,
        )
