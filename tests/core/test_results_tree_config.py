"""Tests for result records, execution-tree bookkeeping and the configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ShotLedger,
    TreeVQAConfig,
    VQATask,
)
from repro.core.baseline import IndependentBaselineResult
from repro.core.results import RunResult, TaskOutcome, TaskTrajectory
from repro.core.tree import ExecutionTree
from repro.hamiltonians import transverse_field_ising_chain
from repro.optimizers import COBYLA, SPSA
from repro.quantum.sampling import ExactEstimator, ShotNoiseEstimator


def _task(name="t", field=1.0, reference=-5.0):
    return VQATask(
        name=name,
        hamiltonian=transverse_field_ising_chain(4, field),
        reference_energy=reference,
    )


def _result(reference=-5.0, energies=None, shots=None, cls=RunResult):
    task = _task(reference=reference)
    trajectory = TaskTrajectory(task.name)
    energies = energies if energies is not None else [-2.0, -4.0, -4.9]
    shots = shots if shots is not None else [100, 200, 300]
    for s, e in zip(shots, energies):
        trajectory.record(s, e)
    ledger = ShotLedger()
    ledger.charge(task.name, 1, shots[-1])
    outcome = TaskOutcome(
        task=task,
        energy=energies[-1],
        source="x",
        fidelity=task.fidelity(energies[-1]),
        error=task.error(energies[-1]),
    )
    return cls(
        outcomes=[outcome],
        trajectories={task.name: trajectory},
        ledger=ledger,
        total_rounds=len(energies),
    )


class TestTaskTrajectory:
    def test_records_must_be_monotone_in_shots(self):
        trajectory = TaskTrajectory("t")
        trajectory.record(100, -1.0)
        with pytest.raises(ValueError):
            trajectory.record(50, -2.0)

    def test_best_so_far_and_budget_queries(self):
        trajectory = TaskTrajectory("t")
        for shots, energy in [(10, -1.0), (20, -3.0), (30, -2.0)]:
            trajectory.record(shots, energy)
        np.testing.assert_allclose(trajectory.best_energy_so_far(), [-1.0, -3.0, -3.0])
        assert trajectory.best_energy_within(25) == -3.0
        assert trajectory.best_energy_within(5) is None
        assert trajectory.shots_to_reach_energy(-2.5) == 20
        assert trajectory.shots_to_reach_energy(-10.0) is None


class TestRunResult:
    def test_headline_numbers(self):
        result = _result()
        assert result.total_shots == 300
        assert result.min_fidelity() == pytest.approx(0.98)
        assert result.mean_fidelity() == pytest.approx(0.98)
        assert result.final_energies()["t"] == -4.9
        assert result.fidelity_variance() == pytest.approx(0.0)

    def test_shots_to_reach_fidelity(self):
        result = _result()
        # fidelity 0.8 -> energy <= -4.0 reached at 200 shots
        assert result.shots_to_reach_fidelity(0.8) == 200
        assert result.shots_to_reach_fidelity(0.99) is None
        with pytest.raises(ValueError):
            result.shots_to_reach_fidelity(1.5)

    def test_fidelity_at_shots(self):
        result = _result()
        assert result.fidelity_at_shots(250) == pytest.approx(0.8)
        assert result.fidelity_at_shots(50) == 0.0
        assert result.mean_fidelity_at_shots(350) == pytest.approx(0.98)

    def test_max_reported_fidelity(self):
        result = _result()
        assert result.max_reported_fidelity() == pytest.approx(0.98)

    @pytest.mark.parametrize("cls", [RunResult, IndependentBaselineResult])
    def test_max_reported_fidelity_is_reached(self, cls):
        # A Fig. 6 TFIM panel's values: E_gs + (1-T)|E_gs| for T = the best
        # energy's own fidelity lands one ulp below that energy.
        reference, best = -6.32147748611348, -3.4907138319477635
        result = _result(reference=reference, energies=[-2.0, best, -3.0], cls=cls)
        threshold = result.max_reported_fidelity()
        assert threshold == 0.5521990451782652
        assert reference + (1.0 - threshold) * abs(reference) < best
        assert result.shots_to_reach_fidelity(threshold) == 200
        assert result.shots_to_reach_fidelity(np.nextafter(threshold, 1.0)) is None

    def test_baseline_result_sums_per_task_shots(self):
        result = _result(cls=IndependentBaselineResult)
        # Same single-task case: sum == per-task value.
        assert result.shots_to_reach_fidelity(0.8) == 200
        # Budget is divided by the number of tasks (1 here).
        assert result.fidelity_at_shots(250) == pytest.approx(0.8)


class TestExecutionTree:
    def test_build_and_query(self):
        tree = ExecutionTree()
        tree.add_root("L1B1", ["a", "b", "c"])
        tree.record_iteration("L1B1", 100)
        tree.record_iteration("L1B1", 100)
        tree.add_child("L1B1", "L1B1.0", ["a"])
        tree.add_child("L1B1", "L1B1.1", ["b", "c"])
        tree.mark_split("L1B1", "stalled")
        tree.record_iteration("L1B1.0", 50)
        assert tree.num_nodes == 3
        assert tree.num_splits == 1
        assert tree.depth_levels() == 2
        assert len(tree.leaves()) == 2
        assert tree.node("L1B1").split_reason == "stalled"
        assert tree.total_shots() == 250
        assert tree.critical_depth_iterations() == 3
        rendered = tree.render()
        assert "L1B1.0" in rendered and "L1B1.1" in rendered

    def test_duplicate_and_missing_nodes(self):
        tree = ExecutionTree()
        tree.add_root("A", ["x"])
        with pytest.raises(ValueError):
            tree.add_root("A", ["y"])
        with pytest.raises(KeyError):
            tree.node("missing")


class TestTreeVQAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeVQAConfig(max_rounds=0)
        with pytest.raises(ValueError):
            TreeVQAConfig(window_size=1)
        with pytest.raises(ValueError):
            TreeVQAConfig(optimizer="adam")
        with pytest.raises(ValueError):
            TreeVQAConfig(estimator="exactish")
        with pytest.raises(ValueError):
            TreeVQAConfig(max_total_shots=0)

    def test_factories(self):
        config = TreeVQAConfig(optimizer="spsa", optimizer_kwargs={"learning_rate": 0.5}, seed=3)
        optimizer = config.make_optimizer()
        assert isinstance(optimizer, SPSA)
        assert optimizer.learning_rate == 0.5
        cobyla_config = TreeVQAConfig(optimizer="cobyla")
        assert isinstance(cobyla_config.make_optimizer(), COBYLA)
        assert isinstance(config.make_estimator(), ExactEstimator)
        noisy = TreeVQAConfig(estimator="shot_noise")
        assert isinstance(noisy.make_estimator(), ShotNoiseEstimator)

    def test_custom_factories_override(self):
        config = TreeVQAConfig(
            optimizer_factory=lambda: SPSA(learning_rate=9.0),
            estimator_factory=lambda: ExactEstimator(shots_per_term=7),
        )
        assert config.make_optimizer().learning_rate == 9.0
        assert config.make_estimator().shots_per_term == 7

    def test_factory_skips_name_validation(self):
        # Regression: a supplied estimator_factory makes the name moot, just
        # like the optimizer_factory path always has.
        config = TreeVQAConfig(
            optimizer="my-optimizer", optimizer_factory=lambda: SPSA(),
            estimator="my-estimator", estimator_factory=lambda: ExactEstimator(),
        )
        assert isinstance(config.make_optimizer(), SPSA)
        assert isinstance(config.make_estimator(), ExactEstimator)
        with pytest.raises(ValueError):
            TreeVQAConfig(estimator="my-estimator")

    def test_backend_knobs(self):
        from repro.quantum import CliffordBackend, StatevectorBackend

        assert isinstance(TreeVQAConfig().make_backend(), StatevectorBackend)
        assert isinstance(TreeVQAConfig(backend="clifford").make_backend(), CliffordBackend)
        custom = TreeVQAConfig(backend_factory=lambda: CliffordBackend())
        assert isinstance(custom.make_backend(), CliffordBackend)
        assert isinstance(
            TreeVQAConfig(backend="hypervisor", backend_factory=StatevectorBackend).make_backend(),
            StatevectorBackend,
        )
        with pytest.raises(ValueError):
            TreeVQAConfig(backend="hypervisor")
        with pytest.raises(ValueError):
            TreeVQAConfig(max_batch_size=0)
