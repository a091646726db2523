"""Generic energy-landscape applications (paper §2.3).

Beyond molecular PES scans the paper motivates phase-diagram scans of spin
models and load-scenario scans of power-grid MaxCut problems.  These helpers
wrap the benchmark suites into a single call that runs TreeVQA (or the
baseline) and returns the landscape — one (scan parameter, energy) pair per
task — plus the shot cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import IndependentVQABaseline, RunResult, TreeVQAConfig, TreeVQAController
from ..hamiltonians.catalog import BenchmarkSuite

__all__ = ["LandscapePoint", "EnergyLandscape", "run_landscape"]


@dataclass(frozen=True)
class LandscapePoint:
    """One solved task of the landscape."""

    scan_parameter: float
    energy: float
    exact_energy: float
    fidelity: float


@dataclass
class EnergyLandscape:
    """The solved application landscape and its cost."""

    name: str
    method: str
    points: list[LandscapePoint]
    total_shots: int
    min_fidelity: float

    def scan_parameters(self) -> np.ndarray:
        return np.array([point.scan_parameter for point in self.points])

    def energies(self) -> np.ndarray:
        return np.array([point.energy for point in self.points])


def run_landscape(
    suite: BenchmarkSuite,
    *,
    config: TreeVQAConfig | None = None,
    method: str = "treevqa",
) -> EnergyLandscape:
    """Solve every task of a suite and return the resulting energy landscape."""
    config = config or TreeVQAConfig(max_rounds=150)
    if method == "treevqa":
        result: RunResult = TreeVQAController(suite.tasks, suite.ansatz, config).run()
    elif method == "baseline":
        result = IndependentVQABaseline(suite.tasks, suite.ansatz, config).run()
    else:
        raise ValueError("method must be 'treevqa' or 'baseline'")
    points = []
    for outcome in result.outcomes:
        points.append(
            LandscapePoint(
                scan_parameter=float(outcome.task.scan_parameter or 0.0),
                energy=outcome.energy,
                exact_energy=outcome.task.exact_ground_energy(),
                fidelity=outcome.fidelity,
            )
        )
    points.sort(key=lambda point: point.scan_parameter)
    return EnergyLandscape(
        name=suite.name,
        method=method,
        points=points,
        total_shots=result.total_shots,
        min_fidelity=result.min_fidelity(),
    )
