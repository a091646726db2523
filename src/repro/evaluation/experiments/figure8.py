"""Figure 8 — shot savings versus task precision (paper §8.3).

Over a fixed bond-length range, the precision (scan step size) controls how
many tasks the application contains: finer precision → more, more-similar
tasks → larger TreeVQA savings.  The finest paper setting (0.001 Å, ~300
tasks) is extrapolated from the measured trend, exactly as the paper's shaded
bars are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...ansatz import HardwareEfficientAnsatz
from ...applications.pes import build_pes_tasks
from ...hamiltonians.catalog import BenchmarkSuite
from ...hamiltonians.molecular import get_molecule
from ..metrics import savings_at_threshold
from ..reporting import format_table
from .common import Preset, default_config, get_preset, run_comparison

__all__ = ["PrecisionPoint", "Figure8Result", "run_figure8", "format_figure8"]

#: Paper precision sweep (Å); the finest level is inferred, not measured.
PAPER_PRECISIONS = (0.1, 0.07, 0.05, 0.03, 0.01, 0.001)


@dataclass(frozen=True)
class PrecisionPoint:
    """Savings measured (or inferred) at one precision level."""

    molecule: str
    precision: float
    num_tasks: int
    savings_ratio: float | None
    fidelity: float
    inferred: bool = False


@dataclass
class Figure8Result:
    """The precision sweep for every molecule."""

    points: list[PrecisionPoint] = field(default_factory=list)

    def for_molecule(self, molecule: str) -> list[PrecisionPoint]:
        return [point for point in self.points if point.molecule == molecule]


def _extrapolate(points: list[PrecisionPoint], target_precision: float) -> PrecisionPoint | None:
    """Linear extrapolation of savings against task count (the paper's inferred bar)."""
    measured = [p for p in points if p.savings_ratio is not None]
    if len(measured) < 2:
        return None
    counts = np.array([p.num_tasks for p in measured], dtype=float)
    savings = np.array([p.savings_ratio for p in measured], dtype=float)
    slope, intercept = np.polyfit(counts, savings, 1)
    # Task count implied by the finest precision over the same bond range.
    molecule = measured[0].molecule
    spec = get_molecule(molecule)
    span = spec.bond_range[1] - spec.bond_range[0]
    target_tasks = int(round(span / target_precision)) + 1
    predicted = max(float(slope * target_tasks + intercept), 0.0)
    return PrecisionPoint(
        molecule=molecule,
        precision=target_precision,
        num_tasks=target_tasks,
        savings_ratio=predicted,
        fidelity=measured[-1].fidelity,
        inferred=True,
    )


def run_figure8(
    preset: str | Preset = "fast",
    molecules: tuple[str, ...] = ("HF", "LiH", "BeH2"),
    precisions: tuple[float, ...] | None = None,
    *,
    seed: int = 7,
    max_tasks: int = 12,
    infer_finest: bool = True,
) -> Figure8Result:
    """Measure savings across precision levels for each molecule."""
    preset = get_preset(preset)
    if precisions is None:
        precisions = (0.1, 0.05, 0.03) if preset.name == "fast" else (0.1, 0.07, 0.05, 0.03, 0.01)
    result = Figure8Result()
    for molecule in molecules:
        measured: list[PrecisionPoint] = []
        for precision in sorted(precisions, reverse=True):
            tasks, family = build_pes_tasks(molecule, precision=precision)
            if len(tasks) > max_tasks:
                tasks = tasks[:max_tasks]
            ansatz = HardwareEfficientAnsatz(
                family.num_qubits, num_layers=2,
                initial_bitstring=family.hartree_fock_bitstring(),
            )
            suite = BenchmarkSuite(
                name=f"{molecule}@{precision}", tasks=tasks, ansatz=ansatz, kind="chemistry"
            )
            config = default_config(preset, seed=seed)
            comparison = run_comparison(
                suite, config, baseline_iterations=preset.baseline_iterations
            )
            fidelity, savings = savings_at_threshold(comparison.treevqa, comparison.baseline)
            point = PrecisionPoint(
                molecule=molecule,
                precision=precision,
                num_tasks=len(tasks),
                savings_ratio=savings,
                fidelity=fidelity,
            )
            measured.append(point)
            result.points.append(point)
        if infer_finest:
            inferred = _extrapolate(measured, PAPER_PRECISIONS[-1])
            if inferred is not None:
                result.points.append(inferred)
    return result


def format_figure8(result: Figure8Result) -> str:
    """Render the precision sweep as a table."""
    rows = []
    for point in result.points:
        rows.append(
            [
                point.molecule,
                point.precision,
                point.num_tasks,
                point.savings_ratio,
                point.fidelity,
                "inferred" if point.inferred else "measured",
            ]
        )
    return format_table(
        ["molecule", "precision (Å)", "#tasks", "shot savings", "fidelity", "kind"],
        rows,
        title="Fig. 8: shot savings by precision",
    )
