"""Figure 12 — TreeVQA shot savings for QAOA / MaxCut (paper §8.8).

Three load-scale scenarios on the IEEE 14-bus system, each a family of ten
isomorphic weighted MaxCut instances solved with ma-QAOA.  All instances
share a Red-QAOA-style initialisation.  The figure reports, per scenario, the
edge-weight variance across instances (purple bars) and TreeVQA's shot
savings over the independent baseline (blue bars): lower variance (more
similar instances) should give larger savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...hamiltonians.catalog import maxcut_ieee14_suite
from ...hamiltonians.ieee14 import LOAD_SCENARIOS
from ...initialization.red_qaoa import red_qaoa_initialization
from ..metrics import savings_at_threshold
from ..reporting import format_table
from .common import BenchmarkComparison, Preset, default_config, get_preset, run_comparison

__all__ = ["Figure12Bar", "Figure12Result", "run_figure12", "format_figure12"]


@dataclass(frozen=True)
class Figure12Bar:
    """One load-scale scenario."""

    scenario: str
    edge_weight_variance: float
    savings_ratio: float | None
    fidelity: float
    comparison: BenchmarkComparison


@dataclass
class Figure12Result:
    """All three scenarios."""

    bars: list[Figure12Bar] = field(default_factory=list)


def run_figure12(
    preset: str | Preset = "fast",
    scenarios: tuple[str, ...] | None = None,
    *,
    seed: int = 7,
    qaoa_layers: int = 1,
) -> Figure12Result:
    """Run the MaxCut comparison for every load scenario."""
    preset = get_preset(preset)
    names = scenarios or tuple(s.name for s in LOAD_SCENARIOS)
    num_instances = preset.num_tasks
    result = Figure12Result()
    for name in names:
        suite = maxcut_ieee14_suite(name, num_instances=num_instances, qaoa_layers=qaoa_layers)
        # Red-QAOA initialisation shared by all isomorphic instances (§8.8).
        reference_graph = suite.tasks[0].metadata["graph"]
        initialization = red_qaoa_initialization(reference_graph, num_layers=qaoa_layers)
        initial_parameters = initialization.broadcast(suite.ansatz)
        config = default_config(preset, seed=seed)
        comparison = run_comparison(
            suite,
            config,
            baseline_iterations=preset.baseline_iterations,
            initial_parameters=initial_parameters,
        )
        fidelity, savings = savings_at_threshold(comparison.treevqa, comparison.baseline)
        result.bars.append(
            Figure12Bar(
                scenario=name,
                edge_weight_variance=float(suite.metadata["edge_weight_variance"]),
                savings_ratio=savings,
                fidelity=fidelity,
                comparison=comparison,
            )
        )
    return result


def format_figure12(result: Figure12Result) -> str:
    """Render the variance / savings bars."""
    rows = [
        [bar.scenario, bar.edge_weight_variance, bar.savings_ratio, bar.fidelity]
        for bar in result.bars
    ]
    return format_table(
        ["load scale range", "edge weight variance", "shot savings", "fidelity"],
        rows,
        title="Fig. 12: TreeVQA shot savings for QAOA (IEEE 14-bus MaxCut)",
    )
