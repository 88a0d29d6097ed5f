"""Experiment harness regenerating the paper's evaluation artefacts.

One module per table/figure; each returns structured rows and can print
a text table shaped like the paper's series (see DESIGN.md section 3
for the experiment index).
"""

from repro.experiments.config import ExperimentConfig, scaled_geometry, GB, MB
from repro.experiments.runner import SimulationResult, run_simulation, run_workload
from repro.experiments.capacity import run_capacity_sweep, CAPACITY_POINTS_GB
from repro.experiments.pagesize import run_pagesize_sweep, PAGE_SIZES_KB
from repro.experiments.extrablocks import run_extrablocks_sweep, EXTRA_BLOCK_PERCENTS
from repro.experiments.figures import (
    detect_axis,
    figure_series,
    render_figure,
    render_table,
    summarize_wins,
)
from repro.experiments.parallel import run_cells
from repro.experiments.steady_state import mser_start, steady_mean, steady_state_start
from repro.experiments.results_io import (
    load_results_csv,
    load_results_json,
    save_results_csv,
    save_results_json,
)
from repro.experiments.ablations import (
    run_copyback_ablation,
    run_striping_ablation,
    run_sensitivity_ablation,
    run_hotplane_ablation,
    run_victim_policy_ablation,
    run_channel_sweep,
)

__all__ = [
    "detect_axis",
    "figure_series",
    "render_figure",
    "render_table",
    "summarize_wins",
    "run_cells",
    "mser_start",
    "steady_mean",
    "steady_state_start",
    "load_results_csv",
    "load_results_json",
    "save_results_csv",
    "save_results_json",
    "run_copyback_ablation",
    "run_striping_ablation",
    "run_sensitivity_ablation",
    "run_hotplane_ablation",
    "run_victim_policy_ablation",
    "run_channel_sweep",
    "ExperimentConfig",
    "scaled_geometry",
    "GB",
    "MB",
    "SimulationResult",
    "run_simulation",
    "run_workload",
    "run_capacity_sweep",
    "CAPACITY_POINTS_GB",
    "run_pagesize_sweep",
    "PAGE_SIZES_KB",
    "run_extrablocks_sweep",
    "EXTRA_BLOCK_PERCENTS",
]
