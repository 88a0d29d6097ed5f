"""Experiment harness regenerating the paper's evaluation artefacts.

Every paper grid (Figs. 8-10 and the ablations) is a declaration in
:mod:`repro.experiments.figures` over the shared scenario type; each
returns structured rows and can print a text table shaped like the
paper's series (see DESIGN.md section 3 for the experiment index).
"""

from repro.experiments.config import ExperimentConfig, scaled_geometry, GB, MB
from repro.experiments.runner import SimulationResult, run_simulation, run_workload
from repro.experiments.figures import (
    A1,
    A2,
    A3,
    A6,
    A9,
    F8,
    F9,
    F10,
    Grid,
    detect_axis,
    figure_series,
    render_figure,
    summarize_wins,
)
from repro.experiments.parallel import run_cells
from repro.experiments.steady_state import mser_start, steady_mean, steady_state_start
from repro.experiments.results_io import load_results_json, save_results_json

__all__ = [
    "A1",
    "A2",
    "A3",
    "A6",
    "A9",
    "F8",
    "F9",
    "F10",
    "Grid",
    "detect_axis",
    "figure_series",
    "render_figure",
    "summarize_wins",
    "run_cells",
    "mser_start",
    "steady_mean",
    "steady_state_start",
    "load_results_json",
    "save_results_json",
    "ExperimentConfig",
    "scaled_geometry",
    "GB",
    "MB",
    "SimulationResult",
    "run_simulation",
    "run_workload",
]
