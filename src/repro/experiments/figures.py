"""The paper's grids, declared over :class:`Scenario`, and their renderers.

Figs. 8-10 and the ablations A1-A3, A6 and A9 (DESIGN.md section 3)
are :class:`Grid` declarations: a point axis, a rule that turns a point
into a cell's geometry, footprint, preconditioning fill and FTL
overrides, and the five values callers set (points, workloads, FTLs,
scale and request count).  :meth:`Grid.run` expands the grid (trace →
point → FTL) through :func:`repro.experiments.scenario.expand` and runs
the cells over worker processes with :func:`run_cells`.

The paper plots mean response time and SDRPP as grouped series per
trace; with no plotting stack offline, the renderers lay the same
series out as sparkline charts and grouped tables from a list of
:class:`SimulationResult` (fresh or loaded via ``results_io``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import DEFAULT_SCALE, GB, KB, scaled_geometry
from repro.experiments.parallel import run_cells
from repro.experiments.runner import SimulationResult, run_workload
from repro.experiments.scenario import Scenario, expand
from repro.flash.geometry import SSDGeometry
from repro.metrics.ascii_chart import series_chart
from repro.traces.synthetic import PAPER_TRACE_NAMES, make_workload

#: the trace footprint, as a fraction of the paper capacity it is fixed at
FOOTPRINT_FRACTION = 0.45
#: preconditioning covers slightly more than the footprint, so updates
#: land on an aged device
PRECONDITION_MARGIN = 1.15


def run_cell(scenario: Scenario) -> SimulationResult:
    """One grid cell, replayed as its persona's trace is generated."""
    return run_workload(scenario.workload_spec(), scenario.config())


@dataclass(frozen=True)
class Grid:
    """One paper grid: ``cell(grid, point)`` gives a point's geometry,
    footprint, fill and FTL overrides; ``axis`` names the result extras
    key the point is recorded under (a tuple of keys for a tuple point)
    and ``column`` its table column."""

    axis: Union[str, Tuple[str, ...]]
    cell: Callable[["Grid", object], dict]
    points: Tuple
    workloads: Tuple[str, ...] = PAPER_TRACE_NAMES
    ftls: Tuple[str, ...] = ("dloop", "dftl", "fast")
    scale: float = DEFAULT_SCALE
    num_requests: int = 6000
    column: Optional[str] = None

    def footprint(self, capacity_gb: float) -> int:
        """The trace footprint fixed at a (scaled) paper capacity."""
        return int(capacity_gb * GB * self.scale * FOOTPRINT_FRACTION)

    def _extras(self, point) -> dict:
        if isinstance(self.axis, str):
            return {self.axis: point}
        return dict(zip(self.axis, point))

    def scenarios(self) -> List[Scenario]:
        """Every cell in trace → point → FTL order.  Each replays its
        persona at the persona's own seed; building that spec here
        rejects a bad request count or footprint (and the geometry a
        bad scale) before any cell runs."""

        def fields(p: dict) -> dict:
            cell = self.cell(self, p["point"])
            persona = make_workload(p["workload"], self.num_requests,
                                    footprint_bytes=cell["footprint_bytes"])
            return dict(cell, seed=persona.seed, num_requests=self.num_requests)

        return expand(
            (("workload", self.workloads), ("point", self.points),
             ("ftl", self.ftls), ("fault_plan", ("none",))),
            base_seed=0,
            scenario_id=lambda p: f"{p['workload']}|{p['point']}|{p['ftl']}",
            fields=fields,
        ).scenarios

    def run(self) -> List[SimulationResult]:
        """One result per cell, in :meth:`scenarios` order, with its
        point in ``extras``."""
        results = run_cells(self.scenarios(), run_cell)
        cells = product(self.workloads, self.points, self.ftls)
        for result, (_, point, _) in zip(results, cells):
            result.extras.update(self._extras(point))
        return results

    def rows(self, results: Sequence[SimulationResult]) -> List[dict]:
        """The figure's table: one row per cell."""
        column = self.column or self.axis
        return [
            {
                "trace": r.trace,
                "ftl": r.ftl,
                column: r.extras[self.axis],
                "mean_ms": r.mean_response_ms,
                "sdrpp": r.sdrpp,
            }
            for r in results
        ]


def _figure_cell(grid: Grid, footprint_gb: float, geometry: SSDGeometry) -> dict:
    """Figs. 8-10: preconditioning scales with the footprint's share of
    the geometry."""
    footprint = grid.footprint(footprint_gb)
    return dict(
        geometry=geometry,
        footprint_bytes=footprint,
        precondition_fill=min(0.9, PRECONDITION_MARGIN * footprint / geometry.capacity_bytes),
    )


def _ablation_cell(grid: Grid, geometry: Optional[SSDGeometry] = None,
                   ftl_kwargs: Tuple = ()) -> dict:
    """The ablations: a 2 GB paper point, preconditioned to the margin
    over the footprint fraction."""
    return dict(
        geometry=geometry or scaled_geometry(2, scale=grid.scale),
        footprint_bytes=grid.footprint(2),
        precondition_fill=min(0.9, PRECONDITION_MARGIN * FOOTPRINT_FRACTION),
        ftl_kwargs=ftl_kwargs,
    )


#: Fig. 8 — capacity.  The footprint is fixed at the paper's smallest
#: (2 GB) point, so growing the SSD lowers utilisation and delays GC — the
#: paper's stated mechanism for the downward trend.
F8 = Grid(
    axis="capacity_gb",
    points=(2, 8, 16, 32, 64),
    cell=lambda g, capacity: _figure_cell(g, 2, scaled_geometry(capacity, scale=g.scale)),
)

#: Fig. 9 — page size at a fixed 8 GB.  Requests are page-aligned, so
#: the same byte-addressed trace exercises every page size.
F9 = Grid(
    axis="page_size_kb",
    column="page_kb",
    points=(2, 4, 8, 16),
    cell=lambda g, kb: _figure_cell(
        g, 8, scaled_geometry(8, scale=g.scale, page_size=kb * KB)),
)

#: Fig. 10 — the extra-block (over-provisioning) percentage at 8 GB;
#: for FAST the same budget provisions its log blocks.
F10 = Grid(
    axis="extra_blocks_percent",
    column="extra_%",
    points=(3, 5, 7, 10),
    cell=lambda g, percent: _figure_cell(
        g, 8, scaled_geometry(8, scale=g.scale, extra_blocks_percent=percent)),
)

#: A1 — DLOOP with and without intra-plane copy-back.
A1 = Grid(
    axis="use_copyback",
    points=(True, False),
    workloads=("tpcc", "build"),
    ftls=("dloop",),
    cell=lambda g, on: _ablation_cell(g, ftl_kwargs=(("use_copyback", on),)),
)

#: A2 — Eq. 1's ``LPN % planes`` against roaming and random placement,
#: on the ideal page-map FTL so mapping-cache effects don't confound it.
A2 = Grid(
    axis="striping",
    points=("lpn", "roaming", "random"),
    workloads=("financial1",),
    ftls=("pagemap",),
    cell=lambda g, striping: _ablation_cell(g, ftl_kwargs=(("striping", striping),)),
)

#: A3 — DLOOP sensitivity to the GC threshold, then the CMT size.
A3 = Grid(
    axis=("knob", "value"),
    points=tuple(("gc_threshold", n) for n in (2, 3, 5, 8))
    + tuple(("cmt_entries", n) for n in (512, 2048, 4096, 16384)),
    workloads=("financial1",),
    ftls=("dloop",),
    cell=lambda g, knob: _ablation_cell(g, ftl_kwargs=(knob,)),
)

#: A6 — the GC victim-selection policy on DLOOP (the paper fixes greedy).
A6 = Grid(
    axis="policy",
    points=("greedy", "cost-benefit", "fifo", "random"),
    workloads=("tpcc",),
    ftls=("dloop",),
    cell=lambda g, policy: _ablation_cell(g, ftl_kwargs=(("gc_victim_policy", policy),)),
)

#: A9 — channel count at constant capacity and 32 planes (the sweep
#: isolates bus parallelism, not GC granularity): what Section II.C's
#: costly knob buys each FTL.
A9 = Grid(
    axis="channels",
    points=(2, 4, 8, 16),
    workloads=("tpcc",),
    ftls=("dloop", "dftl"),
    cell=lambda g, channels: _ablation_cell(g, scaled_geometry(
        2, scale=g.scale, channels=channels, planes_per_die=max(1, 32 // (channels * 2)))),
)

#: extras key per figure family -> x axis label
AXIS_KEYS = tuple(grid.axis for grid in (F8, F9, F10))


def detect_axis(results: Sequence[SimulationResult]) -> str:
    """Which sweep axis the results vary (from their extras)."""
    for key in AXIS_KEYS:
        values = {r.extras.get(key) for r in results}
        if len(values - {None}) > 1:
            return key
    raise ValueError(f"results carry no recognised sweep axis ({AXIS_KEYS})")


def figure_series(
    results: Sequence[SimulationResult], metric: str = "mean_response_ms"
) -> Dict[str, Dict[str, List[float]]]:
    """``{trace: {ftl: [metric per axis point]}}`` sorted by the axis."""
    axis = detect_axis(results)
    cells: Dict[tuple, SimulationResult] = {}
    for r in results:
        cells[(r.trace, r.ftl, r.extras[axis])] = r
    traces = sorted({r.trace for r in results})
    ftls = sorted({r.ftl for r in results})
    points = sorted({r.extras[axis] for r in results})
    out: Dict[str, Dict[str, List[float]]] = {}
    for trace in traces:
        out[trace] = {}
        for ftl in ftls:
            series = []
            for point in points:
                cell = cells.get((trace, ftl, point))
                if cell is not None:
                    series.append(getattr(cell, metric))
            if series:
                out[trace][ftl] = series
    return out


def render_figure(
    results: Sequence[SimulationResult],
    *,
    metric: str = "mean_response_ms",
    title: str | None = None,
) -> str:
    """Sparkline panel per trace — the shape of the paper's figure."""
    axis = detect_axis(results)
    points = sorted({r.extras[axis] for r in results})
    blocks = [title] if title else []
    for trace, by_ftl in figure_series(results, metric).items():
        blocks.append(
            series_chart(by_ftl, x_labels=points, title=f"[{trace}] {metric} vs {axis}")
        )
    return "\n\n".join(blocks)


def summarize_wins(results: Sequence[SimulationResult], winner: str = "dloop") -> dict:
    """Count cells where ``winner`` has the lowest mean response time."""
    axis = detect_axis(results)
    groups: Dict[tuple, list] = defaultdict(list)
    for r in results:
        groups[(r.trace, r.extras[axis])].append(r)
    wins = total = 0
    for cell in groups.values():
        best = min(cell, key=lambda r: r.mean_response_ms)
        total += 1
        wins += best.ftl == winner
    return {"winner": winner, "wins": wins, "cells": total}
