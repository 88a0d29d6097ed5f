#!/usr/bin/env python
"""Wear-leveling analysis: DLOOP's implicit wear leveling claim.

Section III.C: "update requests are always directed to the same plane
that their original data is stored, which implicitly wear-levels all
blocks on one plane without an external wear-leveling mechanism."

This example measures per-block erase-count distributions for DLOOP
against DFTL and FAST under a skewed update workload, plus trace-file
round-tripping: the generated workload is saved in SPC format and
replayed from disk, as you would replay a real Financial1 download.

Run:  python examples/wear_leveling.py
"""

import io

import numpy as np

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.metrics.report import format_table
from repro.metrics.wear import wear_stats
from repro.traces.parser import parse_spc, write_spc
from repro.traces.stream import io_requests
from repro.traces.synthetic import generate, make_workload

SCALE = 1 / 32
GB = 1024 ** 3


def main() -> None:
    geometry = scaled_geometry(8, scale=SCALE, extra_blocks_percent=5)
    footprint = int(8 * GB * SCALE * 0.8)
    spec = make_workload("financial1", num_requests=8000, footprint_bytes=footprint)

    # Round-trip the trace through the SPC on-disk format first —
    # the same code path a downloaded Financial1 trace would take.
    buffer = io.StringIO()
    write_spc(generate(spec), buffer)
    trace = parse_spc(io.StringIO(buffer.getvalue()))
    print(f"Replaying {len(trace)} SPC-format requests\n")

    rows = []
    for ftl in ("dloop", "dftl", "fast"):
        ssd = SimulatedSSD(geometry, ftl=ftl)
        ssd.precondition(0.9)
        ssd.run(io_requests(trace, geometry))
        ssd.verify()
        wear = wear_stats(ssd.ftl.array)
        erases = ssd.ftl.array.block_erase_count
        worn = int(np.count_nonzero(erases))
        rows.append(
            {
                "ftl": ftl,
                "total_erases": wear.total_erases,
                "blocks_touched": f"{worn}/{len(erases)}",
                "max_erases": wear.max_erases,
                "mean_erases": round(wear.mean_erases, 2),
                "wear_CV": round(wear.cv, 2),
            }
        )
    print(format_table(rows, title="Per-block erase distribution (lower CV = more even wear)"))
    print("""
DLOOP's sequential per-plane allocation cycles every block of a plane
through the free pool, so wear spreads without a dedicated leveler;
FAST concentrates erases on its log blocks and merge victims.
""")


if __name__ == "__main__":
    main()
