"""Parallel execution over worker processes.

Scenario grids are embarrassingly parallel (one simulation per cell),
so :func:`run_cells` can fan a picklable function out over a
``multiprocessing`` pool.  Each worker builds its own simulator, so no
state is shared, and results come back in item order.
"""

from __future__ import annotations

import os
from multiprocessing import get_context
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _init_worker() -> None:
    """Reset inherited trace-bus state in a forked pool worker.

    A forked child inherits the parent's process-wide ``BUS`` —
    including any live subscribers (samplers, exporters, sanitizers
    attached in the parent).  Those subscribers reference parent-side
    objects and would silently record into them (and pay their
    overhead) inside every worker, so each worker starts from a clean,
    disabled bus.
    """
    from repro.obs.tracebus import BUS

    BUS.clear()


def _auto_chunksize(n_items: int, processes: int) -> int:
    """Heuristic map chunksize: ~4 chunks per worker.

    ``chunksize=1`` maximises scheduling overhead; one giant chunk per
    worker loses load balancing when cell runtimes vary (GC-heavy
    configs run much longer than light ones).  Four waves per worker
    keeps both costs small.
    """
    return max(1, n_items // (4 * processes))


def run_cells(
    items: Sequence[T],
    fn: Callable[[T], R],
    *,
    processes: Optional[int] = None,
) -> List[R]:
    """``[fn(item) for item in items]``, over worker processes.

    In-process when ``processes`` is 0 or 1; ``None`` means one worker
    per item, capped at the CPU count.  ``fn`` and the items must
    pickle.  Results come back in item order regardless of completion
    order.
    """
    items = list(items)
    if processes is None:
        processes = min(len(items), os.cpu_count() or 1)
    if processes <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = get_context("spawn" if os.name == "nt" else "fork")
    with context.Pool(processes=processes, initializer=_init_worker) as pool:
        return pool.map(fn, items, chunksize=_auto_chunksize(len(items), processes))
