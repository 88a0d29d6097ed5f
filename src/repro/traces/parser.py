"""Trace file formats.

Two ASCII formats, matching the toolchain the paper's simulator uses:

* **DiskSim 3.0 ASCII**: ``arrival_ms devno blkno bcount flags`` with
  512-byte blocks; ``flags`` bit 0 set = read (DiskSim convention).
* **SPC (Storage Performance Council)**: ``asu,lba,size,opcode,timestamp``
  with byte-addressed size, 512-byte LBA units and seconds timestamps —
  the format of the Financial1/2 traces [18].

Both directions (parse/write) round-trip so synthetic traces can be
saved and replayed.

Each format has two entry points: ``iter_*`` yields requests lazily
(O(1) memory — the streaming replay path), and ``parse_*`` materializes
the same sequence into a list.  A line that does not parse raises
:class:`TraceFormatError` naming the line (and the file, when the source
is a path).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, TextIO, Union

from repro.traces.model import TraceRequest

SECTOR = 512

Source = Union[str, TextIO, Iterable[str]]


class TraceFormatError(ValueError):
    """A trace that cannot be replayed: a malformed line, or a file
    with no requests at all."""


def _where(source: Source, lineno: int) -> str:
    return f"{source}: line {lineno}" if isinstance(source, str) else f"line {lineno}"


def _lines(source: Source) -> Iterator[str]:
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as handle:
            yield from handle
    else:
        yield from source


# ---- DiskSim ASCII ------------------------------------------------------------


def iter_disksim(source: Source) -> Iterator[TraceRequest]:
    """Lazily parse DiskSim 3.0 ASCII: ``arrival_ms devno blkno bcount flags``."""
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise TraceFormatError(
                f"{_where(source, lineno)}: expected 5 fields, got {len(parts)}")
        arrival_ms, _devno, blkno, bcount, flags = parts
        try:
            request = TraceRequest(
                arrival_us=float(arrival_ms) * 1000.0,
                offset_bytes=int(blkno) * SECTOR,
                size_bytes=int(bcount) * SECTOR,
                is_write=int(flags) & 1 == 0,
            )
        except ValueError as exc:
            raise TraceFormatError(f"{_where(source, lineno)}: {exc}") from None
        yield request


def parse_disksim(source: Source) -> List[TraceRequest]:
    """Parse DiskSim 3.0 ASCII into a list (see :func:`iter_disksim`)."""
    return list(iter_disksim(source))


def write_disksim(requests: Iterable[TraceRequest], handle: TextIO, devno: int = 0) -> None:
    for r in requests:
        blkno = r.offset_bytes // SECTOR
        bcount = max(1, -(-r.size_bytes // SECTOR))
        flags = 0 if r.is_write else 1
        handle.write(f"{r.arrival_us / 1000.0:.6f} {devno} {blkno} {bcount} {flags}\n")


# ---- SPC format ------------------------------------------------------------------


def iter_spc(source: Source) -> Iterator[TraceRequest]:
    """Lazily parse SPC: ``asu,lba,size,opcode,timestamp`` (lba in 512 B units)."""
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise TraceFormatError(
                f"{_where(source, lineno)}: expected >=5 comma fields, got {len(parts)}")
        _asu, lba, size, opcode, timestamp = parts[:5]
        op = opcode.strip().lower()
        if op not in ("r", "w"):
            raise TraceFormatError(f"{_where(source, lineno)}: bad opcode {opcode!r}")
        try:
            request = TraceRequest(
                arrival_us=float(timestamp) * 1e6,
                offset_bytes=int(lba) * SECTOR,
                size_bytes=int(size),
                is_write=op == "w",
            )
        except ValueError as exc:
            raise TraceFormatError(f"{_where(source, lineno)}: {exc}") from None
        yield request


def parse_spc(source: Source) -> List[TraceRequest]:
    """Parse SPC into a list (see :func:`iter_spc`)."""
    return list(iter_spc(source))


def iter_trace_file(path: str) -> Iterator[TraceRequest]:
    """Lazily parse a trace file, choosing the format by extension.

    ``.spc``/``.csv`` parse as SPC; everything else as DiskSim ASCII —
    the same convention the CLI's ``--replay`` flag uses.  The first
    request is parsed up front: a file without one raises
    :class:`TraceFormatError` here, not after a replay of nothing.
    """
    if path.endswith(".spc") or path.endswith(".csv"):
        requests = iter_spc(path)
    else:
        requests = iter_disksim(path)
    first = next(requests, None)
    if first is None:
        raise TraceFormatError(f"{path}: no requests")
    return chain((first,), requests)


def write_spc(requests: Iterable[TraceRequest], handle: TextIO, asu: int = 0) -> None:
    for r in requests:
        opcode = "w" if r.is_write else "r"
        handle.write(
            f"{asu},{r.offset_bytes // SECTOR},{r.size_bytes},{opcode},{r.arrival_us / 1e6:.6f}\n"
        )
