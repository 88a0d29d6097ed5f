"""Declarative TraceBus event-schema registry (single source of truth).

Every event the simulator publishes on the :data:`~repro.obs.tracebus.BUS`
is declared here as an :class:`EventSchema`: its ``(category, name)``
key, the payload keys it must / may carry, the value *domain* of each
key (``lpn``, ``ppn``, ``pbn``, ``plane``, ``channel``, ``us``, ...—
the same vocabulary the ``DL210`` dataflow rule uses), its Chrome-trace
phase, and the module(s) expected to emit it.

Three things hang off this table:

* the ``DL201``/``DL202`` lint rules (:mod:`repro.lint.schema_rules`)
  cross-check every ``BUS.emit(...)`` site and every consumer-side
  string match against it — a typo'd event name or payload key becomes
  a lint error instead of a silently dead probe;
* :func:`validate_event` / :func:`coverage` provide the runtime half:
  ``repro-sim schema --verify-coverage`` runs smoke simulations and
  asserts every declared event is actually observed (modulo
  :data:`ALLOW_UNOBSERVED`);
* the exported ``CAT_*`` / ``EV_*`` constants are what consumers
  (``obs/parallelism.py``) import instead of bare literals, so probe
  and emitter can no longer drift apart.

Adding a new emit site therefore means adding one :class:`EventSchema`
entry here; the lint CI gate fails otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.obs.tracebus import TraceEvent

# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------

CAT_HOST = "host"
CAT_FLASH = "flash"
CAT_ARRAY = "array"
CAT_GC = "gc"
CAT_CMT = "cmt"
CAT_FAULT = "fault"
CAT_ENGINE = "engine"
CAT_COUNTER = "counter"
CAT_PERF = "perf"
CAT_WB = "wb"
CAT_JOURNAL = "journal"
CAT_TORTURE = "torture"
CAT_TENANT = "tenant"

# ---------------------------------------------------------------------------
# Event names (grouped by category; values are the wire names)
# ---------------------------------------------------------------------------

# host
EV_IO_BEGIN = "io_begin"
EV_IO_DISPATCH = "io_dispatch"
EV_IO_ERROR = "io_error"
EV_HOST_READ = "read"
EV_HOST_WRITE = "write"
EV_HOST_TRIM = "trim"
EV_POWER_LOSS = "power_loss"

# flash (timekeeper)
EV_FLASH_READ = "read"
EV_FLASH_PROGRAM = "program"
EV_FLASH_ERASE = "erase"
EV_FLASH_COPY_BACK = "copy_back"
EV_XFER_IN = "xfer_in"
EV_XFER_OUT = "xfer_out"
EV_INTER_PLANE_COPY = "inter_plane_copy"
EV_TIMELINE_RESET = "timeline_reset"

# array (shadow-NAND bookkeeping)
EV_ALLOC_BLOCK = "alloc_block"
EV_RELEASE_BLOCK = "release_block"
EV_MARK_BAD = "mark_bad"
EV_RETIRE_BLOCK = "retire_block"
EV_ARRAY_PROGRAM = "program"
EV_INVALIDATE = "invalidate"
EV_SKIP = "skip"
EV_ARRAY_ERASE = "erase"
EV_BULK_FILL = "bulk_fill"

# gc
EV_GC_INVOCATION = "gc_invocation"
EV_VICTIM_SELECTED = "victim_selected"
EV_GC_PASS = "gc_pass"
EV_GC_MIGRATE = "migrate"
EV_SHIFTED_CLOSE = "shifted_close"
EV_PARTIAL_MERGE = "partial_merge"
EV_SWITCH_MERGE = "switch_merge"
EV_FULL_MERGE = "full_merge"
EV_BACKGROUND_PASS = "background_pass"

# cmt
EV_CMT_HIT = "hit"
EV_CMT_MISS = "miss"
EV_CMT_DIRTY_EVICT = "dirty_evict"

# fault
EV_PROGRAM_FAIL = "program_fail"
EV_ERASE_FAIL = "erase_fail"
EV_READ_LOSS = "read_loss"
EV_READ_RETRY = "read_retry"
EV_RELOCATE = "relocate"
EV_BLOCK_RETIRED = "block_retired"

# perf (fused trace generation)
EV_BATCH_WINDOW = "batch_window"

# wb (DRAM write buffer)
EV_WB_FLUSH = "flush"

# journal (hybrid block-map journal)
EV_JOURNAL_COMMIT = "commit"

# torture (crash-consistency campaigns)
EV_TORTURE_ARMED = "armed"
EV_TORTURE_CRASH_FIRED = "crash_fired"
EV_TORTURE_ORACLE = "oracle"

# tenant (multi-tenant admission, repro.tenancy)
EV_TENANT_ADMIT = "admit"
EV_TENANT_SLO_VIOLATION = "slo_violation"

#: Wildcard name: the ``engine`` category names events after the
#: dispatched callback's ``__qualname__``, so any name is legal.
WILDCARD = "*"

#: Value domains a payload key may be declared with.  The address/time
#: entries are shared with the ``DL210`` dataflow rule; the rest cover
#: payload-only kinds (counts, flags, free-form strings).
DOMAINS: FrozenSet[str] = frozenset(
    {
        "lpn", "ppn", "pbn", "lbn", "tvpn", "plane", "channel",
        "page_offset", "us", "ms",
        "count", "flag", "str", "ratio", "owner", "any",
    }
)


@dataclass(frozen=True)
class EventSchema:
    """Declaration of one TraceBus event kind."""

    category: str
    #: Wire name, or :data:`WILDCARD` for dynamically named events.
    name: str
    #: Payload keys that must be present, mapped to their value domain.
    required: Mapping[str, str]
    #: Payload keys that may be present (fault-only annotations etc.).
    optional: Mapping[str, str] = field(default_factory=dict)
    #: Chrome-trace phase every emit site must use ("X", "i" or "C").
    ph: str = "i"
    #: Modules expected to contain an emit site for this event.
    modules: Tuple[str, ...] = ()
    #: True when the event only feeds generic exporters (Chrome trace,
    #: telemetry) and no named consumer is expected; the DL203
    #: "declared but never consumed" note skips these.
    export_only: bool = False
    description: str = ""

    @property
    def keys(self) -> FrozenSet[str]:
        """Union of required and optional payload keys."""
        return frozenset(self.required) | frozenset(self.optional)


_TIMEKEEPER = ("repro.flash.timekeeper",)
_ARRAY = ("repro.flash.array",)
#: program/invalidate are also emitted where a page path inlines the
#: transition: the demand-paged family's host write and translation
#: write-back, the log-block family's append and merge copy.
_ARRAY_PAGE = _ARRAY + ("repro.ftl.translation", "repro.ftl.logblock")
_CONTROLLER = ("repro.controller.controller",)
_BASE_FAST = ("repro.ftl.base", "repro.ftl.fast")

_SCHEMAS: Tuple[EventSchema, ...] = (
    # ---- host ------------------------------------------------------------
    EventSchema(
        CAT_HOST, EV_IO_BEGIN,
        {"lpn": "lpn", "pages": "count", "op": "str"},
        modules=_CONTROLLER,
        description="request arrival; opens the per-request dispatch window",
    ),
    EventSchema(
        CAT_HOST, EV_IO_DISPATCH,
        {"lpn": "lpn", "pages": "count", "op": "str", "span_us": "us"},
        modules=_CONTROLLER,
        description="synchronous dispatch finished; closes the window",
    ),
    EventSchema(
        CAT_HOST, EV_IO_ERROR,
        {"lpn": "lpn", "pages": "count", "op": "str", "error": "str"},
        modules=_CONTROLLER, export_only=True,
        description="request failed with an error status (end-of-life ENOSPC)",
    ),
    EventSchema(
        CAT_HOST, EV_HOST_READ,
        {"lpn": "lpn", "pages": "count"},
        optional={"error": "str", "retries": "count", "lost_pages": "count"},
        ph="X", modules=_CONTROLLER, export_only=True,
        description="completed read request span (arrival to completion)",
    ),
    EventSchema(
        CAT_HOST, EV_HOST_WRITE,
        {"lpn": "lpn", "pages": "count"},
        optional={"error": "str", "retries": "count", "lost_pages": "count"},
        ph="X", modules=_CONTROLLER, export_only=True,
        description="completed write request span",
    ),
    EventSchema(
        CAT_HOST, EV_HOST_TRIM,
        {"lpn": "lpn", "pages": "count"},
        optional={"error": "str", "retries": "count", "lost_pages": "count"},
        ph="X", modules=_CONTROLLER, export_only=True,
        description="completed trim request span",
    ),
    EventSchema(
        CAT_HOST, EV_POWER_LOSS,
        {"dropped_events": "count", "lost_buffered": "count", "recovered": "count"},
        modules=("repro.controller.device",), export_only=True,
        description="simulated power loss: dropped events and recovery outcome",
    ),
    # ---- flash (timekeeper spans; the race checker's input) --------------
    EventSchema(
        CAT_FLASH, EV_FLASH_READ,
        {"plane": "plane", "channel": "channel"},
        ph="X", modules=_TIMEKEEPER,
        description="page read: sense + transfer-out span on the plane",
    ),
    EventSchema(
        CAT_FLASH, EV_FLASH_PROGRAM,
        {"plane": "plane", "channel": "channel"},
        ph="X", modules=_TIMEKEEPER,
        description="page program span on the plane (after data-in)",
    ),
    EventSchema(
        CAT_FLASH, EV_FLASH_ERASE,
        {"plane": "plane", "channel": "channel"},
        ph="X", modules=_TIMEKEEPER,
        description="block erase span on the plane",
    ),
    EventSchema(
        CAT_FLASH, EV_FLASH_COPY_BACK,
        {"plane": "plane"},
        ph="X", modules=_TIMEKEEPER,
        description="intra-plane copy-back span (zero channel occupancy)",
    ),
    EventSchema(
        CAT_FLASH, EV_XFER_OUT,
        {"plane": "plane", "channel": "channel"},
        ph="X", modules=_TIMEKEEPER,
        description="read data-out transfer span on the channel",
    ),
    EventSchema(
        CAT_FLASH, EV_XFER_IN,
        {"plane": "plane", "channel": "channel"},
        ph="X", modules=_TIMEKEEPER,
        description="program data-in transfer span on the channel",
    ),
    EventSchema(
        CAT_FLASH, EV_INTER_PLANE_COPY,
        {"src_plane": "plane", "dst_plane": "plane"},
        modules=_TIMEKEEPER, export_only=True,
        description="cross-plane GC move marker (read + transfer + program)",
    ),
    EventSchema(
        CAT_FLASH, EV_TIMELINE_RESET,
        {},
        modules=_TIMEKEEPER,
        description="resource timelines zeroed (post-preconditioning); "
                    "interval checkers must reset",
    ),
    # ---- array (shadow-NAND model input; ts is always 0) -----------------
    EventSchema(
        CAT_ARRAY, EV_ALLOC_BLOCK,
        {"block": "pbn", "plane": "plane"}, modules=_ARRAY,
        description="block left the free pool to become a write block",
    ),
    EventSchema(
        CAT_ARRAY, EV_RELEASE_BLOCK,
        {"block": "pbn", "retired": "flag"}, modules=_ARRAY,
        description="erased block returned to the pool (or retired)",
    ),
    EventSchema(
        CAT_ARRAY, EV_MARK_BAD,
        {"block": "pbn"}, modules=_ARRAY,
        description="factory bad block removed from circulation",
    ),
    EventSchema(
        CAT_ARRAY, EV_RETIRE_BLOCK,
        {"block": "pbn"}, modules=_ARRAY,
        description="runtime retirement of a worn block",
    ),
    EventSchema(
        CAT_ARRAY, EV_ARRAY_PROGRAM,
        {"ppn": "ppn", "owner": "owner"},
        optional={"gen": "count"}, modules=_ARRAY_PAGE,
        description="page programmed (owner is an lpn or translation id; "
                    "gen is the OOB content generation when armed)",
    ),
    EventSchema(
        CAT_ARRAY, EV_INVALIDATE,
        {"ppn": "ppn"}, modules=_ARRAY_PAGE,
        description="valid page invalidated",
    ),
    EventSchema(
        CAT_ARRAY, EV_SKIP,
        {"ppn": "ppn"}, modules=_ARRAY,
        description="page skipped by the parity-preserving allocator",
    ),
    EventSchema(
        CAT_ARRAY, EV_ARRAY_ERASE,
        {"block": "pbn"}, modules=_ARRAY,
        description="block erased",
    ),
    EventSchema(
        CAT_ARRAY, EV_BULK_FILL,
        {"block": "pbn", "count": "count"}, modules=_ARRAY,
        description="vectorised preconditioning fill (count programs)",
    ),
    # ---- gc --------------------------------------------------------------
    EventSchema(
        CAT_GC, EV_GC_INVOCATION,
        {"trigger_plane": "plane", "low_planes": "any"},
        modules=("repro.ftl.base",), export_only=True,
        description="foreground GC entered; planes below the watermark",
    ),
    EventSchema(
        CAT_GC, EV_VICTIM_SELECTED,
        {"plane": "plane", "victim": "pbn", "valid": "count",
         "invalid": "count", "emergency": "flag"},
        modules=_BASE_FAST, export_only=True,
        description="GC victim chosen with its live/dead page counts",
    ),
    EventSchema(
        CAT_GC, EV_GC_PASS,
        {"plane": "plane", "victim": "pbn", "emergency": "flag",
         "moved_pages": "count", "copyback_moves": "count"},
        ph="X", modules=("repro.ftl.base",),
        description="one reclaim pass span (victim drain + erase)",
    ),
    EventSchema(
        CAT_GC, EV_GC_MIGRATE,
        {"plane": "plane", "from_ppn": "ppn", "to_ppn": "ppn", "mode": "str"},
        modules=("repro.ftl.dftl", "repro.core.dloop", "repro.ftl.pagemap"),
        description="one GC page move (mode: copyback vs controller path)",
    ),
    EventSchema(
        CAT_GC, EV_SHIFTED_CLOSE,
        {"lbn": "lbn", "log_block": "pbn"},
        ph="X", modules=("repro.ftl.fast",), export_only=True,
        description="FAST: shifted sequential log block closed via merge",
    ),
    EventSchema(
        CAT_GC, EV_PARTIAL_MERGE,
        {"lbn": "lbn", "log_block": "pbn"},
        ph="X", modules=("repro.ftl.fast",), export_only=True,
        description="FAST: partial merge of the sequential log block",
    ),
    EventSchema(
        CAT_GC, EV_SWITCH_MERGE,
        {"lbn": "lbn", "log_block": "pbn"},
        ph="X", modules=("repro.ftl.fast",), export_only=True,
        description="FAST: zero-copy switch merge of a full log block",
    ),
    EventSchema(
        CAT_GC, EV_FULL_MERGE,
        {"victim": "pbn", "merged_lbns": "count"},
        ph="X", modules=("repro.ftl.fast",), export_only=True,
        description="FAST: full merge of a random-log victim",
    ),
    EventSchema(
        CAT_GC, EV_BACKGROUND_PASS,
        {"pass": "count"},
        ph="X", modules=("repro.controller.background",), export_only=True,
        description="idle-time background GC pass span",
    ),
    # ---- cmt -------------------------------------------------------------
    EventSchema(
        CAT_CMT, EV_CMT_HIT,
        {"lpn": "lpn"}, modules=("repro.ftl.translation",), export_only=True,
        description="cached mapping table hit",
    ),
    EventSchema(
        CAT_CMT, EV_CMT_MISS,
        {"lpn": "lpn"}, modules=("repro.ftl.translation",), export_only=True,
        description="cached mapping table miss (translation page fetch)",
    ),
    EventSchema(
        CAT_CMT, EV_CMT_DIRTY_EVICT,
        {"lpn": "lpn"}, modules=("repro.ftl.translation",), export_only=True,
        description="dirty CMT entry evicted (translation write-back)",
    ),
    # ---- fault -----------------------------------------------------------
    EventSchema(
        CAT_FAULT, EV_PROGRAM_FAIL,
        {"block": "pbn", "ppn": "ppn", "plane": "plane",
         "fails": "count", "retire": "flag", "site": "count"},
        modules=("repro.faults.injector",), export_only=True,
        description="injected program failure (site = decision index)",
    ),
    EventSchema(
        CAT_FAULT, EV_ERASE_FAIL,
        {"block": "pbn", "site": "count"},
        modules=("repro.faults.injector",), export_only=True,
        description="injected erase failure",
    ),
    EventSchema(
        CAT_FAULT, EV_READ_LOSS,
        {"plane": "plane", "site": "count"},
        optional={"lpn": "lpn"},
        modules=("repro.faults.injector",), export_only=True,
        description="uncorrectable read: page content lost (lpn present "
                    "when the caller knows which logical page it served)",
    ),
    EventSchema(
        CAT_FAULT, EV_READ_RETRY,
        {"plane": "plane", "retries": "count", "site": "count"},
        modules=("repro.faults.injector",), export_only=True,
        description="correctable read recovered after retry senses",
    ),
    EventSchema(
        CAT_FAULT, EV_RELOCATE,
        {"block": "pbn", "from_ppn": "ppn", "to_ppn": "ppn",
         "src_plane": "plane", "dst_plane": "plane"},
        modules=_BASE_FAST, export_only=True,
        description="live page relocated off a block pending retirement",
    ),
    EventSchema(
        CAT_FAULT, EV_BLOCK_RETIRED,
        {"block": "pbn", "plane": "plane"},
        modules=_BASE_FAST, export_only=True,
        description="worn block retired after relocation",
    ),
    # ---- engine ----------------------------------------------------------
    EventSchema(
        CAT_ENGINE, WILDCARD,
        {"seq": "count"},
        modules=("repro.sim.engine",),
        description="event dispatch, named after the callback qualname; "
                    "seq orders same-timestamp events",
    ),
    # ---- perf (fused trace generation) ------------------------------------
    EventSchema(
        CAT_PERF, EV_BATCH_WINDOW,
        {"requests": "count"},
        ph="X", modules=("repro.traces.stream",), export_only=True,
        description="one fused-generation chunk: the arrival-time window "
                    "a batch of requests was produced in",
    ),
    # ---- wb (DRAM write buffer) ------------------------------------------
    EventSchema(
        CAT_WB, EV_WB_FLUSH,
        {"pages": "count"},
        modules=("repro.controller.writebuffer",),
        description="flush barrier reached with this many buffered pages "
                    "still volatile (emitted before the first eviction)",
    ),
    # ---- journal (hybrid block-map journal) ------------------------------
    EventSchema(
        CAT_JOURNAL, EV_JOURNAL_COMMIT,
        {"lbn": "lbn", "block": "pbn"},
        modules=("repro.ftl.logblock",),
        description="block-map journal record durable on flash "
                    "(block == -1 records a deletion)",
    ),
    # ---- torture (crash-consistency campaigns) ---------------------------
    EventSchema(
        CAT_TORTURE, EV_TORTURE_ARMED,
        {"kind": "str", "index": "count"},
        modules=("repro.torture.arm",), export_only=True,
        description="crash point armed: power fails at the index-th "
                    "event of this kind",
    ),
    EventSchema(
        CAT_TORTURE, EV_TORTURE_CRASH_FIRED,
        {"kind": "str", "index": "count"},
        modules=("repro.torture.arm",), export_only=True,
        description="armed crash point reached; power loss follows",
    ),
    EventSchema(
        CAT_TORTURE, EV_TORTURE_ORACLE,
        {"violations": "count", "checked": "count"},
        modules=("repro.torture.oracle",), export_only=True,
        description="durability oracle verdict for one crash replay",
    ),
    # ---- tenant (multi-tenant admission) ---------------------------------
    EventSchema(
        CAT_TENANT, EV_TENANT_ADMIT,
        {"tenant": "count", "lpn": "lpn", "pages": "count", "op": "str"},
        modules=("repro.tenancy.scheduler",), export_only=True,
        description="DRR scheduler admitted a tenant request into the "
                    "merged stream (lpn is the translated device LPN)",
    ),
    EventSchema(
        CAT_TENANT, EV_TENANT_SLO_VIOLATION,
        {"tenant": "count", "response_us": "us", "target_us": "us"},
        ph="X", modules=("repro.tenancy.stats",), export_only=True,
        description="a completed request blew its tenant's p99 target",
    ),
    # ---- counters --------------------------------------------------------
    EventSchema(
        CAT_COUNTER, "queue_depth", {"outstanding": "count"},
        ph="C", modules=("repro.controller.controller", "repro.obs.sampler"),
        export_only=True, description="outstanding host requests",
    ),
    EventSchema(
        CAT_COUNTER, "free_blocks", {"min": "count", "total": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="free-block low-water and total across planes",
    ),
    EventSchema(
        CAT_COUNTER, "copyback_ratio", {"ratio": "ratio"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="cumulative copy-back share of GC moves",
    ),
    EventSchema(
        CAT_COUNTER, "cmt_entries", {"cached": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="cached mapping entries",
    ),
    EventSchema(
        CAT_COUNTER, "bad_blocks", {"retired": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="blocks out of circulation (factory bad + retired)",
    ),
    EventSchema(
        CAT_COUNTER, "stream", {"peak_outstanding": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="streamed-admission high-water mark",
    ),
    EventSchema(
        CAT_COUNTER, "host_errors",
        {"failed": "count", "retried": "count", "retries": "count",
         "lost_pages": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="host-visible error totals (only once nonzero)",
    ),
    EventSchema(
        CAT_COUNTER, "faults",
        {"program_fails": "count", "erase_fails": "count",
         "read_retries": "count", "lost_pages": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="fault-injection totals (only under injection)",
    ),
    EventSchema(
        CAT_COUNTER, "tenants",
        {"tenant": "count", "completed_pages": "count",
         "slo_violations": "count", "failed": "count"},
        ph="C", modules=("repro.obs.sampler",), export_only=True,
        description="per-tenant completion totals (multi-tenant runs only)",
    ),
)


def _build_registry() -> Dict[Tuple[str, str], EventSchema]:
    registry: Dict[Tuple[str, str], EventSchema] = {}
    for schema in _SCHEMAS:
        key = (schema.category, schema.name)
        if key in registry:
            raise ValueError(f"duplicate event schema {key!r}")
        for domain in list(schema.required.values()) + list(schema.optional.values()):
            if domain not in DOMAINS:
                raise ValueError(f"unknown value domain {domain!r} in {key!r}")
        registry[key] = schema
    return registry


#: ``(category, name) -> EventSchema`` for every declared event.
REGISTRY: Dict[Tuple[str, str], EventSchema] = _build_registry()

#: Every declared category.
CATEGORIES: FrozenSet[str] = frozenset(s.category for s in _SCHEMAS)

#: Modules that match events by name (the DL202 consumer-side scan);
#: the DL203 "declared but never consumed" note only fires when all of
#: them were part of the lint run.
CONSUMER_MODULES: Tuple[str, ...] = (
    "repro.lint.sanitizer",
    "repro.obs.chrome_trace",
    "repro.obs.parallelism",
    "repro.obs.sampler",
    "repro.torture.arm",
)

#: Declared events the coverage smoke run is allowed to miss, with the
#: reason.  Everything else must appear in the smoke trace.
ALLOW_UNOBSERVED: FrozenSet[Tuple[str, str]] = frozenset(
    {
        # FAST's shifted-close path needs a misaligned sequential
        # stream interrupted mid-block — covered by tests/test_fast.py.
        (CAT_GC, EV_SHIFTED_CLOSE),
        # End-of-life ENOSPC needs a pathologically full device.
        (CAT_HOST, EV_IO_ERROR),
        (CAT_COUNTER, "host_errors"),
    }
)


def lookup(category: str, name: str) -> Optional[EventSchema]:
    """Schema for ``(category, name)``, honouring wildcard entries."""
    schema = REGISTRY.get((category, name))
    if schema is None:
        schema = REGISTRY.get((category, WILDCARD))
    return schema


def names_in(category: str) -> FrozenSet[str]:
    """All declared event names in one category (without wildcards)."""
    return frozenset(
        s.name for s in _SCHEMAS if s.category == category and s.name != WILDCARD
    )


def payload_keys(categories: Optional[Iterable[str]] = None) -> FrozenSet[str]:
    """Union of payload keys declared in ``categories`` (default: all)."""
    wanted = set(categories) if categories is not None else None
    keys: set = set()
    for schema in _SCHEMAS:
        if wanted is None or schema.category in wanted:
            keys |= schema.keys
    return frozenset(keys)


def validate_event(event: TraceEvent) -> List[str]:
    """Problems with one live event against its declaration (empty = ok)."""
    schema = lookup(event.category, event.name)
    if schema is None:
        return [f"undeclared event {event.category}/{event.name}"]
    problems: List[str] = []
    args = event.args or {}
    for key in schema.required:
        if key not in args:
            problems.append(
                f"{event.category}/{event.name}: missing required key {key!r}"
            )
    for key in args:
        if key not in schema.required and key not in schema.optional:
            problems.append(
                f"{event.category}/{event.name}: undeclared key {key!r}"
            )
    if event.ph != schema.ph:
        problems.append(
            f"{event.category}/{event.name}: phase {event.ph!r} "
            f"(declared {schema.ph!r})"
        )
    return problems


@dataclass
class CoverageReport:
    """Outcome of checking observed events against the registry."""

    observed: int
    #: Declared, expected, but never observed (excludes ALLOW_UNOBSERVED).
    missing: List[Tuple[str, str]]
    #: Observed but not declared anywhere in the registry.
    undeclared: List[Tuple[str, str]]
    #: Allow-listed events that also went unobserved (informational).
    allowed_missing: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.undeclared


def coverage(observed: Iterable[Tuple[str, str]]) -> CoverageReport:
    """Round-trip check: which declared events were (not) observed?

    ``observed`` is any iterable of ``(category, name)`` pairs, e.g.
    from a recorded smoke-run trace.  Wildcard declarations are
    satisfied by any observed event in their category.
    """
    seen = sorted(set(observed))
    seen_keys = frozenset(seen)
    seen_categories = frozenset(category for category, _ in seen)
    missing: List[Tuple[str, str]] = []
    allowed: List[Tuple[str, str]] = []
    for key, declared in sorted(REGISTRY.items()):
        hit = key in seen_keys or (
            declared.name == WILDCARD and declared.category in seen_categories
        )
        if hit:
            continue
        if key in ALLOW_UNOBSERVED:
            allowed.append(key)
        else:
            missing.append(key)
    undeclared = [key for key in seen if lookup(*key) is None]
    return CoverageReport(
        observed=len(seen),
        missing=missing,
        undeclared=undeclared,
        allowed_missing=allowed,
    )
