"""Multi-tenancy: namespaces, DRR fairness/determinism, SLO stats, the
traffic synthesizer, and the end-to-end fleet run."""

import math

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from repro.tenancy import (
    Namespace,
    NamespaceError,
    TenantQueue,
    TenantSpec,
    TrafficModel,
    build_namespaces,
    build_tenancy,
    diurnal_warp,
    drr_merge,
    jain_index,
    parse_tenants_spec,
    run_tenant_workload,
)
from repro.tenancy.stats import TenantStats, TenantStatsRouter
from repro.traces.synthetic import EXTRA_TRACE_NAMES, PAPER_TRACE_NAMES

MB = 2**20
GEOMETRY = SSDGeometry.from_capacity(8 * MB)


# ---- namespaces -------------------------------------------------------------


def test_namespace_translate_and_bounds():
    ns = Namespace(nsid=1, name="a", base_lpn=100, num_lpns=50)
    assert ns.translate(0) == 100
    assert ns.translate(49) == 149
    assert ns.translate(40, page_count=10) == 140
    assert ns.base_lpn + ns.num_lpns == 150
    with pytest.raises(NamespaceError):
        ns.translate(50)
    with pytest.raises(NamespaceError):
        ns.translate(-1)
    with pytest.raises(NamespaceError):
        ns.translate(45, page_count=6)


def test_namespace_validation():
    with pytest.raises(NamespaceError):
        Namespace(nsid=-1, name="a", base_lpn=0, num_lpns=1)
    with pytest.raises(NamespaceError):
        Namespace(nsid=0, name="a", base_lpn=-1, num_lpns=1)
    with pytest.raises(NamespaceError):
        Namespace(nsid=0, name="a", base_lpn=0, num_lpns=0)


def test_build_namespaces_partitions_back_to_back():
    namespaces = build_namespaces(1000, ["a", "b", "c"])
    assert [ns.nsid for ns in namespaces] == [0, 1, 2]
    base = 0
    for ns in namespaces:
        assert ns.base_lpn == base
        assert ns.num_lpns >= 1
        base = ns.base_lpn + ns.num_lpns
    assert base <= 1000
    # Equal split of 1000 over 3: each within one page of the others.
    extents = [ns.num_lpns for ns in namespaces]
    assert max(extents) - min(extents) <= 1


def test_build_namespaces_weighted_shares():
    namespaces = build_namespaces(900, ["big", "small"], shares=[2.0, 1.0])
    assert namespaces[0].num_lpns == 600
    assert namespaces[1].num_lpns == 300


def test_build_namespaces_rejects_bad_layouts():
    with pytest.raises(NamespaceError):
        build_namespaces(100, [])
    with pytest.raises(NamespaceError):
        build_namespaces(2, ["a", "b", "c"])
    with pytest.raises(NamespaceError):
        build_namespaces(100, ["a", "b"], shares=[1.0])
    with pytest.raises(NamespaceError):
        build_namespaces(100, ["a", "b"], shares=[1.0, 0.0])


# ---- DRR scheduler ----------------------------------------------------------


def _queue(nsid, requests, *, extent=10_000, weight=1.0):
    ns = Namespace(nsid=nsid, name=f"q{nsid}", base_lpn=nsid * extent,
                   num_lpns=extent)
    return TenantQueue(ns, iter(requests), weight=weight)


def _backlog(n, *, page_count=1, arrival=0.0, step=0.0):
    """n requests, all due at (or stepping from) ``arrival``."""
    return [IoRequest(arrival + i * step, i % 64, page_count, IoOp.WRITE)
            for i in range(n)]


def test_tenant_queue_validation():
    with pytest.raises(ValueError):
        _queue(0, _backlog(1), weight=0.0)
    q = _queue(0, _backlog(1))
    q.pop()
    with pytest.raises(NamespaceError):
        q.pop()


def test_drr_rejects_bad_quantum():
    with pytest.raises(ValueError):
        list(drr_merge([_queue(0, _backlog(2))], quantum_pages=0))


def test_drr_emits_every_request_translated_and_tagged():
    queues = [_queue(0, _backlog(50)), _queue(1, _backlog(70))]
    merged = list(drr_merge(queues))
    assert len(merged) == 120
    for request in merged:
        ns = queues[request.tenant].namespace
        assert ns.base_lpn <= request.start_lpn < ns.base_lpn + ns.num_lpns
    assert sum(1 for r in merged if r.tenant == 0) == 50
    assert sum(1 for r in merged if r.tenant == 1) == 70


def test_drr_output_is_monotone():
    # Different per-tenant cadences, so raw arrivals interleave badly.
    queues = [
        _queue(0, _backlog(200, step=7.0)),
        _queue(1, _backlog(150, step=11.0, arrival=3.0)),
        _queue(2, _backlog(100, step=2.5, arrival=500.0)),
    ]
    last = -math.inf
    for request in drr_merge(queues):
        assert request.arrival_us >= last
        last = request.arrival_us


def test_drr_same_seed_bit_identical():
    model = TrafficModel(
        tenants=(TenantSpec("a"), TenantSpec("b", persona="webserver"),
                 TenantSpec("c", weight=2.0)),
        total_requests=600,
        base_seed=99,
    )

    def signature():
        fleet = build_tenancy(GEOMETRY, model)
        return [(r.arrival_us, r.start_lpn, r.page_count, r.op.value,
                 r.tenant) for r in drr_merge(fleet.queues)]

    first = signature()
    second = signature()
    assert first == second
    assert len(first) >= 600 - 3  # rounding may shave a request or two


def test_drr_equal_weights_interleave_fairly():
    """Three saturated equal-weight tenants: any admission prefix splits
    close to evenly (Jain >= 0.95 per the acceptance bar; the exact
    schedule is round-robin so it is essentially 1.0)."""
    queues = [_queue(i, _backlog(400)) for i in range(3)]
    merged = drr_merge(queues)
    prefix = [next(merged) for _ in range(300)]
    counts = [sum(1 for r in prefix if r.tenant == i) for i in range(3)]
    assert jain_index(counts) >= 0.95


def test_drr_weighted_shares_converge():
    """2:1 weights over saturated queues: admitted-page shares track the
    weights within 5% over a long prefix."""
    queues = [
        _queue(0, _backlog(2000), weight=2.0),
        _queue(1, _backlog(2000), weight=1.0),
    ]
    merged = drr_merge(queues)
    prefix = [next(merged) for _ in range(900)]
    pages = [sum(r.page_count for r in prefix if r.tenant == i)
             for i in range(2)]
    total = sum(pages)
    assert pages[0] / total == pytest.approx(2 / 3, rel=0.05)
    assert pages[1] / total == pytest.approx(1 / 3, rel=0.05)


def test_drr_bounds_starvation_under_burst():
    """An adversarial tenant dumping large requests at t=0 cannot starve
    a small-request tenant: between consecutive small-tenant admissions
    the big tenant serves at most ~2 quanta of pages (classic DRR
    latency bound)."""
    quantum = 8
    queues = [
        _queue(0, _backlog(400, page_count=quantum)),  # the burster
        _queue(1, _backlog(200, page_count=1)),
    ]
    merged = drr_merge(queues, quantum_pages=quantum)
    prefix = [next(merged) for _ in range(600)]
    gap_pages = 0
    worst = 0
    seen_small = False
    for request in prefix:
        if request.tenant == 1:
            if seen_small:
                worst = max(worst, gap_pages)
            seen_small = True
            gap_pages = 0
        elif seen_small:
            gap_pages += request.page_count
    assert seen_small, "small tenant never admitted"
    assert worst <= 2 * quantum


# ---- synthesizer ------------------------------------------------------------


def test_parse_tenants_spec_bare_count():
    tenants = parse_tenants_spec("3", "financial1")
    assert [t.name for t in tenants] == ["tenant0", "tenant1", "tenant2"]
    assert all(t.persona == "financial1" and t.weight == 1.0
               for t in tenants)


def test_parse_tenants_spec_full_form():
    tenants = parse_tenants_spec("olt=financial1:2:8,web=webserver:1,bg=",
                                 "tpcc")
    assert tenants[0] == TenantSpec("olt", "financial1", 2.0, 8.0)
    assert tenants[1] == TenantSpec("web", "webserver", 1.0, None)
    assert tenants[2].persona == "tpcc"  # empty persona -> default


def test_parse_tenants_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tenants_spec("", "financial1")
    with pytest.raises(ValueError):
        parse_tenants_spec("0", "financial1")
    with pytest.raises(ValueError):
        parse_tenants_spec(",,", "financial1")


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("")
    with pytest.raises(ValueError):
        TenantSpec("a", weight=0.0)
    with pytest.raises(ValueError):
        TenantSpec("a", slo_p99_ms=0.0)
    with pytest.raises(ValueError):
        TenantSpec("a", share=-1.0)


def test_diurnal_warp_is_monotone_and_anchored():
    trace = list(diurnal_warp(
        iter(_trace_points()), period_us=1000.0, amplitude=0.9,
        phase_rad=2.0,
    ))
    assert trace[0].arrival_us == pytest.approx(0.0, abs=1e-9)
    arrivals = [r.arrival_us for r in trace]
    assert arrivals == sorted(arrivals)


def test_diurnal_warp_zero_amplitude_is_identity():
    points = _trace_points()
    warped = list(diurnal_warp(iter(points), 1000.0, 0.0))
    assert warped == points
    with pytest.raises(ValueError):
        next(diurnal_warp(iter(points), 1000.0, 1.0))
    with pytest.raises(ValueError):
        next(diurnal_warp(iter(points), 0.0, 0.5))


def _trace_points():
    from repro.traces.model import TraceRequest

    return [TraceRequest(arrival_us=float(i * 37), offset_bytes=0,
                         size_bytes=4096, is_write=True)
            for i in range(200)]


def test_popularity_is_zipfian_over_rank():
    model = TrafficModel(tenants=tuple(TenantSpec(f"t{i}")
                                       for i in range(4)))
    pop = model.popularity()
    assert sum(pop) == pytest.approx(1.0)
    assert pop == sorted(pop, reverse=True)
    assert pop[0] > pop[-1]
    flat = TrafficModel(
        tenants=tuple(TenantSpec(f"t{i}") for i in range(4)),
        popularity_theta=0.0,
    )
    assert flat.popularity() == pytest.approx([0.25] * 4)
    assert sum(flat.tenant_request_counts()) >= flat.total_requests - 4


def test_tenant_seeds_fold_by_name_not_position():
    a = TrafficModel(tenants=(TenantSpec("alice"), TenantSpec("bob")))
    b = TrafficModel(tenants=(TenantSpec("alice"), TenantSpec("mallory"),
                              TenantSpec("bob")))
    # Adding a tenant never perturbs another tenant's stream seed.
    assert a.tenant_seed(0) == b.tenant_seed(0)
    assert a.tenant_seed(1) == b.tenant_seed(2)
    assert a.tenant_seed(0) != a.tenant_seed(1)


def test_tenant_streams_stay_inside_their_extent():
    model = TrafficModel(
        tenants=(TenantSpec("a"), TenantSpec("b", persona="webserver")),
        total_requests=400,
    )
    fleet = build_tenancy(GEOMETRY, model)
    for queue in fleet.queues:
        ns = queue.namespace
        while queue.head is not None:
            request = queue.pop()
            assert ns.base_lpn <= request.start_lpn
            assert request.start_lpn + request.page_count <= ns.base_lpn + ns.num_lpns


def _composed_tenant_stream(model, index, namespace, page_size):
    """``tenant_stream`` as the three stages it fuses (the reference):
    persona stream -> diurnal warp -> page split inside the extent."""
    from repro.traces.stream import stream_workload

    extent_bytes = namespace.num_lpns * page_size
    trace = diurnal_warp(
        stream_workload(model.tenant_workload(index, extent_bytes)),
        model.diurnal_period_us,
        model.diurnal_amplitude,
        2.0 * math.pi * index / len(model.tenants),
    )
    for r in trace:
        size = min(r.size_bytes, extent_bytes - r.offset_bytes)
        first = r.offset_bytes // page_size
        last = (r.offset_bytes + size - 1) // page_size
        yield IoRequest(r.arrival_us, first, last - first + 1,
                        IoOp.WRITE if r.is_write else IoOp.READ)


@pytest.mark.parametrize("amplitude", [0.0, 0.6])
@pytest.mark.parametrize("persona", PAPER_TRACE_NAMES + EXTRA_TRACE_NAMES)
def test_tenant_stream_equals_its_three_stage_composition(persona, amplitude):
    model = TrafficModel(
        tenants=tuple(TenantSpec(f"t{i}", persona) for i in range(3)),
        total_requests=1500,
        diurnal_amplitude=amplitude,
        # short enough that every stream crosses several diurnal cycles
        diurnal_period_us=50_000.0,
    )
    spaces = build_namespaces(GEOMETRY.num_lpns, [t.name for t in model.tenants])
    for index, namespace in enumerate(spaces):
        fused = list(model.tenant_stream(index, namespace, GEOMETRY.page_size))
        composed = list(_composed_tenant_stream(
            model, index, namespace, GEOMETRY.page_size))
        assert len(fused) == model.tenant_request_counts()[index]
        # == on IoRequest compares arrival (exact float), lpn, pages, op
        assert fused == composed
        assert all(r.completion_us == -1.0 and r.tenant is None for r in fused)


def test_tenant_stream_memory_is_o_chunk():
    """The fused stream holds one generation chunk, like the persona
    stream it is built on (tests/test_stream.py's O(chunk) test)."""
    import tracemalloc

    def peak(requests):
        model = TrafficModel(tenants=(TenantSpec("a", "exchange"),),
                             total_requests=requests)
        namespace, = build_namespaces(GEOMETRY.num_lpns, ["a"])
        tracemalloc.start()
        count = sum(1 for _ in model.tenant_stream(0, namespace, GEOMETRY.page_size))
        _, high = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == requests
        return high

    # five generation chunks against one: the same high-water mark
    assert peak(5 * 8192) < 1.25 * peak(8192)


# ---- per-tenant stats + SLOs ------------------------------------------------


def test_jain_index_extremes():
    assert jain_index([]) == 1.0
    assert jain_index([5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([0, 0]) == 1.0


def _completed(tenant, arrival, response, *, pages=1, error=None):
    request = IoRequest(arrival, 0, pages, IoOp.WRITE)
    request.tenant = tenant
    request.completion_us = arrival + response
    request.error = error
    return request


def test_router_routes_slo_and_errors():
    ns = Namespace(nsid=0, name="a", base_lpn=0, num_lpns=100)
    lane = TenantStats(ns, slo_p99_us=50.0)
    router = TenantStatsRouter([lane])
    router.on_complete(_completed(0, 0.0, 10.0, pages=2))
    router.on_complete(_completed(0, 1.0, 99.0))      # SLO violation
    router.on_complete(_completed(0, 2.0, 80.0, error="ENOSPC"))
    router.on_complete(_completed(7, 3.0, 5.0))       # unknown nsid: dropped
    assert lane.completed_pages == 3
    assert lane.slo_violations == 1
    assert lane.failed_requests == 1
    assert lane.stats.count == 2          # errors stay out of the moments
    summary = lane.summary()
    assert summary["tenant"] == "a"
    assert summary["slo_violations"] == 1
    assert summary["failed_requests"] == 1


def test_router_attach_detach_is_clean():
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="dloop")
    ns = Namespace(nsid=0, name="a", base_lpn=0, num_lpns=100)
    router = TenantStatsRouter([TenantStats(ns)])
    router.attach(ssd.controller)
    assert ssd.controller.tenants is router
    assert router.on_complete in ssd.controller.on_complete
    router.detach(ssd.controller)
    assert ssd.controller.tenants is None
    assert router.on_complete not in ssd.controller.on_complete


# ---- end to end -------------------------------------------------------------


def _fair_model(n_requests=1800, seed=4242):
    """Three equal tenants with identical demand: popularity flattened
    and the diurnal warp off, so completed shares must track weights."""
    return TrafficModel(
        tenants=(TenantSpec("alpha"), TenantSpec("beta"),
                 TenantSpec("gamma")),
        total_requests=n_requests,
        popularity_theta=0.0,
        diurnal_amplitude=0.0,
        base_seed=seed,
    )


def _fleet_run(model):
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.5)
    result = run_tenant_workload(ssd, model, queue_depth=8)
    fp = ftl_fingerprint(ssd.ftl, result.end_us)
    fp.update(engine_fingerprint(ssd.engine))
    return result, fp


def test_three_equal_tenants_get_equal_shares():
    result, _ = _fleet_run(_fair_model())
    shares = result.completed_page_shares
    assert len(shares) == 3
    for share in shares:
        assert share == pytest.approx(1 / 3, rel=0.05)
    assert result.fairness_jain >= 0.95
    summaries = result.summaries
    assert [s["tenant"] for s in summaries] == ["alpha", "beta", "gamma"]
    assert all(s["failed_requests"] == 0 for s in summaries)


def test_fleet_run_is_reproducible_bit_for_bit():
    first, fp_a = _fleet_run(_fair_model())
    second, fp_b = _fleet_run(_fair_model())
    assert fp_a == fp_b
    assert first.end_us == second.end_us
    assert first.summaries == second.summaries


def test_slo_violations_count_end_to_end():
    # A 1 us p99 target is unmeetable: every completion violates it.
    model = TrafficModel(
        tenants=(TenantSpec("tight", slo_p99_ms=0.001),
                 TenantSpec("loose")),
        total_requests=300,
        base_seed=7,
    )
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.5)
    result = run_tenant_workload(ssd, model, queue_depth=8)
    tight, loose = result.summaries
    assert tight["slo_violations"] == tight["requests"] > 0
    assert loose["slo_violations"] == 0
    assert loose["slo_p99_us"] is None


def test_namespace_shares_carve_the_lpn_space():
    model = TrafficModel(
        tenants=(TenantSpec("big", share=3.0), TenantSpec("small")),
        total_requests=200,
    )
    fleet = build_tenancy(GEOMETRY, model)
    big, small = fleet.namespaces
    assert big.num_lpns == pytest.approx(3 * small.num_lpns, rel=0.01)


# ---- experiments integration -------------------------------------------------


def test_run_simulation_tenants_extras():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_simulation

    model = TrafficModel(
        tenants=tuple(TenantSpec(name=f"t{i}", persona="financial1") for i in range(3)),
        total_requests=600,
        base_seed=11,
    )
    config = ExperimentConfig(geometry=GEOMETRY, ftl="dloop",
                              precondition_fill=0.5)
    result = run_simulation(iter(()), config, queue_depth=8, tenancy=model)
    extras = result.extras["tenants"]
    assert len(extras["summaries"]) == 3
    assert len(extras["completed_page_shares"]) == 3
    assert 0.0 < extras["fairness_jain"] <= 1.0
    assert result.num_requests > 0


def test_tenancy_requires_stream_and_rejects_crash():
    """Every replay streams, so tenancy needs no flag of its own; it
    still rejects a crash replay."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_simulation

    config = ExperimentConfig(geometry=GEOMETRY, ftl="dloop")
    model = _fair_model(n_requests=100)
    result = run_simulation(iter(()), config, tenancy=model)
    assert len(result.extras["tenants"]["summaries"]) == len(model.tenants)
    with pytest.raises(ValueError, match="crash_at_us"):
        run_simulation(iter(()), config, tenancy=model, crash_at_us=1000.0)
