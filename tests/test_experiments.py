"""Experiment harness: tiny end-to-end sweeps."""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig, GB, scaled_geometry
from repro.experiments.runner import run_simulation, run_workload
from repro.experiments.figures import A1, A2, F8, F9, F10
from repro.traces.model import KB, SizeMix, WorkloadSpec
from repro.traces.synthetic import generate

TINY_SCALE = 1.0 / 256.0  # 2 GB paper point -> 8 MB simulated


def tiny_spec(name="t", n=400, footprint=4 * 1024 * 1024, seed=5):
    return WorkloadSpec(
        name=name,
        num_requests=n,
        write_fraction=0.6,
        request_rate_per_s=800.0,
        size_mix=SizeMix.fixed(2 * KB),
        footprint_bytes=footprint,
        seed=seed,
    )


def test_scaled_geometry_capacity():
    geom = scaled_geometry(8, scale=1 / 16)
    assert geom.capacity_bytes == 8 * GB // 16
    assert geom.num_planes == 32


def test_run_simulation_produces_metrics():
    geom = scaled_geometry(2, scale=TINY_SCALE)
    config = ExperimentConfig(geometry=geom, ftl="dloop", precondition_fill=0.5)
    result = run_simulation(generate(tiny_spec()), config, trace_name="t")
    assert result.num_requests == 400
    assert result.mean_response_ms > 0
    assert result.sdrpp >= 0
    assert result.flash_programs > 0
    assert result.cmt_hit_ratio is not None
    assert result.wall_time_s > 0


def test_run_workload_uses_spec_name():
    geom = scaled_geometry(2, scale=TINY_SCALE)
    config = ExperimentConfig(geometry=geom, ftl="fast", precondition_fill=None)
    result = run_workload(tiny_spec(name="myspec"), config)
    assert result.trace == "myspec"
    assert result.cmt_hit_ratio is None  # FAST has no CMT


def test_requests_wrapped_into_capacity():
    geom = scaled_geometry(2, scale=TINY_SCALE)
    config = ExperimentConfig(geometry=geom, ftl="pagemap", precondition_fill=None)
    spec = tiny_spec(footprint=32 * 1024 * 1024)  # larger than the device
    result = run_workload(spec, config)
    assert result.num_requests == 400  # all served despite wrapping


def tiny(grid, **axes):
    """``grid`` on financial1 at TINY_SCALE, 300 requests."""
    return replace(grid, workloads=("financial1",), scale=TINY_SCALE,
                   num_requests=300, **axes)


def test_capacity_sweep_smoke():
    grid = tiny(F8, points=(2, 8), ftls=("dloop",))
    results = grid.run()
    assert len(results) == 2
    rows = grid.rows(results)
    assert {r["capacity_gb"] for r in rows} == {2, 8}


def test_pagesize_sweep_smoke():
    grid = tiny(F9, points=(2, 4), ftls=("pagemap",))
    rows = grid.rows(grid.run())
    assert {r["page_kb"] for r in rows} == {2, 4}


def test_extrablocks_sweep_smoke():
    grid = tiny(F10, points=(3, 10), ftls=("pagemap",))
    rows = grid.rows(grid.run())
    assert {r["extra_%"] for r in rows} == {3, 10}


def test_copyback_ablation_smoke():
    results = tiny(A1).run()
    assert len(results) == 2
    assert {r.extras["use_copyback"] for r in results} == {True, False}


def test_striping_ablation_smoke():
    results = tiny(A2).run()
    assert {r.extras["striping"] for r in results} == {"lpn", "roaming", "random"}


def test_config_build_kwargs():
    config = ExperimentConfig(ftl="dloop", cmt_entries=128, gc_threshold=4)
    kwargs = config.build_kwargs()
    assert kwargs["cmt_entries"] == 128
    assert kwargs["gc_threshold"] == 4
    fast = ExperimentConfig(ftl="fast")
    assert "cmt_entries" not in fast.build_kwargs()


def test_config_round_trip(tmp_path):
    from repro.experiments.config import (
        config_from_dict,
        config_to_dict,
        load_config,
        save_config,
        scaled_geometry,
    )

    original = ExperimentConfig(
        geometry=scaled_geometry(2, scale=TINY_SCALE),
        ftl="fast",
        cmt_entries=256,
        gc_threshold=4,
        precondition_fill=0.7,
        ftl_kwargs={"num_log_blocks": 8},
    )
    back = config_from_dict(config_to_dict(original))
    assert back.geometry == original.geometry
    assert back.timing == original.timing
    assert back.ftl == "fast"
    assert back.ftl_kwargs == {"num_log_blocks": 8}

    path = str(tmp_path / "config.json")
    save_config(original, path)
    loaded = load_config(path)
    assert loaded.geometry == original.geometry
    assert loaded.gc_threshold == 4


def test_loaded_config_runs(tmp_path):
    from repro.experiments.config import load_config, save_config, scaled_geometry

    config = ExperimentConfig(
        geometry=scaled_geometry(2, scale=TINY_SCALE), ftl="pagemap", precondition_fill=0.5
    )
    path = str(tmp_path / "config.json")
    save_config(config, path)
    result = run_workload(tiny_spec(), load_config(path))
    assert result.num_requests == 400


def test_simulation_is_deterministic():
    """Identical config + spec -> bit-identical metrics."""
    import numpy as np

    geom = scaled_geometry(2, scale=TINY_SCALE)
    config = ExperimentConfig(geometry=geom, ftl="dloop", precondition_fill=0.6)
    a = run_workload(tiny_spec(seed=11), config)
    b = run_workload(tiny_spec(seed=11), config)
    assert a.mean_response_ms == b.mean_response_ms
    assert a.sdrpp == b.sdrpp
    assert a.gc_passes == b.gc_passes
    assert np.array_equal(a.plane_ops, b.plane_ops)
