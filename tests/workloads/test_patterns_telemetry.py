"""Telemetry acceptance tests for the DES pattern simulators.

Two of the issue's acceptance criteria live here: a pattern run must
expose link-occupancy and queue-depth gauge series with nonzero samples,
and attaching telemetry must not perturb the simulation (probes are pure
observers, so determinism is bit-identical).
"""

from repro.telemetry import Telemetry, validate_trace_events, trace_events
from repro.transport.models import NodeLocalBackendModel, RedisBackendModel
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)


def config(**overrides):
    defaults = dict(
        train_iterations=100,
        ranks_per_component=2,
        write_interval=20,
        read_interval=10,
    )
    defaults.update(overrides)
    return OneToOneConfig(**defaults)


def test_pattern_run_populates_all_three_layers():
    telemetry = Telemetry()
    run_one_to_one(RedisBackendModel(), config(), telemetry=telemetry)
    categories = set(telemetry.tracer.categories())
    assert {"transport", "workload", "des"} <= categories
    events = trace_events(tracer=telemetry.tracer)
    assert validate_trace_events(events) == len(events)


def test_pattern_run_link_occupancy_and_queue_depth_series():
    telemetry = Telemetry(sample_interval=0.1)
    run_one_to_one(RedisBackendModel(), config(), telemetry=telemetry)

    occupancy = telemetry.metrics.gauge("link.occupancy")
    assert occupancy.nonzero_samples(), "no in-flight transport was recorded"
    assert occupancy.value == 0.0  # everything completed

    sampler = telemetry.sampler
    assert sampler is not None and sampler.samples_taken > 0
    heap = sampler.series("des.event_queue")
    assert heap and max(v for _, v in heap) >= 1.0
    staged = sampler.series("staging.bytes")
    assert max(v for _, v in staged) > 0.0  # staged snapshots were visible


def test_pattern_run_transport_histograms_and_counters():
    telemetry = Telemetry()
    result = run_one_to_one(NodeLocalBackendModel(), config(), telemetry=telemetry)
    hist = telemetry.metrics.get("transport.write.seconds{backend=node-local}")
    assert hist is not None and hist.count > 0
    assert hist.p95 >= hist.p50 > 0.0
    ops = telemetry.metrics.get("transport.write.ops{backend=node-local}")
    writes = result.log.count(component="sim", rank=0)
    assert ops is not None and ops.value > 0


def test_telemetry_does_not_perturb_the_simulation():
    base = run_one_to_one(RedisBackendModel(), config())
    traced = run_one_to_one(RedisBackendModel(), config(), telemetry=Telemetry())
    assert traced.makespan == base.makespan
    assert traced.sim_iterations == base.sim_iterations
    assert traced.train_iterations == base.train_iterations
    assert len(traced.log) == len(base.log)
    assert all(a == b for a, b in zip(base.log, traced.log))


def test_many_to_one_accepts_telemetry():
    telemetry = Telemetry()
    cfg = ManyToOneConfig(n_simulations=2, train_iterations=40)
    base = run_many_to_one(RedisBackendModel(), cfg)
    traced = run_many_to_one(RedisBackendModel(), cfg, telemetry=telemetry)
    assert traced.makespan == base.makespan
    assert telemetry.tracer.finished_spans(category="workload")
    assert telemetry.metrics.gauge("link.occupancy").max_sample >= 1.0


#: SHA-256 of ``save_trace`` / ``save_metrics`` for :func:`fig6b_cell`,
#: recorded before the lock-step group ops took whole key columns and
#: before the ``staging.keys`` gauge read the area's length. Regenerate
#: only when a change to the exported bytes is intended.
FIG6B_TRACE_SHA256 = "3c9b43b2d7ab06ca9f34c423236037fbd9980c5fa4f98ea8626033be6e7d4f0c"
FIG6B_METRICS_SHA256 = "a28f5a495cbf6fa81e40d9a9c3c3c35d4f061c154e1456ce2b573b923bb5821a"


def test_a_traced_fig6b_cell_exports_the_pinned_bytes(tmp_path):
    """A 128-node Fig 6b cell (dragon, 4 MB, 20 iterations) under a stock
    hub: its Chrome trace and metrics files, byte for byte."""
    import hashlib

    from repro.experiments.common import backend_models, pattern2_contexts

    hub = Telemetry()
    write_ctx, read_ctx = pattern2_contexts(128)
    run_many_to_one(
        backend_models()["dragon"],
        ManyToOneConfig(n_simulations=127, train_iterations=20, snapshot_nbytes=4e6),
        write_ctx=write_ctx, read_ctx=read_ctx, telemetry=hub,
    )
    hub.save_trace(tmp_path / "t.json")
    hub.save_metrics(tmp_path / "m.json")
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("t.json", "m.json")
    ]
    assert digests == [FIG6B_TRACE_SHA256, FIG6B_METRICS_SHA256]
