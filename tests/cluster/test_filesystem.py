"""Tests for the Lustre file system model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import LustreModel, LustreSpec
from repro.des import Environment
from repro.errors import ConfigError, SimulationError


def make_model(**kwargs):
    env = Environment()
    return env, LustreModel(env, LustreSpec(**kwargs))


def test_spec_validation():
    with pytest.raises(ConfigError):
        LustreSpec(n_osts=0)
    with pytest.raises(ConfigError):
        LustreSpec(mds_capacity=0)
    with pytest.raises(ConfigError):
        LustreSpec(ost_bandwidth=0)
    with pytest.raises(ConfigError):
        LustreSpec(stripe_count=0)
    with pytest.raises(ConfigError):
        LustreSpec(mds_service_time=-1e-3)


def test_assign_osts_stripe_one():
    env, fs = make_model(n_osts=8, stripe_count=1)
    assert fs.assign_osts(5) == [5]
    assert fs.assign_osts(13) == [5]


def test_assign_osts_striped_wraps():
    env, fs = make_model(n_osts=4, stripe_count=3)
    assert fs.assign_osts(3) == [3, 0, 1]


def test_assign_osts_capped_at_n_osts():
    env, fs = make_model(n_osts=2, stripe_count=8)
    assert len(fs.assign_osts(0)) == 2


def test_metadata_latency_estimate_grows_with_clients():
    spec = LustreSpec(mds_capacity=4, mds_service_time=1e-4)
    low = spec.metadata_latency_estimate(4)
    high = spec.metadata_latency_estimate(400)
    assert low == pytest.approx(1e-4)
    assert high == pytest.approx(1e-2)
    assert high / low == pytest.approx(100)


def test_metadata_latency_negative_clients():
    with pytest.raises(SimulationError):
        LustreSpec().metadata_latency_estimate(-1)


def test_data_time_monotonic_in_size():
    spec = LustreSpec()
    assert spec.data_time_estimate(32e6) > spec.data_time_estimate(1e6)


def test_data_time_negative_size():
    with pytest.raises(SimulationError):
        LustreSpec().data_time_estimate(-1.0)


def test_data_time_capped_by_client_bandwidth():
    spec = LustreSpec(n_osts=16, ost_bandwidth=10e9, client_bandwidth=1e9, stripe_count=8)
    assert spec.data_time_estimate(1e9) == pytest.approx(1.0)


def test_op_time_estimate_write_vs_read():
    env, fs = make_model(metadata_ops_per_write=3, metadata_ops_per_read=1)
    w = fs.op_time_estimate(1e6, concurrent_clients=10, is_write=True)
    r = fs.op_time_estimate(1e6, concurrent_clients=10, is_write=False)
    assert w > r


def test_throughput_monotonic_in_size_under_fixed_contention():
    """Per-process fs throughput must rise with message size (Fig 3 shape):
    fixed metadata cost amortises over more bytes."""
    env, fs = make_model()
    sizes = [0.4e6, 1e6, 4e6, 16e6, 32e6]
    thr = [s / fs.op_time_estimate(s, concurrent_clients=96, is_write=True) for s in sizes]
    assert thr == sorted(thr)


def test_512_node_degradation_shape():
    """Metadata contention at 512x12 clients must dominate ops on small
    messages — the Fig 3b/Fig 4 collapse."""
    env, fs = make_model(mds_capacity=16, mds_service_time=450e-6)
    t_small = fs.op_time_estimate(1e6, concurrent_clients=512 * 12, is_write=True)
    t_small_8 = fs.op_time_estimate(1e6, concurrent_clients=8 * 12, is_write=True)
    assert t_small > 5 * t_small_8


def test_des_write_advances_clock_and_counters():
    env, fs = make_model()
    done = []

    def writer(env, fs):
        yield from fs.write(key_hash=1, nbytes=4e6)
        done.append(env.now)

    env.process(writer(env, fs))
    env.run()
    assert done[0] > 0
    assert fs.bytes_written == 4e6
    assert fs.metadata_ops == fs.spec.metadata_ops_per_write


def test_des_read_and_poll():
    env, fs = make_model()

    def reader(env, fs):
        yield from fs.read(key_hash=2, nbytes=1e6)
        yield from fs.poll()

    env.process(reader(env, fs))
    env.run()
    assert fs.bytes_read == 1e6
    assert fs.metadata_ops == fs.spec.metadata_ops_per_read + fs.spec.metadata_ops_per_poll


def test_des_mds_queueing_delays_concurrent_writers():
    """With capacity 1 and many writers, completion times serialize."""
    env, fs = make_model(mds_capacity=1, mds_service_time=1e-3)
    finish = []

    def writer(env, fs, i):
        yield from fs.write(key_hash=i, nbytes=1.0)
        finish.append(env.now)

    for i in range(5):
        env.process(writer(env, fs, i))
    env.run()
    # 5 writers x 2 metadata ops x 1ms each must serialize through the MDS.
    assert max(finish) >= 5 * 2 * 1e-3


def test_des_ost_sharing_slows_colliding_writes():
    env, fs = make_model(n_osts=1, ost_bandwidth=1e9, client_bandwidth=1e9, mds_service_time=0.0)
    finish = []

    def writer(env, fs, i):
        yield from fs.write(key_hash=i, nbytes=100e6)
        finish.append(env.now)

    env.process(writer(env, fs, 0))
    env.process(writer(env, fs, 1))
    env.run()
    # Both files share the single OST: slower than the 0.1s solo time.
    assert max(finish) >= 0.15


@settings(max_examples=30, deadline=None)
@given(
    nbytes=st.floats(min_value=0, max_value=1e9),
    clients=st.integers(min_value=0, max_value=10000),
)
def test_op_time_nonnegative_property(nbytes, clients):
    env, fs = make_model()
    assert fs.op_time_estimate(nbytes, clients, is_write=True) >= 0
    assert fs.op_time_estimate(nbytes, clients, is_write=False) >= 0
