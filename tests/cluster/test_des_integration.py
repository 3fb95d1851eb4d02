"""Integration tests: the DES-process Lustre path under pattern-like load.

The analytic backend models (used by the figure sweeps) and the DES
LustreModel (MDS as a Resource, OSTs as shared streams) implement the
same mechanisms two ways. These tests drive the DES path with a
pattern-1-like load and check the emergent behaviour agrees qualitatively
with the analytic predictions.
"""

import pytest

from repro.cluster import LustreModel, LustreSpec
from repro.des import Environment


def run_writers(n_writers, nbytes, spec, writes_each=3, interval=0.5):
    """n_writers DES processes each staging `writes_each` files."""
    env = Environment()
    fs = LustreModel(env, spec)
    op_times = []

    def writer(env, fs, index):
        for i in range(writes_each):
            yield env.timeout(interval * (index % 7) / 7.0)
            start = env.now
            yield from fs.write(key_hash=index * 1000 + i, nbytes=nbytes)
            op_times.append(env.now - start)

    for index in range(n_writers):
        env.process(writer(env, fs, index))
    env.run()
    return sum(op_times) / len(op_times), fs


SPEC = LustreSpec(
    n_osts=16, ost_bandwidth=5e9, mds_capacity=4, mds_service_time=450e-6,
    client_bandwidth=2e9,
)


def test_des_metadata_contention_emerges_with_writer_count():
    """Mean per-op time grows superlinearly as writers flood the MDS."""
    mean_small, _ = run_writers(8, 1e6, SPEC)
    mean_large, _ = run_writers(256, 1e6, SPEC)
    assert mean_large > 3 * mean_small


def test_des_large_payload_amortizes_metadata():
    """Relative slowdown from contention shrinks for big payloads."""
    small_few, _ = run_writers(8, 0.4e6, SPEC)
    small_many, _ = run_writers(128, 0.4e6, SPEC)
    big_few, _ = run_writers(8, 32e6, SPEC)
    big_many, _ = run_writers(128, 32e6, SPEC)
    assert (small_many / small_few) > (big_many / big_few)


def test_des_matches_analytic_shape():
    """DES per-op times and the analytic estimate agree within ~5x
    (the analytic model is a closed-form of the same mechanisms)."""
    mean_des, fs = run_writers(64, 4e6, SPEC)
    analytic = fs.op_time_estimate(4e6, concurrent_clients=64, is_write=True)
    assert analytic / 5 <= mean_des <= analytic * 5


def test_des_counters_track_operations():
    _, fs = run_writers(10, 1e6, SPEC, writes_each=2)
    assert fs.bytes_written == 10 * 2 * 1e6
    assert fs.metadata_ops == 10 * 2 * SPEC.metadata_ops_per_write


def test_des_poll_storm_builds_mds_queue():
    """Thousands of concurrent polls (the AI side's staging checks) are
    exactly the metadata storm the paper blames for the fs collapse."""
    env = Environment()
    fs = LustreModel(env, SPEC)
    completion = []

    def poller(env, fs):
        start = env.now
        yield from fs.poll()
        completion.append(env.now - start)

    for _ in range(500):
        env.process(poller(env, fs))
    env.run()
    # The last polls waited behind ~500/4 service slots.
    assert max(completion) > 50 * SPEC.mds_service_time
    assert min(completion) == pytest.approx(SPEC.mds_service_time)
