"""The run statistics read a log through one helper, ``EventLog._values``.

Every statistic that reads through it must equal the same formula
written over the log's expanded rows (``EventLog._expanded``, one plain
row per record), bit for bit: on logs full of lock-step steps (grouped
runs) and on logs of plain rows (one process per rank), of both
patterns, under every filter, when nothing matches and when records
last zero seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.distributions import Constant
from repro.errors import ReproError
from repro.experiments.common import (
    _mean_iteration_time,
    backend_models,
    pattern1_context,
    pattern2_contexts,
)
from repro.telemetry import EventKind, EventLog
from repro.telemetry.stats import (
    Summary,
    iteration_time_summary,
    mean_throughput,
    mean_transport_time,
)
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)
from tests.des.goldens import one_rank_per_group

K = EventKind
FIELD_AT = {"duration": 3, "nbytes": 5}


def pattern1_log() -> EventLog:
    config = OneToOneConfig(
        train_iterations=40, write_interval=10, read_interval=5,
        snapshot_nbytes=1e6, ranks_per_component=4,
    )
    return run_one_to_one(backend_models()["dragon"], config, ctx=pattern1_context(8)).log


def pattern2_log() -> EventLog:
    write_ctx, read_ctx = pattern2_contexts(16)
    config = ManyToOneConfig(n_simulations=15, train_iterations=20, snapshot_nbytes=1e6)
    return run_many_to_one(
        backend_models()["redis"], config, write_ctx=write_ctx, read_ctx=read_ctx
    ).log


def zero_duration_log() -> EventLog:
    """Steps whose tracks match a filter only in part, zero-second and
    zero-byte records, rows and steps mixed."""
    log = EventLog()
    mixed = (("sim", 0), ("sim", 1), ("train", 1), ("sim", 2))
    log.add("train", K.INIT, 0.0, 1.0)
    log.add_step(mixed, K.WRITE, 1.0, 0.0, 8.0, ("a", "b", "c", "d"))
    log.add_step(mixed, K.WRITE, 1.0, 0.5, 8.0)
    log.add("sim", K.WRITE, 1.5, 0.0, 2, 4.0, "e")
    log.add("train", K.READ, 2.0, 0.25, 1, 8.0, "a")
    log.add_step((("train", 0), ("train", 0)), K.READ, 2.0, 0.0, 0.0, ("b", "c"))
    log.add_step(mixed, K.COMPUTE, 2.5, 0.125)
    log.add("sim", K.COMPUTE, 2.625, 0.0, 1)
    return log


LOGS = {
    "pattern1-grouped": pattern1_log,
    "pattern2-grouped": pattern2_log,
    "zero-durations": zero_duration_log,
}


@pytest.fixture(scope="module", params=[*LOGS, "pattern1-per-rank", "pattern2-per-rank"])
def log(request) -> EventLog:
    name = request.param
    if name.endswith("per-rank"):
        with one_rank_per_group():
            return LOGS[name.replace("per-rank", "grouped")]()
    return LOGS[name]()


def rows(log, component=None, kind=None, kinds=None, rank=None) -> list[tuple]:
    """The matching records as expanded rows: the reference every
    statistic below is written over."""
    wanted = None if kinds is None else {k.value for k in kinds}
    return [
        row for row in log._expanded()
        if (component is None or row[0] == component)
        and (kind is None or row[1] == kind.value)
        and (wanted is None or row[1] in wanted)
        and (rank is None or row[4] == rank)
    ]


FILTERS = [
    {},
    {"kind": K.READ},
    {"kind": K.WRITE},
    {"kind": K.COMPUTE},
    {"kind": K.FAULT},  # matches nothing
    {"kinds": (K.READ, K.WRITE)},
    {"kinds": ()},
    {"component": "sim"},
    {"component": "sim3"},
    {"component": "train", "kind": K.TRAIN},
    {"component": "train", "kind": K.READ},
    {"component": "sim", "rank": 2},
    {"rank": 1},
    {"rank": 0, "kinds": (K.COMPUTE, K.TRAIN, K.INIT)},
    {"component": "nobody"},
]


@pytest.mark.parametrize("where", FILTERS, ids=repr)
@pytest.mark.parametrize("name", sorted(FIELD_AT))
def test_values_are_the_expanded_rows_field(log, name, where):
    values = log._values(name, **where)
    assert values.dtype == np.float64
    assert values.tolist() == [float(row[FIELD_AT[name]]) for row in rows(log, **where)]


def test_durations_and_sizes_are_every_records_field(log):
    assert log.durations() == [row[3] for row in log._expanded()]
    assert log.sizes() == [row[5] for row in log._expanded()]
    assert log.total_bytes() == sum(row[5] for row in log._expanded())


@pytest.mark.parametrize("component", [None, "train", "sim", "sim3", "nobody"])
@pytest.mark.parametrize("kind", [K.READ, K.WRITE])
def test_transport_statistics_match_their_formula_over_rows(log, kind, component):
    matched = rows(log, component=component, kind=kind)
    # Zero-second records carry no throughput (the ``d > 0`` filter).
    samples = [row[5] / row[3] for row in matched if row[3] > 0]
    expected = float(np.mean(samples)) if samples else 0.0
    assert mean_throughput(log, kind, component) == expected
    seconds = [row[3] for row in matched]
    assert mean_transport_time(log, kind, component) == (
        float(np.mean(seconds)) if seconds else 0.0
    )


@pytest.mark.parametrize(
    "component, kind",
    [("sim", K.COMPUTE), ("train", K.TRAIN), ("sim0", K.COMPUTE), ("nobody", K.TRAIN)],
)
def test_iteration_statistics_match_their_formula_over_rows(log, component, kind):
    seconds = [row[3] for row in rows(log, component=component, kind=kind)]
    assert iteration_time_summary(log, component, kind) == Summary.of(seconds)
    assert _mean_iteration_time(log, component, kind) == (
        float(np.asarray(seconds, dtype=float).mean()) if seconds else 0.0
    )


def test_zero_duration_records_are_counted_but_carry_no_throughput():
    log = zero_duration_log()
    assert log._values("duration", kind=K.WRITE).tolist() == [0.0] * 4 + [0.5] * 4 + [0.0]
    assert mean_throughput(log, K.WRITE) == 16.0  # the four 8-byte, 0.5 s writes
    assert mean_throughput(log, K.READ, "sim") == 0.0  # nothing matches
    assert mean_transport_time(log, K.READ) == pytest.approx(0.25 / 3)


def test_values_checks_its_arguments_like_filter():
    log = zero_duration_log()
    with pytest.raises(ReproError, match="either kind or kinds"):
        log._values("duration", kind=K.READ, kinds=(K.READ,))
    assert EventLog()._values("nbytes").tolist() == []
    assert EventLog().durations() == []


def test_a_constant_trainer_logs_steps_that_the_helper_reads():
    """The grouped Pattern 1 log really is made of steps (so the tests
    above exercise the repeat), and a per-rank one of rows."""
    config = OneToOneConfig(
        train_iterations=10, ranks_per_component=3, ai_iter_time=Constant(0.05),
        sim_init_time=1.0, ai_init_time=2.0,
    )
    model = backend_models()["dragon"]
    grouped = run_one_to_one(model, config).log
    with one_rank_per_group():
        per_rank = run_one_to_one(model, config).log
    assert len(grouped._entries) < len(grouped) == len(per_rank) == len(per_rank._entries)
    for where in ({"component": "train", "kind": K.TRAIN}, {"rank": 2}):
        assert grouped._values("duration", **where).tolist() == (
            per_rank._values("duration", **where).tolist()
        )
