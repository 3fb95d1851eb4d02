"""Tests for the Component base class."""

import pytest

from repro.core.component import Component
from repro.errors import WorkflowError
from repro.telemetry import EventKind, EventLog
from repro.transport import ServerManager


def test_component_requires_name():
    with pytest.raises(WorkflowError):
        Component("")


def test_component_without_datastore():
    c = Component("c")
    assert not c.has_datastore
    with pytest.raises(WorkflowError, match="no DataStore"):
        _ = c.datastore
    with pytest.raises(WorkflowError):
        c.stage_write("k", 1)
    c.close()  # no-op, no raise


def test_component_rank_defaults(tmp_path):
    """A component is one rank: everything it records is rank 0."""
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        with Component("c", server_info=m.get_server_info()) as c:
            c.record_init(start=0.0, duration=0.1)
            c.stage_write("k", 1)
    assert {record.rank for record in c.event_log} == {0}


def test_component_owns_event_log_by_default():
    a, b = Component("a"), Component("b")
    assert a.event_log is not b.event_log


def test_component_shared_event_log():
    log = EventLog()
    c = Component("c", event_log=log)
    assert c.event_log is log


def test_record_init():
    c = Component("c")
    c.record_init(start=1.0, duration=0.5)
    inits = c.event_log.filter(kind=EventKind.INIT)
    assert len(inits) == 1
    assert inits[0].start == 1.0
    assert inits[0].duration == 0.5


def test_component_context_manager_closes(tmp_path):
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        with Component("c", server_info=m.get_server_info()) as c:
            c.stage_write("k", [1, 2])
            assert c.stage_read("k") == [1, 2]
            assert c.poll_staged_data("k")
            assert c.clean_staged_data(["k"]) == 1


def test_component_workdir_path(tmp_path):
    c = Component("c", workdir=str(tmp_path / "work"))
    assert c.workdir.name == "work"
