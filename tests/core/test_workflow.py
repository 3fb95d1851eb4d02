"""Tests for the Workflow orchestration layer."""

import threading
import time

import pytest

from repro.core import Workflow
from repro.errors import DependencyCycleError, WorkflowError


def test_component_decorator_registers():
    w = Workflow()

    @w.component(name="a")
    def run_a():
        return 1

    assert w.component_names == ["a"]


def test_component_default_name_is_function_name():
    w = Workflow()

    @w.component()
    def my_task():
        return 1

    assert w.component_names == ["my_task"]


def test_duplicate_name_rejected():
    w = Workflow()

    @w.component(name="x")
    def a():
        pass

    with pytest.raises(WorkflowError, match="duplicate"):

        @w.component(name="x")
        def b():
            pass


def test_invalid_type_rejected():
    w = Workflow()
    with pytest.raises(WorkflowError, match="type"):

        @w.component(name="x", type="cloud")
        def a():
            pass


def test_launch_runs_components_and_returns_results():
    w = Workflow()

    @w.component(name="one")
    def one():
        return 10

    @w.component(name="two", dependencies=["one"])
    def two():
        return 20

    results = w.launch()
    assert results == {"one": 10, "two": 20}


def test_dependency_ordering_enforced():
    w = Workflow()
    order = []
    lock = threading.Lock()

    def record(name):
        with lock:
            order.append(name)

    @w.component(name="first")
    def first():
        time.sleep(0.05)
        record("first")

    @w.component(name="second", dependencies=["first"])
    def second():
        record("second")

    @w.component(name="third", dependencies=["second"])
    def third():
        record("third")

    w.launch()
    assert order == ["first", "second", "third"]


def test_independent_components_run_concurrently():
    w = Workflow()
    barrier = threading.Barrier(2, timeout=5.0)

    @w.component(name="a")
    def a():
        barrier.wait()  # deadlocks unless b runs at the same time
        return "a"

    @w.component(name="b")
    def b():
        barrier.wait()
        return "b"

    assert w.launch(timeout=10.0) == {"a": "a", "b": "b"}


def test_args_passed_to_components():
    w = Workflow()

    @w.component(name="c", args={"x": 5, "y": 2})
    def c(x=0, y=0):
        return x * y

    assert w.launch() == {"c": 10}


def test_unknown_dependency_rejected():
    w = Workflow()

    @w.component(name="a", dependencies=["ghost"])
    def a():
        pass

    with pytest.raises(WorkflowError, match="unknown"):
        w.launch()


def test_cycle_detection():
    w = Workflow()

    @w.component(name="a", dependencies=["b"])
    def a():
        pass

    @w.component(name="b", dependencies=["a"])
    def b():
        pass

    with pytest.raises(DependencyCycleError):
        w.launch()


def test_diamond_dag():
    w = Workflow()
    done = []
    lock = threading.Lock()

    def mark(name):
        with lock:
            done.append(name)

    @w.component(name="root")
    def root():
        mark("root")

    @w.component(name="left", dependencies=["root"])
    def left():
        mark("left")

    @w.component(name="right", dependencies=["root"])
    def right():
        mark("right")

    @w.component(name="join", dependencies=["left", "right"])
    def join():
        mark("join")

    w.launch()
    assert done[0] == "root"
    assert done[-1] == "join"
    assert set(done[1:3]) == {"left", "right"}


def test_component_failure_propagates():
    w = Workflow()

    @w.component(name="bad")
    def bad():
        raise ValueError("component exploded")

    with pytest.raises(ValueError, match="component exploded"):
        w.launch()


def test_failure_cancels_downstream():
    w = Workflow()
    ran = []

    @w.component(name="bad")
    def bad():
        raise RuntimeError("boom")

    @w.component(name="after", dependencies=["bad"])
    def after():
        ran.append(True)

    with pytest.raises(RuntimeError):
        w.launch()
    assert ran == []


def test_empty_workflow_launch():
    assert Workflow().launch() == {}


def test_execution_order_topological():
    w = Workflow()

    @w.component(name="c", dependencies=["b"])
    def c():
        pass

    @w.component(name="b", dependencies=["a"])
    def b():
        pass

    @w.component(name="a")
    def a():
        pass

    assert w.execution_order() == ["a", "b", "c"]


def test_sys_info_stored():
    w = Workflow(sys_info={"nodes": 4})
    assert w.sys_info == {"nodes": 4}


def test_launch_timeout():
    w = Workflow()

    @w.component(name="slow")
    def slow():
        time.sleep(5.0)

    with pytest.raises(WorkflowError, match="did not finish"):
        w.launch(timeout=0.2)
