"""Tests for workflow export / third-party manager adapter (paper §3.5)."""

import json

import pytest

from repro.core import (
    ExternalExecutor,
    Workflow,
    export_spec,
    load_spec,
    save_spec,
    workflow_from_spec,
)
from repro.errors import WorkflowError


# Module-scope component functions (exportable by import path).
def task_a(scale=1):
    return 10 * scale


def task_b(offset=0):
    return 20 + offset


def build_workflow():
    w = Workflow(name="exported", sys_info={"nodes": 2})
    w.component(name="a", args={"scale": 2})(task_a)
    w.component(name="b", args={"offset": 5}, dependencies=["a"])(task_b)
    return w


def test_export_spec_shape():
    spec = export_spec(build_workflow())
    assert spec["schema"] == "simaibench-workflow/1"
    assert spec["name"] == "exported"
    assert spec["sys_info"] == {"nodes": 2}
    names = [c["name"] for c in spec["components"]]
    assert names == ["a", "b"]
    assert spec["components"][0]["callable"].endswith(":task_a")
    assert spec["components"][1]["dependencies"] == ["a"]


def test_export_spec_is_jsonable():
    json.dumps(export_spec(build_workflow()))


def test_export_rejects_lambdas():
    w = Workflow()
    w.component(name="bad")(lambda: 1)
    with pytest.raises(WorkflowError, match="not importable"):
        export_spec(w)


def test_export_rejects_non_jsonable_args():
    w = Workflow()
    w.component(name="bad", args={"obj": object()})(task_a)
    with pytest.raises(WorkflowError, match="non-JSON-able"):
        export_spec(w)


def test_round_trip_and_launch():
    spec = export_spec(build_workflow())
    rebuilt = workflow_from_spec(spec)
    assert rebuilt.launch() == {"a": 20, "b": 25}


def test_save_load_spec(tmp_path):
    path = tmp_path / "wf.json"
    save_spec(build_workflow(), path)
    rebuilt = load_spec(path)
    assert rebuilt.launch() == {"a": 20, "b": 25}


def test_from_spec_unknown_schema():
    with pytest.raises(WorkflowError, match="schema"):
        workflow_from_spec({"schema": "nope/9"})


def test_from_spec_bad_callable():
    spec = export_spec(build_workflow())
    spec["components"][0]["callable"] = "no.such.module:fn"
    with pytest.raises(WorkflowError, match="cannot import"):
        workflow_from_spec(spec)


def test_from_spec_missing_attribute():
    spec = export_spec(build_workflow())
    spec["components"][0]["callable"] = "repro.core:not_a_function"
    with pytest.raises(WorkflowError, match="attribute"):
        workflow_from_spec(spec)


def test_from_spec_bad_path_format():
    spec = export_spec(build_workflow())
    spec["components"][0]["callable"] = "justaname"
    with pytest.raises(WorkflowError, match="bad callable path"):
        workflow_from_spec(spec)


def test_external_executor_runs_in_dependency_order():
    executor = ExternalExecutor()
    results = executor.execute(export_spec(build_workflow()))
    assert results == {"a": 20, "b": 25}
    assert executor.submitted == ["a", "b"]


def test_external_executor_custom_submit():
    calls = []

    def submit(fn, kwargs):
        calls.append(fn.__name__)
        return fn(**kwargs)

    executor = ExternalExecutor(submit=submit)
    executor.execute(export_spec(build_workflow()))
    assert calls == ["task_a", "task_b"]


@pytest.mark.parametrize("nranks", [0, 3])
def test_from_spec_refuses_a_component_of_other_than_one_rank(nranks):
    """A spec is outside input: a rank count the run cannot honour is an
    error naming the component, never a silent one-rank run."""
    spec = export_spec(build_workflow())
    spec["components"][1]["nranks"] = nranks
    with pytest.raises(WorkflowError, match=f"'b' asks for nranks={nranks}"):
        workflow_from_spec(spec)


def test_from_spec_accepts_an_explicit_single_rank():
    spec = export_spec(build_workflow())
    for comp in spec["components"]:
        comp["nranks"] = 1
    assert workflow_from_spec(spec).launch() == {"a": 20, "b": 25}
