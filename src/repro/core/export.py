"""Workflow export for third-party workflow managers (paper §3.5).

"Our framework's modular design allows for components developed with the
Simulation and AI modules to be exported for use with third-party workflow
managers, such as RADICAL-Pilot or Parsl."

The exported form is a plain JSON-able *workflow spec*: component names,
types, dependency edges, static args, and the component function's import
path. Every component runs as one rank; a spec that asks for more is
refused. Any external manager can consume it; the included
:class:`ExternalExecutor` shows the minimal adapter contract (Parsl-style
``submit(fn, *deps)`` futures) and doubles as the reference executor for
round-trip tests.
"""

from __future__ import annotations

import importlib
import json
from typing import Any, Callable, Mapping, Optional

from repro.core.workflow import ComponentSpec, Workflow
from repro.errors import WorkflowError


def _callable_path(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise WorkflowError(
            f"component function {fn!r} is not importable (lambdas and "
            "closures cannot be exported); define it at module scope"
        )
    return f"{module}:{qualname}"


def _resolve_callable(path: str) -> Callable[..., Any]:
    try:
        module_name, qualname = path.split(":", 1)
    except ValueError:
        raise WorkflowError(f"bad callable path {path!r} (expected module:name)") from None
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise WorkflowError(f"cannot import module {module_name!r}: {exc}") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise WorkflowError(f"{module_name} has no attribute path {qualname!r}") from None
    if not callable(obj):
        raise WorkflowError(f"{path!r} is not callable")
    return obj


def export_spec(workflow: Workflow) -> dict[str, Any]:
    """Serialize a workflow into a JSON-able spec.

    Component args must themselves be JSON-able (they typically are: the
    ``server_info`` dicts the ServerManager hands out are designed to be).
    """
    components = []
    for name in workflow.execution_order():  # validates the DAG
        spec = workflow._components[name]
        try:
            json.dumps(spec.args)
        except TypeError as exc:
            raise WorkflowError(
                f"component {name!r} has non-JSON-able args: {exc}"
            ) from exc
        components.append(
            {
                "name": spec.name,
                "callable": _callable_path(spec.fn),
                "type": spec.type,
                "args": spec.args,
                "dependencies": spec.dependencies,
            }
        )
    return {
        "schema": "simaibench-workflow/1",
        "name": workflow.name,
        "sys_info": workflow.sys_info,
        "components": components,
    }


def workflow_from_spec(spec: Mapping[str, Any]) -> Workflow:
    """Reconstruct a workflow from an exported spec (imports the functions)."""
    if spec.get("schema") != "simaibench-workflow/1":
        raise WorkflowError(f"unknown workflow spec schema {spec.get('schema')!r}")
    workflow = Workflow(name=spec.get("name", "workflow"), sys_info=spec.get("sys_info"))
    for comp in spec.get("components", []):
        if comp.get("nranks", 1) != 1:
            raise WorkflowError(
                f"component {comp.get('name')!r} asks for nranks={comp['nranks']!r}; "
                "components run as one rank"
            )
        workflow.add_component(
            ComponentSpec(
                name=comp["name"],
                fn=_resolve_callable(comp["callable"]),
                type=comp.get("type", "local"),
                args=dict(comp.get("args", {})),
                dependencies=list(comp.get("dependencies", [])),
            )
        )
    workflow.execution_order()  # validate the imported DAG
    return workflow


def save_spec(workflow: Workflow, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_spec(workflow), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_spec(path) -> Workflow:
    with open(path, "r", encoding="utf-8") as handle:
        return workflow_from_spec(json.load(handle))


class ExternalExecutor:
    """Reference third-party-manager adapter.

    Drives an exported spec through a Parsl-like ``submit`` interface:
    the manager supplies ``submit(fn, kwargs) -> result`` and this adapter
    walks the DAG in topological order, resolving dependencies before each
    submission. (Real managers submit asynchronously; sequential submission
    in dependency order is the portable lowest common denominator.)
    """

    def __init__(self, submit: Optional[Callable[..., Any]] = None) -> None:
        self.submit = submit or (lambda fn, kwargs: fn(**kwargs))
        self.submitted: list[str] = []

    def execute(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        workflow = workflow_from_spec(spec)
        results: dict[str, Any] = {}
        for name in workflow.execution_order():
            comp = workflow._components[name]
            results[name] = self.submit(comp.fn, comp.args)
            self.submitted.append(name)
        return results
