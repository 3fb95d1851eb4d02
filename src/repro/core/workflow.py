"""The Workflow orchestration layer (paper §3.5).

Three architectural principles from the paper: modular components, an
explicit dependency DAG, and an explicit data staging interface. The API
matches Listing 1::

    w = Workflow(sys_info=sys_config)

    @w.component(name="sim", type="remote", args={"info": info})
    def run_sim(info=None):
        ...

    @w.component(name="sim2", type="local", args={"info": info},
                 dependencies=["sim"])
    def run_sim2(info=None):
        ...

    w.launch()

``type="remote"`` stands for components the production tool would place
on remote compute nodes via ``mpirun``; here both types execute in this
process, as one rank each. Components whose dependencies are satisfied
run **concurrently** (each on its own thread);
``launch`` performs a topological traversal of the DAG, propagates the
first failure, and returns every component's result.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.errors import DependencyCycleError, WorkflowError

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class ComponentSpec:
    """A registered workflow component."""

    name: str
    fn: Callable[..., Any]
    type: str = "local"
    args: dict[str, Any] = field(default_factory=dict)
    dependencies: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.type not in ("local", "remote"):
            raise WorkflowError(
                f"component {self.name!r}: type must be 'local' or 'remote', "
                f"got {self.type!r}"
            )


class Workflow:
    """A DAG of components with concurrent, dependency-ordered execution."""

    def __init__(
        self,
        name: str = "workflow",
        sys_info: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.name = name
        self.sys_info = dict(sys_info or {})
        self._components: dict[str, ComponentSpec] = {}
        self.results: dict[str, Any] = {}

    # -- registration ----------------------------------------------------------
    def component(
        self,
        name: Optional[str] = None,
        type: str = "local",
        args: Optional[Mapping[str, Any]] = None,
        dependencies: Optional[list[str]] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a function as a workflow component."""

        def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
            spec = ComponentSpec(
                name=name or fn.__name__,
                fn=fn,
                type=type,
                args=dict(args or {}),
                dependencies=list(dependencies or []),
            )
            self.add_component(spec)
            return fn

        return decorator

    def add_component(self, spec: ComponentSpec) -> None:
        if spec.name in self._components:
            raise WorkflowError(f"duplicate component name {spec.name!r}")
        self._components[spec.name] = spec

    @property
    def component_names(self) -> list[str]:
        return list(self._components)

    # -- DAG -----------------------------------------------------------------------
    def graph(self) -> nx.DiGraph:
        """The dependency DAG (edge dep -> component)."""
        import networkx as nx

        g = nx.DiGraph()
        for spec in self._components.values():
            g.add_node(spec.name)
        for spec in self._components.values():
            for dep in spec.dependencies:
                if dep not in self._components:
                    raise WorkflowError(
                        f"component {spec.name!r} depends on unknown {dep!r}"
                    )
                g.add_edge(dep, spec.name)
        return g

    def execution_order(self) -> list[str]:
        """A valid topological order (raises on cycles)."""
        import networkx as nx

        g = self.graph()
        try:
            return list(nx.topological_sort(g))
        except nx.NetworkXUnfeasible:
            cycle = nx.find_cycle(g)
            raise DependencyCycleError(
                f"dependency cycle: {' -> '.join(a for a, _ in cycle)}"
            ) from None

    # -- execution -----------------------------------------------------------------
    def launch(self, timeout: Optional[float] = 300.0) -> dict[str, Any]:
        """Run the workflow to completion; returns {component: result}."""
        order = self.execution_order()  # validates the DAG up front
        if not order:
            return {}

        done: dict[str, threading.Event] = {
            name: threading.Event() for name in order
        }
        errors: dict[str, BaseException] = {}
        failure = threading.Event()
        self.results = {}
        results_lock = threading.Lock()

        def runner(spec: ComponentSpec) -> None:
            # Wait for dependencies (or a workflow-wide failure).
            for dep in spec.dependencies:
                while not done[dep].wait(timeout=0.05):
                    if failure.is_set():
                        return
            if failure.is_set():
                return
            try:
                result = spec.fn(**spec.args)
                with results_lock:
                    self.results[spec.name] = result
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                errors[spec.name] = exc
                failure.set()
            finally:
                done[spec.name].set()

        threads = [
            threading.Thread(
                target=runner,
                args=(self._components[name],),
                name=f"{self.name}:{name}",
                daemon=True,
            )
            for name in order
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                failure.set()
                raise WorkflowError(
                    f"component thread {t.name} did not finish within {timeout}s"
                )

        if errors:
            # Re-raise the first failure in topological order.
            for name in order:
                if name in errors:
                    raise errors[name]
        return dict(self.results)
