"""The reach census: every ``src/repro`` module is reached by a pinned run.

A pinned run is what regenerates the paper and proves the deliverables:

* the paper drivers (``python -m repro.experiments all --parallel 2``)
  and the three extension drivers;
* every example script ``tests/test_examples.py`` runs;
* the end-to-end benchmark's smoke run of every workload, untraced and
  traced.

They run under ``tests/reach/sitecustomize.py``, which records the first
call of every ``repro`` code object in every process they start. A module
is reached when one of its functions, methods or lambdas ran. A module
that defines no function but dunder methods (constants, exception
classes, a package's lazy-export ``__getattr__``) is reached when a
pinned run imports it.

A module that no pinned run reaches is deleted, or it is on
:data:`ALLOWLIST` with what decides it. An allowlisted module that a
pinned run does reach fails too, so the list only shrinks.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

from tests.test_examples import EXAMPLES, EXAMPLES_DIR, SLOW_EXAMPLE

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
HOOK = Path(__file__).resolve().parent / "reach" / "sitecustomize.py"
CI = ROOT / ".github" / "workflows" / "ci.yml"
ROADMAP = ROOT / "ROADMAP.md"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Module (relative to ``src/repro``) -> what decides it: the number of the
#: ROADMAP item that keeps or deletes it, or the name of the ci.yml step
#: that runs it.
ALLOWLIST: dict[str, int | str] = {
    "sweep/dist/watch.py": 7,
    "benchreport.py": "Bench against the committed baseline (fail on >25% DES regression)",
    "faults/netproxy.py": "Two tenants through a chaos proxy, service SIGKILLed mid-run",
    "sweep/dist/worker.py": "Distributed run, one worker SIGKILLed mid-grid",
    "telemetry/chrome_trace.py": "Traced 128-node Pattern 2 cell - transport telemetry derived from the log agrees",
    "telemetry/snapshot.py": "Two tenants through a chaos proxy, service SIGKILLed mid-run",
    "experiments/claims.py": "Every paper table without networkx (no paper figure routes through the fabric)",
}


def _pinned_streams(out: Path) -> list[list[list[str]]]:
    """The pinned runs as two streams of commands of about equal length.

    The end-to-end smoke run is one process per workload and trace mode
    (what ``run.py`` without ``--workload`` starts as its children), so the
    streams can be balanced; under the hook a traced workload takes 9-16 s
    on 2 vCPUs, the drivers ~24 s and the examples ~4 s.
    """
    python = sys.executable
    drivers = [
        [python, "-m", "repro.experiments", "all", "--parallel", "2"],
        [python, "-m", "repro.experiments", "ext_inference", "ext_futurework",
         "ext_faults", "--parallel", "2"],
    ]
    examples = [[python, str(EXAMPLES_DIR / script), *argv] for script, argv, _ in EXAMPLES]
    examples.append([python, str(EXAMPLES_DIR / SLOW_EXAMPLE)])
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    e2e = [
        [python, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke", "--seconds", "0.2",
         "--workload", name, "--trace", trace, "--out", str(out / f"e2e-{name}-{trace}")]
        for trace in ("0", "1")
        for name in workloads
    ]
    return [drivers + examples + e2e[-1:], e2e[:-1]]


def _run_stream(commands: list[list[str]], env: dict, cwd: Path, failures: list) -> None:
    for command in commands:
        try:
            done = subprocess.run(command, env=env, cwd=cwd, capture_output=True,
                                  text=True, timeout=600)
        except subprocess.TimeoutExpired:
            failures.append(f"{' '.join(command)} ran past 600 s")
            continue
        if done.returncode != 0:
            failures.append(f"{' '.join(command)} exited {done.returncode}:\n"
                            f"{done.stderr[-2000:]}")


def census(tmp: Path) -> dict[str, set[tuple[int, str]]]:
    """Run the pinned set under the hook; {module: {(first line, qualname)}}."""
    hook_dir = tmp / "hook"
    hook_dir.mkdir()
    shutil.copy(HOOK, hook_dir / "sitecustomize.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook_dir), str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    failures: list[str] = []
    threads = [
        threading.Thread(target=_run_stream, args=(stream, env, tmp, failures))
        for stream in _pinned_streams(tmp)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, "\n".join(failures)
    ran: dict[str, set[tuple[int, str]]] = {}
    for record in (hook_dir / "records").glob("*.tsv"):
        for line in record.read_text().splitlines():
            module, first_line, qualname = line.split("\t")
            ran.setdefault(module, set()).add((int(first_line), qualname))
    return ran


def _functions(path: Path) -> list[tuple[types.CodeType, str]]:
    """Every function, method and lambda ``path`` defines, with the name of
    the outermost function around it (its own name at the top)."""
    found = []
    stack = [(compile(path.read_text(), str(path), "exec"), None)]
    while stack:
        code, outer = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                    found.append((const, outer or const.co_name))
                    stack.append((const, outer or const.co_name))
                else:
                    stack.append((const, outer))
    return found


def _reached(path: Path, ran: set[tuple[int, str]]) -> bool:
    functions = _functions(path)
    keys = {(f.co_firstlineno, getattr(f, "co_qualname", f.co_name)) for f, _ in functions}
    if keys & ran:
        return True
    body_only = all(o.startswith("__") and o.endswith("__") for _, o in functions)
    return body_only and any(qualname == "<module>" for _, qualname in ran)


def _modules() -> list[str]:
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


def test_the_allowlist_names_modules_and_live_reasons():
    modules = set(_modules())
    steps = set(re.findall(r"^\s*- name: (.+?)\s*$", CI.read_text(), re.M))
    steps = {s.strip('"') for s in steps}
    items = set(int(n) for n in re.findall(r"^(\d+)\. \*\*", ROADMAP.read_text(), re.M))
    for module, reason in ALLOWLIST.items():
        assert module in modules, f"allowlisted {module} is not a module"
        if isinstance(reason, int):
            assert reason in items, f"{module}: ROADMAP.md has no item {reason}"
        else:
            assert reason in steps, f"{module}: ci.yml has no step named {reason!r}"


def test_every_module_is_reached_by_a_pinned_run(tmp_path):
    ran = census(tmp_path)
    reached = {m for m in _modules() if _reached(PACKAGE / m, ran.get(m, set()))}
    unreached = sorted(set(_modules()) - reached - set(ALLOWLIST))
    assert not unreached, (
        "no pinned run reaches these modules; delete them, wire them into a "
        f"pinned run, or allowlist them with what decides them: {unreached}"
    )
    stale = sorted(reached & set(ALLOWLIST))
    assert not stale, f"allowlisted, but a pinned run reaches them: {stale}"
