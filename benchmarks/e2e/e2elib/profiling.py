"""cProfile attribution of a few representative cells to layers.

Only ever used in the traced pass: cProfile taxes every Python call but
not work inside native code, so these are *shares*, never times.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Callable, Iterable

#: Per-layer share rows. A ``repro`` module goes to the most specific
#: entry that prefixes its dotted name; everything else in the profile
#: is ``builtin`` (C functions) or ``other`` (remaining repro modules,
#: the standard library, the harness), so the shares sum to 1.
LAYER_ROWS = (
    "des",
    "workloads.patterns",
    "telemetry.events",
    "transport.simstore",
    "transport.models",
)


def _module_of(filename: str) -> str | None:
    """``.../repro/des/core.py`` -> ``des.core``; None outside ``repro``."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return None
    package = len(parts) - 1 - parts[::-1].index("repro")  # the innermost ``repro``
    return ".".join(parts[package + 1:]).removesuffix(".py")


def layer_of(filename: str) -> str:
    if filename == "~":
        return "builtin"
    module = _module_of(filename)
    if module is None:
        return "other"
    best = ""
    for row in LAYER_ROWS:
        if (module == row or module.startswith(row + ".")) and len(row) > len(best):
            best = row
    return best or "other"


def self_shares(calls: Iterable[Callable[[], object]]) -> dict[str, float]:
    """Share of profiled ``tottime`` per layer row over all ``calls``."""
    profiler = cProfile.Profile()
    for call in calls:
        profiler.enable()
        try:
            call()
        finally:
            profiler.disable()
    totals = {row: 0.0 for row in (*LAYER_ROWS, "builtin", "other")}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        totals[layer_of(filename)] += tottime
    whole = sum(totals.values())
    return {row: (t / whole if whole else 0.0) for row, t in totals.items()}
