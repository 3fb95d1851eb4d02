"""Machine model: the Lustre file system the paper's drivers charge, and
the dragonfly interconnect fabric.

Names resolve on first use (see :mod:`repro`), so importing one
submodule does not load the others.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "DragonflyTopology": ".topology",
    "LinkSpec": ".topology",
    "LustreModel": ".filesystem",
    "LustreSpec": ".filesystem",
    "NetworkFabric": ".network",
    "aurora_lustre": ".filesystem",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
