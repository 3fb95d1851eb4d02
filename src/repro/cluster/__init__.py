"""Machine model: nodes, interconnect topology, file system, presets.

Names resolve on first use (see :mod:`repro`), so importing one
submodule does not load the others.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "GB": ".node",
    "MB": ".node",
    "CpuSpec": ".node",
    "DragonflyTopology": ".topology",
    "GpuSpec": ".node",
    "LinkSpec": ".topology",
    "LustreModel": ".filesystem",
    "LustreSpec": ".filesystem",
    "Machine": ".machine",
    "MachineInstance": ".machine",
    "MachineSpec": ".machine",
    "NetworkFabric": ".network",
    "Node": ".node",
    "NodeLocalModel": ".storage",
    "NodeLocalSpec": ".storage",
    "NodeSpec": ".node",
    "aurora": ".presets",
    "aurora_lustre": ".presets",
    "aurora_node": ".presets",
    "aurora_node_local": ".presets",
    "laptop": ".presets",
    "make_machine": ".machine",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
