"""Which model constants move which paper claims.

Scales one calibrated constant at a time by x0.5, x0.8, x1.2 and x2,
reruns Figs 3-6 with it and evaluates ``repro.experiments.claims.CLAIMS``
on the results. The constants are every numeric field of the
``repro.transport.models`` specs that ``aurora_backend_models`` builds,
plus every ``LustreSpec`` field (the filesystem model's) and the shared
serialization bandwidth; ``l3_share_bytes`` is left out because it is the
paper's arithmetic (105 MB over the ranks of a node), not a calibration.
Each scaled model set is a ``dataclasses.replace`` of the built specs,
patched in as ``repro.experiments.common.aurora_backend_models``.

Prints a markdown table, constant x scale -> the claims whose verdict
flipped against the unscaled models, then the constants that flip no
claim at x0.5 or x2::

    PYTHONPATH=src python benchmarks/claims_sensitivity.py

126 runs of the four drivers (an integer field skips the scalings that
round back to its value), one worker process per CPU: about 6 minutes
on 2 vCPUs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import common, driver
from repro.experiments.claims import CLAIMS

FIGURES = ("fig3", "fig4", "fig5", "fig6")
FACTORS = (0.5, 0.8, 1.2, 2.0)
NOT_CALIBRATED = {"l3_share_bytes"}
_AURORA = common.aurora_backend_models


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def constants() -> list[tuple[str, str, float]]:
    """``(owner, field, value)``; owner is a backend, ``lustre`` or
    ``serialization``."""
    found = []
    models = _AURORA()
    for backend, model in models.items():
        found += [
            (backend, f.name, getattr(model.spec, f.name))
            for f in dataclasses.fields(model.spec)
            if _is_number(getattr(model.spec, f.name)) and f.name not in NOT_CALIBRATED
        ]
    lustre = models["filesystem"].spec.lustre
    found += [
        ("lustre", f.name, getattr(lustre, f.name)) for f in dataclasses.fields(lustre)
    ]
    serialization = models["filesystem"].spec.serialization
    found += [("serialization", "bandwidth", serialization.bandwidth)]
    return found


def _scale(value, factor):
    return max(1, round(value * factor)) if isinstance(value, int) else value * factor


def _replace_field(spec, name, factor):
    return dataclasses.replace(spec, **{name: _scale(getattr(spec, name), factor)})


def scaled_models(owner: str, name: str, factor: float):
    """An ``aurora_backend_models`` whose one constant is scaled by ``factor``."""

    def build(processes_per_node: int = 12):
        models = {}
        for backend, model in _AURORA(processes_per_node).items():
            spec = model.spec
            if owner == backend:
                spec = _replace_field(spec, name, factor)
            elif owner == "lustre" and backend == "filesystem":
                lustre = _replace_field(spec.lustre, name, factor)
                spec = dataclasses.replace(spec, lustre=lustre)
            elif owner == "serialization":
                spec = dataclasses.replace(
                    spec, serialization=_replace_field(spec.serialization, name, factor)
                )
            models[backend] = type(model)(spec)
        return models

    return build


def verdicts(owner=None, name=None, factor=None) -> dict[str, bool]:
    """Each Fig 3-6 claim's pass/fail, with one constant scaled (or none)."""
    if owner is not None:
        common.aurora_backend_models = scaled_models(owner, name, factor)
    try:
        results = {figure: driver(figure).run() for figure in FIGURES}
    finally:
        common.aurora_backend_models = _AURORA
    return {
        c.id: c.evaluate(results[c.figure])[1] for c in CLAIMS if c.figure in FIGURES
    }


def main() -> int:
    base = verdicts()
    jobs = [
        (owner, name, factor)
        for owner, name, value in constants()
        for factor in FACTORS
        if _scale(value, factor) != value
    ]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(mp_context=context) as pool:
        flipped = {
            job: sorted(cid for cid, ok in result.items() if ok != base[cid])
            for job, result in zip(jobs, pool.map(verdicts, *zip(*jobs)))
        }

    print("| constant | value | " + " | ".join(f"×{f:g}" for f in FACTORS) + " |")
    print("|---|---|" + "---|" * len(FACTORS))
    quiet = []
    for owner, name, value in constants():
        cells = []
        for factor in FACTORS:
            ids = flipped.get((owner, name, factor))
            if ids is None:
                cells.append("—")
            else:
                cells.append(", ".join(f"`{i}`" for i in ids) or "·")
        print(f"| {owner}.{name} | {value:g} | " + " | ".join(cells) + " |")
        if not any(flipped.get((owner, name, f)) for f in (FACTORS[0], FACTORS[-1])):
            quiet.append(f"{owner}.{name}")
    print()
    print(
        f"{len(quiet)} constants flip no claim at ×{FACTORS[0]:g} or ×{FACTORS[-1]:g}: "
        + ", ".join(quiet)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
