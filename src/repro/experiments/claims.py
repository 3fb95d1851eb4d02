"""The paper's claims: what the reproduction must show, with the paper's numbers.

:data:`CLAIMS` is the one statement of the acceptance criteria of Tables
2–3 and Figs 2–6. Where the repo records the paper's value, a claim
tests the measured value against it with a tolerance taken from the
paper's wording ("≈ one iteration" is within a factor 1.5, "~10×" and
"≈ 10 MB" within a factor 2, "≈" between two backends ±15 %); an
ordering stated without a number is tested at a fixed bound. A
``known_miss`` is a claim the model does not meet yet: tier-1 runs it as
a strict xfail, and ``python -m repro.experiments.claims`` (one JSON
object per claim) exits 1 when a claim fails or a known miss holds.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.experiments import driver
from repro.experiments.common import SIZE_SWEEP_MB
from repro.experiments.table2_validation import PAPER_TABLE2 as P2
from repro.experiments.table3_iterstats import PAPER_TABLE3 as P3

#: ``op -> passes(measured, bound, paper)``; the bound of ``±`` and ``×`` is
#: relative to the paper's value.
_OPS = {
    "<": lambda x, b, p: x < b,
    "≤": lambda x, b, p: x <= b,
    ">": lambda x, b, p: x > b,
    "≥": lambda x, b, p: x >= b,
    "=": lambda x, b, p: x == b,
    "±": lambda x, b, p: abs(x / p - 1) <= b,
    "×": lambda x, b, p: p / b <= x <= p * b,
}
#: Where each artifact's paper values come from.
SOURCES = {
    "table2": "PAPER_TABLE2",
    "table3": "PAPER_TABLE3",
    "fig3": "paper §4.1.2",
    "fig4": "paper §4.1.2",
    "fig5": "paper §4.2",
    "fig6": "paper §4.2",
}


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "—"
    if float(x).is_integer() and abs(x) < 1e6:
        return str(int(x))
    return f"{x:.3g}"


@dataclass(frozen=True)
class Claim:
    """One result the paper states and the reproduction must show."""

    id: str  # "<driver>[a|b].<what>": "fig6b.filesystem_best" is a fig6 claim
    sentence: str  # what the paper says, and the measure that tests it
    paper: Optional[float]  # the paper's value; None where the repo records none
    tolerance: tuple  # (op, bound), op a key of _OPS
    measure: Callable[[Any], float]  # driver result -> measured value
    known_miss: Optional[str] = None  # why the model misses it, if it does

    @property
    def figure(self) -> str:
        return re.match(r"[a-z]+\d", self.id).group()

    @property
    def source(self) -> Optional[str]:
        return None if self.paper is None else SOURCES[self.figure]

    def bounds(self) -> str:
        op, bound = self.tolerance
        if op == "±":
            return f"paper ±{bound:.0%}"
        if op == "×":
            return f"paper ×/÷ {_fmt(bound)}"
        return f"{op} {_fmt(bound)}"

    def evaluate(self, result) -> tuple[float, bool]:
        """``(measured value, passed)`` on the driver's result."""
        value = self.measure(result)
        op, bound = self.tolerance
        return value, _OPS[op](value, bound, self.paper)


def _peak(series) -> float:
    return SIZE_SWEEP_MB[series.index(max(series))]


def _step(series) -> float:
    """The smallest ratio of a value to its predecessor: >= 1 iff nondecreasing."""
    return min(b / a for a, b in zip(series, series[1:]))


def _ratios(a, b) -> list[float]:
    return [x / y for x, y in zip(a, b)]


def _drift(a, b) -> float:
    """How far two series part: the largest deviation of ``a/b`` from 1."""
    return max(abs(q - 1) for q in _ratios(a, b))


#: The per-process L3 share, 105 MB over a node's 12 ranks, and the last
#: sweep size below it, where an in-memory store's throughput peaks.
L3_SHARE_MB = 105 / 12
L3_PEAK_MB = max(s for s in SIZE_SWEEP_MB if s < L3_SHARE_MB)
IN_MEMORY = ("node-local", "dragon", "redis")


def _table2_claims():
    for w, who in (("original", "original"), ("miniapp", "mini-app")):
        yield Claim(
            f"table2.{w}_train_timesteps",
            f"{who} training runs its 5000 time steps",
            P2[w]["train_timestep"],
            ("=", 5000),
            lambda r, w=w: getattr(r.train, f"{w}_timesteps"),
        )
    for c, kind, count, rel in (
        ("sim", "timestep", "timesteps", 0.05),
        ("sim", "transport", "transport", 0.1),
        ("train", "transport", "transport", 0.1),
    ):
        yield Claim(
            f"table2.original_{c}_{kind}_count",
            f"original {c} {kind} count as the paper's",
            P2["original"][f"{c}_{kind}"],
            ("±", rel),
            lambda r, c=c, count=count: getattr(getattr(r, c), f"original_{count}"),
        )
    for c, kind, tolerance in (
        ("sim", "timestep", ("<", 0.06)),
        ("sim", "transport", ("≤", 0.15)),
        ("train", "transport", ("≤", 0.15)),
    ):
        k = f"{c}_{kind}"
        yield Claim(
            f"table2.{k}_error",
            f"mini-app {c} {kind} count within a few % of the original's",
            abs(P2["miniapp"][k] / P2["original"][k] - 1),
            tolerance,
            lambda r, c=c, kind=kind: getattr(getattr(r, c), f"{kind}_relative_error"),
        )


def _table3_claims():
    for c in ("sim", "train"):
        for stat, rel in (("mean", 0.03), ("std", 0.1)):
            yield Claim(
                f"table3.original_{c}_{stat}",
                f"original {c} iteration time {stat} (s) as the paper's",
                P3["original"][f"{c}_{stat}"],
                ("±", rel),
                lambda r, c=c, stat=stat: getattr(getattr(r, c).original, stat),
            )
        k = f"{c}_mean"
        yield Claim(
            f"table3.{c}_mean_error",
            f"mini-app mean {c} iteration time within a few % of the original's",
            abs(P3["miniapp"][k] / P3["original"][k] - 1),
            ("<", 0.05),
            lambda r, c=c: getattr(r, c).mean_relative_error,
        )
    yield Claim(
        "table3.miniapp_sim_jitter",
        "the mini-app pins sim iteration times: std/mean (the paper's executor "
        "keeps ~1 ms of OS noise, the simulated one none)",
        P3["miniapp"]["sim_std"] / P3["miniapp"]["sim_mean"],
        ("<", 0.001),
        lambda r: r.sim.miniapp.std / r.sim.miniapp.mean,
    )


def _fig2_claims():
    for c in ("sim", "train"):
        yield Claim(
            f"fig2.{c}_similarity",
            f"original and mini-app {c} timelines look alike: "
            "compute-occupancy correlation",
            None,
            (">", 0.8),
            lambda r, c=c: getattr(r, f"{c}_similarity"),
        )


def _fig3_ordering_at_8(r) -> float:
    """The smallest min(node-local, dragon)/redis write at 8 nodes."""
    write = r.write[8]
    return min(_ratios(map(min, write["node-local"], write["dragon"]), write["redis"]))


def _fig3_claims():
    for b in IN_MEMORY:
        yield Claim(
            f"fig3.{b}.peak_below_l3",
            f"{b} write throughput peaks below the {L3_SHARE_MB} MB L3 share, "
            "8 nodes: MB at the peak",
            L3_SHARE_MB,
            ("=", L3_PEAK_MB),
            lambda r, b=b: _peak(r.write[8][b]),
        )
        yield Claim(
            f"fig3.{b}.dips_past_l3",
            f"{b} write throughput dips past it: 32 MB over the peak",
            None,
            ("<", 1),
            lambda r, b=b: r.write[8][b][-1] / max(r.write[8][b]),
        )
    yield Claim(
        "fig3.in_memory_scale_free",
        "in-memory stores unchanged from 8 to 512 nodes: largest deviation of "
        "the 8/512-node write ratio from 1",
        None,
        ("≤", 0.02),
        lambda r: max(_drift(r.write[8][b], r.write[512][b]) for b in IN_MEMORY),
    )
    yield Claim(
        "fig3.ordering_at_8",
        "node-local ≳ dragon > redis at 8 nodes: smallest min(node-local, "
        "dragon)/redis write",
        None,
        (">", 1),
        _fig3_ordering_at_8,
    )
    yield Claim(
        "fig3.filesystem_monotonic",
        "filesystem write throughput rises with size at 8 and 512 nodes: "
        "smallest step ratio",
        None,
        ("≥", 1),
        lambda r: min(_step(r.write[n]["filesystem"]) for n in (8, 512)),
    )
    yield Claim(
        "fig3.filesystem_collapse_at_512",
        "filesystem collapses at 512 nodes (MDS contention): largest "
        "512/8-node write ratio",
        None,
        ("<", 0.25),
        lambda r: max(_ratios(r.write[512]["filesystem"], r.write[8]["filesystem"])),
    )


def _fig4_claims():
    for b, n in (("node-local", 8), ("node-local", 512), ("filesystem", 8)):
        yield Claim(
            f"fig4.{b}.{n}.one_iteration",
            f"{b} at {n} nodes: a 32 MB write takes about one simulation "
            "iteration (ratio)",
            1.0,
            ("×", 1.5),
            lambda r, b=b, n=n: r.panel(b, n).transfer_to_iter_ratio(-1),
        )
    yield Claim(
        "fig4.filesystem.512.order_of_magnitude",
        "filesystem at 512 nodes: a 32 MB write takes ~10× a simulation "
        "iteration (ratio)",
        10.0,
        ("×", 2),
        lambda r: r.panel("filesystem", 512).transfer_to_iter_ratio(-1),
    )
    yield Claim(
        "fig4.node-local.scale_free",
        "node-local write time unchanged from 8 to 512 nodes: largest deviation "
        "of the 8/512-node ratio from 1",
        None,
        ("≤", 1e-6),
        lambda r: _drift(*(r.panel("node-local", n).write_time for n in (8, 512))),
    )


def _fig5_claims():
    yield Claim(
        "fig5.redis_read_poor",
        "redis non-local read is poor: smallest dragon/redis read",
        None,
        (">", 2),
        lambda r: min(_ratios(r.read["dragon"], r.read["redis"])),
    )
    yield Claim(
        "fig5.dragon_read_peak",
        "dragon non-local read peaks near 10 MB: MB at the peak",
        10.0,
        ("×", 2),
        lambda r: _peak(r.read["dragon"]),
    )
    yield Claim(
        "fig5.dragon_read_declines",
        "dragon non-local read declines past its peak: 32 MB over the peak",
        None,
        ("<", 1),
        lambda r: r.read["dragon"][-1] / max(r.read["dragon"]),
    )
    yield Claim(
        "fig5.filesystem_read_monotonic",
        "filesystem non-local read rises with size: smallest step ratio",
        None,
        ("≥", 1),
        lambda r: _step(r.read["filesystem"]),
    )
    yield Claim(
        "fig5.filesystem_read_near_dragon",
        "filesystem read comparable to dragon at the largest size: "
        "filesystem/dragon at 32 MB",
        None,
        (">", 0.5),
        lambda r: r.read["filesystem"][-1] / r.read["dragon"][-1],
    )
    yield Claim(
        "fig5.local_write_ordering",
        "local writes as in Fig 3: smallest dragon/redis write",
        None,
        (">", 1),
        lambda r: min(_ratios(r.write["dragon"], r.write["redis"])),
    )


def _fig6_redis_slowest(r) -> float:
    """The smallest redis/max(dragon, filesystem) runtime, at 8 and 128 nodes."""
    return min(
        min(_ratios(by["redis"], map(max, by["dragon"], by["filesystem"])))
        for by in r.runtime.values()
    )


def _fig6a_dragon_over_filesystem(r) -> float:
    """The 8-node dragon/filesystem runtime ratio farthest from 1."""
    ratios = _ratios(r.runtime[8]["dragon"], r.runtime[8]["filesystem"])
    return max(ratios, key=lambda q: abs(q - 1))


def _fig6b_dragon_over_filesystem_below_10mb(r) -> float:
    """The smallest 128-node dragon/filesystem runtime ratio below 10 MB."""
    ratios = _ratios(r.runtime[128]["dragon"], r.runtime[128]["filesystem"])
    return min(q for s, q in zip(SIZE_SWEEP_MB, ratios) if s < 10)


def _fig6b_filesystem_best(r) -> float:
    """The smallest 128-node min(dragon, redis)/filesystem runtime."""
    by = r.runtime[128]
    return min(_ratios(map(min, by["dragon"], by["redis"]), by["filesystem"]))


def _fig6_claims():
    yield Claim(
        "fig6.runtime_grows_with_size",
        "runtime per iteration grows with size, every backend at 8 and 128 nodes: "
        "smallest step ratio",
        None,
        ("≥", 1),
        lambda r: min(_step(v) for by in r.runtime.values() for v in by.values()),
    )
    yield Claim(
        "fig6.redis_slowest",
        "redis is the slowest at 8 and 128 nodes: smallest redis/max(dragon, "
        "filesystem)",
        None,
        ("≥", 1),
        _fig6_redis_slowest,
    )
    yield Claim(
        "fig6a.dragon_equals_filesystem",
        "at 8 nodes dragon ≈ filesystem: the dragon/filesystem ratio farthest "
        "from 1",
        1.0,
        ("±", 0.15),
        _fig6a_dragon_over_filesystem,
    )
    yield Claim(
        "fig6b.dragon_slower_below_10mb",
        "at 128 nodes dragon is much slower than filesystem below 10 MB (incast): "
        "smallest dragon/filesystem there",
        None,
        (">", 1.5),
        _fig6b_dragon_over_filesystem_below_10mb,
    )
    yield Claim(
        "fig6b.filesystem_best",
        "filesystem is the Pattern 2 winner at 128 nodes: smallest "
        "min(dragon, redis)/filesystem",
        None,
        ("≥", 1),
        _fig6b_filesystem_best,
    )
    yield Claim(
        "fig6b.dragon_similar_at_32mb",
        "at 128 nodes dragon and filesystem are similar at the largest size: "
        "dragon/filesystem at 32 MB",
        1.0,
        ("±", 0.15),
        lambda r: r.runtime[128]["dragon"][-1] / r.runtime[128]["filesystem"][-1],
        known_miss="the modelled incast penalty does not shrink with message size",
    )


CLAIMS: tuple[Claim, ...] = (
    *_table2_claims(),
    *_table3_claims(),
    *_fig2_claims(),
    *_fig3_claims(),
    *_fig4_claims(),
    *_fig5_claims(),
    *_fig6_claims(),
)


def evaluate(result_of: Optional[Callable[[str], Any]] = None):
    """``[(claim, measured, passed)]``. ``result_of(name)`` gives driver results
    (the tier-1 ``driver_result`` fixture is one); by default each runs once."""
    result_of = result_of or functools.lru_cache(None)(lambda name: driver(name).run())
    return [(claim, *claim.evaluate(result_of(claim.figure))) for claim in CLAIMS]


def render_markdown(result_of: Optional[Callable[[str], Any]] = None) -> str:
    """The tables EXPERIMENTS.md holds verbatim: per artifact, each claim,
    paper vs measured."""
    lines, figure = [], None
    for claim, value, passed in evaluate(result_of):
        if claim.figure != figure:
            figure = claim.figure
            title = driver(figure).__doc__.splitlines()[0].rstrip(".")
            lines += [
                f"\n### {title}\n",
                "| id | claim: measure | paper | measured | tolerance "
                "| paper value from | holds |",
                "|---|---|---|---|---|---|---|",
            ]
        verdict = "✓" if passed else "✗"
        if claim.known_miss:
            verdict += f" known miss: {claim.known_miss}"
        lines.append(
            f"| `{claim.id}` | {claim.sentence} | {_fmt(claim.paper)} "
            f"| {_fmt(value)} | {claim.bounds()} | {claim.source or '—'} "
            f"| {verdict} |"
        )
    return "\n".join(lines).lstrip("\n") + "\n"


def main() -> int:
    results, seconds, status = {}, {}, 0
    for name in dict.fromkeys(claim.figure for claim in CLAIMS):
        start = time.perf_counter()
        results[name] = driver(name).run()
        seconds[name] = round(time.perf_counter() - start, 3)
    for claim, value, passed in evaluate(results.get):
        row = {
            "id": claim.id,
            "figure": claim.figure,
            "paper": claim.paper,
            "measured": float(value),
            "tolerance": claim.bounds(),
            "pass": passed,
            "seconds": seconds[claim.figure],
        }
        print(json.dumps(row))
        status |= passed == bool(claim.known_miss)
    return status


if __name__ == "__main__":
    sys.exit(main())
