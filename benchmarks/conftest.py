"""Shared helpers for the benchmark harness.

Every paper artifact gets one benchmark that (a) regenerates and times
the artifact via its experiment driver and (b) prints the paper-style
table/series to compare with the publication. What the results must show
is ``repro.experiments.claims.CLAIMS``, checked by the tier-1 suite.

Experiment benches run one round (they are deterministic simulations, not
noisy microbenchmarks); the micro benches use pytest-benchmark's normal
statistics.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic experiment with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
