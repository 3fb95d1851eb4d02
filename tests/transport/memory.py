"""``tracemalloc`` peak of one call, shared by the copy-budget style tests."""

import tracemalloc


def peak_bytes(call):
    """``(peak traced bytes allocated during call() beyond the start, result)``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result
