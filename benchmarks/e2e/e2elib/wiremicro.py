"""The one micro-timing both real-transport workloads share."""

from __future__ import annotations

import time

from repro.transport import resp


def resp_small_micro(n: int) -> dict:
    """Parse a stream of small command frames (the control plane's shape)."""
    frame = resp.encode_command("DONE", "e2e-worker", "17", "0" * 64, b"x" * 96)
    parser = resp.RespParser()
    stream = frame * 64
    popped = 0
    start = time.perf_counter()
    for _ in range(n // 64):
        parser.feed(stream)
        while parser.pop() is not None:
            popped += 1
    return {"transport.resp.parse_cmds_per_s.small": popped / (time.perf_counter() - start)}
