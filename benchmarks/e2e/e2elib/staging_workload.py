"""``real_staging``: real bytes through the three in-tree substrates.

``ServerManager`` + ``DataStore`` for ``node-local`` (kvfile), ``redis``
(mini-Redis) and ``dragon``, two shards each. Per backend and payload
size one closed-loop client does N ``stage_write``, N
``poll_staged_data``, N ``stage_read`` over rotating keys and compares
the last read with what it wrote. Same RESP code as ``service_roundtrip``
but bulk frames instead of small commands; DES, the sweep stack and
SQLite do no work here.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np

from e2elib import stats
from e2elib.harness import Workload
from e2elib.spans import durations
from e2elib.wiremicro import resp_small_micro
from repro.errors import ReproError
from repro.transport import resp
from repro.transport.datastore import DataStore
from repro.transport.redis_backend import MiniRedisConnection
from repro.transport.serializer import deserialize, serialize
from repro.transport.server import ServerManager

MIB = 1 << 20
# glibc mallopt() parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_policy() -> str:
    """Fix glibc's mmap and trim thresholds for this process.

    Left to adapt, they make every 8-16 MiB buffer of the staging path
    flip between reusing heap pages (~14 ms per 16 MiB dragon write
    here) and a fresh mmap plus page faults (~37 ms), in runs of calls
    whose share differs from process to process: the median round moved
    by 35 % between ten processes of one commit, and by 7 % with the
    thresholds pinned. The flip is the allocator's, not the
    repository's, so the gated numbers are taken with it out: buffers up
    to 32 MiB come from the heap and the heap is never trimmed. No user
    runs with this policy, so the throughput under the platform's own
    policy is measured first and recorded beside (``*.default_malloc``,
    not gated): a change that reuses buffers shows there.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        pinned = libc.mallopt(_M_MMAP_THRESHOLD, 32 * MIB) and libc.mallopt(
            _M_TRIM_THRESHOLD, 1 << 30)
    except (OSError, AttributeError):
        pinned = 0
    return "pinned" if pinned else "platform default"


#: server backend name -> the module that moves its bytes (per-layer rows).
BACKENDS = {"node-local": "kvfile", "redis": "redis", "dragon": "dragon"}


@dataclass(frozen=True)
class StagingScale:
    sizes_mib: tuple[int, ...] = (1, 8, 16)
    #: Keys written, polled and read per backend, size and round. Every
    #: round overwrites all of them, so after the warm-up rounds the
    #: stores and the allocator are in the steady state a long-running
    #: workflow stages into (first-touch page faults are set-up cost).
    keys: int = 4
    warmup_rounds: int = 2
    default_malloc_rounds: int = 2  # timed before the malloc policy is pinned
    micro_n: int = 2000  # small-frame / ping samples
    bulk_repeats: int = 8  # 8 MiB frames per bulk micro-timing
    setup_repeats: int = 5
    min_rounds: int = 3
    traced_rounds: int = 3
    traced_compare_rounds: int = 3


class RealStaging(Workload):
    name = "real_staging"
    speed_unit = "copy"
    FULL = StagingScale()
    SMOKE = StagingScale(
        keys=1, warmup_rounds=0, default_malloc_rounds=1, micro_n=200, bulk_repeats=2,
        setup_repeats=1, min_rounds=2, traced_rounds=1, traced_compare_rounds=2,
    )

    def __init__(self, ctx, workdir) -> None:
        super().__init__(ctx, workdir)
        self.scale: StagingScale = self.SMOKE if ctx.smoke else self.FULL
        self.managers: dict[str, ServerManager] = {}
        self.stores_: dict[str, DataStore] = {}
        self.write_rates: list[float] = []
        self.read_rates: list[float] = []
        #: (backend, MiB, op) -> per-call seconds over all rounds.
        self.calls: dict[tuple[str, int, str], list[float]] = {}
        self.kv_path = workdir / "kvfile"

    # -- set-up / teardown -------------------------------------------------
    def _start(self) -> None:
        rng = np.random.default_rng([self.ctx.seed, 4])
        self.payloads = {
            size: rng.random(size * MIB // 8) for size in self.scale.sizes_mib
        }
        for backend in BACKENDS:
            config = {"backend": backend, "n_shards": 2}
            if backend == "node-local":
                # Inside the checkout (the benchmark writes nowhere else),
                # not the tmpfs the paper's node-local backend stands for.
                config["path"] = str(self.kv_path)
            manager = ServerManager(f"e2e-{backend}", config=config)
            manager.start_server()
            self.managers[backend] = manager
            self.stores_[backend] = DataStore("e2e", server_info=manager.get_server_info())

    def once_per_process(self) -> None:
        """Throughput of a few rounds under the allocator policy users
        run, while it still holds; then the pin."""
        self._start()
        self.ctx.clock.start()
        self._round("default-warm", timed=False)
        for i in range(self.scale.default_malloc_rounds):
            self._round(f"default{i}")
        self.ctx.carry[self.name] = {
            "write": stats.median(self.write_rates), "read": stats.median(self.read_rates),
            "malloc_policy": pin_malloc_policy(),
        }

    def setup(self) -> None:
        self._start()
        for i in range(self.scale.warmup_rounds):
            self._round(f"warm{i}", timed=False)

    def teardown(self) -> None:
        for store in self.stores_.values():
            store.close()
        self.stores_.clear()
        for manager in self.managers.values():
            manager.stop_server()
        self.managers.clear()

    # -- the closed loop ---------------------------------------------------
    def _round(self, tag: str, timed: bool = True) -> None:
        rec = self.ctx.rec
        n = self.scale.keys
        cycle = [0.0] * n  # per key slot: its trip through every backend and size
        write_s = read_s = moved = 0.0
        for backend, store in self.stores_.items():
            for size, array in self.payloads.items():
                keys = [f"snap{size}-{i}" for i in range(n)]
                times = {"write": [], "poll": [], "read": []}
                value = None
                try:
                    for key in keys:
                        start = time.perf_counter()
                        with rec.span("stage_write", id=f"{tag}/{backend}/{key}"):
                            store.stage_write(key, array)
                        times["write"].append(time.perf_counter() - start)
                    for key in keys:
                        start = time.perf_counter()
                        with rec.span("poll_staged_data", id=f"{tag}/{backend}/{key}"):
                            present = store.poll_staged_data(key)
                        times["poll"].append(time.perf_counter() - start)
                        if not present:
                            self.tally.fail(f"{self.name}: {backend} does not see {key}")
                    for key in keys:
                        start = time.perf_counter()
                        with rec.span("stage_read", id=f"{tag}/{backend}/{key}"):
                            value = store.stage_read(key)
                        times["read"].append(time.perf_counter() - start)
                except ReproError as exc:
                    self.tally.fail(f"{self.name}: {backend} {size} MiB: {exc}")
                    continue
                finally:
                    self.tally.ops(3 * n)
                factor = self.lap()  # one speed segment per (backend, size)
                self.tally.check(
                    np.array_equal(value, array),
                    f"{self.name}: {backend} {size} MiB read back differs",
                )
                if not timed:
                    continue
                for op, taken in times.items():
                    times[op] = taken = [t / factor for t in taken]
                    self.calls.setdefault((backend, size, op), []).extend(taken)
                for i in range(n):
                    cycle[i] += times["write"][i] + times["poll"][i] + times["read"][i]
                write_s += sum(times["write"])
                read_s += sum(times["read"])
                moved += n * size
        if timed:
            self.op_latencies.add_settled(cycle)
            self.write_rates.append(moved / write_s)
            self.read_rates.append(moved / read_s)

    def round(self, index: int) -> None:
        self._round(f"r{index}")

    # -- reporting ---------------------------------------------------------
    def workload_metrics(self) -> dict:
        calls = sum(len(v) for (_b, _s, op), v in self.calls.items() if op == "write")
        per_round = self.scale.keys * len(BACKENDS) * len(self.scale.sizes_mib)
        default = self.ctx.carry[self.name]
        metrics = {}
        for op, rates in (("write", self.write_rates), ("read", self.read_rates)):
            metrics[f"{op}_mb_per_s"] = {
                "value": stats.median(rates), "unit": "MiB/s",
                "better": "higher", "samples": calls,
            }
            metrics[f"{op}_mb_per_s.default_malloc"] = {
                "value": default[op], "unit": "MiB/s", "better": "higher",
                "samples": per_round * self.scale.default_malloc_rounds, "gated": False,
            }
        return metrics

    def exact_counts(self) -> dict:
        return {"stage_calls_per_round":
                3 * self.scale.keys * len(BACKENDS) * len(self.scale.sizes_mib)}

    def stores(self) -> dict:
        return {"kvfile_store": str(self.kv_path.parent),
                "malloc_policy": self.ctx.carry[self.name]["malloc_policy"]}

    # -- per-layer ---------------------------------------------------------
    def _backend_rows(self) -> dict:
        """Per backend and size: MiB/s from the per-call times of every
        round of this run (ratio of sums), and the median poll."""
        rows = {}
        for backend, module in BACKENDS.items():
            polls = []
            for size in self.scale.sizes_mib:
                for op in ("write", "read"):
                    taken = self.calls[(backend, size, op)]
                    rows[f"transport.{module}.{op}_mb_per_s.{size}mib"] = (
                        len(taken) * size / sum(taken)
                    )
                polls += self.calls[(backend, size, "poll")]
            rows[f"transport.{module}.poll_us"] = 1e6 * stats.percentile(polls, 50)
        return rows

    def _frame_micros(self) -> dict:
        array = self.payloads[max(self.scale.sizes_mib)][: 8 * MIB // 8]
        blob = serialize(array)
        frame = resp.encode_command("SET", "snap8-0", blob)
        parser = resp.RespParser()

        def parse() -> None:
            parser.feed(frame)
            parser.pop()

        def mb_per_s(call) -> float:
            return 8.0 / stats.seconds_per_call(call, self.scale.bulk_repeats)

        return {
            "transport.serializer.dumps_mb_per_s": mb_per_s(lambda: serialize(array)),
            "transport.serializer.loads_mb_per_s": mb_per_s(lambda: deserialize(blob)),
            "transport.resp.encode_mb_per_s.bulk_8mib": mb_per_s(
                lambda: resp.encode_command("SET", "snap8-0", blob)),
            "transport.resp.parse_mb_per_s.bulk_8mib": mb_per_s(parse),
        }

    def _ping_micro(self) -> dict:
        address = self.managers["redis"].get_server_info()["addresses"][0]
        host, port = address.rsplit(":", 1)
        conn = MiniRedisConnection(host, int(port), timeout=10.0)
        try:
            taken = []
            for _ in range(self.scale.micro_n):
                start = time.perf_counter()
                conn.command("PING")
                taken.append(time.perf_counter() - start)
        finally:
            conn.close()
        return {"transport.server.ping_rtt_us": 1e6 * stats.percentile(taken, 50)}

    def layers(self, untraced_wall: float) -> dict:
        # Every traced call must also be in the per-call tables.
        spans = self.ctx.rec.spans
        self.tally.check(
            len(durations(spans, "stage_write"))
            == self.scale.traced_rounds * self.scale.keys * len(BACKENDS) * len(self.payloads),
            f"{self.name}: traced stage_write spans do not add up",
        )
        rows = self._backend_rows()
        rows.update(self._frame_micros())
        rows.update(self._ping_micro())
        rows.update(resp_small_micro(self.scale.micro_n * 10))
        return rows
