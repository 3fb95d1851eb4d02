"""DataStore: the uniform client facade over every backend.

Construct one from the server info a :class:`~repro.transport.server.
ServerManager` hands out::

    server = ServerManager("stage", config={"backend": "dragon", "n_shards": 2})
    server.start_server()
    store = DataStore("sim", server_info=server.get_server_info())
    store.stage_write("key1", array)
    value = store.stage_read("key1")

Selecting a different transport strategy is purely a matter of runtime
arguments — no mini-app code changes — which is the paper's central design
claim (§3.2).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import TransportError
from repro.telemetry.events import EventLog
from repro.telemetry.timer import Clock
from repro.transport.base import DataStoreClient
from repro.transport.dragon_backend import DragonStoreClient
from repro.transport.kvfile import FileStoreClient
from repro.transport.redis_backend import RedisStoreClient
from repro.transport.resilience import (
    ResilienceStats,
    chaos_client_from_config,
    resilient_client_from_config,
)


def make_client(
    server_info: Mapping[str, Any],
    name: str = "client",
    rank: int = 0,
    clock: Optional[Clock] = None,
    event_log: Optional[EventLog] = None,
) -> DataStoreClient:
    """Build the right backend client from server info.

    Two optional server_info keys layer behaviour on top of the backend
    client, innermost first:

    * ``chaos`` — a :func:`~repro.transport.resilience.
      chaos_client_from_config` dict injecting seeded per-op faults
      (drops, corruption, outages) for real-mode chaos experiments;
    * ``resilience`` — a :func:`~repro.transport.resilience.
      resilient_client_from_config` dict adding retry/backoff and a
      circuit breaker around every operation (its record of failed
      attempts is :attr:`DataStore.resilience`).

    Chaos sits under resilience so injected faults exercise the retry
    path rather than bypassing it.
    """
    try:
        backend = server_info["backend"]
    except KeyError:
        raise TransportError("server_info missing 'backend'") from None
    common = {"name": name, "rank": rank, "clock": clock, "event_log": event_log}
    if backend in ("node-local", "filesystem"):
        try:
            path = server_info["path"]
        except KeyError:
            raise TransportError(f"{backend} server_info missing 'path'") from None
        client: Any = FileStoreClient(
            root=path,
            n_shards=int(server_info.get("n_shards", 1)),
            backend_name=backend,
            **common,
        )
    elif backend in ("redis", "dragon"):
        addresses = server_info.get("addresses")
        if not addresses:
            raise TransportError(f"{backend} server_info missing 'addresses'")
        cls = RedisStoreClient if backend == "redis" else DragonStoreClient
        client = cls(addresses=list(addresses), **common)
    else:
        raise TransportError(f"unknown backend {backend!r} in server_info")
    chaos = server_info.get("chaos")
    if chaos:
        client = chaos_client_from_config(client, chaos, name=name, rank=rank)
    resilience = server_info.get("resilience")
    if resilience:
        client = resilient_client_from_config(client, resilience, name=name, rank=rank)
    return client


class DataStore:
    """Thin, stable wrapper exposing the paper's four primary functions."""

    def __init__(
        self,
        name: str,
        server_info: Mapping[str, Any],
        rank: int = 0,
        clock: Optional[Clock] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        self.name = name
        self.server_info = dict(server_info)
        self._client = make_client(
            server_info, name=name, rank=rank, clock=clock, event_log=event_log
        )

    @property
    def backend(self) -> str:
        """The deployed backend's name (node-local/filesystem/redis/dragon)."""
        return self._client.backend_name

    @property
    def stats(self):
        """Per-operation ClientStats (counts, bytes, seconds)."""
        return self._client.stats

    @property
    def event_log(self) -> Optional[EventLog]:
        return self._client.event_log

    @property
    def resilience(self) -> Optional[ResilienceStats]:
        """Failed attempts and recoveries, with a ``resilience`` server_info."""
        return getattr(self._client, "resilience", None)

    def stage_write(self, key: str, value: Any) -> float:
        """Stage a value under ``key``; returns serialized bytes written."""
        return self._client.stage_write(key, value)

    def stage_read(self, key: str) -> Any:
        """Read the value staged under ``key`` (raises if absent)."""
        return self._client.stage_read(key)

    def poll_staged_data(self, key: str) -> bool:
        """True when ``key`` is currently staged."""
        return self._client.poll_staged_data(key)

    def clean_staged_data(self, keys=None) -> int:
        """Remove staged keys (all when None); returns how many."""
        return self._client.clean_staged_data(keys)

    def close(self) -> None:
        """Release client connections/resources."""
        self._client.close()

    def __enter__(self) -> "DataStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
