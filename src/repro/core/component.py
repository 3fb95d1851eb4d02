"""Base class for workflow components (Simulation, AI).

Owns the pieces every component shares: a DataStore client built from
``server_info``, an event log, a pacing clock, and the stage_* passthrough
API the paper shows on both classes (Listing 1).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Optional

from repro.errors import WorkflowError
from repro.mpi.api import Communicator
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.timer import Clock, RealClock
from repro.transport.datastore import DataStore


class Component:
    """A named workflow actor with data-staging access."""

    kind = "component"

    def __init__(
        self,
        name: str,
        server_info: Optional[Mapping[str, Any]] = None,
        comm: Optional[Communicator] = None,
        clock: Optional[Clock] = None,
        event_log: Optional[EventLog] = None,
        workdir: Optional[str | Path] = None,
    ) -> None:
        if not name:
            raise WorkflowError("components need a non-empty name")
        self.name = name
        self.comm = comm
        self.clock = clock or RealClock()
        self.event_log = event_log if event_log is not None else EventLog()
        self.workdir = Path(workdir) if workdir is not None else None
        self._datastore: Optional[DataStore] = None
        if server_info is not None:
            self._datastore = DataStore(
                name=name,
                server_info=server_info,
                rank=self.rank,
                clock=self.clock,
                event_log=self.event_log,
            )

    @property
    def rank(self) -> int:
        return self.comm.rank if self.comm is not None else 0

    @property
    def nranks(self) -> int:
        return self.comm.size if self.comm is not None else 1

    @property
    def datastore(self) -> DataStore:
        if self._datastore is None:
            raise WorkflowError(
                f"component {self.name!r} has no DataStore (no server_info given)"
            )
        return self._datastore

    @property
    def has_datastore(self) -> bool:
        return self._datastore is not None

    # -- staging API (paper Listing 1) -----------------------------------------
    def stage_write(self, key: str, value: Any) -> float:
        return self.datastore.stage_write(key, value)

    def stage_read(self, key: str) -> Any:
        return self.datastore.stage_read(key)

    def poll_staged_data(self, key: str) -> bool:
        return self.datastore.poll_staged_data(key)

    def clean_staged_data(self, keys=None) -> int:
        return self.datastore.clean_staged_data(keys)

    # -- telemetry helpers --------------------------------------------------------
    def record_init(self, start: float, duration: float) -> None:
        self.event_log.add(
            component=self.name,
            kind=EventKind.INIT,
            start=start,
            duration=duration,
            rank=self.rank,
        )

    def close(self) -> None:
        if self._datastore is not None:
            self._datastore.close()

    def __enter__(self) -> "Component":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
