"""Structured logging: one JSONL record per operational event.

The tracer answers "where did the time go"; these logs answer "what did
the fleet *do*, in what order, on which worker". Every record is one
JSON object per line::

    {"ts": 1754500000.123456, "level": "info",
     "component": "sweep.worker", "event": "point.done",
     "index": 7, "worker": "host:4242:0"}

Components obtain a :class:`ComponentLogger` via :func:`get_logger` and
emit with ``log.event("point.done", index=7, worker=w)``. Everything
rides on the stdlib :mod:`logging` hierarchy under the ``repro.*``
namespace, so the layer is **inert by default**: without
:func:`configure_logging` no handler is attached (a ``NullHandler``
swallows the records) and the per-call cost is one ``isEnabledFor``
check — observability must observe, never perturb.

``configure_logging(path=..., level=...)`` backs the CLI's
``--log-json PATH`` / ``--log-level LEVEL`` flags: it attaches a
:class:`JsonLineFormatter` handler writing JSONL to a file (or any
stream) and returns the handler so tests and multi-stage runs can
detach it again.
"""

from __future__ import annotations

import io
import json
import logging
import os
import socket
import sys
from typing import Any, Optional

from repro.errors import ReproError

#: Root of the structured-logging namespace in the stdlib hierarchy.
ROOT_LOGGER = "repro"

#: Accepted ``--log-level`` names -> stdlib levels.
LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

# Without any configured handler the stdlib "lastResort" handler would
# print WARNING+ records to stderr, perturbing output that regression
# tests diff byte-for-byte. A NullHandler on the namespace root keeps
# unconfigured logging perfectly silent while still propagating to any
# root handlers an embedding application installs.
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class JsonLineFormatter(logging.Formatter):
    """Formats one record as one compact JSON object (no newline)."""

    def format(self, record: logging.LogRecord) -> str:
        name = record.name
        if name.startswith(ROOT_LOGGER + "."):
            name = name[len(ROOT_LOGGER) + 1 :]
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "component": name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(str(key), _json_safe(value))
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


class ComponentLogger:
    """Thin wrapper: ``event(name, **fields)`` -> one structured record.

    ``fields`` must be JSON-able (non-JSON values are ``repr()``-ed at
    format time, and only if a handler is actually listening).
    """

    __slots__ = ("component", "_logger")

    def __init__(self, component: str) -> None:
        self.component = component
        self._logger = logging.getLogger(f"{ROOT_LOGGER}.{component}")

    @property
    def enabled(self) -> bool:
        """Whether anything would actually record an info-level event."""
        return self._logger.isEnabledFor(logging.INFO)

    def event(self, event: str, *, level: int = logging.INFO, **fields: Any) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields: Any) -> None:
        self.event(event, level=logging.DEBUG, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.event(event, level=logging.INFO, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.event(event, level=logging.WARNING, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.event(event, level=logging.ERROR, **fields)


def get_logger(component: str) -> ComponentLogger:
    """The structured logger for one component (e.g. ``sweep.worker``)."""
    if not component:
        raise ReproError("component name must be non-empty")
    return ComponentLogger(component)


def resolve_level(level: int | str) -> int:
    """``"info"``/``"INFO"``/``logging.INFO`` -> a stdlib level int."""
    if isinstance(level, int):
        return level
    name = str(level).lower()
    if name not in LEVELS:
        raise ReproError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        )
    return LEVELS[name]


def configure_logging(
    path: Optional[str | os.PathLike] = None,
    level: int | str = "info",
    stream: Optional[io.TextIOBase] = None,
) -> logging.Handler:
    """Attach a JSONL handler to the ``repro`` namespace; returns it.

    Exactly one of ``path`` (append-mode file, the ``--log-json`` case)
    or ``stream`` may be given; with neither, records go to stderr.
    Detach with :func:`remove_handler` (multi-stage runs, tests).
    """
    if path is not None and stream is not None:
        raise ReproError("configure_logging takes a path or a stream, not both")
    if path is not None:
        handler: logging.Handler = logging.FileHandler(
            os.fspath(path), mode="a", encoding="utf-8"
        )
    else:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter())
    resolved = resolve_level(level)
    handler.setLevel(resolved)
    root = logging.getLogger(ROOT_LOGGER)
    root.addHandler(handler)
    # The namespace level gates isEnabledFor(): keep it at the most
    # verbose attached handler so cheap early-outs stay correct.
    current = root.level or logging.WARNING
    if root.level == logging.NOTSET or resolved < current:
        root.setLevel(resolved)
    return handler


def remove_handler(handler: logging.Handler) -> None:
    """Detach (and close) a handler from :func:`configure_logging`."""
    logging.getLogger(ROOT_LOGGER).removeHandler(handler)
    handler.close()


def host_identity() -> str:
    """``hostname:pid`` of this process — the fleet-trace track name."""
    return f"{socket.gethostname()}:{os.getpid()}"


__all__ = [
    "ComponentLogger",
    "JsonLineFormatter",
    "LEVELS",
    "configure_logging",
    "get_logger",
    "host_identity",
    "remove_handler",
    "resolve_level",
]
