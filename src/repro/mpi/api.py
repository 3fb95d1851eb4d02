"""MPI-like communicator interface.

mpi4py is not available in this environment, so the package ships its own
minimal MPI abstraction. The surface mirrors the lowercase (pickle-object)
mpi4py API that SimAI-Bench's kernels need: point-to-point ``send``/
``recv``, the collectives used by the Kernels module (``allreduce``,
``allgather``), the support collectives those are built from, and
``barrier``.

The implementation is :class:`repro.mpi.local.LocalComm`: real message
passing between threads in one process (used by real-mode mini-apps and
the test suite).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.errors import MPIError

ANY_SOURCE = -1
ANY_TAG = -1


class ReduceOp:
    """A named associative reduction usable on scalars and numpy arrays."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]) -> None:
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


def _elementwise(np_fn, py_fn):
    def apply(a: Any, b: Any) -> Any:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np_fn(a, b)
        return py_fn(a, b)

    return apply


SUM = ReduceOp("sum", _elementwise(np.add, lambda a, b: a + b))
PROD = ReduceOp("prod", _elementwise(np.multiply, lambda a, b: a * b))
MIN = ReduceOp("min", _elementwise(np.minimum, min))
MAX = ReduceOp("max", _elementwise(np.maximum, max))


class Communicator:
    """Abstract communicator: a group of ``size`` ranks."""

    @property
    def rank(self) -> int:
        """This process's rank in [0, size)."""
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        raise NotImplementedError

    # -- point to point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager-send ``obj`` to rank ``dest`` (never blocks)."""
        raise NotImplementedError

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Block until a message matching (source, tag) arrives."""
        raise NotImplementedError

    # -- collectives (default implementations in repro.mpi.collectives) ----
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        raise NotImplementedError

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Return root's ``obj`` on every rank."""
        raise NotImplementedError

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        """Collect every rank's ``obj`` on root (None elsewhere)."""
        raise NotImplementedError

    def scatter(self, objs: Optional[list[Any]], root: int = 0) -> Any:
        """Distribute root's list, one item per rank."""
        raise NotImplementedError

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce with ``op`` onto root (None elsewhere)."""
        raise NotImplementedError

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Reduce with ``op``; every rank receives the result."""
        raise NotImplementedError

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives [rank0's obj, rank1's obj, ...]."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------
    def _check_rank(self, rank: int, what: str = "rank") -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"{what} {rank} out of range [0, {self.size})")
