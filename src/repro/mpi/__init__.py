"""MPI-like layer: a real threaded communicator and its collectives."""

from repro.mpi.api import ANY_SOURCE, ANY_TAG, MAX, MIN, PROD, SUM, Communicator, ReduceOp
from repro.mpi.local import LocalComm, LocalWorld, run_parallel

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "LocalComm",
    "LocalWorld",
    "MAX",
    "MIN",
    "PROD",
    "ReduceOp",
    "run_parallel",
    "SUM",
]
