"""Parallel execution of the spg-CNN engines over pluggable backends."""

from repro.runtime.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool, default_worker_count
from repro.runtime.shm import SharedArray, ShmArena, ShmDescriptor, owned_segments

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ParallelExecutor",
    "ProcessBackend",
    "SerialBackend",
    "SharedArray",
    "ShmArena",
    "ShmDescriptor",
    "ThreadBackend",
    "WorkerPool",
    "default_worker_count",
    "make_backend",
    "owned_segments",
]
