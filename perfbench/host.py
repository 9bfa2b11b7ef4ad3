"""Host state recorded beside every result: fingerprint, reference kernels, RSS.

Throughput on a shared 2-core host drifts by tens of percent within
minutes, so each run records what the host looked like: CPU count,
Python, numpy, the BLAS library and its thread count, and the time of a
fixed reference-kernel set measured just before the workload runs.  The
reference times are reported beside the metrics, never in place of them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np


def _blas_library() -> tuple[str, str]:
    """(name, version) of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("name", "?")), str(blas.get("version", "?"))
    except (KeyError, TypeError):  # numpy without build metadata
        return "?", "?"


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library (None: unknown)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> dict:
    name, version = _blas_library()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": _blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _median_ms(fn, repeats: int = 7) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def reference_kernels() -> dict[str, float]:
    """Median ms of three fixed kernels: BLAS, interpreter, memory-bound numpy."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    b = rng.standard_normal((384, 384))
    x = rng.standard_normal(1 << 20).astype(np.float32)
    y = rng.standard_normal(1 << 20).astype(np.float32)

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    return {
        "blas_matmul_384_ms": _median_ms(lambda: a @ b),
        "python_loop_200k_ms": _median_ms(python_loop),
        "numpy_axpy_1m_ms": _median_ms(lambda: x * 1.5 + y),
    }


def _status_kb(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        for child in text.split():
            found.append(int(child))
            found.extend(_descendants(int(child)))
    return found


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant (worker) process."""
    pid = os.getpid()
    total_kb = _status_kb(pid, "VmHWM")
    for child in _descendants(pid):
        total_kb += _status_kb(child, "VmHWM")
    return total_kb / 1024.0
