"""Parallel execution of convolution engines over a pluggable backend.

Wraps any registered single-threaded :class:`repro.ops.engine.ConvEngine`
and executes its batch methods with image-level parallelism on a
:class:`repro.runtime.pool.WorkerPool` -- the executable counterpart of
the machine model's GEMM-in-Parallel scheduling.  Each attempt processes
a contiguous slice of the batch with an engine checked out of a
free-list, so mutable engine scratch is never shared between attempts
running at once -- not even when straggler reassignment makes a backup
attempt overlap its still-running original.

Memory behavior: the executor pre-allocates **one** output array per
call and workers write their ``[lo, hi)`` slice in place -- there is no
per-worker chunk list and no final ``np.concatenate``/``np.stack``.
Under the process backend the batch operands are published once into
shared-memory segments (:mod:`repro.runtime.shm`) that workers attach
zero-copy; segments are owned by a per-executor arena and *reused*
across calls while shapes are stable, then unlinked on ``close()`` (or
by the arena's finalizer -- never leaked, even when a task faults).

Weight gradients are accumulated per worker and reduced in the parent
in fixed range order, so results are bit-identical across the serial,
thread and process backends for a given worker count.

Under the process backend the executor also feeds the supervisor: each
dispatch proposes a *task deadline* derived from the machine model's
GEMM-in-Parallel cost estimate for that (phase, batch), so hang
detection is calibrated to the work actually shipped rather than a
wall-clock guess (see :mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.machine.gemm_model import gemm_in_parallel_conv_time
from repro.machine.spec import xeon_e5_2650
from repro.ops.engine import ConvEngine, make_engine
from repro.resilience.policy import RetryPolicy
from repro.runtime.backends import run_engine_slice
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import SharedArray, ShmArena
from repro.runtime.supervisor import derive_task_deadline


class ParallelExecutor:
    """Run a named engine's FP/BP over a batch on the pool's backend."""

    def __init__(self, engine_name: str, spec: ConvSpec,
                 pool: WorkerPool | None = None,
                 policy: RetryPolicy | None = None,
                 backend: str = "thread", **engine_kwargs: Any) -> None:
        self.spec = spec
        self.engine_name = engine_name
        self.pool = pool or WorkerPool(policy=policy, backend=backend)
        self._owns_pool = pool is None
        self._engine_kwargs = dict(engine_kwargs)
        self._arena = ShmArena()
        # Machine-model hang deadlines, cached per (method, batch).
        self._deadline_cache: dict[tuple[str, int], float] = {}
        # One engine per concurrent attempt: engines hold mutable scratch
        # (unfold workspace, GEMM out= panels, CT-CSR buffers) that must
        # never be shared between two attempts running at once.  A fixed
        # index->engine mapping is not enough under a RetryPolicy with
        # straggler reassignment -- a backup attempt for an index can run
        # concurrently with its still-running original -- so attempts
        # check an engine out of a free-list and check it back in, and
        # the list grows on demand when duplicates overlap.  Under the
        # process backend the engines live in the worker processes
        # instead (cached per construction key).
        self._engine_lock = threading.Lock()
        self._engines: list[ConvEngine] = []
        self._free_engines: list[ConvEngine] = []
        if self.pool.backend_name != "process":
            self._engines = [
                make_engine(engine_name, spec, **engine_kwargs)
                for _ in range(self.pool.num_workers)
            ]
            self._free_engines = list(self._engines)

    @property
    def name(self) -> str:
        """The wrapped engine's registry name (ConvEngine-compatible)."""
        return self.engine_name

    def release_workspace(self) -> None:
        """Unlink this executor's shared-memory segments now."""
        self._arena.release()

    def close(self) -> None:
        """Release segments; shut the pool down if this executor made it."""
        self.release_workspace()
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _checkout_engine(self) -> ConvEngine:
        """An engine no other in-flight attempt is using."""
        with self._engine_lock:
            if self._free_engines:
                return self._free_engines.pop()
        # All engines busy: an original attempt and its reassigned
        # duplicate overlap.  Engines are deterministic, so results do
        # not depend on which instance an attempt lands on.
        engine = make_engine(self.engine_name, self.spec,
                             **self._engine_kwargs)
        with self._engine_lock:
            self._engines.append(engine)
        return engine

    def _checkin_engine(self, engine: ConvEngine) -> None:
        with self._engine_lock:
            self._free_engines.append(engine)

    # -- shared-memory dispatch (process backend) -------------------------

    def _propose_deadline(self, backend: Any, method: str,
                          batch: int) -> None:
        """Calibrate the backend's hang deadline to this dispatch.

        The machine model prices the slice work; the supervisor's floor
        and safety multiple absorb model optimism.  A user-pinned
        deadline wins (``propose_task_deadline`` is then a no-op).
        """
        propose = getattr(backend, "propose_task_deadline", None)
        if propose is None:  # pragma: no cover - non-process backend
            return
        key = (method, batch)
        deadline = self._deadline_cache.get(key)
        if deadline is None:
            phase = "fp" if method == "forward" else "bp"
            try:
                modeled = gemm_in_parallel_conv_time(
                    self.spec, phase, batch, xeon_e5_2650(),
                    cores=max(1, self.pool.num_workers),
                )
            except ReproError:  # pragma: no cover - degenerate spec
                modeled = 0.0
            deadline = derive_task_deadline(modeled)
            self._deadline_cache[key] = deadline
        propose(deadline)

    def _publish(self, role: str, array: np.ndarray) -> SharedArray:
        """Copy ``array`` into the arena's reusable segment for ``role``."""
        seg = self._arena.ensure(role, array.shape, array.dtype)
        seg.ndarray[...] = array
        return seg

    def _shipped_thunks(
        self, method: str, primary: np.ndarray, shared: np.ndarray,
        out_shape: tuple[int, ...], out_dtype: np.dtype,
        ranges: list[tuple[int, int]], per_worker_out: bool,
    ) -> list[Callable[[], np.ndarray]]:
        """Thunks that run the engine slices inside worker processes."""
        backend = self.pool._require_backend()
        self._propose_deadline(backend, method, primary.shape[0])
        primary_seg = self._publish(f"{method}/primary", primary)
        shared_seg = self._publish(f"{method}/shared", shared)
        out_seg = self._arena.ensure(f"{method}/out", out_shape, out_dtype)
        kwargs_items = tuple(sorted(self._engine_kwargs.items()))
        out_view = out_seg.ndarray

        def make(index: int, lo: int, hi: int) -> Callable[[], np.ndarray]:
            slot = index if per_worker_out else None

            def thunk() -> np.ndarray:
                backend.call(
                    run_engine_slice, self.engine_name, self.spec,
                    kwargs_items, method, primary_seg.descriptor,
                    shared_seg.descriptor, out_seg.descriptor, lo, hi, slot,
                )
                # Return the freshly written region: the pool's
                # ``pool.result`` corrupt site applies to it, and the
                # caller copies it out of shared memory.
                return out_view[slot] if per_worker_out else out_view[lo:hi]

            return thunk

        return [make(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]

    # -- sliced execution -------------------------------------------------

    def _run_sliced(self, method: str, primary: np.ndarray,
                    shared: np.ndarray) -> np.ndarray:
        """Run ``method`` slice by slice into one preallocated output.

        Each slice's engine is checked out of the free-list at run time
        (never captured), so concurrent slices -- siblings or straggler
        duplicates -- never share mutable engine scratch.  Slices are
        idempotent (each writes only its own range), so retries are safe.
        """
        batch = primary.shape[0]
        if batch == 0:
            raise ReproError("empty batch")
        ranges = self.pool.assignment(batch)
        item_shape = (self.spec.output_shape if method == "forward"
                      else self.spec.input_shape)
        dtype = np.result_type(primary, shared)
        out = np.empty((batch,) + item_shape, dtype=dtype)

        if self.pool.backend_name == "process":
            thunks = self._shipped_thunks(
                method, primary, shared, out.shape, dtype, ranges,
                per_worker_out=False,
            )
        else:
            def make(lo: int, hi: int) -> Callable[[], np.ndarray]:
                def thunk() -> np.ndarray:
                    engine = self._checkout_engine()
                    try:
                        out[lo:hi] = getattr(engine, method)(
                            primary[lo:hi], shared
                        )
                    finally:
                        self._checkin_engine(engine)
                    return out[lo:hi]

                return thunk

            thunks = [make(lo, hi) for lo, hi in ranges]

        metas = [{"lo": lo, "hi": hi} for lo, hi in ranges]
        with telemetry.span(f"executor/{method}", engine=self.engine_name,
                            batch=batch, workers=len(ranges)):
            results = self.pool.run_tasks(thunks, metas)
        # Slices back from shared memory, and arrays the fault layer
        # replaced with corrupted copies, are copied in; thread-backend
        # results are views into ``out`` and are left alone.
        for (lo, hi), result in zip(ranges, results):
            if isinstance(result, np.ndarray) and result.base is not out:
                out[lo:hi] = result
        return out

    # -- batch API mirroring ConvEngine -----------------------------------

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Forward-propagate the batch across the workers."""
        return self._run_sliced("forward", inputs, weights)

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Back-propagate the error batch across the workers."""
        return self._run_sliced("backward_data", out_error, weights)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Per-worker dW partials, reduced into one gradient tensor."""
        batch = out_error.shape[0]
        if batch == 0:
            raise ReproError("empty batch")
        ranges = self.pool.assignment(batch)
        partial_shape = (len(ranges),) + self.spec.weight_shape
        dtype = out_error.dtype

        if self.pool.backend_name == "process":
            thunks = self._shipped_thunks(
                "backward_weights", out_error, inputs, partial_shape, dtype,
                ranges, per_worker_out=True,
            )
        else:
            def make(lo: int, hi: int) -> Callable[[], np.ndarray]:
                def thunk() -> np.ndarray:
                    engine = self._checkout_engine()
                    try:
                        return engine.backward_weights(
                            out_error[lo:hi], inputs[lo:hi]
                        )
                    finally:
                        self._checkin_engine(engine)

                return thunk

            thunks = [make(lo, hi) for lo, hi in ranges]

        metas = [{"lo": lo, "hi": hi} for lo, hi in ranges]
        with telemetry.span("executor/backward_weights",
                            engine=self.engine_name, batch=batch,
                            workers=len(ranges)):
            partials = self.pool.run_tasks(thunks, metas)
        # Fixed reduction order (range order) keeps the result identical
        # across backends and worker counts.
        total = np.zeros(self.spec.weight_shape, dtype=out_error.dtype)
        for partial in partials:
            if partial is not None:
                total += partial
        return total
