"""The barrier path's guarantees, pinned at the executor.

GEMM-in-Parallel (Sec. 4.1) runs each conv phase as one slice per worker
over a contiguous image range, joined once per layer and phase.  Its
race freedom and its bit-identity rest on a few properties of
:class:`repro.runtime.parallel.ParallelExecutor` and
:meth:`repro.runtime.pool.WorkerPool.assignment`, each pinned here:

* partition -- the ranges tile the batch in order, balanced;
* isolation -- a slice's engine sees only its own images (zero-copy
  views of the batch) and its result lands only in its own rows;
* reduction -- dW partials fold in range order, whatever order the
  slices finish in;
* supervision -- a fault injected into one slice is retried, or
  propagates, and a corrupted slice result reaches the output;
* telemetry -- one ``executor/<method>`` span per call and one
  ``pool/task`` span per slice, which is what idle attribution reads.
"""

import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.errors import InjectedFault
from repro.obs.idle import worker_idle_times
from repro.ops.engine import make_engine
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.policy import RetryPolicy
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from tests.conftest import random_conv_data

SPEC = ConvSpec(nc=2, ny=10, nx=10, nf=3, fy=3, fx=3)
BATCH = 7
METHODS = ["forward", "backward_data", "backward_weights"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return random_conv_data(SPEC, rng, batch=BATCH, error_sparsity=0.3)


def operands(method, data):
    """(primary, shared) exactly as the conv layer hands them over."""
    inputs, weights, err = data
    return {
        "forward": (inputs, weights),
        "backward_data": (err, weights),
        "backward_weights": (err, inputs),
    }[method]


def run(executor, method, data):
    return getattr(executor, method)(*operands(method, data))


class RecordingEngine:
    """Delegates to a real engine and logs every slice it is handed."""

    def __init__(self, log, lock):
        self.inner = make_engine("gemm-in-parallel", SPEC)
        self.log = log
        self.lock = lock

    def _call(self, method, primary, shared):
        result = getattr(self.inner, method)(primary, shared)
        with self.lock:
            self.log.append((method, primary, shared, np.array(result)))
        return result

    def forward(self, inputs, weights):
        return self._call("forward", inputs, weights)

    def backward_data(self, out_error, weights):
        return self._call("backward_data", out_error, weights)

    def backward_weights(self, out_error, inputs):
        return self._call("backward_weights", out_error, inputs)


def install(executor, engines):
    """Replace the executor's engine free-list with ``engines``."""
    executor._engines = list(engines)
    executor._free_engines = list(engines)


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("batch", [1, 3, 8, 16, 17])
class TestSlicePartition:
    def test_ranges_tile_the_batch_in_balanced_order(self, batch, workers):
        ranges = WorkerPool(workers).assignment(batch)
        assert len(ranges) == min(batch, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == batch
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, disjoint, in order
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("method", METHODS)
class TestSliceIsolation:
    def test_each_slice_sees_and_writes_only_its_range(
        self, method, backend, workers, data
    ):
        primary, shared = operands(method, data)
        log, lock = [], threading.Lock()
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(workers, backend=backend)
                              ) as executor:
            install(executor, [RecordingEngine(log, lock)
                               for _ in range(workers)])
            ranges = executor.pool.assignment(BATCH)
            got = getattr(executor, method)(primary, shared)

        assert len(log) == len(ranges)
        assert all(entry[0] == method for entry in log)
        partials = []
        for lo, hi in ranges:
            calls = [entry for entry in log
                     if np.array_equal(entry[1], primary[lo:hi])]
            assert len(calls) == 1, (lo, hi)
            _, seen_primary, seen_shared, result = calls[0]
            # Slices are zero-copy views of the caller's batch.
            assert np.shares_memory(seen_primary, primary)
            if method == "backward_weights":
                np.testing.assert_array_equal(seen_shared, shared[lo:hi])
                partials.append(result)
            else:
                assert seen_shared is shared
                np.testing.assert_array_equal(got[lo:hi], result)
        if method == "backward_weights":
            want = np.zeros(SPEC.weight_shape, dtype=primary.dtype)
            for partial in partials:
                want += partial
            np.testing.assert_array_equal(got, want)


class OrderSensitiveEngine:
    """dW partials whose float32 sum depends on the fold order.

    Slice ``k`` (identified by the image index stamped into its error
    rows) returns a constant tensor of ``VALUES[k]``.  Folded left to
    right from zero, ``1 + 1e8`` rounds to ``1e8`` in float32, so
    from three slices on the range-order sum differs from the reverse
    one.  Lower slices sleep longer, so on threads they finish last.
    """

    VALUES = [1.0, 1e8, -1e8, 2.0, 4.0]

    def __init__(self, delay=0.0):
        self.delay = delay

    def backward_weights(self, out_error, inputs):
        first = int(out_error[0].flat[0])
        index = next(i for i, (lo, _) in enumerate(self.ranges) if lo == first)
        time.sleep(self.delay * (len(self.ranges) - index))
        return np.full(SPEC.weight_shape, self.VALUES[index], np.float32)


def stamped_batch(batch):
    """An error batch whose image ``i`` is filled with ``i``."""
    err = np.empty((batch,) + SPEC.output_shape, np.float32)
    for i in range(batch):
        err[i] = i
    return err


class TestRangeOrderReduction:
    @staticmethod
    def reduce(workers, backend, delay=0.0):
        batch = 2 * workers
        err = stamped_batch(batch)
        inputs = np.zeros((batch,) + SPEC.input_shape, np.float32)
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(workers, backend=backend)
                              ) as executor:
            engines = [OrderSensitiveEngine(delay) for _ in range(workers)]
            for engine in engines:
                engine.ranges = executor.pool.assignment(batch)
            install(executor, engines)
            return executor.backward_weights(err, inputs)

    @staticmethod
    def left_fold(values):
        total = np.float32(0.0)
        for value in values:
            total = np.float32(total + np.float32(value))
        return total

    @pytest.mark.parametrize("workers", [3, 4, 5])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_partials_fold_in_range_order(self, backend, workers):
        values = OrderSensitiveEngine.VALUES[:workers]
        assert self.left_fold(values) != self.left_fold(values[::-1])
        got = self.reduce(workers, backend)
        assert np.all(got == self.left_fold(values))

    def test_fold_ignores_completion_order(self):
        # The first slice finishes last; the fold must not follow
        # completion order.
        got = self.reduce(4, "thread", delay=0.02)
        assert np.all(got == self.left_fold(OrderSensitiveEngine.VALUES[:4]))


@pytest.fixture(scope="module")
def clean(data):
    """Fault-free outputs of a 2-worker executor, per method."""
    with ParallelExecutor("gemm-in-parallel", SPEC,
                          pool=WorkerPool(2)) as executor:
        return {method: run(executor, method, data) for method in METHODS}


def crash_plan(**spec):
    return FaultPlan("t", specs=(
        FaultSpec(site="pool.task", kind="raise", **spec),
    ))


@pytest.mark.parametrize("method", METHODS)
class TestBarrierSupervision:
    def test_crashed_slice_is_retried_to_the_same_bits(
        self, method, data, clean
    ):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2, policy=policy)
                              ) as executor:
            with telemetry.collect() as tel, inject(crash_plan(at=(1,))):
                got = run(executor, method, data)
        np.testing.assert_array_equal(got, clean[method])
        assert tel.counters["pool.retries"] == 1

    def test_without_policy_the_crash_propagates(self, method, data):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            with inject(crash_plan(at=(1,))), pytest.raises(InjectedFault):
                run(executor, method, data)

    def test_exhausted_retry_budget_reraises(self, method, data):
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2, policy=policy)
                              ) as executor:
            with inject(crash_plan(rate=1.0)), pytest.raises(InjectedFault):
                run(executor, method, data)

    def test_corrupted_slice_result_reaches_the_output(
        self, method, data, clean
    ):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.result", kind="corrupt", at=(1,),
                      fraction=1.0),
        ))
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2, backend="serial")
                              ) as executor:
            ranges = executor.pool.assignment(BATCH)
            with inject(plan):
                got = run(executor, method, data)
        if method == "backward_weights":
            assert np.isnan(got).all()
        else:
            # Serial runs slices in range order: the first one is hit.
            lo, hi = ranges[0]
            assert np.isnan(got[lo:hi]).all()
            np.testing.assert_array_equal(got[hi:], clean[method][hi:])


class TestBarrierTelemetry:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_executor_span_and_one_task_span_per_slice(
        self, method, workers, data
    ):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(workers)) as executor:
            ranges = executor.pool.assignment(BATCH)
            with telemetry.collect() as tel:
                run(executor, method, data)
        (outer,) = [s for s in tel.spans if s.name == f"executor/{method}"]
        assert outer.attrs["engine"] == "gemm-in-parallel"
        assert outer.attrs["batch"] == BATCH
        assert outer.attrs["workers"] == len(ranges)
        tasks = [s for s in tel.spans if s.name == "pool/task"]
        assert sorted((s.attrs["lo"], s.attrs["hi"]) for s in tasks) == ranges
        for task in tasks:
            assert outer.start <= task.start <= task.end <= outer.end

    def test_serial_backend_idle_is_attributed_to_the_caller(self, data):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(3, backend="serial")
                              ) as executor:
            with telemetry.collect() as tel:
                for method in METHODS:
                    run(executor, method, data)
        idle = worker_idle_times(tel)
        assert list(idle) == [threading.get_ident()]
        assert idle[threading.get_ident()] >= 0.0

    def test_thread_backend_idle_is_per_worker_thread(self, data):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(3)) as executor:
            with telemetry.collect() as tel:
                for method in METHODS:
                    run(executor, method, data)
        idle = worker_idle_times(tel)
        task_threads = {s.thread_id for s in tel.spans
                        if s.name == "pool/task"}
        assert set(idle) == task_threads
        assert 1 <= len(idle) <= 3
        assert threading.get_ident() not in idle
        assert all(seconds >= 0.0 for seconds in idle.values())
