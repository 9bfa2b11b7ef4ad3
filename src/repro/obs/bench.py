"""The benchmark regression harness behind ``python -m repro bench``.

A curated suite of microbenchmarks covers every hot path a performance
PR can regress: the blocked GEMM, the unfold transform, stencil kernel
execution, CT-CSR construction, the pointer-shifted sparse BP kernels,
the parallel runtime's map, and one end-to-end training epoch.  Each
benchmark is timed as the *median of repeats* (wall-clock), with a
derived MFLOP/s figure, and written as a schema-versioned
``BENCH_<name>.json``.

Regressions are detected by comparison against a committed baseline
(``benchmarks/baseline.json``): a benchmark regresses when its median
exceeds the baseline median by more than its per-benchmark noise
threshold.  ``python -m repro bench`` exits non-zero on regression, so
the comparison can gate CI (soft-fail there: hosted runners are noisy;
the committed baseline is authoritative on the machine that recorded
it -- see EXPERIMENTS.md for the refresh procedure).

The ``slowdown`` hook multiplies a benchmark's measured time and exists
so tests (and CI dry-runs) can prove the gate trips without depending on
real machine speed.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.reporting import format_table
from repro.errors import ReproError

#: Bump when the BENCH_*.json / baseline.json layout changes shape.
SCHEMA_VERSION = 1

#: Default allowed fractional slowdown before a benchmark counts as a
#: regression.  Generous: these are wall-clock medians on shared machines.
DEFAULT_THRESHOLD = 0.5

#: Default location of the committed baseline.
DEFAULT_BASELINE = Path("benchmarks/baseline.json")


@dataclass(frozen=True)
class Benchmark:
    """One microbenchmark: named setup/run callables plus flop count."""

    name: str
    description: str
    flops: float
    setup: Callable[[], Any]
    run: Callable[[Any], Any]
    teardown: Callable[[Any], None] | None = None
    #: Allowed fractional slowdown vs. baseline before it regresses.
    threshold: float = DEFAULT_THRESHOLD
    #: True when the benchmark's cost depends on the execution backend;
    #: backend-free benchmarks record ``backend="any"`` and stay
    #: comparable across backend-matrixed CI runs.
    backend_sensitive: bool = False


@dataclass
class BenchResult:
    """Median-of-repeats timing of one benchmark."""

    name: str
    description: str
    repeats: int
    seconds: float
    all_seconds: list[float]
    flops: float
    threshold: float
    #: Execution backend the parallel benchmarks ran on.
    backend: str = "thread"
    #: CPUs of the recording machine (wall-clock context for readers).
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    @property
    def mflops(self) -> float:
        """Derived MFLOP/s at the median time."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e6

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "repeats": self.repeats,
            "seconds": self.seconds,
            "all_seconds": list(self.all_seconds),
            "flops": self.flops,
            "mflops": self.mflops,
            "threshold": self.threshold,
            "backend": self.backend,
            "cpu_count": self.cpu_count,
        }


# -- the curated suite -----------------------------------------------------


def _gemm_setup():
    from repro.blas.gemm import BlockingParams

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192)).astype(np.float32)
    b = rng.standard_normal((192, 192)).astype(np.float32)
    return a, b, BlockingParams(mc=64, kc=64, nc=192)


def _gemm_run(state) -> None:
    from repro.blas.gemm import gemm

    a, b, blocking = state
    gemm(a, b, blocking=blocking)


def _conv_spec(name: str, ny: int = 16, nc: int = 8, nf: int = 8,
               f: int = 3):
    from repro.core.convspec import ConvSpec

    return ConvSpec(nc=nc, ny=ny, nx=ny, nf=nf, fy=f, fx=f, name=name)


def _unfold_setup():
    spec = _conv_spec("bench-unfold", ny=32, nc=16, nf=16, f=4)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((4, *spec.input_shape)).astype(np.float32)
    return spec, images


def _unfold_run(state) -> None:
    from repro.ops.unfold import unfold

    spec, images = state
    for image in images:
        unfold(spec, image)


def _stencil_setup():
    from repro.ops.engine import make_engine

    spec = _conv_spec("bench-stencil")
    engine = make_engine("stencil", spec, num_cores=1)
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((4, *spec.input_shape)).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    return engine, inputs, weights


def _stencil_run(state) -> None:
    engine, inputs, weights = state
    engine.forward(inputs, weights)


def _ctcsr_setup():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((256, 64)).astype(np.float32)
    dense[rng.random(dense.shape) < 0.9] = 0.0
    return dense


def _ctcsr_run(dense) -> None:
    from repro.sparse.ctcsr import ctcsr_from_dense

    ctcsr_from_dense(dense)


def _sparse_bp_setup():
    from repro.ops.layout import weights_to_sparse_layout
    from repro.sparse.kernels import compress_error

    spec = _conv_spec("bench-sparse")
    rng = np.random.default_rng(0)
    out_error = rng.standard_normal(spec.output_shape).astype(np.float32)
    out_error[rng.random(out_error.shape) < 0.9] = 0.0
    eo = compress_error(spec, out_error)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    w_layout = weights_to_sparse_layout(spec, weights)
    return spec, eo, w_layout


def _sparse_bp_run(state) -> None:
    from repro.sparse.kernels import sparse_backward_data

    spec, eo, w_layout = state
    buffer = np.zeros((spec.padded_ny, spec.padded_nx, spec.nc),
                      dtype=np.float32)
    sparse_backward_data(spec, eo, w_layout, buffer)


def _pool_slice_square_sum(descriptor, lo: int, hi: int) -> float:
    """Sum of squares of rows ``[lo, hi)`` of a shared-memory matrix.

    Module-level (and shipping the data by descriptor) so the identical
    task runs on every backend, the process one included.
    """
    from repro.runtime.shm import SharedArray

    seg = SharedArray.attach(descriptor)
    try:
        return float(np.square(seg.ndarray[lo:hi]).sum())
    finally:
        seg.close()


def _pool_setup(backend: str = "thread"):
    from repro.runtime.pool import WorkerPool
    from repro.runtime.shm import SharedArray

    rng = np.random.default_rng(0)
    data = rng.standard_normal((64, 4096)).astype(np.float32)
    return WorkerPool(2, backend=backend), SharedArray.from_array(data)


def _pool_run(state) -> None:
    pool, seg = state
    task = functools.partial(_pool_slice_square_sum, seg.descriptor)
    pool.map_batches(task, seg.shape[0])


def _pool_teardown(state) -> None:
    pool, seg = state
    pool.shutdown()
    seg.unlink()


def _executor_setup(engine: str, backend: str, batch: int = 8):
    from repro.runtime.parallel import ParallelExecutor
    from repro.runtime.pool import WorkerPool

    # Engine modules register on import.
    import repro.nn.layers.conv  # noqa: F401

    spec = _conv_spec(f"bench-par-{engine}")
    executor = ParallelExecutor(
        engine, spec, pool=WorkerPool(2, backend=backend)
    )
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((batch, *spec.input_shape)).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    out_error = rng.standard_normal(
        (batch, *spec.output_shape)
    ).astype(np.float32)
    out_error[rng.random(out_error.shape) < 0.9] = 0.0
    return executor, inputs, weights, out_error


def _par_stencil_run(state) -> None:
    executor, inputs, weights, _ = state
    executor.forward(inputs, weights)


def _par_sparse_run(state) -> None:
    executor, _, weights, out_error = state
    executor.backward_data(out_error, weights)


def _executor_teardown(state) -> None:
    executor = state[0]
    executor.close()
    executor.pool.shutdown()


def _train_setup(backend: str = "thread"):
    from repro.data.synthetic import mnist_like
    from repro.nn.zoo import mnist_net

    network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend=backend)
    data = mnist_like(16, seed=0)
    return network, data


def _train_run(state) -> None:
    from repro.nn.training_loop import TrainingLoop

    network, data = state
    loop = TrainingLoop(network, data, batch_size=8, preflight=False)
    loop.run(1)


def _train_teardown(state) -> None:
    network, _ = state
    for layer in network.conv_layers():
        layer.close()


def _sched_spec():
    return _conv_spec("bench-sched", ny=8, nc=4, nf=4)


def _schedule_search_run(spec) -> None:
    from repro.nn.schedule import ScheduleSearch

    # A fresh searcher each run: this times the *cold* search (candidate
    # enumeration + roofline pricing + verifier gate), not the cache.
    ScheduleSearch(seed=0).search_layer(spec)


def _train_flops() -> float:
    # FP + BP-data + BP-weights over every conv layer, one 16-image epoch.
    from repro.nn.zoo import mnist_net

    network = mnist_net(scale=0.25, rng=np.random.default_rng(0))
    per_image = sum(
        layer.padded_spec.flops for layer in network.conv_layers()
    )
    return 3.0 * 16 * per_image


def default_suite(backend: str = "thread") -> tuple[Benchmark, ...]:
    """The curated suite, in run order.

    ``backend`` selects the execution backend of the parallel-runtime
    benchmarks (``pool_map``, ``par_stencil_fp``, ``par_sparse_bp``,
    ``train_epoch``); the single-threaded kernels are backend-free.
    """
    from repro.runtime.backends import validate_backend

    validate_backend(backend)
    spec_stencil = _conv_spec("bench-stencil")
    spec_sparse = _conv_spec("bench-sparse")
    from repro.sparse.ctcsr import build_cost_elems
    from repro.sparse.kernels import sparse_bp_useful_flops

    return (
        Benchmark(
            name="gemm_blocked",
            description="cache-blocked GEMM, 192^3",
            flops=2.0 * 192 ** 3,
            setup=_gemm_setup,
            run=_gemm_run,
        ),
        Benchmark(
            name="unfold",
            description="unfold transform, 4 images 16c 32x32 f4",
            flops=4.0 * _conv_spec("u", ny=32, nc=16, nf=16, f=4).flops / 2,
            setup=_unfold_setup,
            run=_unfold_run,
        ),
        Benchmark(
            name="stencil_fp",
            description="stencil kernel forward, 4 images",
            flops=4.0 * spec_stencil.flops,
            setup=_stencil_setup,
            run=_stencil_run,
        ),
        Benchmark(
            name="schedule_search",
            description="cold loop-IR schedule search, fp+bp families",
            flops=0.0,
            setup=_sched_spec,
            run=_schedule_search_run,
        ),
        Benchmark(
            name="ctcsr_build",
            description="CT-CSR build, 256x64 at 90% sparsity",
            flops=float(build_cost_elems((256, 64), 256 * 64 // 10)),
            setup=_ctcsr_setup,
            run=_ctcsr_run,
        ),
        Benchmark(
            name="sparse_bp",
            description="pointer-shifted sparse backward-data",
            flops=float(
                sparse_bp_useful_flops(
                    spec_sparse,
                    spec_sparse.out_ny * spec_sparse.out_nx
                    * spec_sparse.nf // 10,
                )
            ),
            setup=_sparse_bp_setup,
            run=_sparse_bp_run,
        ),
        Benchmark(
            name="pool_map",
            description="worker-pool map over 64 shared-memory tasks",
            flops=2.0 * 64 * 4096,
            setup=functools.partial(_pool_setup, backend),
            run=_pool_run,
            teardown=_pool_teardown,
            backend_sensitive=True,
        ),
        Benchmark(
            name="par_stencil_fp",
            description="parallel executor, stencil FP over 8 images",
            flops=8.0 * spec_stencil.flops,
            setup=functools.partial(_executor_setup, "stencil", backend),
            run=_par_stencil_run,
            teardown=_executor_teardown,
            backend_sensitive=True,
        ),
        Benchmark(
            name="par_sparse_bp",
            description="parallel executor, sparse BP over 8 images",
            flops=8.0 * spec_sparse.flops,
            setup=functools.partial(_executor_setup, "sparse", backend),
            run=_par_sparse_run,
            teardown=_executor_teardown,
            backend_sensitive=True,
        ),
        Benchmark(
            name="train_epoch",
            description="end-to-end training epoch, quarter-scale MNIST, "
                        "2 workers per conv layer",
            flops=_train_flops(),
            setup=functools.partial(_train_setup, backend),
            run=_train_run,
            teardown=_train_teardown,
            backend_sensitive=True,
        ),
    )


def suite_names() -> tuple[str, ...]:
    return tuple(bench.name for bench in default_suite())


# -- running ---------------------------------------------------------------


def run_benchmark(bench: Benchmark, repeats: int = 3,
                  slowdown: float = 1.0,
                  backend: str = "thread") -> BenchResult:
    """Time one benchmark: median wall-clock over ``repeats`` runs.

    ``slowdown`` scales the measured times (test hook; 1.0 in real use).
    ``backend`` is recorded on the result (the suite builder already
    baked it into the benchmark's setup).
    """
    if repeats <= 0:
        raise ReproError(f"repeats must be positive, got {repeats}")
    if slowdown <= 0:
        raise ReproError(f"slowdown must be positive, got {slowdown}")
    state = bench.setup()
    try:
        bench.run(state)  # warm-up: JIT-free but caches/codegen warm
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            bench.run(state)
            times.append((time.perf_counter() - start) * slowdown)
    finally:
        if bench.teardown is not None:
            bench.teardown(state)
    return BenchResult(
        name=bench.name,
        description=bench.description,
        repeats=repeats,
        seconds=float(np.median(times)),
        all_seconds=times,
        flops=bench.flops,
        threshold=bench.threshold,
        backend=backend,
    )


def run_suite(
    names: tuple[str, ...] | None = None,
    repeats: int = 3,
    slowdown: Mapping[str, float] | None = None,
    backend: str = "thread",
) -> list[BenchResult]:
    """Run the selected benchmarks (all by default), in suite order."""
    suite = default_suite(backend)
    known = {bench.name for bench in suite}
    if names:
        unknown = set(names) - known
        if unknown:
            raise ReproError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        suite = tuple(bench for bench in suite if bench.name in names)
    slowdown = dict(slowdown or {})
    unknown = set(slowdown) - known
    if unknown:
        raise ReproError(
            f"slowdown names {sorted(unknown)} not in suite {sorted(known)}"
        )
    return [
        run_benchmark(
            bench, repeats=repeats,
            slowdown=slowdown.get(bench.name, 1.0),
            backend=backend if bench.backend_sensitive else "any",
        )
        for bench in suite
    ]


# -- persistence -----------------------------------------------------------


def write_results(results: list[BenchResult],
                  out_dir: str | Path) -> list[Path]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for result in results:
        path = out_dir / f"BENCH_{result.name}.json"
        path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        paths.append(path)
    return paths


def baseline_dict(results: list[BenchResult]) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmarks": {
            result.name: {
                "seconds": result.seconds,
                "mflops": result.mflops,
                "repeats": result.repeats,
                "threshold": result.threshold,
                "backend": result.backend,
            }
            for result in results
        },
    }


def write_baseline(results: list[BenchResult], path: str | Path) -> Path:
    """Record the results as the new baseline file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline_dict(results), indent=2) + "\n")
    return path


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a baseline file."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReproError(
            f"baseline {path} has schema_version {version!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("benchmarks"), dict):
        raise ReproError(f"baseline {path} has no 'benchmarks' mapping")
    return payload


# -- comparison ------------------------------------------------------------


@dataclass
class Comparison:
    """One benchmark's result measured against the baseline."""

    name: str
    seconds: float
    baseline_seconds: float | None
    threshold: float

    @property
    def ratio(self) -> float | None:
        if self.baseline_seconds is None or self.baseline_seconds <= 0:
            return None
        return self.seconds / self.baseline_seconds

    @property
    def regressed(self) -> bool:
        ratio = self.ratio
        return ratio is not None and ratio > 1.0 + self.threshold

    @property
    def status(self) -> str:
        if self.baseline_seconds is None:
            return "new"
        return "REGRESSED" if self.regressed else "ok"


@dataclass
class ComparisonReport:
    """All per-benchmark comparisons of one bench run."""

    comparisons: list[Comparison] = field(default_factory=list)
    baseline_path: str = ""

    @property
    def regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def table(self, title: str = "bench vs. baseline") -> str:
        rows = [
            [
                c.name,
                f"{c.seconds * 1e3:.3f}",
                f"{c.baseline_seconds * 1e3:.3f}"
                if c.baseline_seconds is not None else "-",
                f"{c.ratio:.2f}" if c.ratio is not None else "-",
                f"{1.0 + c.threshold:.2f}",
                c.status,
            ]
            for c in self.comparisons
        ]
        return format_table(
            ["benchmark", "ms", "baseline ms", "ratio", "limit", "status"],
            rows, title=title,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "baseline": self.baseline_path,
            "ok": self.ok,
            "comparisons": [
                {
                    "name": c.name,
                    "seconds": c.seconds,
                    "baseline_seconds": c.baseline_seconds,
                    "ratio": c.ratio,
                    "threshold": c.threshold,
                    "status": c.status,
                }
                for c in self.comparisons
            ],
        }


def compare_to_baseline(results: list[BenchResult],
                        baseline: dict[str, Any],
                        baseline_path: str = "") -> ComparisonReport:
    """Compare results against a loaded baseline payload.

    Benchmarks absent from the baseline count as ``new`` (never a
    regression); the per-benchmark threshold is the larger of the
    suite's and the baseline's, so a recorded baseline can widen a noisy
    benchmark's band without a code change.  A baseline entry recorded
    on a *different execution backend* is not comparable (process and
    thread runs have different cost structures) and also counts as
    ``new``.
    """
    recorded = baseline["benchmarks"]
    report = ComparisonReport(baseline_path=baseline_path)
    for result in results:
        entry = recorded.get(result.name)
        if entry and entry.get("backend", result.backend) != result.backend:
            entry = None
        baseline_seconds = entry.get("seconds") if entry else None
        threshold = result.threshold
        if entry and "threshold" in entry:
            threshold = max(threshold, float(entry["threshold"]))
        report.comparisons.append(Comparison(
            name=result.name,
            seconds=result.seconds,
            baseline_seconds=baseline_seconds,
            threshold=threshold,
        ))
    return report
