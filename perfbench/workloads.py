"""The benchmark's workloads: which zoo network, how it runs, and why.

Every workload trains with batch 16 through the library's public path
(zoo network -> ``SpgCNN`` with ``ModelCostBackend(xeon_e5_2650())`` ->
``TrainingLoop``).  Any setting a workload does not name -- scheduler,
fusion, BLAS threads -- stays at the library default, so a change of
default shows up in the numbers.  NOTES.md records the measured shares.
"""

from __future__ import annotations

from dataclasses import dataclass

BATCH = 16
#: Steps of the warm-up epoch; the first BP re-check follows it.
WARMUP_STEPS = 8
#: Steps whose losses and weights are checked against a reference run.
CHECK_STEPS = 3
#: Steps per timed epoch (the re-check cadence of ``recheck`` workloads).
EPOCH_STEPS = 16
#: Timed steps a window runs at least, so 10 lie beyond its p90.
MIN_STEPS = 100
#: ``ModelCostBackend`` core count: the ``repro train`` default.
MODEL_CORES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    net: str                 # "mnist" | "cifar"
    scale: float
    threads: int | None      # None: no worker pool
    backend: str             # zoo ``backend=`` (only used with threads)
    recheck: bool            # re-check the BP plan after every epoch
    #: Images in the seeded dataset.  Each epoch takes the next chunk;
    #: after the last one the chunks recur, reshuffled, so no batch
    #: repeats (see NOTES.md for when images do).
    dataset_images: int
    why: str
    bypasses: str
    #: False: runnable by name, but left out of BENCHMARK.json because
    #: its run-to-run spread exceeds the bounds (see NOTES.md).
    in_benchmark: bool = True

    @property
    def two_workers(self) -> bool:
        return bool(self.threads and self.threads > 1)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mnist-sparse-serial", net="mnist", scale=1.0, threads=None,
            backend="thread", recheck=True, dataset_images=8192,
            why="kernel-bound: sparse BP (CT-CSR) after the first re-check, "
                "stencil FP, no worker pool",
            bypasses="runtime (no pool), GEMM engines",
            in_benchmark=False,
        ),
        Workload(
            name="mnist-sparse-thread", net="mnist", scale=1.0, threads=2,
            backend="thread", recheck=True, dataset_images=8192,
            why="sparse BP (CT-CSR) after the first re-check and stencil FP, "
                "on 2 threads; steadier on a shared host than the same "
                "kernels without a pool",
            bypasses="GEMM engines, process runtime",
        ),
        Workload(
            name="mnist-thread", net="mnist", scale=1.0, threads=2,
            backend="thread", recheck=False, dataset_images=8192,
            why="short steps: fork/join dispatch and non-conv layers "
                "dominate; stencil FP, gemm-in-parallel BP on 2 threads",
            bypasses="sparse kernels, process runtime",
        ),
        Workload(
            name="cifar-process", net="cifar", scale=0.5, threads=2,
            backend="process", recheck=False, dataset_images=4096,
            why="two spawned workers fed through shared memory; exposes "
                "BLAS oversubscription in gemm-in-parallel BP",
            bypasses="sparse kernels",
            in_benchmark=False,
        ),
    )
}
