"""The spg-CNN autotuner: pick the fastest technique per layer and phase.

Two selection backends are provided:

* :class:`ModelCostBackend` -- prices each candidate with the analytical
  machine model (:mod:`repro.machine`), reproducing the paper's selections
  for the paper's machine without running anything.
* :class:`MeasuredCostBackend` -- wall-clock micro-benchmarks of the
  actual engine implementations on the host (the paper's approach: "it
  runs each layer with [each technique] ... and based on the measured
  performance, chooses the fastest technique to deploy").

Selections follow Sec. 4.4: FP chooses among Parallel-GEMM,
GEMM-in-Parallel and Stencil-Kernel; BP among Parallel-GEMM,
GEMM-in-Parallel and Sparse-Kernel, with the BP choice depending on the
current error sparsity.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

import numpy as np

from repro.core.convspec import ConvSpec
from repro.core.plan import (
    BP_CANDIDATES,
    FALLBACK_ENGINE,
    FP_CANDIDATES,
    FP_CANDIDATES_EXTENDED,
    LayerPlan,
)
from repro.errors import PlanError
from repro.resilience.quarantine import QuarantineRegistry, default_registry
from repro.machine.gemm_model import (
    DEFAULT_PROFILE,
    GemmProfile,
    gemm_in_parallel_conv_time,
    parallel_gemm_conv_time,
)
from repro.machine.sparse_model import sparse_bp_time
from repro.machine.spec import MachineSpec
from repro.machine.stencil_model import stencil_fp_time
from repro.ops.engine import make_engine


class CostBackend(ABC):
    """Produces a time estimate for (technique, phase) on one layer."""

    @abstractmethod
    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        """Seconds for one batch of the layer's phase under ``technique``."""


class ModelCostBackend(CostBackend):
    """Analytical machine-model pricing (paper's machine by default)."""

    def __init__(self, machine: MachineSpec, cores: int, batch: int,
                 profile: GemmProfile = DEFAULT_PROFILE):
        if batch <= 0 or cores <= 0:
            raise PlanError(f"batch and cores must be positive: {batch}, {cores}")
        self.machine = machine
        self.cores = cores
        self.batch = batch
        self.profile = profile

    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        if technique == "parallel-gemm":
            return parallel_gemm_conv_time(
                spec, phase, self.batch, self.machine, self.cores, self.profile
            )
        if technique == "gemm-in-parallel":
            return gemm_in_parallel_conv_time(
                spec, phase, self.batch, self.machine, self.cores, self.profile
            )
        if technique == "stencil":
            if phase != "fp":
                raise PlanError("stencil kernels serve forward propagation only")
            return stencil_fp_time(spec, self.batch, self.machine, self.cores)
        if technique == "sparse":
            if phase != "bp":
                raise PlanError("sparse kernels serve backward propagation only")
            return sparse_bp_time(
                spec, self.batch, sparsity, self.machine, self.cores
            )
        if technique == "fft":
            from repro.machine.fft_model import fft_conv_time

            if phase != "fp":
                raise PlanError("the fft engine serves forward propagation only")
            return fft_conv_time(spec, self.batch, self.machine, self.cores)
        raise PlanError(f"unknown technique {technique!r}")


class MeasuredCostBackend(CostBackend):
    """Wall-clock micro-benchmarks of the real engines on this host."""

    def __init__(self, batch: int = 2, repeats: int = 2, num_cores: int = 1,
                 seed: int = 0):
        if batch <= 0 or repeats <= 0:
            raise PlanError(f"batch and repeats must be positive: {batch}, {repeats}")
        self.batch = batch
        self.repeats = repeats
        self.num_cores = num_cores
        self._rng = np.random.default_rng(seed)

    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        if technique in ("stencil", "fft") and phase != "fp":
            raise PlanError(f"{technique} kernels serve forward propagation only")
        if technique == "sparse" and phase != "bp":
            raise PlanError("sparse kernels serve backward propagation only")
        engine = make_engine(technique, spec, num_cores=self.num_cores)
        inputs = self._rng.standard_normal(
            (self.batch,) + spec.input_shape
        ).astype(np.float32)
        weights = self._rng.standard_normal(spec.weight_shape).astype(np.float32)
        out_error = self._rng.standard_normal(
            (self.batch,) + spec.output_shape
        ).astype(np.float32)
        if sparsity > 0:
            mask = self._rng.random(out_error.shape) < sparsity
            out_error[mask] = 0.0
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            if phase == "fp":
                engine.forward(inputs, weights)
            else:
                engine.backward_data(out_error, weights)
                engine.backward_weights(out_error, inputs)
            best = min(best, time.perf_counter() - start)
        return best


class Autotuner:
    """Selects the fastest technique per layer/phase via a cost backend.

    With ``extended=True`` the FP candidate set additionally includes the
    FFT engine (the Sec. 6 complementary technique), which only wins on
    kernel sizes far beyond the paper's benchmarks.

    Selection is quarantine-aware: engines benched for a layer/phase by
    the runtime's numeric guards (see :mod:`repro.resilience.quarantine`)
    are excluded from that layer's candidate set, and if every candidate
    is benched the plan degrades to the dense reference fallback rather
    than re-deploying a known-bad kernel.
    """

    def __init__(self, backend: CostBackend, extended: bool = False,
                 quarantine: QuarantineRegistry | None = None):
        self.backend = backend
        self.fp_candidates = (
            FP_CANDIDATES_EXTENDED if extended else FP_CANDIDATES
        )
        self.quarantine = quarantine or default_registry()

    def _pick(self, candidates: tuple[str, ...], phase: str, spec: ConvSpec,
              sparsity: float, layer_name: str = "") -> tuple[str, dict[str, float]]:
        eligible = self.quarantine.filter(candidates, layer_name, phase)
        if not eligible:
            # Every candidate is benched for this layer/phase; degrade to
            # the reference path (infinitely slow on paper, but correct).
            return FALLBACK_ENGINE, {FALLBACK_ENGINE: float("inf")}
        timings = {
            tech: self.backend.time(tech, phase, spec, sparsity)
            for tech in eligible
        }
        chosen = min(timings, key=timings.get)
        return chosen, timings

    def plan_layer(self, spec: ConvSpec, layer_name: str = "",
                   sparsity: float = 0.0) -> LayerPlan:
        """Plan one convolution layer at the given error sparsity.

        ``spec`` should describe the engine-facing (pre-padded) geometry.
        """
        fp_engine, fp_timings = self._pick(self.fp_candidates, "fp", spec,
                                           sparsity, layer_name)
        bp_engine, bp_timings = self._pick(BP_CANDIDATES, "bp", spec,
                                           sparsity, layer_name)
        return LayerPlan(
            layer_name=layer_name or spec.name or "conv",
            spec=spec,
            fp_engine=fp_engine,
            bp_engine=bp_engine,
            fp_timings=fp_timings,
            bp_timings=bp_timings,
            sparsity=sparsity,
        )

    def replan_bp(self, plan: LayerPlan, sparsity: float) -> LayerPlan:
        """Re-select only the BP technique at a new sparsity level.

        This is the periodic re-check of Sec. 4.4: error-gradient sparsity
        drifts during training, so the BP choice is revisited while the FP
        choice (sparsity-independent) is kept.
        """
        bp_engine, bp_timings = self._pick(BP_CANDIDATES, "bp", plan.spec,
                                           sparsity, plan.layer_name)
        return LayerPlan(
            layer_name=plan.layer_name,
            spec=plan.spec,
            fp_engine=plan.fp_engine,
            bp_engine=bp_engine,
            fp_timings=plan.fp_timings,
            bp_timings=bp_timings,
            sparsity=sparsity,
        )
