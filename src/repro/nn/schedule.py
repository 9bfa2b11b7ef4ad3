"""Training-time schedules: learning rates and kernel loop schedules.

Two unrelated-but-neighbouring notions of "schedule" live here:

* **Learning-rate schedules** map the 1-based epoch number to a learning
  rate; the trainer's ``set_learning_rate`` hook applies them between
  epochs.
* **Kernel schedule search** (:class:`ScheduleSearch`) upgrades the
  technique-level autotuner (:mod:`repro.core.autotuner`): once a layer
  deploys a generated kernel, the searcher enumerates a bounded,
  deterministic set of candidate pass pipelines over the loop IR
  (:mod:`repro.stencil.passes`), prices each with the multi-level
  roofline via its :class:`~repro.stencil.loopir.WorkEstimate`, gates
  the winner through the ``repro.check`` kernel-IR and generated-source
  verifiers plus a bitwise probe against the default emission, and
  caches the choice per ``(spec, family)``.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.machine.spec import MachineSpec, xeon_e5_2650
from repro.stencil.loopir import stable_fingerprint
from repro.stencil.passes import (
    Reorder,
    SchedulePass,
    SchedulePipeline,
    Vectorize,
    default_pipeline,
    tiled_pipeline,
)
from repro.stencil.schedule import generate_schedule


class LRSchedule(ABC):
    """Epoch -> learning-rate mapping."""

    @abstractmethod
    def rate(self, epoch: int) -> float:
        """Learning rate to use *during* the given 1-based epoch."""

    def _check_epoch(self, epoch: int) -> None:
        if epoch <= 0:
            raise ReproError(f"epoch must be positive, got {epoch}")


class ConstantLR(LRSchedule):
    """A fixed learning rate."""

    def __init__(self, value: float):
        if value <= 0:
            raise ReproError(f"learning rate must be positive, got {value}")
        self.value = value

    def rate(self, epoch: int) -> float:
        self._check_epoch(epoch)
        return self.value


class StepDecayLR(LRSchedule):
    """Multiply the rate by ``factor`` every ``step_epochs`` epochs."""

    def __init__(self, initial: float, factor: float = 0.1,
                 step_epochs: int = 10):
        if initial <= 0 or not 0 < factor <= 1 or step_epochs <= 0:
            raise ReproError(
                f"invalid step decay: initial={initial}, factor={factor}, "
                f"step_epochs={step_epochs}"
            )
        self.initial = initial
        self.factor = factor
        self.step_epochs = step_epochs

    def rate(self, epoch: int) -> float:
        self._check_epoch(epoch)
        drops = (epoch - 1) // self.step_epochs
        return self.initial * self.factor**drops


class ExponentialLR(LRSchedule):
    """Multiply the rate by ``gamma`` every epoch."""

    def __init__(self, initial: float, gamma: float = 0.95):
        if initial <= 0 or not 0 < gamma <= 1:
            raise ReproError(
                f"invalid exponential decay: initial={initial}, gamma={gamma}"
            )
        self.initial = initial
        self.gamma = gamma

    def rate(self, epoch: int) -> float:
        self._check_epoch(epoch)
        return self.initial * self.gamma ** (epoch - 1)


# -- kernel schedule search (the loop-IR autotuner) ------------------------


#: Register budgets used to diversify vectorize-pass candidates when a
#: spec's output plane is too small to admit enough distinct tilings.
_REGISTER_BUDGETS = (8, 12, 24, 32)


@dataclass(frozen=True)
class ScheduleChoice:
    """The outcome of one schedule search for a (spec, family) pair."""

    family: str
    pipeline: SchedulePipeline
    #: Roofline seconds of the chosen pipeline for the search's batch.
    seconds: float
    #: ``pipeline.describe() -> roofline seconds`` per candidate searched.
    timings: tuple[tuple[str, float], ...]
    #: True when the winner passed the kernel-IR + generated-source gate
    #: (and, for a non-default stencil schedule, the bitwise probe).
    verified: bool

    @property
    def num_candidates(self) -> int:
        return len(self.timings)

    def speedup_over_default(self) -> float:
        """Predicted speedup of the chosen schedule over the default."""
        default = dict(self.timings).get(
            default_pipeline(self.family).describe()
        )
        if not default or not self.seconds:
            return 1.0
        return default / self.seconds


class ScheduleSearch:
    """Bounded, deterministic, cached search over schedule pipelines.

    For every kernel family the searcher enumerates at least
    ``min_candidates`` distinct pipelines (default + cache-derived tiling
    + structured tile/reorder/jam variants + seeded-random samples),
    prices each candidate's :class:`~repro.stencil.loopir.WorkEstimate`
    with the machine roofline at the searched batch/core count, and
    walks the candidates cheapest-first until one passes the
    ``repro.check`` verifiers (basic-block IR plus emitted-source AST)
    and, for a non-default stencil schedule, reproduces the default
    emission bit for bit on a seeded probe input.

    Determinism: the random samples come from :class:`random.Random`
    seeded by a stable hash of ``(spec, family, seed)``, candidate order
    is generation order, and ties break toward the earlier candidate --
    two searches with the same inputs return the same choice.

    Exception: the sparse EI family admits exactly one legal schedule
    (its taps are ``REDUCE_ORDERED`` and no other pass applies), so its
    candidate set is a singleton rather than ``min_candidates`` wide.
    """

    def __init__(self, machine: MachineSpec | None = None, cores: int = 1,
                 batch: int = 1, seed: int = 0, min_candidates: int = 8,
                 verify: bool = True):
        if cores <= 0 or batch <= 0:
            raise ReproError(
                f"cores and batch must be positive: {cores}, {batch}"
            )
        if min_candidates <= 0:
            raise ReproError("min_candidates must be positive")
        self.machine = machine or xeon_e5_2650()
        self.cores = cores
        self.batch = batch
        self.seed = seed
        self.min_candidates = min_candidates
        self.verify = verify
        self._cache: dict[tuple[ConvSpec, str], ScheduleChoice] = {}

    # -- candidate enumeration --------------------------------------------

    def _rng(self, spec: ConvSpec, family: str) -> random.Random:
        key = f"{spec.describe()}|{family}|{self.seed}"
        return random.Random(int(stable_fingerprint(key, 16), 16))

    @staticmethod
    def _dedupe(
        pipelines: list[SchedulePipeline],
    ) -> list[SchedulePipeline]:
        seen: set[str] = set()
        out: list[SchedulePipeline] = []
        for pipe in pipelines:
            fp = pipe.fingerprint()
            if fp not in seen:
                seen.add(fp)
                out.append(pipe)
        return out

    def _pad_with_register_budgets(
        self, cands: list[SchedulePipeline], family: str,
    ) -> list[SchedulePipeline]:
        """Vectorize-budget variants fill out tiny candidate spaces."""
        for width, budget in itertools.product((8, 4, 16),
                                               _REGISTER_BUDGETS):
            if len(cands) >= self.min_candidates:
                break
            cands.append(SchedulePipeline(
                family=family,
                passes=(
                    Vectorize(num_registers=budget, vector_width=width),
                ),
            ))
        return cands

    def _conv_candidates(self, spec: ConvSpec,
                         family: str) -> list[SchedulePipeline]:
        """fp / bp_data: tilings, a tap-preserving reorder, and a jam."""
        oy, ox = spec.out_ny, spec.out_nx
        cands = [default_pipeline(family)]
        cached = generate_schedule(
            spec, cache_bytes=self.machine.l2_bytes,
            tlb_entries=self.machine.tlb_entries,
            page_size=self.machine.page_size,
        ).as_pipeline(family)
        cands.append(cached)
        for ty in (oy // 2, oy // 4):
            if 1 <= ty < oy:
                cands.append(tiled_pipeline(family, tile_y=ty))
        # One tiled spatial dim only: 2-D tiling is outside the
        # bit-exactness envelope (see repro.stencil.passes.Tile).
        if ox > 1:
            cands.append(tiled_pipeline(family, tile_x=ox // 2))
        # Hoist the absorbed parallel dims in front of the taps; legal for
        # gather-style nests (every output element keeps its tap order).
        nest = default_pipeline(family).base_nest(spec)
        names = tuple(li.dim.name for li in nest.stage.loops)
        hoisted = tuple(n for n in names if n in ("f", "c")) + tuple(
            n for n in names if n not in ("f", "c")
        )
        if hoisted != names:
            cands.append(SchedulePipeline(
                family=family, passes=(Reorder(hoisted), Vectorize()),
            ))
        if family == "fp" and oy > 1:
            cands.append(
                tiled_pipeline(family, tile_y=max(1, oy // 2), jam=2)
            )
        cands = self._dedupe(cands)
        rng = self._rng(spec, family)
        for _ in range(64):
            if len(cands) >= self.min_candidates:
                break
            # Seeded random 1-D tilings (one spatial dim per pipeline;
            # 2-D tiling is outside the bit-exactness envelope).
            if rng.random() < 0.5 and oy > 1:
                cands.append(tiled_pipeline(family,
                                            tile_y=rng.randrange(1, oy)))
            elif ox > 1:
                cands.append(tiled_pipeline(family,
                                            tile_x=rng.randrange(1, ox)))
            cands = self._dedupe(cands)
        return self._pad_with_register_budgets(cands, family)

    def _tap_reorder_candidates(self, spec: ConvSpec, family: str,
                                tail: tuple[str, ...]) -> list[SchedulePipeline]:
        """bp_weights / sparse dW: tap permutations (disjoint dW slices)."""
        vec: tuple[SchedulePass, ...] = (
            () if family.startswith("sparse") else (Vectorize(),)
        )
        cands = [default_pipeline(family)]
        structured = (
            ("kx", "ky", "f", "c"),
            ("f", "c", "ky", "kx"),
            ("f", "c", "kx", "ky"),
        )
        rng = self._rng(spec, family)
        pool = [p for p in itertools.permutations(("ky", "kx", "f", "c"))
                if p not in structured]
        sampled = rng.sample(pool, k=min(len(pool), self.min_candidates))
        for head in structured + tuple(sampled):
            if len(cands) >= self.min_candidates:
                break
            cands.append(SchedulePipeline(
                family=family, passes=(Reorder(head + tail),) + vec,
            ))
        cands = self._dedupe(cands)
        return self._pad_with_register_budgets(cands, family)

    def candidates(self, spec: ConvSpec,
                   family: str) -> tuple[SchedulePipeline, ...]:
        """The deterministic candidate set for one (spec, family) pair."""
        if family in ("fp", "bp_data"):
            out = self._conv_candidates(spec, family)
        elif family in ("bp_weights", "sparse_bp_weights"):
            tail = ("oy", "ox")
            out = self._tap_reorder_candidates(spec, family, tail)
        elif family == "sparse_bp_data":
            # The EI taps accumulate into overlapping input slices
            # (REDUCE_ORDERED); the only legal schedule is the default.
            out = [default_pipeline(family)]
        else:
            raise ReproError(f"unknown schedule family {family!r}")
        return tuple(self._dedupe(out))

    # -- pricing and verification -----------------------------------------

    def _price(self, spec: ConvSpec, pipeline: SchedulePipeline) -> float:
        """Roofline seconds of one candidate at the searched batch."""
        efficiency = 1.0
        if not pipeline.family.startswith("sparse"):
            from repro.machine.stencil_model import stencil_efficiency

            tile = pipeline.vector_block(spec)
            efficiency = stencil_efficiency(spec, self.machine, tile=tile)
        estimate = pipeline.estimate(spec, cache_bytes=self.machine.l2_bytes)
        return estimate.time(self.machine, self.cores, batch=self.batch,
                             efficiency=efficiency)

    @staticmethod
    def _emit(spec: ConvSpec, pipeline: SchedulePipeline):
        from repro.sparse import codegen as sparse_codegen
        from repro.stencil import emit as stencil_emit

        family = pipeline.family
        if family == "fp":
            return stencil_emit.emit_forward_kernel(spec, pipeline)
        if family == "bp_data":
            return stencil_emit.emit_backward_data_kernel(spec, pipeline)
        if family == "bp_weights":
            return stencil_emit.emit_backward_weights_kernel(spec, pipeline)
        if family == "sparse_bp_data":
            return sparse_codegen.emit_sparse_backward_data(spec, pipeline)
        if family == "sparse_bp_weights":
            return sparse_codegen.emit_sparse_backward_weights(spec, pipeline)
        raise ReproError(f"no emitter for family {family!r}")

    def _matches_default(self, spec: ConvSpec, pipeline: SchedulePipeline,
                         kernel) -> bool:
        """Run ``kernel`` and its family's default emission on one seeded
        probe input; True only when the outputs are bitwise equal.

        The structural verifiers cannot see accumulation-order drift: a
        tiled schedule inside the passes' envelope can still round
        differently from the default on full-size operands, because BLAS
        picks its internal path by operand size.
        """
        rng = np.random.default_rng(
            int(stable_fingerprint(f"{spec.describe()}|probe", 8), 16)
        )
        inputs = rng.standard_normal(spec.input_shape).astype(np.float32)
        weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
        out_error = rng.standard_normal(spec.output_shape).astype(np.float32)
        args, shape = {
            "fp": ((inputs, weights), spec.output_shape),
            "bp_data": ((out_error, weights), spec.input_shape),
            "bp_weights": ((out_error, inputs), spec.weight_shape),
        }[pipeline.family]
        want = np.zeros(shape, dtype=np.float32)
        got = np.zeros(shape, dtype=np.float32)
        self._emit(spec, default_pipeline(pipeline.family))(*args, want)
        kernel(*args, got)
        return got.tobytes() == want.tobytes()

    def _passes_verifiers(self, spec: ConvSpec,
                          pipeline: SchedulePipeline) -> bool:
        """Gate a candidate through the ``repro.check`` verifiers and, for
        a non-default stencil schedule, the bitwise probe."""
        from repro.check.gen_source import contract_for, verify_kernel_source
        from repro.check.kernel_ir import verify_basic_block

        location = f"{spec.name or spec.describe()}/{pipeline.describe()}"
        stencil = not pipeline.family.startswith("sparse")
        findings = []
        try:
            if stencil:
                nest = pipeline.build_nest(spec)
                tile = pipeline.vector_block(spec)
                findings.extend(verify_basic_block(
                    tile.block, num_registers=nest.num_registers,
                    location=location,
                ))
            kernel = self._emit(spec, pipeline)
            findings.extend(verify_kernel_source(
                kernel.source, contract_for(spec, pipeline), location,
            ))
            if any(f.severity == "error" for f in findings):
                return False
            return (not stencil or pipeline.is_default
                    or self._matches_default(spec, pipeline, kernel))
        except Exception:  # noqa: BLE001 - an unemittable schedule loses
            return False

    # -- the search itself -------------------------------------------------

    def search(self, spec: ConvSpec, family: str) -> ScheduleChoice:
        """Pick the cheapest verifier-clean pipeline for (spec, family).

        Results are cached; repeated searches are free and identical.
        """
        key = (spec, family)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cands = self.candidates(spec, family)
        priced = [(self._price(spec, pipe), i, pipe)
                  for i, pipe in enumerate(cands)]
        timings = tuple((pipe.describe(), seconds)
                        for seconds, _, pipe in priced)
        chosen: SchedulePipeline | None = None
        seconds = float("inf")
        verified = False
        for cand_seconds, _, pipe in sorted(priced,
                                            key=lambda t: (t[0], t[1])):
            if not self.verify or self._passes_verifiers(spec, pipe):
                chosen, seconds, verified = pipe, cand_seconds, self.verify
                break
        if chosen is None:  # pragma: no cover - default always verifies
            chosen = default_pipeline(family)
            seconds = dict(timings).get(chosen.describe(), float("inf"))
        choice = ScheduleChoice(family=family, pipeline=chosen,
                                seconds=seconds, timings=timings,
                                verified=verified)
        self._cache[key] = choice
        return choice

    def search_layer(self, spec: ConvSpec) -> dict[str, ScheduleChoice]:
        """Search every stencil phase of one conv layer."""
        return {
            "fp": self.search(spec, "fp"),
            "bp_data": self.search(spec, "bp_data"),
            "bp_weights": self.search(spec, "bp_weights"),
        }
