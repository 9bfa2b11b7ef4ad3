"""Composable, individually verified schedule passes over the loop IR.

Each pass is a frozen, hashable rewrite of a :class:`~repro.stencil.loopir.
LoopNest`.  Legality is checked structurally at apply time against the
dimension kinds declared by the nest builders, which encode the
transformation envelope established empirically (on small specs) for the
numpy vector primitives.  The envelope is structural, not a bit-exactness
proof: on full-size operands BLAS may round a legal tiling differently
from the default, which is why the schedule search also probes its
winners bitwise (:class:`repro.nn.schedule.ScheduleSearch`).

* ``tile`` may split only PARALLEL spatial dims (``oy``/``ox``).
  Splitting a REDUCE_ATOMIC dim (the channel contraction inside
  ``np.tensordot``) changes the accumulation order inside the BLAS
  kernel and is rejected.
* ``reorder`` may permute the nest's loops as long as the *relative*
  order of REDUCE_ORDERED dims (the accumulating kernel taps) is
  preserved.  In the dW nest the taps are PARALLEL -- each ``dw``
  element is written by exactly one tap -- so there they may reorder.
* ``unroll_and_jam`` groups a tiled PARALLEL loop's iterations and
  moves the group members innermost; per output element the tap order
  is untouched, so the rewrite is bit-exact.
* ``vectorize`` lowers the innermost parallel plane plus the atomic
  contraction onto the vector primitive, attaching the register-tiled
  basic block (:mod:`repro.stencil.basic_block`) that the machine model
  prices and :func:`repro.check.kernel_ir.verify_basic_block` verifies.

A :class:`SchedulePipeline` is an ordered pass list with a stable
fingerprint; the emitters key their codegen caches on it, and every pass
reports the :class:`~repro.stencil.loopir.WorkDelta` it produced so the
autotuner can explain a schedule choice in roofline terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil import loopir
from repro.stencil.basic_block import (
    DEFAULT_NUM_REGISTERS,
    DEFAULT_VECTOR_WIDTH,
    TileChoice,
    block_for_nest,
)
from repro.stencil.loopir import (
    PARALLEL,
    REDUCE_ORDERED,
    LoopInfo,
    LoopNest,
    WorkDelta,
    WorkEstimate,
    estimate_nest,
    stable_fingerprint,
)


class IllegalSchedule(CodegenError):
    """A pass was applied outside its bit-exactness envelope."""


#: Dims whose tiling is known bit-exact for the numpy vector primitives.
TILABLE_DIMS = ("oy", "ox")


def _with_loops(nest: LoopNest, loops: tuple[LoopInfo, ...]) -> LoopNest:
    """``nest`` with its stage's loops replaced by ``loops``."""
    return replace(nest, stage=replace(nest.stage, loops=loops))


@dataclass(frozen=True)
class Tile:
    """Split a PARALLEL spatial dim into literal tile ranges."""

    dim: str
    factor: int

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise IllegalSchedule(f"tile({self.dim}): factor must be positive")

    def describe(self) -> str:
        return f"tile({self.dim},{self.factor})"

    def apply(self, nest: LoopNest) -> LoopNest:
        if self.dim not in TILABLE_DIMS:
            raise IllegalSchedule(
                f"tile({self.dim}): only {TILABLE_DIMS} tile bit-exactly; "
                f"reduction dims change the accumulation order"
            )
        stage = nest.stage
        if not stage.has_loop(self.dim):
            raise IllegalSchedule(f"tile({self.dim}): the nest has no such dim")
        info = stage.loop(self.dim)
        if info.dim.kind != PARALLEL:
            raise IllegalSchedule(
                f"tile({self.dim}): dim is {info.dim.kind} in stage "
                f"{stage.name!r}; only parallel dims tile bit-exactly"
            )
        if info.tile is not None:
            raise IllegalSchedule(f"tile({self.dim}): already tiled")
        other = "ox" if self.dim == "oy" else "oy"
        if stage.has_loop(other) and stage.loop(other).tile is not None:
            raise IllegalSchedule(
                f"tile({self.dim}): {other} is already tiled; 2-D "
                "spatial tiling shrinks the vector primitive's "
                "operands enough to flip its internal FMA path "
                "(observed 1-ulp drift vs the unscheduled "
                "emission), so only one spatial dim tiles "
                "bit-exactly"
            )
        factor = min(self.factor, info.dim.extent)
        return _with_loops(nest, tuple(
            replace(li, tile=factor) if li.dim.name == self.dim else li
            for li in stage.loops
        ))


@dataclass(frozen=True)
class Reorder:
    """Permute the nest's loop order (tap-order preserving)."""

    order: tuple[str, ...]

    def describe(self) -> str:
        return f"reorder({','.join(self.order)})"

    def apply(self, nest: LoopNest) -> LoopNest:
        stage = nest.stage
        names = tuple(li.dim.name for li in stage.loops)
        if sorted(self.order) != sorted(names):
            raise IllegalSchedule(
                f"reorder: {self.order} is not a permutation of {names}"
            )
        ordered_before = [n for n in names
                          if stage.loop(n).dim.kind == REDUCE_ORDERED]
        ordered_after = [n for n in self.order
                         if stage.loop(n).dim.kind == REDUCE_ORDERED]
        if ordered_before != ordered_after:
            raise IllegalSchedule(
                f"reorder: would permute accumulating taps "
                f"{ordered_before} -> {ordered_after}; their relative "
                f"order is observable in float arithmetic"
            )
        return _with_loops(nest, tuple(stage.loop(n) for n in self.order))


@dataclass(frozen=True)
class UnrollAndJam:
    """Unroll a tiled PARALLEL loop and jam the copies innermost."""

    dim: str
    factor: int

    def __post_init__(self) -> None:
        if self.factor <= 1:
            raise IllegalSchedule(
                f"unroll_and_jam({self.dim}): factor must be > 1"
            )

    def describe(self) -> str:
        return f"unroll_and_jam({self.dim},{self.factor})"

    def apply(self, nest: LoopNest) -> LoopNest:
        stage = nest.stage
        if not stage.has_loop(self.dim):
            raise IllegalSchedule(
                f"unroll_and_jam({self.dim}): the nest has no such dim"
            )
        info = stage.loop(self.dim)
        if info.dim.kind != PARALLEL:
            raise IllegalSchedule(
                f"unroll_and_jam({self.dim}): dim is {info.dim.kind}; "
                f"jamming a reduction reorders its accumulation"
            )
        if info.tile is None and info.dim.name in ("oy", "ox"):
            raise IllegalSchedule(
                f"unroll_and_jam({self.dim}): tile the dim first; "
                f"untiled spatial dims are absorbed by vectorize"
            )
        return _with_loops(nest, tuple(
            replace(li, jam=self.factor) if li.dim.name == self.dim else li
            for li in stage.loops
        ))


@dataclass(frozen=True)
class Vectorize:
    """Lower the innermost parallel plane to the vector primitive.

    This is the bridge to the existing basic-block IR: the register tile
    chosen for ``(fy, fx)`` under the declared register budget is what
    the machine model prices and the kernel-IR verifier checks.
    """

    num_registers: int = DEFAULT_NUM_REGISTERS
    vector_width: int = DEFAULT_VECTOR_WIDTH

    def describe(self) -> str:
        return f"vectorize({self.num_registers},{self.vector_width})"

    def apply(self, nest: LoopNest) -> LoopNest:
        if nest.vectorized:
            raise IllegalSchedule("nest is already vectorized")
        return replace(
            nest,
            vectorized=True,
            num_registers=self.num_registers,
            vector_width=self.vector_width,
        )


SchedulePass = Tile | Reorder | UnrollAndJam | Vectorize

#: Kernel families a pipeline can target.
FAMILIES = ("fp", "bp_data", "bp_weights",
            "sparse_bp_data", "sparse_bp_weights")


@dataclass(frozen=True)
class SchedulePipeline:
    """An ordered, fingerprinted pass list for one kernel family."""

    family: str
    passes: tuple[SchedulePass, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise CodegenError(f"unknown pipeline family {self.family!r}")
        if self.family.startswith("sparse"):
            if any(isinstance(p, (Tile, UnrollAndJam, Vectorize))
                   for p in self.passes):
                raise CodegenError(
                    "sparse pipelines support only tap reorder; the CT-CSR "
                    "tile multiply is the fixed vector primitive"
                )
            return
        vec = [i for i, p in enumerate(self.passes)
               if isinstance(p, Vectorize)]
        if len(vec) != 1 or vec[0] != len(self.passes) - 1:
            raise CodegenError(
                "pipeline must end with exactly one vectorize pass "
                "(the lowering to the basic-block IR)"
            )

    # -- identity -------------------------------------------------------

    def describe(self) -> str:
        inner = "|".join(p.describe() for p in self.passes)
        return f"{self.family}:{inner}"

    def fingerprint(self) -> str:
        """Stable short hash of the full pass sequence and family."""
        return stable_fingerprint(self.describe())

    @property
    def is_default(self) -> bool:
        """True when this pipeline reproduces the original emission."""
        return self == default_pipeline(self.family)

    # -- application ----------------------------------------------------

    def base_nest(self, spec: ConvSpec) -> LoopNest:
        return loopir.NEST_BUILDERS[self.family.removeprefix("sparse_")](spec)

    def build_nest(self, spec: ConvSpec) -> LoopNest:
        """Build the family's algorithm nest and apply every pass."""
        nest = self.base_nest(spec)
        for p in self.passes:
            nest = p.apply(nest)
        return nest

    def vector_block(self, spec: ConvSpec) -> TileChoice:
        """The register-tiled basic block the vectorize pass lowered to."""
        return block_for_nest(self.build_nest(spec))

    # -- work accounting ------------------------------------------------

    def estimate(self, spec: ConvSpec,
                 cache_bytes: int = 256 * 1024) -> WorkEstimate:
        """Work estimate of the fully scheduled nest."""
        return estimate_nest(self.build_nest(spec), cache_bytes=cache_bytes)

    def explain(self, spec: ConvSpec,
                cache_bytes: int = 256 * 1024) -> tuple["PassReport", ...]:
        """Per-pass :class:`WorkDelta` ledger for this schedule."""
        nest = self.base_nest(spec)
        before = estimate_nest(nest, cache_bytes=cache_bytes)
        reports = []
        for p in self.passes:
            nest = p.apply(nest)
            after = estimate_nest(nest, cache_bytes=cache_bytes)
            reports.append(PassReport(name=p.describe(),
                                      delta=after - before,
                                      estimate=after))
            before = after
        return tuple(reports)


@dataclass(frozen=True)
class PassReport:
    """One pass's contribution to the schedule's work estimate."""

    name: str
    delta: WorkDelta
    estimate: WorkEstimate

    def describe(self) -> str:
        return f"{self.name}: {self.delta.describe()}"


# -- default pipelines (the original emitters, as schedules) ---------------


def default_pipeline(family: str) -> SchedulePipeline:
    """The pass pipeline reproducing the pre-loop-IR emission byte for
    byte: taps enumerated in (ky, kx) order, full output plane vectorized,
    no tiling."""
    if family.startswith("sparse"):
        return SchedulePipeline(family=family, passes=())
    return SchedulePipeline(family=family, passes=(Vectorize(),))


def tiled_pipeline(family: str, tile_y: int | None = None,
                   tile_x: int | None = None,
                   order: tuple[str, ...] | None = None,
                   jam: int = 1) -> SchedulePipeline:
    """Convenience constructor for the common tiled/reordered shapes."""
    passes: list[SchedulePass] = []
    if tile_y is not None:
        passes.append(Tile("oy", tile_y))
    if tile_x is not None:
        passes.append(Tile("ox", tile_x))
    if order is not None:
        passes.append(Reorder(order))
    if jam > 1:
        if tile_y is None:
            raise CodegenError("jam requires a tiled oy loop")
        passes.append(UnrollAndJam("oy", jam))
    passes.append(Vectorize())
    return SchedulePipeline(family=family, passes=tuple(passes))
