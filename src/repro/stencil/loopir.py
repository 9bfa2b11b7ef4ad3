"""Loop-level IR for the stencil code generators (the schedulable layer).

The original generators each baked *one* schedule into their emitter:
``emit.py`` always produced the taps-outer, fully-vectorized-plane
emission and ``schedule.py`` chose one cache tiling.  This module keeps
the *algorithm* -- what is computed -- as a small loop-level IR, so that
*schedules* -- in what order and at what tile granularity -- become
composable, individually verified transformation passes
(:mod:`repro.stencil.passes`), in the style of Exo/SYS_ATL.

Vocabulary
----------

* :class:`Dim` -- one iteration axis with an explicit extent and a
  *kind* that encodes what reordering the axis tolerates:

  - ``PARALLEL``: distinct iterations write disjoint output elements;
    tiling and reordering keep each element's operation order (BLAS
    may still round a smaller tiled operand differently).
  - ``REDUCE_ORDERED``: iterations accumulate into the same output
    elements in program order (the unrolled kernel taps).  Their
    *relative* order is observable in float arithmetic, so passes must
    preserve it.
  - ``REDUCE_ATOMIC``: the reduction happens inside one vectorized
    primitive (the channel contraction inside ``np.tensordot``).  It
    cannot be split or reordered at all -- splitting it changes the
    accumulation order inside the BLAS kernel.

* :class:`Affine` / :class:`Access` -- affine access maps from loop
  variables to buffer coordinates (``inputs[c, oy*sy + ky, ox*sx + kx]``).

* :class:`Buffer` -- a named kernel parameter tensor and its role.

* :class:`Stage` -- one perfect nest (ordered :class:`LoopInfo` list plus
  a :class:`Statement`).  A :class:`LoopNest` is one stage over its
  declared buffers: every emitted kernel is a single-stage program.

* :class:`WorkEstimate` -- the flop / private-traffic / shared-traffic
  account of a scheduled nest.  Every pass reports its delta, and the
  multi-level roofline (:mod:`repro.machine.roofline`) prices the
  estimate, which is how the autotuner compares schedules without
  running them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import CodegenError

# -- dimension kinds -------------------------------------------------------

PARALLEL = "parallel"
REDUCE_ORDERED = "reduce-ordered"
REDUCE_ATOMIC = "reduce-atomic"

#: Loop execution modes assigned by schedule passes.
MODE_SERIAL = "serial"          # enumerated one iteration at a time
MODE_UNROLLED = "unrolled"      # fully unrolled into literal statements
MODE_VECTORIZED = "vectorized"  # absorbed into one vector primitive


@dataclass(frozen=True)
class Dim:
    """One iteration axis of the algorithm."""

    name: str
    extent: int
    kind: str = PARALLEL

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise CodegenError(f"dim {self.name!r} needs positive extent, "
                               f"got {self.extent}")
        if self.kind not in (PARALLEL, REDUCE_ORDERED, REDUCE_ATOMIC):
            raise CodegenError(f"unknown dim kind {self.kind!r}")


@dataclass(frozen=True)
class Affine:
    """``sum(coeff * var) + offset`` over loop variables."""

    terms: tuple[tuple[str, int], ...] = ()
    offset: int = 0

    @staticmethod
    def var(name: str, coeff: int = 1, offset: int = 0) -> "Affine":
        return Affine(terms=((name, coeff),), offset=offset)

    @staticmethod
    def const(value: int) -> "Affine":
        return Affine(terms=(), offset=value)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def describe(self) -> str:
        parts = [f"{c}*{v}" if c != 1 else v for v, c in self.terms]
        if self.offset or not parts:
            parts.append(str(self.offset))
        return "+".join(parts)


@dataclass(frozen=True)
class Access:
    """One read or write of a buffer through an affine index map."""

    buffer: str
    index: tuple[Affine, ...]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for expr in self.index:
            out.update(expr.variables())
        return out


@dataclass(frozen=True)
class Buffer:
    """A named tensor, its shape and role."""

    name: str
    shape: tuple[int, ...]
    role: str  # "input" | "weight" | "output"

    @property
    def elems(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total


@dataclass(frozen=True)
class Statement:
    """One compute statement: ``out[...] (+)= op(reads...)``."""

    name: str        # "conv" | "bp_data" | "bp_weights"
    op: str          # "fma"
    out: Access
    reads: tuple[Access, ...]
    accumulate: bool = False


@dataclass(frozen=True)
class LoopInfo:
    """One loop of a stage's nest, with its schedule annotations."""

    dim: Dim
    mode: str = MODE_SERIAL
    #: Tile width assigned by the ``tile`` pass (None = untiled).
    tile: int | None = None
    #: Unroll-and-jam factor assigned by ``unroll_and_jam`` (1 = off).
    jam: int = 1

    def __post_init__(self) -> None:
        if self.tile is not None and self.tile <= 0:
            raise CodegenError(f"loop {self.dim.name}: tile must be positive")
        if self.jam <= 0:
            raise CodegenError(f"loop {self.dim.name}: jam must be positive")


@dataclass(frozen=True)
class Stage:
    """One perfect nest: ordered loops around a single statement."""

    name: str
    loops: tuple[LoopInfo, ...]
    stmt: Statement

    def loop(self, dim_name: str) -> LoopInfo:
        for info in self.loops:
            if info.dim.name == dim_name:
                return info
        raise CodegenError(f"stage {self.name!r} has no loop {dim_name!r}")

    def has_loop(self, dim_name: str) -> bool:
        return any(info.dim.name == dim_name for info in self.loops)


@dataclass(frozen=True)
class LoopNest:
    """A scheduled program: one stage over its declared buffers."""

    spec: ConvSpec
    buffers: tuple[Buffer, ...]
    stage: Stage
    #: True once the ``vectorize`` pass ran (innermost dims lowered to
    #: the vector primitive / basic-block IR).
    vectorized: bool = False
    #: Register budget / vector width the ``vectorize`` pass lowered with.
    num_registers: int = 16
    vector_width: int = 8

    def buffer(self, name: str) -> Buffer:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise CodegenError(f"nest has no buffer {name!r}")


# -- nest builders (the algorithms, schedule-free) -------------------------


def _conv_dims(spec: ConvSpec) -> dict[str, Dim]:
    return {
        "f": Dim("f", spec.nf, PARALLEL),
        "c": Dim("c", spec.nc, REDUCE_ATOMIC),
        "ky": Dim("ky", spec.fy, REDUCE_ORDERED),
        "kx": Dim("kx", spec.fx, REDUCE_ORDERED),
        "oy": Dim("oy", spec.out_ny, PARALLEL),
        "ox": Dim("ox", spec.out_nx, PARALLEL),
    }


def _conv_stmt(spec: ConvSpec) -> Statement:
    return Statement(
        name="conv",
        op="fma",
        out=Access("out", (Affine.var("f"), Affine.var("oy"),
                                Affine.var("ox"))),
        reads=(
            Access("weights", (Affine.var("f"), Affine.var("c"),
                               Affine.var("ky"), Affine.var("kx"))),
            Access("inputs", (Affine.var("c"),
                              Affine.var("oy", spec.sy, 0)
                              if spec.fy == 1 else
                              Affine(terms=(("oy", spec.sy), ("ky", 1))),
                              Affine.var("ox", spec.sx, 0)
                              if spec.fx == 1 else
                              Affine(terms=(("ox", spec.sx), ("kx", 1))))),
        ),
        accumulate=True,
    )


def conv_fp_nest(spec: ConvSpec) -> LoopNest:
    """The forward convolution (Eq. 2) as an unscheduled nest."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    dims = _conv_dims(spec)
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "f", "c", "oy", "ox"))
    buffers = (
        Buffer("inputs", spec.input_shape, "input"),
        Buffer("weights", spec.weight_shape, "weight"),
        Buffer("out", spec.output_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stage=Stage("conv", loops, _conv_stmt(spec)))


def conv_bp_data_nest(spec: ConvSpec) -> LoopNest:
    """The backward-data adjoint (Eq. 3): scatter per tap."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    dims = dict(_conv_dims(spec))
    # The contraction runs over output features; channels are parallel.
    dims["f"] = Dim("f", spec.nf, REDUCE_ATOMIC)
    dims["c"] = Dim("c", spec.nc, PARALLEL)
    stmt = Statement(
        name="bp_data",
        op="fma",
        out=Access("in_error", (
            Affine.var("c"),
            Affine(terms=(("oy", spec.sy), ("ky", 1))),
            Affine(terms=(("ox", spec.sx), ("kx", 1))),
        )),
        reads=(
            Access("weights", (Affine.var("f"), Affine.var("c"),
                               Affine.var("ky"), Affine.var("kx"))),
            Access("out_error", (Affine.var("f"), Affine.var("oy"),
                                 Affine.var("ox"))),
        ),
        accumulate=True,
    )
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "c", "f", "oy", "ox"))
    buffers = (
        Buffer("out_error", spec.output_shape, "input"),
        Buffer("weights", spec.weight_shape, "weight"),
        Buffer("in_error", spec.input_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stage=Stage("bp_data", loops, stmt))


def conv_bp_weights_nest(spec: ConvSpec) -> LoopNest:
    """The dW kernel (Eq. 4): each tap owns a disjoint dW slice, but the
    spatial plane is the reduction -- it cannot be tiled bit-exactly."""
    if spec.pad != 0:
        raise CodegenError("loop nests are built from pre-padded specs")
    stmt = Statement(
        name="bp_weights",
        op="fma",
        out=Access("dw", (Affine.var("f"), Affine.var("c"),
                          Affine.var("ky"), Affine.var("kx"))),
        reads=(
            Access("out_error", (Affine.var("f"), Affine.var("oy"),
                                 Affine.var("ox"))),
            Access("inputs", (
                Affine.var("c"),
                Affine(terms=(("oy", spec.sy), ("ky", 1))),
                Affine(terms=(("ox", spec.sx), ("kx", 1))),
            )),
        ),
        accumulate=True,
    )
    dims = {
        "f": Dim("f", spec.nf, PARALLEL),
        "c": Dim("c", spec.nc, PARALLEL),
        "ky": Dim("ky", spec.fy, PARALLEL),   # disjoint dW slices per tap
        "kx": Dim("kx", spec.fx, PARALLEL),
        "oy": Dim("oy", spec.out_ny, REDUCE_ATOMIC),
        "ox": Dim("ox", spec.out_nx, REDUCE_ATOMIC),
    }
    loops = tuple(LoopInfo(dims[n], MODE_SERIAL)
                  for n in ("ky", "kx", "f", "c", "oy", "ox"))
    buffers = (
        Buffer("out_error", spec.output_shape, "input"),
        Buffer("inputs", spec.input_shape, "input"),
        Buffer("dw", spec.weight_shape, "output"),
    )
    return LoopNest(spec=spec, buffers=buffers,
                    stage=Stage("bp_weights", loops, stmt))


#: Builders by kernel family (the vocabulary the emitters understand).
NEST_BUILDERS = {
    "fp": conv_fp_nest,
    "bp_data": conv_bp_data_nest,
    "bp_weights": conv_bp_weights_nest,
}


# -- work estimates --------------------------------------------------------


@dataclass(frozen=True)
class WorkEstimate:
    """Per-image flop and traffic account of one scheduled nest.

    ``private_elems`` counts element transfers through per-core caches;
    ``shared_elems`` counts element transfers that reach shared memory
    (DRAM).  The multi-level roofline converts both to seconds.
    """

    flops: int
    private_elems: int
    shared_elems: int

    def __post_init__(self) -> None:
        if min(self.flops, self.private_elems, self.shared_elems) < 0:
            raise CodegenError(f"negative work estimate: {self}")

    @property
    def private_bytes(self) -> int:
        return self.private_elems * ELEMENT_BYTES

    @property
    def shared_bytes(self) -> int:
        return self.shared_elems * ELEMENT_BYTES

    def __sub__(self, other: "WorkEstimate") -> "WorkDelta":
        return WorkDelta(
            flops=self.flops - other.flops,
            private_elems=self.private_elems - other.private_elems,
            shared_elems=self.shared_elems - other.shared_elems,
        )

    def time(self, machine: "object", cores: int, batch: int = 1,
             efficiency: float = 1.0) -> float:
        """Roofline seconds for ``batch`` images on ``cores`` workers."""
        from repro.machine.roofline import Phase, phase_time

        phase = Phase(
            flops=float(batch * self.flops),
            private_bytes=float(batch * self.private_bytes),
            dram_bytes=float(batch * self.shared_bytes),
            efficiency=efficiency,
        )
        return phase_time(phase, machine, cores)  # type: ignore[arg-type]


@dataclass(frozen=True)
class WorkDelta:
    """The change in the work estimate one pass produced."""

    flops: int = 0
    private_elems: int = 0
    shared_elems: int = 0

    def describe(self) -> str:
        return (f"flops {self.flops:+d}, private {self.private_elems:+d} "
                f"elems, shared {self.shared_elems:+d} elems")


def _tile_extents(nest: LoopNest) -> tuple[int, int]:
    """Effective (tile_y, tile_x) of the nest's output plane."""
    stage = nest.stage
    spec = nest.spec
    tile_y, tile_x = spec.out_ny, spec.out_nx
    for name, full in (("oy", spec.out_ny), ("ox", spec.out_nx)):
        if stage.has_loop(name):
            info = stage.loop(name)
            if info.tile is not None:
                if name == "oy":
                    tile_y = min(info.tile, full)
                else:
                    tile_x = min(info.tile, full)
    return tile_y, tile_x


def tile_working_set_bytes(nest: LoopNest) -> int:
    """Bytes of input + output resident while computing one tile."""
    spec = nest.spec
    tile_y, tile_x = _tile_extents(nest)
    halo_y = (tile_y - 1) * spec.sy + spec.fy
    halo_x = (tile_x - 1) * spec.sx + spec.fx
    in_elems = spec.nc * halo_y * halo_x
    out_elems = spec.nf * tile_y * tile_x
    return ELEMENT_BYTES * (in_elems + out_elems)


def estimate_nest(nest: LoopNest,
                  cache_bytes: int = 256 * 1024) -> WorkEstimate:
    """Per-image work estimate of a scheduled nest.

    The account follows the original ``StencilSchedule`` model (inputs
    copied in and streamed, weights read once, outputs written once),
    extended with one schedule-sensitive effect: a tile whose working set
    exceeds the private cache loses the halo reuse between kernel taps --
    inputs are re-streamed per tap and the excess shows up as shared
    traffic.
    """
    spec = nest.spec
    taps = spec.fy * spec.fx
    out_elems = nest.buffer(nest.stage.stmt.out.buffer).elems
    weight_elems = sum(b.elems for b in nest.buffers if b.role == "weight")
    in_elems = sum(b.elems for b in nest.buffers if b.role == "input")
    if tile_working_set_bytes(nest) <= cache_bytes:
        private = 2 * in_elems + weight_elems + 2 * out_elems
        shared = in_elems + out_elems
    else:
        # Halo reuse lost: every tap re-streams its input slice.
        private = in_elems + taps * in_elems + weight_elems + 2 * out_elems
        shared = in_elems + out_elems + (taps - 1) * out_elems
    return WorkEstimate(flops=spec.flops, private_elems=private,
                        shared_elems=shared)


# -- fingerprinting --------------------------------------------------------


def stable_fingerprint(text: str, length: int = 12) -> str:
    """Deterministic short hex fingerprint of canonical text."""
    return hashlib.sha256(text.encode()).hexdigest()[:length]
