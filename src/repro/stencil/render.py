"""Render stencil IR as human-readable listings.

Two renderers live here:

* :func:`render_intrinsics` -- the paper presents its generated code as
  AVX intrinsics; this produces the same listing style from the vector
  IR, so the generated blocks can be inspected (and diffed against
  Fig. 7) even though this reproduction executes the numpy emission
  instead.  Comment lines group each input vector load with the FMAs
  that consume it, exactly as the Fig. 7 listing annotates "load input
  vector 1 and compute 2 contributions".
* :func:`render_nest` -- a schedule-annotated loop-nest listing for the
  loop IR (:mod:`repro.stencil.loopir`), showing the nest's loop
  order, dim kinds and tile/jam factors.  This is what
  ``repro explain`` style tooling and the schedule-search reports print.
"""

from __future__ import annotations

from repro.stencil.ir import BasicBlock, VBroadcast, VFma, VLoad, VStore
from repro.stencil.loopir import LoopNest


def render_intrinsics(block: BasicBlock, input_row_stride: str = "NX") -> str:
    """C-with-intrinsics text for one basic block.

    ``input_row_stride`` is the symbol used for the input row pitch in
    the generated address arithmetic.
    """
    lines: list[str] = []
    temp_counter = 0
    pending_fmas: list[VFma] = []
    current_load: VLoad | None = None

    def flush_load() -> None:
        nonlocal temp_counter, current_load
        if current_load is None:
            return
        count = len(pending_fmas)
        plural = "s" if count != 1 else ""
        lines.append(
            f"/* load input vector ({current_load.y_off},{current_load.x_off}) "
            f"and compute {count} contribution{plural} */"
        )
        lines.append(
            f"__m256 {current_load.dst} = _mm256_loadu_ps(input + "
            f"(y + {current_load.y_off})*{input_row_stride} + x + "
            f"{current_load.x_off});"
        )
        for fma in pending_fmas:
            temp = f"temp{temp_counter}"
            temp_counter += 1
            lines.append(
                f"__m256 {temp} = _mm256_mul_ps({fma.vec}, {fma.wvec});"
            )
            lines.append(
                f"{fma.acc} = _mm256_add_ps({fma.acc}, {temp});"
            )
        pending_fmas.clear()
        current_load = None

    for instr in block.instructions:
        if isinstance(instr, VBroadcast):
            flush_load()
            lines.append(
                f"__m256 {instr.dst} = _mm256_set1_ps("
                f"weight[{instr.ky}*FX + {instr.kx}]);"
            )
        elif isinstance(instr, VLoad):
            flush_load()
            current_load = instr
        elif isinstance(instr, VFma):
            pending_fmas.append(instr)
        elif isinstance(instr, VStore):
            flush_load()
            lines.append(
                f"_mm256_storeu_ps(output + (y + {instr.ty})*{input_row_stride}"
                f" + x + {instr.tx}*8, {instr.acc});"
            )
    flush_load()
    return "\n".join(lines) + "\n"


def render_nest(nest: LoopNest) -> str:
    """Schedule-annotated textual listing of a loop nest.

    Buffers print with their role; the stage prints its loops
    outer-to-inner with the dim kind and any tile/jam annotations, then
    the statement with its access maps.
    """
    lines: list[str] = [f"nest {nest.spec.describe()}"]
    for buf in nest.buffers:
        lines.append(f"buffer {buf.name}{list(buf.shape)} ({buf.role})")
    stage = nest.stage
    lines.append(f"stage {stage.name}:")
    indent = "  "
    for info in stage.loops:
        notes = [info.dim.kind]
        if info.tile is not None:
            notes.append(f"tile={info.tile}")
        if info.jam > 1:
            notes.append(f"jam={info.jam}")
        if info.mode != "serial":
            notes.append(info.mode)
        lines.append(f"{indent}for {info.dim.name} in "
                     f"[0, {info.dim.extent})  # {', '.join(notes)}")
        indent += "  "
    stmt = stage.stmt
    op = "+=" if stmt.accumulate else "="
    reads = ", ".join(
        f"{acc.buffer}[{', '.join(ix.describe() for ix in acc.index)}]"
        for acc in stmt.reads
    )
    out = stmt.out
    lines.append(
        f"{indent}{out.buffer}"
        f"[{', '.join(ix.describe() for ix in out.index)}] "
        f"{op} {stmt.op}({reads})"
    )
    if nest.vectorized:
        lines.append(f"vectorized: {nest.num_registers} registers x "
                     f"{nest.vector_width} lanes")
    return "\n".join(lines) + "\n"


def block_summary_comment(block: BasicBlock) -> str:
    """One-line /* ... */ header summarizing the block's statistics."""
    stats = block.summary()
    return (
        f"/* {block.fy}x{block.fx} stencil, register tile "
        f"{block.ry}x{block.rx}: {stats['loads']:.0f} loads, "
        f"{stats['fmas']:.0f} FMAs ({stats['loads_per_fma']:.2f} loads/FMA), "
        f"{stats['registers_used']:.0f} registers */"
    )
