"""Unit tests of the schedule passes and pipelines over single-stage nests."""

import pytest

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil.loopir import conv_bp_data_nest, conv_fp_nest, estimate_nest
from repro.stencil.passes import (
    FAMILIES,
    IllegalSchedule,
    Reorder,
    SchedulePipeline,
    Tile,
    UnrollAndJam,
    Vectorize,
    default_pipeline,
    tiled_pipeline,
)

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=4, fy=3, fx=3)
FP_ORDER = ("ky", "kx", "f", "c", "oy", "ox")


def _loops(nest):
    return {li.dim.name: li for li in nest.stage.loops}


class TestTile:
    def test_factor_must_be_positive(self):
        with pytest.raises(IllegalSchedule):
            Tile("oy", 0)

    @pytest.mark.parametrize("builder", [conv_fp_nest, conv_bp_data_nest])
    def test_tiles_only_the_named_dim(self, builder):
        nest = Tile("oy", 5).apply(builder(SPEC))
        loops = _loops(nest)
        assert loops["oy"].tile == 5
        assert all(li.tile is None for name, li in loops.items()
                   if name != "oy")

    def test_factor_is_clamped_to_the_extent(self):
        nest = Tile("ox", 100).apply(conv_fp_nest(SPEC))
        assert _loops(nest)["ox"].tile == SPEC.out_nx

    def test_loop_order_is_kept(self):
        nest = Tile("oy", 4).apply(conv_fp_nest(SPEC))
        assert tuple(li.dim.name for li in nest.stage.loops) == FP_ORDER


class TestReorder:
    def test_non_permutation_is_rejected(self):
        with pytest.raises(IllegalSchedule, match="not a permutation"):
            Reorder(("ky", "kx", "f", "c", "oy")).apply(conv_fp_nest(SPEC))

    def test_duplicated_dim_is_rejected(self):
        with pytest.raises(IllegalSchedule, match="not a permutation"):
            Reorder(("ky", "kx", "f", "f", "oy", "ox")).apply(
                conv_fp_nest(SPEC))

    def test_reorder_carries_tile_annotations(self):
        order = ("f", "c", "ky", "kx", "oy", "ox")
        nest = Reorder(order).apply(Tile("oy", 4).apply(conv_fp_nest(SPEC)))
        assert tuple(li.dim.name for li in nest.stage.loops) == order
        assert _loops(nest)["oy"].tile == 4

    def test_describe_lists_the_order(self):
        assert Reorder(FP_ORDER).describe() == "reorder(ky,kx,f,c,oy,ox)"


class TestUnrollAndJam:
    def test_factor_must_exceed_one(self):
        with pytest.raises(IllegalSchedule):
            UnrollAndJam("oy", 1)

    def test_untiled_spatial_dim_is_rejected(self):
        with pytest.raises(IllegalSchedule, match="tile the dim first"):
            UnrollAndJam("oy", 2).apply(conv_fp_nest(SPEC))

    def test_reduction_dim_is_rejected(self):
        with pytest.raises(IllegalSchedule, match="jamming a reduction"):
            UnrollAndJam("ky", 2).apply(conv_fp_nest(SPEC))

    def test_unknown_dim_is_rejected(self):
        with pytest.raises(IllegalSchedule, match="no such dim"):
            UnrollAndJam("py", 2).apply(conv_fp_nest(SPEC))

    def test_jam_is_recorded_on_the_tiled_loop(self):
        nest = UnrollAndJam("oy", 2).apply(
            Tile("oy", 3).apply(conv_fp_nest(SPEC)))
        loops = _loops(nest)
        assert (loops["oy"].tile, loops["oy"].jam) == (3, 2)
        assert all(li.jam == 1 for name, li in loops.items() if name != "oy")


class TestVectorize:
    def test_records_the_register_budget(self):
        nest = Vectorize(num_registers=24, vector_width=4).apply(
            conv_fp_nest(SPEC))
        assert nest.vectorized
        assert (nest.num_registers, nest.vector_width) == (24, 4)

    def test_second_vectorize_is_rejected(self):
        nest = Vectorize().apply(conv_fp_nest(SPEC))
        with pytest.raises(IllegalSchedule, match="already vectorized"):
            Vectorize().apply(nest)


class TestPipelineClosure:
    def test_unknown_family_is_rejected(self):
        with pytest.raises(CodegenError, match="unknown pipeline family"):
            SchedulePipeline(family="fused", passes=(Vectorize(),))

    def test_dense_pipeline_must_end_in_vectorize(self):
        with pytest.raises(CodegenError, match="exactly one vectorize"):
            SchedulePipeline(family="fp", passes=(Tile("oy", 2),))
        with pytest.raises(CodegenError, match="exactly one vectorize"):
            SchedulePipeline(family="fp", passes=(Vectorize(), Tile("oy", 2)))

    @pytest.mark.parametrize("bad", [Tile("oy", 2), UnrollAndJam("oy", 2),
                                     Vectorize()])
    def test_sparse_pipelines_accept_only_reorder(self, bad):
        with pytest.raises(CodegenError, match="only tap reorder"):
            SchedulePipeline(family="sparse_bp_weights", passes=(bad,))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_default_pipeline_is_default(self, family):
        pipeline = default_pipeline(family)
        assert pipeline.is_default
        assert pipeline.describe().startswith(f"{family}:")

    def test_sparse_families_build_the_dense_algorithm_nest(self):
        sparse = default_pipeline("sparse_bp_data").base_nest(SPEC)
        assert sparse == conv_bp_data_nest(SPEC)

    def test_fingerprint_separates_schedules(self):
        prints = {
            default_pipeline("fp").fingerprint(),
            tiled_pipeline("fp", tile_y=3).fingerprint(),
            tiled_pipeline("fp", tile_y=4).fingerprint(),
            tiled_pipeline("fp", tile_x=3).fingerprint(),
            default_pipeline("bp_data").fingerprint(),
        }
        assert len(prints) == 5

    def test_jam_without_a_tiled_row_is_rejected(self):
        with pytest.raises(CodegenError, match="jam requires"):
            tiled_pipeline("fp", jam=2)


class TestExplain:
    def test_one_report_per_pass(self):
        pipeline = tiled_pipeline("fp", tile_y=3, jam=2)
        reports = pipeline.explain(SPEC)
        assert [r.name for r in reports] == [
            p.describe() for p in pipeline.passes]

    def test_last_report_is_the_pipeline_estimate(self):
        pipeline = tiled_pipeline("fp", tile_y=3)
        assert pipeline.explain(SPEC)[-1].estimate == pipeline.estimate(SPEC)

    def test_deltas_sum_to_the_total_change(self):
        pipeline = tiled_pipeline("fp", tile_y=3)
        tiny_cache = 2048
        reports = pipeline.explain(SPEC, cache_bytes=tiny_cache)
        base = estimate_nest(conv_fp_nest(SPEC), cache_bytes=tiny_cache)
        total = reports[-1].estimate - base
        assert total.shared_elems == sum(
            r.delta.shared_elems for r in reports)
        assert total.private_elems == sum(
            r.delta.private_elems for r in reports)
