"""Tests for the schedulable loop IR: vocabulary, estimates, fingerprints."""

import pytest

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.machine.spec import xeon_e5_2650
from repro.stencil.loopir import (
    PARALLEL,
    REDUCE_ATOMIC,
    REDUCE_ORDERED,
    Dim,
    conv_bp_data_nest,
    conv_bp_weights_nest,
    conv_fp_nest,
    estimate_nest,
    stable_fingerprint,
    tile_working_set_bytes,
)
from repro.stencil.passes import tiled_pipeline

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=4, fy=3, fx=3)


class TestVocabulary:
    def test_dim_kinds_reject_unknown(self):
        with pytest.raises(CodegenError):
            Dim("oy", 4, "sideways")
        with pytest.raises(CodegenError):
            Dim("oy", 0, PARALLEL)

    def test_fp_nest_dim_kinds_encode_float_semantics(self):
        """The kinds are the legality oracle every pass consults."""
        stage = conv_fp_nest(SPEC).stage
        kinds = {li.dim.name: li.dim.kind for li in stage.loops}
        # Output-plane dims: freely tileable/reorderable.
        assert kinds["oy"] == kinds["ox"] == kinds["f"] == PARALLEL
        # Taps accumulate in emission order: order is observable in fp32.
        assert kinds["ky"] == kinds["kx"] == REDUCE_ORDERED
        # Channels reduce inside one tensordot: cannot be split at all.
        assert kinds["c"] == REDUCE_ATOMIC

    def test_bp_weights_spatial_dims_are_atomic(self):
        """dw accumulates over the whole output plane inside each tap's
        tensordot, so oy/ox cannot be tiled for this family."""
        stage = conv_bp_weights_nest(SPEC).stage
        kinds = {li.dim.name: li.dim.kind for li in stage.loops}
        assert kinds["oy"] == kinds["ox"] == REDUCE_ATOMIC

    def test_nests_carry_their_accesses(self):
        for builder in (conv_fp_nest, conv_bp_data_nest, conv_bp_weights_nest):
            stage = builder(SPEC).stage
            assert stage.stmt.out.index, builder.__name__
            assert stage.stmt.reads, builder.__name__
            read_bufs = {a.buffer for a in stage.stmt.reads}
            assert stage.stmt.out.buffer not in read_bufs or stage.stmt.accumulate


class TestEstimates:
    def test_estimate_counts_flops_and_traffic(self):
        est = estimate_nest(conv_fp_nest(SPEC))
        assert est.flops == SPEC.flops
        assert est.private_elems > 0
        assert est.shared_elems > 0

    @pytest.mark.parametrize("builder", [conv_fp_nest, conv_bp_data_nest,
                                         conv_bp_weights_nest])
    def test_cached_estimate_moves_inputs_and_outputs_once(self, builder):
        nest = builder(SPEC)
        est = estimate_nest(nest)
        # The dW nest reads two inputs and has no weight operand.
        inputs = sum(b.elems for b in nest.buffers if b.role == "input")
        weights = sum(b.elems for b in nest.buffers if b.role == "weight")
        out = nest.buffer(nest.stage.stmt.out.buffer).elems
        assert est.flops == SPEC.flops
        assert est.shared_elems == inputs + out
        assert est.private_elems == 2 * inputs + weights + 2 * out

    def test_overflowing_the_cache_re_streams_inputs_per_tap(self):
        nest = conv_fp_nest(SPEC)
        fits = estimate_nest(nest)
        spills = estimate_nest(nest, cache_bytes=1)
        taps = SPEC.fy * SPEC.fx
        in_elems = nest.buffer("inputs").elems
        out_elems = nest.buffer("out").elems
        assert spills.private_elems - fits.private_elems == (
            (taps - 1) * in_elems)
        assert spills.shared_elems - fits.shared_elems == (
            (taps - 1) * out_elems)

    def test_tiling_shrinks_the_working_set(self):
        untiled = tile_working_set_bytes(conv_fp_nest(SPEC))
        rows = tile_working_set_bytes(
            tiled_pipeline("fp", tile_y=3).build_nest(SPEC))
        cols = tile_working_set_bytes(
            tiled_pipeline("fp", tile_x=3).build_nest(SPEC))
        assert rows < untiled and cols < untiled

    def test_estimate_prices_on_the_roofline(self):
        est = estimate_nest(conv_fp_nest(SPEC))
        machine = xeon_e5_2650()
        t1 = est.time(machine, cores=1)
        t16 = est.time(machine, cores=16)
        assert 0 < t16 <= t1

    def test_work_delta_reports_direction(self):
        a = estimate_nest(conv_fp_nest(SPEC))
        b = tiled_pipeline("fp", tile_y=2).estimate(SPEC)
        delta = b - a
        assert isinstance(delta.describe(), str)


class TestFingerprint:
    def test_stable_across_calls_and_length(self):
        fp = stable_fingerprint("conv 3x14x14")
        assert fp == stable_fingerprint("conv 3x14x14")
        assert len(fp) == 12
        assert len(stable_fingerprint("x", 16)) == 16

    def test_distinct_inputs_do_not_collide(self):
        assert stable_fingerprint("a") != stable_fingerprint("b")
