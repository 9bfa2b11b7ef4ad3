"""Differential pass-correctness suite (the schedulable-IR gate).

Every pipeline the schedule search can enumerate -- default,
cache-derived tiling, structured tile/reorder/jam variants and the
seeded-random samples -- must emit a kernel whose output is *bitwise*
identical to the unscheduled emission on the same data.  Schedules only
rearrange work the bit-exactness envelope allows; any drift is a bug in
a pass, not noise.
"""

import numpy as np
import pytest

from repro.nn.schedule import ScheduleSearch
from repro.stencil.emit import (
    emit_backward_data_kernel,
    emit_backward_weights_kernel,
    emit_forward_kernel,
)
from repro.stencil.passes import (
    IllegalSchedule,
    Reorder,
    SchedulePipeline,
    Tile,
    default_pipeline,
)
from tests.conftest import SMALL_SPECS, random_conv_data

#: Seeded searcher: its candidate sets include the random tile/order
#: samples, so iterating them exercises the whole enumerable space.
SEARCH = ScheduleSearch(seed=7, verify=False)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestBitIdentity:
    def test_fp_candidates(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        want = np.zeros(spec.output_shape, dtype=np.float32)
        emit_forward_kernel(spec)(inputs[0], weights, want)
        for pipeline in SEARCH.candidates(spec, "fp"):
            got = np.zeros_like(want)
            emit_forward_kernel(spec, pipeline)(inputs[0], weights, got)
            assert np.array_equal(got, want), pipeline.describe()

    def test_bp_data_candidates(self, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=1)
        want = np.zeros(spec.input_shape, dtype=np.float32)
        emit_backward_data_kernel(spec)(err[0], weights, want)
        for pipeline in SEARCH.candidates(spec, "bp_data"):
            got = np.zeros_like(want)
            emit_backward_data_kernel(spec, pipeline)(err[0], weights, got)
            assert np.array_equal(got, want), pipeline.describe()

    def test_bp_weights_candidates(self, spec, rng):
        inputs, _, err = random_conv_data(spec, rng, batch=1)
        want = np.zeros(spec.weight_shape, dtype=np.float32)
        emit_backward_weights_kernel(spec)(err[0], inputs[0], want)
        for pipeline in SEARCH.candidates(spec, "bp_weights"):
            got = np.zeros_like(want)
            emit_backward_weights_kernel(spec, pipeline)(
                err[0], inputs[0], got
            )
            assert np.array_equal(got, want), pipeline.describe()


class TestIllegalSchedules:
    """Passes refuse work outside the bit-exactness envelope."""

    SPEC = SMALL_SPECS[1]

    def _run(self, family, *passes):
        # Pipelines are structurally closed (they end in vectorize) --
        # the *application* is what must refuse.
        from repro.stencil.passes import Vectorize

        pipeline = SchedulePipeline(family=family,
                                    passes=tuple(passes) + (Vectorize(),))
        pipeline.build_nest(self.SPEC)

    def test_reduction_dims_do_not_tile(self):
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("c", 2))
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("ky", 2))

    def test_bp_weights_spatial_dims_do_not_tile(self):
        # oy/ox reduce inside each tap's tensordot for dw: atomic.
        with pytest.raises(IllegalSchedule):
            self._run("bp_weights", Tile("oy", 2))

    def test_taps_do_not_reorder_in_gather_nests(self):
        # fp taps accumulate into out in emission order: observable.
        with pytest.raises(IllegalSchedule):
            self._run("fp", Reorder(("f", "c", "kx", "ky", "oy", "ox")))

    def test_double_tile_is_rejected(self):
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("oy", 2), Tile("oy", 2))

    def test_two_dim_spatial_tiling_is_rejected(self):
        # tile(oy)+tile(ox) shrinks the vector primitive's operands
        # enough to flip its internal FMA path: outside the envelope.
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("oy", 2), Tile("ox", 2))

    def test_taps_do_reorder_in_scatter_free_nests(self):
        # The same permutation is legal for bp_weights: each tap writes
        # a disjoint dw slice, so tap order is unobservable there.
        default = default_pipeline("bp_weights")
        nest = default.base_nest(self.SPEC)
        names = tuple(li.dim.name for li in nest.stage.loops)
        assert names  # sanity: builds
        self._run("bp_weights", Reorder(("kx", "ky", "f", "c", "oy", "ox")))
