"""The schedule searcher: bounded, deterministic, cached, bit-exact."""

import numpy as np
import pytest

from repro.check.runner import default_networks
from repro.core.convspec import ConvSpec
from repro.nn.schedule import ScheduleSearch
from repro.stencil.emit import GeneratedKernel
from repro.stencil.passes import default_pipeline

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=4, fy=3, fx=3, name="search-t")
FAMILIES = ("fp", "bp_data", "bp_weights", "sparse_bp_weights")


class TestCandidateEnumeration:
    def test_at_least_eight_distinct_candidates_per_family(self):
        search = ScheduleSearch()
        for family in FAMILIES:
            cands = search.candidates(SPEC, family)
            assert len(cands) >= 8, family
            fingerprints = [c.fingerprint() for c in cands]
            assert len(set(fingerprints)) == len(cands), family

    def test_sparse_bp_data_has_exactly_its_one_legal_schedule(self):
        # The pointer-shifted scatter kernel admits no reordering at all:
        # its tap order carries the accumulation semantics.
        cands = ScheduleSearch().candidates(SPEC, "sparse_bp_data")
        assert len(cands) == 1
        assert cands[0].is_default

    def test_candidates_include_the_default(self):
        for family in FAMILIES:
            cands = ScheduleSearch().candidates(SPEC, family)
            assert any(c.is_default for c in cands), family


class TestSearch:
    def test_winner_is_cheapest_and_verified(self):
        search = ScheduleSearch()
        choice = search.search(SPEC, "fp")
        assert choice.num_candidates >= 8
        assert choice.verified
        assert choice.seconds == min(t for _, t in choice.timings)
        assert choice.speedup_over_default() >= 1.0

    def test_deterministic_under_fixed_seed(self):
        a = ScheduleSearch(seed=11).search(SPEC, "fp")
        b = ScheduleSearch(seed=11).search(SPEC, "fp")
        assert a == b
        assert a.pipeline.fingerprint() == b.pipeline.fingerprint()
        # And the whole layer-level result.
        la = ScheduleSearch(seed=11).search_layer(SPEC)
        lb = ScheduleSearch(seed=11).search_layer(SPEC)
        assert la == lb

    def test_repeat_search_is_served_from_cache(self):
        search = ScheduleSearch()
        first = search.search(SPEC, "bp_weights")
        again = search.search(SPEC, "bp_weights")
        assert again is first

    def test_search_layer_searches_every_stencil_phase(self):
        result = ScheduleSearch().search_layer(SPEC)
        assert {phase: c.family for phase, c in result.items()} == {
            "fp": "fp", "bp_data": "bp_data", "bp_weights": "bp_weights",
        }

    def test_pricing_scales_with_cores(self):
        slow = ScheduleSearch(cores=1).search(SPEC, "fp")
        fast = ScheduleSearch(cores=16).search(SPEC, "fp")
        assert fast.seconds <= slow.seconds


STENCIL_FAMILIES = ("fp", "bp_data", "bp_weights")

#: The engine-facing conv specs of the full-scale zoo networks.
ZOO_SPECS = list(dict.fromkeys(
    layer.padded_spec
    for net in default_networks() for layer in net.conv_layers()
))

#: Argument builders and output shape per stencil family.
_KERNEL_IO = {
    "fp": (lambda i, w, e: (i, w), lambda spec: spec.output_shape),
    "bp_data": (lambda i, w, e: (e, w), lambda spec: spec.input_shape),
    "bp_weights": (lambda i, w, e: (e, i), lambda spec: spec.weight_shape),
}


def _run(spec, pipeline, rng):
    """Emit ``pipeline`` for ``spec`` and run it on random data."""
    inputs = rng.standard_normal(spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    err = rng.standard_normal(spec.output_shape).astype(np.float32)
    args, shape = _KERNEL_IO[pipeline.family]
    out = np.zeros(shape(spec), dtype=np.float32)
    ScheduleSearch._emit(spec, pipeline)(*args(inputs, weights, err), out)
    return out


def _drifting_emit(monkeypatch, seed=0):
    """Make every non-default emission nudge one seeded output element
    by 1 ulp: a drift no structural verifier can see."""
    real = ScheduleSearch._emit

    def emit(spec, pipeline):
        kernel = real(spec, pipeline)
        if pipeline.is_default:
            return kernel

        def drifting(*args):
            out = args[-1]
            kernel(*args)
            flat = out.reshape(-1)
            at = np.random.default_rng(seed).integers(flat.size)
            flat[at] = np.nextafter(flat[at], np.float32(np.inf))
            return out

        return GeneratedKernel(kernel.name, kernel.source, drifting)

    monkeypatch.setattr(ScheduleSearch, "_emit", staticmethod(emit))


class TestBitwiseProbeGate:
    """A non-default stencil winner must reproduce the default emission
    bit for bit on the gate's probe input."""

    @pytest.mark.parametrize("family", STENCIL_FAMILIES)
    def test_one_ulp_drift_rejects_the_candidate(self, family,
                                                 monkeypatch):
        cand = next(c for c in ScheduleSearch().candidates(SPEC, family)
                    if not c.is_default)
        assert ScheduleSearch()._passes_verifiers(SPEC, cand)
        _drifting_emit(monkeypatch)
        assert not ScheduleSearch()._passes_verifiers(SPEC, cand)
        # The default is its own reference and never probed.
        assert ScheduleSearch()._passes_verifiers(
            SPEC, default_pipeline(family))

    def test_search_falls_back_past_drifting_winners(self, monkeypatch):
        # Price every non-default candidate below the default, so the
        # gate, not the roofline, decides the winner.
        monkeypatch.setattr(
            ScheduleSearch, "_price",
            lambda self, spec, pipe: 2.0 if pipe.is_default else 1.0,
        )
        honest = ScheduleSearch().search(SPEC, "fp")
        assert not honest.pipeline.is_default and honest.verified
        _drifting_emit(monkeypatch)
        choice = ScheduleSearch().search(SPEC, "fp")
        assert choice.pipeline.is_default and choice.verified

    @pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda s: s.describe())
    def test_every_full_scale_zoo_winner_matches_the_default(self, spec):
        # A different input from the gate's own probe.
        for phase, choice in ScheduleSearch().search_layer(spec).items():
            want = _run(spec, default_pipeline(phase),
                        np.random.default_rng(99))
            got = _run(spec, choice.pipeline, np.random.default_rng(99))
            assert got.tobytes() == want.tobytes(), choice.pipeline.describe()
