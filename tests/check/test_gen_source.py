"""Tests for the generated-source verifier: emitted kernels pass, doctored
sources (the pointer-shifting faults the paper's transformation could
introduce) are caught without ever executing the kernel."""

import pytest

from repro.check.gen_source import (
    _contracts,
    verify_generated_sources,
    verify_kernel_source,
)
from repro.core.convspec import ConvSpec
from repro.stencil.emit import emit_forward_kernel

TINY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="tiny")


def _fp_source() -> str:
    return emit_forward_kernel(TINY).source


def _fp_contract():
    return _contracts(TINY)["stencil-fp"]


def _messages(findings):
    return " | ".join(f.message for f in findings)


class TestCleanSources:
    @pytest.mark.parametrize("spec", [
        TINY,
        ConvSpec(nc=3, ny=12, nx=10, nf=4, fy=5, fx=3, name="rect"),
        ConvSpec(nc=1, ny=16, nx=16, nf=2, fy=3, fx=3, sy=2, sx=2,
                 name="strided"),
        ConvSpec(nc=2, ny=9, nx=9, nf=2, fy=1, fx=1, name="pointwise"),
    ])
    def test_all_five_families_verify_clean(self, spec):
        assert verify_generated_sources([spec]) == []

    def test_emitted_fp_source_matches_contract(self):
        assert verify_kernel_source(_fp_source(), _fp_contract(), "fp") == []


class TestDoctoredSources:
    def test_out_of_range_pointer_shift_is_caught(self):
        # The acceptance-criteria fault: one pointer-shifted slice runs
        # past the input extent (classic off-by-one in the shift).
        source = _fp_source().replace("inputs[:, 2:8, 2:8]",
                                      "inputs[:, 2:9, 2:8]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("exceeds" in f.message and "extent 8" in f.message
                   for f in findings), _messages(findings)

    def test_wrong_selection_count_is_caught_even_in_bounds(self):
        # 1:7 -> 0:7 stays inside the 8-wide input but selects 7 elements
        # where the output geometry demands 6.
        source = _fp_source().replace("inputs[:, 1:7, 1:7]",
                                      "inputs[:, 0:7, 1:7]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("selects 7 elements, expected 6" in f.message
                   for f in findings), _messages(findings)

    def test_duplicated_tap_is_caught(self):
        source = _fp_source()
        line = next(ln for ln in source.splitlines() if "0, 0]" in ln)
        doctored = source.replace(line, line + "\n" + line)
        findings = verify_kernel_source(doctored, _fp_contract(), "fp")
        assert any("double accumulation" in f.message for f in findings), \
            _messages(findings)

    def test_dropped_tap_is_caught(self):
        source = "\n".join(
            ln for ln in _fp_source().splitlines() if "2, 2]" not in ln
        )
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("missing [(2, 2)]" in f.message for f in findings), \
            _messages(findings)

    def test_tap_outside_support_is_caught(self):
        source = _fp_source().replace("weights[:, :, 2, 2]",
                                      "weights[:, :, 2, 3]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("outside the kernel support" in f.message
                   for f in findings), _messages(findings)
        # The bogus tap also indexes past the Fx extent.
        assert any("out of range" in f.message for f in findings), \
            _messages(findings)

    def test_non_whitelisted_name_is_caught(self):
        source = _fp_source().replace(
            "    return out", "    out += leaked_global\n    return out"
        )
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("leaked_global" in f.message and "non-whitelisted"
                   in f.message for f in findings), _messages(findings)

    @pytest.mark.parametrize("family", sorted(_contracts(TINY)))
    def test_assigned_scratch_local_is_caught(self, family):
        # Emitters write only into their parameters; a kernel that binds
        # and reads a local is outside the contract, whatever the name.
        from repro.check.gen_source import _EMITTERS

        module, attr = _EMITTERS[family]
        source = getattr(module, attr)(TINY).source
        ret = next(ln for ln in source.splitlines()
                   if ln.startswith("    return "))
        doctored = source.replace(
            ret, f"    scratch = np.zeros(1)\n"
            f"    np.add(scratch, 1, out=scratch)\n{ret}")
        findings = verify_kernel_source(doctored, _contracts(TINY)[family],
                                         family)
        assert any("'scratch'" in f.message and "non-whitelisted"
                   in f.message for f in findings), _messages(findings)

    def test_non_literal_slice_bound_is_caught(self):
        source = _fp_source().replace("inputs[:, 2:8, 2:8]",
                                      "inputs[:, 2:n, 2:8]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("not a literal int" in f.message for f in findings), \
            _messages(findings)

    def test_unparseable_source_is_one_finding(self):
        findings = verify_kernel_source("def broken(:", _fp_contract(), "fp")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message

    def test_missing_parameter_is_caught(self):
        source = _fp_source().replace("(inputs, weights, out)",
                                      "(inputs, out)")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("missing tensor parameters" in f.message
                   for f in findings), _messages(findings)

    def test_emitter_crash_is_reported_not_raised(self, monkeypatch):
        from repro.stencil import emit as stencil_emit

        def broken_emitter(spec):
            raise RuntimeError("emitter exploded")

        monkeypatch.setattr(stencil_emit, "emit_forward_kernel",
                            broken_emitter)
        findings = verify_generated_sources([TINY])
        assert any("emitter failed: emitter exploded" in f.message
                   for f in findings), _messages(findings)


class TestScheduledEmissionContracts:
    """Non-default pipelines verify under the relaxed (scheduled) contract."""

    def test_tiled_fp_emission_verifies_clean(self):
        from repro.check.gen_source import contract_for
        from repro.stencil.passes import tiled_pipeline

        pipeline = tiled_pipeline("fp", tile_y=3)
        kernel = emit_forward_kernel(TINY, pipeline)
        contract = contract_for(TINY, pipeline)
        assert verify_kernel_source(kernel.source, contract, "fp-tiled") == []

    def test_tile_coverage_gap_is_caught(self):
        from repro.check.gen_source import contract_for
        from repro.stencil.passes import tiled_pipeline

        pipeline = tiled_pipeline("fp", tile_y=3)
        source = emit_forward_kernel(TINY, pipeline).source.replace(
            "out[:, 3:6, 0:6] += np.tensordot(weights[:, :, 0, 0]",
            "out[:, 0:3, 0:6] += np.tensordot(weights[:, :, 0, 0]")
        contract = contract_for(TINY, pipeline)
        findings = verify_kernel_source(source, contract, "fp-tiled")
        assert any("overlap" in f.message or "cover" in f.message
                   for f in findings), _messages(findings)

    def test_unbalanced_repeated_tap_is_caught(self):
        # The tiled emission repeats every tap once per tile; doctoring
        # one occurrence breaks the equal-multiplicity rule.
        from repro.check.gen_source import contract_for
        from repro.stencil.passes import tiled_pipeline

        pipeline = tiled_pipeline("fp", tile_y=3)
        source = emit_forward_kernel(TINY, pipeline).source.replace(
            "weights[:, :, 2, 2], inputs[:, 5:8, 2:8]",
            "weights[:, :, 2, 1], inputs[:, 5:8, 2:8]")
        contract = contract_for(TINY, pipeline)
        findings = verify_kernel_source(source, contract, "fp-tiled")
        assert any("unequal multiplicity" in f.message
                   for f in findings), _messages(findings)
