"""The benchmark regression harness: schema, comparison, regression gate."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.bench import (
    SCHEMA_VERSION,
    BenchResult,
    Benchmark,
    compare_to_baseline,
    baseline_dict,
    load_baseline,
    run_benchmark,
    run_suite,
    suite_names,
    write_baseline,
    write_results,
)


def _result(name: str, seconds: float, threshold: float = 0.5) -> BenchResult:
    return BenchResult(name=name, description=name, repeats=1,
                       seconds=seconds, all_seconds=[seconds],
                       flops=1e6, threshold=threshold)


class TestSuite:
    def test_suite_covers_every_hot_path(self):
        assert suite_names() == (
            "gemm_blocked", "unfold", "stencil_fp", "schedule_search",
            "ctcsr_build", "sparse_bp", "pool_map",
            "par_stencil_fp", "par_sparse_bp",
            "train_epoch",
        )

    def test_run_single_benchmark_from_suite(self):
        (result,) = run_suite(("gemm_blocked",), repeats=1)
        assert result.name == "gemm_blocked"
        assert result.seconds > 0
        assert result.mflops > 0
        assert len(result.all_seconds) == 1

    def test_unknown_names_rejected(self):
        with pytest.raises(ReproError, match="unknown benchmark"):
            run_suite(("nope",), repeats=1)
        with pytest.raises(ReproError, match="slowdown names"):
            run_suite(("gemm_blocked",), repeats=1, slowdown={"nope": 2.0})


class TestRunBenchmark:
    def test_median_of_repeats_and_teardown(self):
        torn_down = []
        bench = Benchmark(
            name="fake", description="fake", flops=100.0,
            setup=lambda: "state",
            run=lambda state: None,
            teardown=torn_down.append,
        )
        result = run_benchmark(bench, repeats=5)
        assert result.repeats == 5
        assert len(result.all_seconds) == 5
        assert result.seconds == sorted(result.all_seconds)[2]
        assert torn_down == ["state"]

    def test_slowdown_scales_measured_time(self):
        bench = Benchmark(name="fake", description="fake", flops=100.0,
                          setup=lambda: None, run=lambda state: None)
        fast = run_benchmark(bench, repeats=3, slowdown=1.0)
        slow = run_benchmark(bench, repeats=3, slowdown=1e6)
        assert slow.seconds > fast.seconds * 100

    def test_bad_arguments_rejected(self):
        bench = Benchmark(name="fake", description="fake", flops=1.0,
                          setup=lambda: None, run=lambda state: None)
        with pytest.raises(ReproError):
            run_benchmark(bench, repeats=0)
        with pytest.raises(ReproError):
            run_benchmark(bench, slowdown=0.0)


class TestPersistence:
    def test_bench_json_is_schema_versioned(self, tmp_path):
        (path,) = write_results([_result("gemm_blocked", 0.01)], tmp_path)
        assert path.name == "BENCH_gemm_blocked.json"
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        for key in ("name", "seconds", "all_seconds", "flops", "mflops",
                    "repeats", "threshold"):
            assert key in payload
        assert payload["mflops"] == pytest.approx(1e6 / 0.01 / 1e6)

    def test_baseline_round_trip(self, tmp_path):
        results = [_result("a", 0.01), _result("b", 0.02)]
        path = write_baseline(results, tmp_path / "baseline.json")
        payload = load_baseline(path)
        assert payload["benchmarks"]["b"]["seconds"] == 0.02
        assert payload["benchmarks"]["a"]["threshold"] == 0.5

    def test_load_baseline_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": 99, "benchmarks": {}}))
        with pytest.raises(ReproError, match="schema_version"):
            load_baseline(path)
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ReproError, match="benchmarks"):
            load_baseline(path)


class TestComparison:
    def test_fresh_baseline_compares_clean(self):
        results = [_result("a", 0.01), _result("b", 0.02)]
        report = compare_to_baseline(results, baseline_dict(results))
        assert report.ok
        assert [c.status for c in report.comparisons] == ["ok", "ok"]
        assert all(c.ratio == pytest.approx(1.0) for c in report.comparisons)

    def test_slowdown_beyond_threshold_regresses(self):
        baseline = baseline_dict([_result("a", 0.01)])
        report = compare_to_baseline([_result("a", 0.02)], baseline)
        assert not report.ok
        (comp,) = report.regressions
        assert comp.name == "a"
        assert comp.status == "REGRESSED"
        assert comp.ratio == pytest.approx(2.0)

    def test_slowdown_within_threshold_passes(self):
        baseline = baseline_dict([_result("a", 0.01)])
        report = compare_to_baseline([_result("a", 0.014)], baseline)
        assert report.ok  # 1.4x < the 1.5x limit

    def test_benchmark_missing_from_baseline_is_new_not_regressed(self):
        baseline = baseline_dict([_result("a", 0.01)])
        report = compare_to_baseline(
            [_result("a", 0.01), _result("b", 10.0)], baseline)
        assert report.ok
        assert report.comparisons[1].status == "new"

    def test_baseline_can_widen_a_noisy_threshold(self):
        baseline = baseline_dict([_result("a", 0.01, threshold=9.0)])
        # 5x slower, but the recorded baseline allows up to 10x.
        report = compare_to_baseline([_result("a", 0.05)], baseline)
        assert report.ok
        assert report.comparisons[0].threshold == 9.0

    def test_report_table_and_dict(self):
        baseline = baseline_dict([_result("a", 0.01)])
        report = compare_to_baseline([_result("a", 0.05)], baseline,
                                     baseline_path="baseline.json")
        text = report.table()
        assert "REGRESSED" in text and "a" in text
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["baseline"] == "baseline.json"
        assert payload["comparisons"][0]["ratio"] == pytest.approx(5.0)


class TestEndToEndGate:
    def test_record_then_trip_the_gate(self, tmp_path):
        """The acceptance flow: record baseline, compare clean, inject
        a slowdown, watch the gate trip -- all with one real benchmark."""
        results = run_suite(("gemm_blocked",), repeats=1)
        baseline_path = write_baseline(results, tmp_path / "baseline.json")
        write_results(results, tmp_path)
        clean = compare_to_baseline(results, load_baseline(baseline_path))
        slowed = run_suite(("gemm_blocked",), repeats=1,
                           slowdown={"gemm_blocked": 100.0})
        tripped = compare_to_baseline(slowed, load_baseline(baseline_path))
        assert clean.ok
        assert not tripped.ok
