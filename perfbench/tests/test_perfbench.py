"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``.

Each workload runs at minimal length through the real command line, so
these tests take a minute or two; they are not part of the package's
tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from report import attribute  # noqa: E402
from tracer import Rec, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = ["--seconds", "0.3", "--min-steps", "3"]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(last: dict, declared: list[dict]) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {name for name in last["metrics"]} == {m["name"] for m in declared}
    for metric in declared:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)


def test_benchmark_json_lists_the_steady_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items() if w.in_benchmark]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    out = tmp_path / "traced.json"
    proc, last = run_bench("--workload", workload, "--seed", "3", "--trace",
                           "1", "--out", str(out), *SHORT)
    assert_metrics(last, SPEC["per_layer"])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 3
    result = json.loads(out.read_text())
    assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["end_to_end"].values())
    # The self times account for the traced step; the rest is reported.
    step = result["per_layer"]["trace.step_ms"]
    assert sum(result["self_ms"].values()) == pytest.approx(step, rel=1e-6)
    assert "model vs measured" in proc.stdout
    assert "trace.overhead_frac" in proc.stdout


def test_untraced_run_prints_end_to_end_metrics(tmp_path):
    _, last = run_bench("--workload", "mnist-thread", "--seed", "4", *SHORT,
                        "--out", str(tmp_path / "r.json"))
    assert_metrics(last, SPEC["end_to_end"])
    assert last["correct"] and last["failed"] == 0


def test_fault_plan_fails_steps(tmp_path):
    out = tmp_path / "r.json"
    _, last = run_bench("--workload", "mnist-sparse-serial", "--seed", "5",
                        "--fault-plan", "numeric", *SHORT, "--out", str(out))
    assert last["failed"] > 0
    # The plan's NaN gradients and raising engine calls are counted.
    counters = json.loads(out.read_text())["counters"]
    assert counters["engine.fallbacks"] > 0


def test_perturbed_weight_trips_the_correctness_check(tmp_path):
    _, last = run_bench("--workload", "mnist-thread", "--seed", "6",
                        "--perturb-weight", *SHORT,
                        "--out", str(tmp_path / "r.json"))
    assert last["correct"] is False
    assert last["failed"] == last["attempted"]


def test_run_leaves_tracked_bytecode_untouched(tmp_path):
    pyc = sorted((ROOT / "src").rglob("*.pyc"))
    before = {p: p.stat().st_mtime_ns for p in pyc}
    run_bench("--workload", "mnist-sparse-serial", "--seed", "7", *SHORT,
              "--out", str(tmp_path / "r.json"))
    assert {p: p.stat().st_mtime_ns for p in pyc} == before
    assert not list(BENCH_DIR.rglob("*.pyc"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mnist-thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _rec(kind, start, end, parent=None, worker=0, layer=""):
    return Rec(kind=kind, start=start, end=end, parent=parent, step=0,
               worker=worker, layer=layer)


def test_self_times_share_concurrent_children_and_sum_to_the_step():
    tracer = Tracer()
    tracer.steps = [(0.0, 10.0)]
    tracer.spans = [
        _rec("sgd.step", 0.0, 9.0),
        _rec("conv.fp", 1.0, 8.0, parent=0, layer="conv0"),
        _rec("executor.forward", 2.0, 8.0, parent=1),
        _rec("stencil.forward", 2.0, 6.0, parent=2, worker=1),
        _rec("stencil.forward", 3.0, 7.0, parent=2, worker=2),
    ]
    self_s, unexplained = tracer.self_times()
    assert unexplained == [pytest.approx(1.0)]
    assert self_s[0] == pytest.approx(2.0)      # [0,1) and [8,9)
    assert self_s[1] == pytest.approx(1.0)      # [1,2)
    assert self_s[2] == pytest.approx(1.0)      # [7,8): no worker busy
    assert self_s[3] == pytest.approx(1.0 + 1.5)  # alone [2,3), half of [3,6)
    assert self_s[4] == pytest.approx(1.5 + 1.0)  # half of [3,6), alone [6,7)
    assert sum(self_s.values()) + unexplained[0] == pytest.approx(10.0)
    assert tracer.key(3) == "conv0.stencil.forward"


def test_compare_names_the_layer_that_moved_most():
    def traced(step, stencil, gemm):
        return {"per_layer": {"trace.step_ms": step},
                "self_ms": {"conv0.stencil.forward": stencil,
                            "conv0.gemm.backward_data": gemm}}

    lines = attribute(traced(20.0, 8.0, 12.0), traced(23.0, 8.5, 14.5))
    assert lines[-1].startswith("moved most: conv0.gemm.backward_data")
