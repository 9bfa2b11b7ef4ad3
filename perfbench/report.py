"""Human-readable output, the residual table, and regression attribution."""

from __future__ import annotations

import json

END_TO_END = {
    "img_per_s": "images/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def metric_lines(metrics: dict, units: dict) -> list[str]:
    width = max(len(name) for name in units)
    return [f"  {name:<{width}}  {metrics[name]:>12.4f}  {unit}"
            for name, unit in units.items()]


def residual_table(rows: list[dict]) -> list[str]:
    lines = ["model vs measured (ModelCostBackend, deployed engine, per step):",
             f"  {'layer':<6} {'phase':<5} {'engine':<17} {'meas ms':>9} "
             f"{'model ms':>9} {'meas/model':>10}"]
    for r in rows:
        lines.append(f"  {r['layer']:<6} {r['phase']:<5} {r['engine']:<17} "
                     f"{r['measured_ms']:>9.3f} {r['model_ms']:>9.4f} "
                     f"{r['ratio']:>10.1f}")
    return lines


def self_time_table(self_ms: dict, step_ms: float) -> list[str]:
    lines = [f"self time per traced step (sums to the step, {step_ms:.3f} ms):"]
    for key, value in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        share = value / step_ms if step_ms else 0.0
        lines.append(f"  {key:<34} {value:>9.3f} ms  {share:>6.1%}")
    accounted = sum(self_ms.values())
    lines.append(f"  {'(sum)':<34} {accounted:>9.3f} ms  "
                 f"{accounted / step_ms if step_ms else 0.0:>6.1%}")
    return lines


def describe(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {result['trace']}",
             f"  why: {result['why']}",
             f"  bypasses: {result['bypasses']}",
             "host: " + json.dumps(result["host"], sort_keys=True),
             "reference kernels: " + "  ".join(
                 f"{k} {v:.3f}" for k, v in result["reference_kernels"].items())]
    if "plan" in result:
        lines.append("deployed plan: " + "  ".join(
            f"{name} fp={fp} bp={bp}" for name, (fp, bp) in result["plan"].items())
            + f"  retunes={result['retunes']}")
    if "end_to_end" in result:
        window = result["window"]
        lines.append(f"end-to-end ({window['steps']} timed steps over "
                     f"{window['seconds']:.2f} s; set-up runs "
                     + ", ".join(f"{s:.3f}" for s in result["setup_runs_s"])
                     + " s):")
        lines += metric_lines(result["end_to_end"], END_TO_END)
    verdict = result["verdict"]
    lines.append(
        f"correct: {str(verdict['correct']).lower()}  "
        + (f"error: {verdict['error']}" if verdict.get("error") else
           f"loss rel err {verdict['loss_rel_err']:.2e} "
           f"(tol {verdict['loss_rtol']:.0e})  weights bit-identical to "
           f"serial backend: {verdict['bit_identical']}"))
    lines.append(f"steps: attempted {result['attempted']}  failed "
                 f"{result['failed']}  counters {result['counters']}")
    if "per_layer" in result:
        from layertrace import PER_LAYER

        lines.append("per-layer (traced window):")
        lines += metric_lines(result["per_layer"], PER_LAYER)
        lines += residual_table(result["residuals"])
        lines += self_time_table(result["self_ms"],
                                 result["per_layer"]["trace.step_ms"])
    return lines


def attribute(base: dict, head: dict, top: int = 12) -> list[str]:
    """Rank per-layer self times by their change from ``base`` to ``head``."""
    for result in (base, head):
        if "self_ms" not in result:
            raise SystemExit("compare needs two traced outputs (--trace 1)")
    keys = sorted(set(base["self_ms"]) | set(head["self_ms"]))
    moves = sorted(
        ((head["self_ms"].get(k, 0.0) - base["self_ms"].get(k, 0.0), k)
         for k in keys), key=lambda mk: -abs(mk[0]))
    base_step = base["per_layer"]["trace.step_ms"]
    head_step = head["per_layer"]["trace.step_ms"]
    lines = [f"traced step: {base_step:.3f} -> {head_step:.3f} ms "
             f"({head_step - base_step:+.3f} ms)",
             f"  {'layer.phase':<34} {'base ms':>9} {'head ms':>9} {'delta':>9}"]
    for delta, key in moves[:top]:
        lines.append(f"  {key:<34} {base['self_ms'].get(key, 0.0):>9.3f} "
                     f"{head['self_ms'].get(key, 0.0):>9.3f} {delta:>+9.3f}")
    if moves:
        delta, key = moves[0]
        lines.append(f"moved most: {key} ({delta:+.3f} ms per step)")
    return lines
