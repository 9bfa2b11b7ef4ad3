"""The traced window: per-layer metrics, self-time accounting, residuals.

Layers are named after the program's modules: ``nn`` (``Network``, the
loss and the SGD update), ``conv`` (``nn.layers.conv.ConvLayer``),
``stencil``/``sparse``/``gemm`` (the engine classes), ``runtime``
(``ParallelExecutor`` and the worker pool), ``core`` (``SpgCNN``) and the
set-up phases.  Per-step values are means over the traced steps.
Engine times are busy times summed over workers.
"""

from __future__ import annotations

from collections import defaultdict

from repro import telemetry
from repro.core.goodput import nonzero_conv_flops
from repro.errors import ReproError

from tracer import Tracer
from workloads import BATCH

#: Conv layers reported by name; a workload without one reports zeros.
CONV_LAYERS = ("conv0", "conv3")

PER_LAYER: dict[str, str] = {
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.loss_ms": "ms",
    "nn.update_ms": "ms",
    "nn.other_layers_ms": "ms",
    **{name: unit for layer in CONV_LAYERS for name, unit in (
        (f"conv.{layer}.fp_ms", "ms"),
        (f"conv.{layer}.bp_ms", "ms"),
        (f"conv.{layer}.bp.error_sparsity", "fraction"),
        (f"conv.{layer}.bp.goodput_gflops", "GFLOP/s"),
        (f"conv.{layer}.fp.model_ms", "ms"),
        (f"conv.{layer}.bp.model_ms", "ms"),
        (f"conv.{layer}.fp.meas_over_model", "ratio"),
        (f"conv.{layer}.bp.meas_over_model", "ratio"),
    )},
    "stencil.forward_ms": "ms",
    "sparse.backward_data_ms": "ms",
    "sparse.backward_weights_ms": "ms",
    "sparse.compress_ms": "ms",
    "sparse.compress_calls": "count",
    "gemm.backward_data_ms": "ms",
    "gemm.backward_weights_ms": "ms",
    "runtime.executor_ms": "ms",
    "runtime.overhead_ms": "ms",
    "runtime.worker_busy_frac": "fraction",
    "runtime.tasks_per_step": "count",
    "runtime.shipped_jobs_per_step": "count",
    "core.optimize_ms": "ms",
    "core.replan_ms": "ms",
    "core.retunes": "count",
    "setup.build_ms": "ms",
    "setup.loop_ms": "ms",
    "setup.first_step_ms": "ms",
    "resilience.fallbacks": "count",
    "runtime.retries": "count",
    "runtime.respawns": "count",
    "trace.overhead_frac": "fraction",
    "trace.step_ms": "ms",
    "trace.unexplained_ms": "ms",
}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer for the traced window."""
    import repro.nn.sgd as sgd
    import repro.sparse.engine as sparse_engine
    from repro.core.framework import SpgCNN
    from repro.nn.layers.conv import ConvLayer
    from repro.nn.network import Network
    from repro.ops.gemm_conv import GemmInParallelEngine
    from repro.ops.reference_engine import ReferenceEngine
    from repro.runtime.parallel import ParallelExecutor
    from repro.stencil.engine import StencilEngine

    def layer_name(args):
        return args[0].name

    def after_bp(rec, args):
        layer, out_error = args[0], args[1]
        batch = int(out_error.shape[0])
        rec.attrs.update(sparsity=layer.last_error_sparsity,
                         flops=2.0 * batch * layer.padded_spec.flops)

    tracer.wrap(sgd.SGDTrainer, "step", "sgd.step")
    tracer.wrap(sgd, "softmax_cross_entropy", "nn.loss")
    tracer.wrap(Network, "forward", "nn.forward")
    tracer.wrap(Network, "backward", "nn.backward")
    tracer.wrap(ConvLayer, "forward", "conv.fp", layer_of=layer_name)
    tracer.wrap(ConvLayer, "backward", "conv.bp", layer_of=layer_name,
                on_close=after_bp)
    methods = ("forward", "backward_data", "backward_weights")
    for method in methods:
        tracer.wrap(ParallelExecutor, method, f"executor.{method}")
        tracer.wrap(GemmInParallelEngine, method, f"gemm.{method}")
        tracer.wrap(ReferenceEngine, method, f"reference.{method}")
    tracer.wrap(StencilEngine, "forward", "stencil.forward")
    for method in methods[1:]:
        tracer.wrap(sparse_engine.SparseBPEngine, method, f"sparse.{method}")
    tracer.wrap(sparse_engine, "compress_error", "sparse.compress")
    tracer.wrap(SpgCNN, "after_epoch", "core.replan")


def traced_window(job, seconds: float, min_steps: int) -> dict:
    tracer = Tracer()
    install(tracer)
    job.tracer = tracer
    try:
        with telemetry.collect() as tel:
            window = job.window(seconds, min_steps)
    finally:
        tracer.uninstall()
        job.tracer = None
    tracer.adopt_worker_spans(tel.spans)
    return analyse(job, tracer, tel.counters, window)


def _model_ms(backend, engine: str, phase: str, layer,
              sparsity: float) -> float:
    try:
        return backend.time(engine, phase, layer.padded_spec, sparsity) * 1e3
    except ReproError:  # e.g. the reference fallback has no model
        return 0.0


def analyse(job, tracer: Tracer, counters: dict, window: dict) -> dict:
    from bench import model_backend

    n = max(1, len(tracer.steps))
    spans = tracer.spans
    in_steps = [i for i, r in enumerate(spans) if 0 <= r.step < len(tracer.steps)]
    self_s, unexplained = tracer.self_times()

    def total(kind: str, layer: str | None = None) -> float:
        return sum(spans[i].seconds for i in in_steps
                   if spans[i].kind == kind
                   and (layer is None or tracer.conv_layer(i) == layer))

    def self_total(*kinds: str) -> float:
        return sum(s for i, s in self_s.items() if spans[i].kind in kinds)

    per_step = lambda seconds: seconds / n * 1e3  # noqa: E731
    m: dict[str, float] = {
        "nn.forward_ms": per_step(total("nn.forward")),
        "nn.backward_ms": per_step(total("nn.backward")),
        "nn.loss_ms": per_step(total("nn.loss")),
        "nn.update_ms": per_step(self_total("sgd.step")),
        "nn.other_layers_ms": per_step(self_total("nn.forward", "nn.backward")),
        "stencil.forward_ms": per_step(total("stencil.forward")),
        "sparse.backward_data_ms": per_step(total("sparse.backward_data")),
        "sparse.backward_weights_ms": per_step(total("sparse.backward_weights")),
        "sparse.compress_ms": per_step(total("sparse.compress")),
        "sparse.compress_calls": sum(spans[i].kind == "sparse.compress"
                                     for i in in_steps) / n,
        "gemm.backward_data_ms": per_step(total("gemm.backward_data")),
        "gemm.backward_weights_ms": per_step(total("gemm.backward_weights")),
        "runtime.tasks_per_step": counters.get("pool.tasks", 0.0) / n,
        "runtime.shipped_jobs_per_step":
            counters.get("pool.shipped_jobs", 0.0) / n,
    }

    # runtime: executor calls, their busiest worker, and idle capacity.
    children: dict[int, list[int]] = defaultdict(list)
    for i in in_steps:
        if spans[i].parent is not None:
            children[spans[i].parent].append(i)
    executor_s = overhead_s = busy_s = capacity_s = 0.0
    threads = job.workload.threads or 1
    for i in in_steps:
        rec = spans[i]
        if not rec.kind.startswith("executor."):
            continue
        per_worker: dict[int, float] = defaultdict(float)
        for c in children[i]:
            per_worker[spans[c].worker] += spans[c].seconds
        executor_s += rec.seconds
        overhead_s += rec.seconds - max(per_worker.values(), default=0.0)
        busy_s += sum(per_worker.values())
        capacity_s += rec.seconds * threads
    m["runtime.executor_ms"] = per_step(executor_s)
    m["runtime.overhead_ms"] = per_step(overhead_s)
    m["runtime.worker_busy_frac"] = busy_s / capacity_s if capacity_s else 0.0

    replans = [r.seconds for r in spans if r.kind == "core.replan"]
    m["core.replan_ms"] = (sum(replans) / len(replans) * 1e3) if replans else 0.0

    # conv: measured vs modelled time of the deployed engines, goodput.
    backend = model_backend()
    layers = {layer.name: layer for layer in job.network.conv_layers()}
    residuals = []
    for name in CONV_LAYERS:
        layer = layers.get(name)
        bp = [spans[i] for i in in_steps
              if spans[i].kind == "conv.bp" and spans[i].layer == name]
        sparsity = (sum(r.attrs["sparsity"] for r in bp) / len(bp)) if bp else 0.0
        useful = sum(nonzero_conv_flops(r.attrs["flops"], r.attrs["sparsity"])
                     for r in bp)
        bp_s = sum(r.seconds for r in bp)
        fp_ms, bp_ms = per_step(total("conv.fp", name)), per_step(bp_s)
        m[f"conv.{name}.fp_ms"] = fp_ms
        m[f"conv.{name}.bp_ms"] = bp_ms
        m[f"conv.{name}.bp.error_sparsity"] = sparsity
        m[f"conv.{name}.bp.goodput_gflops"] = useful / bp_s / 1e9 if bp_s else 0.0
        for phase, meas in (("fp", fp_ms), ("bp", bp_ms)):
            model = ratio = 0.0
            if layer is not None:
                engine = (layer.fp_engine_name if phase == "fp"
                          else layer.bp_engine_name)
                model = _model_ms(backend, engine, phase, layer, sparsity)
                ratio = meas / model if model else 0.0
                residuals.append({"layer": name, "phase": phase,
                                  "engine": engine, "measured_ms": meas,
                                  "model_ms": model, "ratio": ratio})
            m[f"conv.{name}.{phase}.model_ms"] = model
            m[f"conv.{name}.{phase}.meas_over_model"] = ratio

    # Self-time accounting: every traced step's wall time, by layer key.
    self_ms: dict[str, float] = defaultdict(float)
    for i, seconds in self_s.items():
        self_ms[tracer.key(i)] += per_step(seconds)
    self_ms["unexplained"] = per_step(sum(unexplained))
    step_ms = per_step(sum(hi - lo for lo, hi in tracer.steps))
    m["trace.step_ms"] = step_ms
    m["trace.unexplained_ms"] = self_ms["unexplained"]
    return {"metrics": m, "self_ms": dict(self_ms), "residuals": residuals,
            "img_per_s": window["steps"] * BATCH / window["seconds"]}
