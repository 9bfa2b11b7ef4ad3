"""One benchmark run: set up, warm up, check, time a closed SGD loop.

A run trains one workload (see :mod:`workloads`) the way ``repro train``
does and measures it from outside:

1. The dataset comes from ``repro.data.synthetic`` with the run's seed,
   generated in a child process so its float64 temporaries do not land
   in this process's peak RSS.  Epochs take successive chunks of it;
   once it is used up the chunks recur, reshuffled by the loop.
2. Set-up: zoo constructor -> ``SpgCNN.optimize`` -> ``TrainingLoop``
   (preflight) -> end of the first step.  Measured here and in four fresh
   interpreters (codegen caches are per process); ``setup_s`` is the
   median of the five.
3. A warm-up epoch, then the first BP re-check (``recheck`` workloads),
   then a short check epoch whose batches and starting state are
   recorded for the correctness check.
4. The timed window: one client, each step starting when the previous
   one ends, epochs of fresh images, until ``--seconds`` have passed and
   at least ``MIN_STEPS`` steps ran.  With ``--trace 1`` a second, traced
   window follows on the same job.
5. Correctness: the check epoch is replayed from the recorded state on
   the ``reference`` engine (losses within ``LOSS_RTOL``) and, for
   two-worker workloads, on the ``serial`` backend with the same plan
   (weights bit-identical).  A failed check fails every step.

A step fails if it raises, if the non-finite guard skips it, or if it
moves one of the program's ``engine.fallbacks``, ``pool.retries``,
``supervisor.redispatches`` or ``supervisor.respawns`` counters.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.autotuner import ModelCostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import Dataset, cifar10_like, mnist_like
from repro.machine.spec import xeon_e5_2650
from repro.nn.sgd import SGDTrainer
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import cifar10_net, mnist_net
from repro.resilience import faults

import host
import layertrace
from workloads import (
    BATCH,
    CHECK_STEPS,
    EPOCH_STEPS,
    MODEL_CORES,
    WARMUP_STEPS,
    Workload,
)

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Relative loss tolerance of the reference-engine replay.  Engines sum
#: in different orders in float32; observed differences are ~1e-7.
LOSS_RTOL = 1e-4
#: Counters whose movement during a step fails it.
FAILURE_COUNTERS = ("engine.fallbacks", "pool.retries",
                    "supervisor.redispatches", "supervisor.respawns")
#: A window short of ``MIN_STEPS`` after ``--seconds`` runs at most this
#: much longer, so a run always ends within three minutes.
MAX_EXTRA_SECONDS = 45.0


class WindowDone(Exception):
    """Raised from the batch hook to end a timed window mid-epoch."""


class CounterTap:
    """Counts the failure counters as the program increments them.

    Wraps ``repro.telemetry.add`` (the call every instrumented module
    makes), so the counts exist without an active collector -- an active
    collector would switch on worker-side tracing in the untraced run.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(FAILURE_COUNTERS, 0.0)
        self._original = telemetry.add

    def __enter__(self) -> "CounterTap":
        original, counts = self._original, self.counts

        def add(name: str, value: float = 1.0) -> None:
            if name in counts:
                counts[name] += value
            original(name, value)

        telemetry.add = add
        return self

    def __exit__(self, *exc) -> None:
        telemetry.add = self._original

    def total(self) -> float:
        return sum(self.counts.values())


# -- data ------------------------------------------------------------------

def _dataset_fn(workload: Workload):
    return mnist_like if workload.net == "mnist" else cifar10_like


def emit_dataset(workload: Workload, seed: int, out) -> None:
    """Child side of :func:`load_dataset`: raw arrays after a JSON header."""
    data = _dataset_fn(workload)(workload.dataset_images, seed=seed)
    header = {"shape": list(data.images.shape), "classes": data.num_classes}
    out.write((json.dumps(header) + "\n").encode())
    out.write(np.ascontiguousarray(data.images, dtype=np.float32).tobytes())
    out.write(np.ascontiguousarray(data.labels, dtype=np.int64).tobytes())
    out.flush()


def _read_into(stream, array: np.ndarray) -> None:
    view = memoryview(array).cast("B")
    filled = 0
    while filled < len(view):
        got = stream.readinto(view[filled:])
        if not got:
            raise RuntimeError("dataset stream ended early")
        filled += got


def load_dataset(workload: Workload, seed: int) -> Dataset:
    """The seeded synthetic dataset, generated in a child interpreter."""
    cmd = [sys.executable, str(RUN_PY), "--emit-data", "--workload",
           workload.name, "--seed", str(seed)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        header = json.loads(proc.stdout.readline())
        pixels = np.empty(header["shape"], dtype=np.float32)
        labels = np.empty(header["shape"][0], dtype=np.int64)
        _read_into(proc.stdout, pixels)
        _read_into(proc.stdout, labels)
    if proc.returncode != 0:
        raise RuntimeError(f"dataset generator exited {proc.returncode}")
    return Dataset(images=pixels, labels=labels, num_classes=header["classes"])


# -- the training job ------------------------------------------------------

def build_network(workload: Workload, seed: int, threads=None, backend=None):
    kwargs = {"scale": workload.scale, "rng": np.random.default_rng(seed)}
    threads = workload.threads if threads is None else threads
    if threads and threads > 1:
        kwargs.update(threads=threads, backend=backend or workload.backend)
    build = mnist_net if workload.net == "mnist" else cifar10_net
    return build(**kwargs)


def close_network(network) -> None:
    for layer in network.conv_layers():
        layer.close()


def model_backend() -> ModelCostBackend:
    return ModelCostBackend(xeon_e5_2650(), cores=MODEL_CORES, batch=BATCH)


@dataclass
class StepLog:
    seconds: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)


class Job:
    """A zoo network under spg-CNN and a ``TrainingLoop``, driven by epochs."""

    def __init__(self, workload: Workload, seed: int, data: Dataset,
                 tap: CounterTap, warmup_steps: int = WARMUP_STEPS) -> None:
        self.workload = workload
        self.data = data
        self.tap = tap
        self.log = StepLog()
        self.tracer = None
        self.marks: dict[str, float] = {}
        self._cursor = 0
        self._deadline = None
        self._hard_stop = 0.0
        self._last_hook = 0.0
        self._window_start = 0.0
        self._min_steps = 0
        self._window_first = 0
        self._epoch_steps = 0
        self._index_in_epoch = 0

        first = self._next_chunk(warmup_steps)
        t0 = time.perf_counter()
        self.network = build_network(workload, seed)
        t1 = time.perf_counter()
        self.spg = SpgCNN(self.network, model_backend(),
                          **({"recheck_epochs": 1} if workload.recheck else {}))
        self.spg.optimize()
        t2 = time.perf_counter()
        hook = ((lambda epoch, _net: self.spg.after_epoch(epoch))
                if workload.recheck else None)
        self.loop = TrainingLoop(self.network, first, batch_size=BATCH,
                                 shuffle_seed=seed, epoch_end_hook=hook)
        t3 = time.perf_counter()
        self.loop.add_batch_hook(self._on_batch)
        self.marks.update(start=t0, built=t1, optimized=t2, looped=t3)
        self._epoch(first, warmup_steps)  # sets marks["first_step"]

    # -- epochs ------------------------------------------------------------

    def _next_chunk(self, steps: int) -> Dataset:
        n = steps * BATCH
        if self._cursor + n > len(self.data):
            self._cursor = 0  # the dataset is used up: its chunks recur
        lo, self._cursor = self._cursor, self._cursor + n
        return Dataset(self.data.images[lo:self._cursor],
                       self.data.labels[lo:self._cursor],
                       self.data.num_classes)

    def _epoch(self, chunk: Dataset, steps: int) -> None:
        self.loop.train_data = chunk
        self._epoch_steps = steps
        self._index_in_epoch = 0
        now = time.perf_counter()
        self._step_start = now
        self._tap_start = self.tap.total()
        if self.tracer is not None:
            self.tracer.begin_step(now)
        self.loop.run(self.loop.completed_epochs + 1)

    def _on_batch(self, _epoch: int, _index: int, result) -> None:
        now = time.perf_counter()
        self.marks.setdefault("first_step", now)
        moved = self.tap.total()
        self.log.seconds.append(now - self._step_start)
        self.log.failed.append(bool(result.skipped) or moved > self._tap_start)
        self.log.losses.append(float(result.loss))
        self._tap_start = moved
        self._last_hook = now
        self._index_in_epoch += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.end_step(now)
        if self._deadline is not None:
            done = len(self.log.seconds) - self._window_first
            if ((now >= self._deadline and done >= self._min_steps)
                    or now >= self._hard_stop):
                raise WindowDone
        self._step_start = time.perf_counter()
        if tracer is not None and self._index_in_epoch < self._epoch_steps:
            tracer.begin_step(self._step_start)

    def run_epoch(self, steps: int) -> None:
        self._epoch(self._next_chunk(steps), steps)

    def window(self, seconds: float, min_steps: int) -> dict:
        """Run epochs until the window ends; returns its step statistics."""
        self._window_first = len(self.log.seconds)
        self._min_steps = min_steps
        self._window_start = time.perf_counter()
        self._deadline = self._window_start + seconds
        self._hard_stop = self._deadline + MAX_EXTRA_SECONDS
        try:
            while True:
                self.run_epoch(EPOCH_STEPS)
        except WindowDone:
            pass
        finally:
            self._deadline = None
        steps = self.log.seconds[self._window_first:]
        return {"steps": len(steps),
                "seconds": self._last_hook - self._window_start,
                "step_seconds": steps}

    def close(self) -> None:
        close_network(self.network)


# -- correctness -----------------------------------------------------------

def snapshot(network) -> dict[str, np.ndarray]:
    return {name: param.copy() for name, param, _ in network.parameters()}


def replay(workload: Workload, seed: int, state: dict, velocity: dict,
           batches: list, trainer_cfg: dict, engines: dict | None,
           threads=None, backend=None) -> tuple[list[float], dict]:
    """Train ``batches`` from a recorded state on another engine/backend."""
    network = build_network(workload, seed, threads=threads, backend=backend)
    try:
        for layer in network.conv_layers():
            fp, bp = engines[layer.name] if engines else ("reference",) * 2
            layer.set_fp_engine(fp)
            layer.set_bp_engine(bp)
        for name, param, _ in network.parameters():
            param[...] = state[name]
        trainer = SGDTrainer(network, **trainer_cfg)
        trainer.load_velocity_state(velocity)
        losses = [float(trainer.step(x, y).loss) for x, y in batches]
        return losses, snapshot(network)
    finally:
        close_network(network)


@dataclass
class CheckRecord:
    state: dict
    velocity: dict
    batches: list
    engines: dict
    trainer_cfg: dict
    losses: list = field(default_factory=list)
    weights: dict = field(default_factory=dict)


def record_check_epoch(job: Job, perturb: bool) -> CheckRecord:
    """Run the check epoch, recording its starting state and batches."""
    trainer = job.loop.trainer
    record = CheckRecord(
        state=snapshot(job.network),
        velocity=trainer.velocity_state(),
        batches=[],
        engines={layer.name: (layer.fp_engine_name, layer.bp_engine_name)
                 for layer in job.network.conv_layers()},
        trainer_cfg={"learning_rate": trainer.learning_rate,
                     "momentum": trainer.momentum,
                     "weight_decay": trainer.weight_decay},
    )
    if perturb:  # test hook: the check must trip on a wrong weight
        job.network.conv_layers()[0].weights.flat[0] += 0.5
    original = trainer.step

    def recording(inputs, labels):
        record.batches.append((inputs.copy(), labels.copy()))
        return original(inputs, labels)

    trainer.step = recording
    first = len(job.log.losses)
    try:
        job.run_epoch(CHECK_STEPS)
    finally:
        del trainer.step
    record.losses = job.log.losses[first:]
    record.weights = snapshot(job.network)
    return record


def verify(workload: Workload, seed: int, record: CheckRecord) -> dict:
    ref_losses, _ = replay(workload, seed, record.state, record.velocity,
                           record.batches, record.trainer_cfg, None,
                           threads=1)
    worst = max((abs(a - b) / max(1.0, abs(b))
                 for a, b in zip(record.losses, ref_losses)), default=0.0)
    verdict = {"loss_rel_err": worst, "loss_rtol": LOSS_RTOL,
               "losses_ok": len(ref_losses) == len(record.losses)
               and worst <= LOSS_RTOL,
               "bit_identical": None}
    if workload.two_workers:
        _, serial = replay(workload, seed, record.state, record.velocity,
                           record.batches, record.trainer_cfg, record.engines,
                           threads=workload.threads, backend="serial")
        verdict["bit_identical"] = all(
            np.array_equal(serial[name], value)
            for name, value in record.weights.items())
    verdict["correct"] = bool(verdict["losses_ok"]
                              and verdict["bit_identical"] is not False)
    return verdict


# -- set-up probes -----------------------------------------------------------

def setup_probe(workload: Workload, seed: int) -> float:
    """Set-up seconds of one job built in this (fresh) interpreter."""
    data = _dataset_fn(workload)(BATCH, seed=seed)
    with CounterTap() as tap:
        job = Job(workload, seed, data, tap, warmup_steps=1)
    job.close()
    stop_resource_tracker()
    return job.marks["first_step"] - job.marks["start"]


def probe_setups(workload: Workload, seed: int, count: int) -> list[float]:
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload",
           workload.name, "--seed", str(seed)]
    found = []
    for _ in range(count):
        out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=120,
                             check=True).stdout.decode()
        found.append(float(json.loads(out.strip().splitlines()[-1])["setup_s"]))
    return found


# -- the run ---------------------------------------------------------------

def stop_resource_tracker() -> None:
    """Stop multiprocessing's tracker process, which outlives the workers."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        min_steps: int, fault_plan: str | None = None,
        perturb: bool = False, setup_probes: int = 4) -> dict:
    host_info = host.fingerprint()
    kernels = host.reference_kernels()
    data = load_dataset(workload, seed)
    result: dict = {"workload": workload.name, "seed": seed,
                    "seconds": seconds, "trace": int(trace),
                    "why": workload.why, "bypasses": workload.bypasses,
                    "host": host_info, "reference_kernels": kernels}
    plan = faults.get_plan(fault_plan, seed) if fault_plan else None
    job = None
    crashed = None
    record = None
    untraced = traced = None
    with CounterTap() as tap:
        try:
            with faults.inject(plan) if plan else nullcontext():
                job = Job(workload, seed, data, tap)
                record = record_check_epoch(job, perturb)
                untraced = job.window(seconds, min_steps)
                result["peak_rss_mb"] = host.peak_rss_mb()
                if trace:
                    traced = layertrace.traced_window(job, seconds,
                                                      min_steps)
        except Exception as error:  # noqa: BLE001 -- a raising step fails
            crashed = f"{type(error).__name__}: {error}"
            traceback.print_exc()
        finally:
            if job is not None:
                job.close()
            stop_resource_tracker()
        counts = dict(tap.counts)

    log = job.log if job is not None else StepLog()
    attempted = len(log.seconds) + (1 if crashed else 0)
    failed = sum(log.failed) + (1 if crashed else 0)
    verdict = {"correct": False, "error": crashed}
    if crashed is None and record is not None:
        verdict = verify(workload, seed, record)
    if not verdict["correct"]:
        failed = attempted
    result.update(attempted=max(1, attempted), failed=failed,
                  verdict=verdict, counters=counts, crashed=crashed)
    if job is not None:
        result["plan"] = {layer.name: [layer.fp_engine_name,
                                       layer.bp_engine_name]
                          for layer in job.network.conv_layers()}
        result["retunes"] = len(job.spg.retune_events)
        result["marks"] = {k: v - job.marks["start"]
                           for k, v in job.marks.items()}

    if untraced is not None:
        setups = [job.marks["first_step"] - job.marks["start"]]
        setups += probe_setups(workload, seed, setup_probes)
        steps = untraced["step_seconds"]
        result["setup_runs_s"] = setups
        result["window"] = {"steps": untraced["steps"],
                            "seconds": untraced["seconds"],
                            "step_ms": [x * 1e3 for x in steps]}
        result["end_to_end"] = {
            "img_per_s": untraced["steps"] * BATCH / untraced["seconds"],
            "step_ms_p50": statistics.median(steps) * 1e3,
            "step_ms_p90": float(np.percentile(steps, 90)) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if traced is not None:
        result["per_layer"] = traced["metrics"]
        result["self_ms"] = traced["self_ms"]
        result["residuals"] = traced["residuals"]
        result["per_layer"]["trace.overhead_frac"] = 1.0 - (
            traced["img_per_s"] / result["end_to_end"]["img_per_s"])
        for name, key in (("resilience.fallbacks", "engine.fallbacks"),
                          ("runtime.retries", "pool.retries"),
                          ("runtime.respawns", "supervisor.respawns")):
            result["per_layer"][name] = counts[key]
        result["per_layer"]["core.retunes"] = float(result["retunes"])
        marks = result["marks"]
        result["per_layer"].update({
            "setup.build_ms": marks["built"] * 1e3,
            "core.optimize_ms": (marks["optimized"] - marks["built"]) * 1e3,
            "setup.loop_ms": (marks["looped"] - marks["optimized"]) * 1e3,
            "setup.first_step_ms": (marks["first_step"] - marks["looped"]) * 1e3,
        })
    return result


def write_result(result: dict, out: Path | None) -> Path:
    if out is None:
        out = (RUN_PY.parent / "out" /
               f"{result['workload']}-seed{result['seed']}"
               f"-trace{result['trace']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True, default=float))
    return out
