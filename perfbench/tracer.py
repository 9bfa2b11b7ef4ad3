"""Spans recorded from outside the program, and self-time attribution.

The traced run wraps public calls of each layer -- ``SGDTrainer.step``,
the loss, ``Network``, ``ConvLayer``, the engine classes,
``ParallelExecutor``, ``SpgCNN.after_epoch`` and ``compress_error`` --
with :class:`Tracer` spans.  Nothing is changed inside the program:
the wrappers are installed on the classes for the traced window and
removed afterwards.  Engine slices that run inside process-backend
workers are not visible to wrappers; their ``worker/*`` spans are read
from the program's own telemetry collector and adopted as children of
the executor call they fall inside.

Spans stay in memory.  Each records its parent, its step id and the
thread (or worker pid) it ran on.  A span's *self time* is the part of
its interval no child span covers; where children run concurrently on
several workers, each instant is shared equally between the innermost
spans active at it, so the self times of one step sum exactly to the
step's wall-clock time.  Whatever no wrapped call covers is reported as
``unexplained``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Engine registry names -> span family used in metric names.
ENGINE_FAMILY = {
    "stencil": "stencil",
    "gemm-in-parallel": "gemm",
    "parallel-gemm": "pgemm",
    "sparse": "sparse",
    "reference": "reference",
    "fft": "fft",
}

#: Self time of these spans is the work of what they do not delegate.
SELF_NAMES = {
    "sgd.step": "nn.update",
    "nn.forward": "nn.other_layers.fp",
    "nn.backward": "nn.other_layers.bp",
}


@dataclass
class Rec:
    kind: str
    start: float
    end: float = 0.0
    parent: int | None = None
    step: int = -1
    worker: int = 0
    layer: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder fed by method wrappers."""

    def __init__(self) -> None:
        self.spans: list[Rec] = []
        #: (start, end) of every completed step, indexed by step id.
        self.steps: list[tuple[float, float]] = []
        self._step = -1
        self._step_start = 0.0
        self._local = threading.local()
        self._main = threading.get_ident()
        self._dispatch: int | None = None
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- steps -----------------------------------------------------------

    def begin_step(self, now: float) -> None:
        self._step = len(self.steps)
        self._step_start = now

    def end_step(self, now: float) -> None:
        self.steps.append((self._step_start, now))
        self._step = -1

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, kind: str, layer: str = "") -> int:
        on_main = threading.get_ident() == self._main
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread runs tasks of the executor call in flight
            parent = None if on_main else self._dispatch
        rec = Rec(kind=kind, start=0.0, parent=parent, step=self._step,
                  worker=threading.get_ident(), layer=layer)
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        if on_main and kind.startswith("executor."):
            self._dispatch = index  # barrier path: one call in flight
        rec.start = time.perf_counter()
        return index

    def close(self, index: int) -> Rec:
        end = time.perf_counter()
        rec = self.spans[index]
        rec.end = end
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        if self._dispatch == index:
            self._dispatch = None
        return rec

    def wrap(self, owner: object, attr: str, kind: str, layer_of=None,
             on_close=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`uninstall`."""
        func = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.open(kind, layer_of(args) if layer_of else "")
            try:
                result = func(*args, **kwargs)
            finally:
                rec = tracer.close(index)
            if on_close is not None:
                on_close(rec, args)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, func, own))

    def uninstall(self) -> None:
        for owner, attr, func, own in reversed(self._patches):
            if own:
                setattr(owner, attr, func)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- program-emitted worker spans --------------------------------------

    def adopt_worker_spans(self, spans) -> int:
        """Adopt ``worker/<method>`` spans as children of their executor call."""
        executors = [(i, r) for i, r in enumerate(self.spans)
                     if r.kind.startswith("executor.") and r.step >= 0]
        adopted = 0
        for span in spans:
            if not span.name.startswith("worker/") or span.end is None:
                continue
            method = span.name.split("/", 1)[1]
            middle = 0.5 * (span.start + span.end)
            for index, ex in executors:
                if (ex.kind == f"executor.{method}"
                        and ex.start <= middle <= ex.end):
                    family = ENGINE_FAMILY.get(span.attrs.get("engine"), "engine")
                    self.spans.append(Rec(
                        kind=f"{family}.{method}",
                        start=max(span.start, ex.start),
                        end=min(span.end, ex.end),
                        parent=index, step=ex.step,
                        worker=int(span.attrs.get("process_pid", 0)),
                    ))
                    adopted += 1
                    break
        return adopted

    # -- analysis ----------------------------------------------------------

    def conv_layer(self, index: int) -> str:
        """Name of the conv layer a span ran under ('' outside any)."""
        while index is not None:
            rec = self.spans[index]
            if rec.layer:
                return rec.layer
            index = rec.parent
        return ""

    def key(self, index: int) -> str:
        """``layer.phase`` name of a span's self time in the accounting."""
        rec = self.spans[index]
        layer = self.conv_layer(index)
        if rec.kind.startswith("conv."):
            return f"{layer}.{rec.kind[5:]}"
        if layer:
            return f"{layer}.{rec.kind}"
        return SELF_NAMES.get(rec.kind, rec.kind)

    def self_times(self) -> tuple[dict[int, float], list[float]]:
        """Attributed self seconds per span, and unexplained seconds per step."""
        by_step: dict[int, list[int]] = defaultdict(list)
        for index, rec in enumerate(self.spans):
            if 0 <= rec.step < len(self.steps) and rec.end > rec.start:
                by_step[rec.step].append(index)
        self_s: dict[int, float] = defaultdict(float)
        unexplained = [0.0] * len(self.steps)
        for step, (lo, hi) in enumerate(self.steps):
            members = by_step.get(step, [])
            points = {lo, hi}
            for i in members:
                rec = self.spans[i]
                points.add(min(max(rec.start, lo), hi))
                points.add(min(max(rec.end, lo), hi))
            ordered = sorted(points)
            for t0, t1 in zip(ordered, ordered[1:]):
                if t1 <= t0:
                    continue
                active = [i for i in members
                          if self.spans[i].start <= t0 and self.spans[i].end >= t1]
                busy_parents = {self.spans[i].parent for i in active}
                leaves = [i for i in active if i not in busy_parents]
                if not leaves:
                    unexplained[step] += t1 - t0
                    continue
                share = (t1 - t0) / len(leaves)
                for i in leaves:
                    self_s[i] += share
        return self_s, unexplained
