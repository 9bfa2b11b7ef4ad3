"""Worker idle-time analysis from collected span data.

GEMM-in-Parallel joins every worker once per layer and phase, so the
time a worker waits at that barrier is the scheduler's cost.  This
module measures it from the spans a
:class:`~repro.telemetry.collector.TelemetryCollector` already records:
every worker-executed task is a ``pool/task`` span carrying its thread
id, so per-thread gaps between consecutive task spans are exactly the
moments that thread had no task to run (the same gaps show on the
Chrome trace).

Under the process backend the parent-side ``pool/task`` spans measure
dispatch occupancy, not worker occupancy -- queueing and pipe latency
hide inside them.  :func:`worker_process_idle` instead consumes the
spans merged from each worker's shared-memory telemetry ring
(:mod:`repro.telemetry.remote`): they carry a ``process_pid`` attribute
and bound the time the worker process truly spent executing, so the
gaps are true in-worker starvation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.telemetry.collector import Span, TelemetryCollector

#: Span names that represent one worker-executed task.
WORKER_SPAN_NAMES = ("pool/task",)


def _task_spans(source, names: tuple[str, ...]) -> list[Span]:
    spans: Iterable[Span] = (
        source.spans if isinstance(source, TelemetryCollector) else source
    )
    return [s for s in spans if s.name in names and s.end is not None]


def worker_idle_times(source, names: tuple[str, ...] = WORKER_SPAN_NAMES,
                      ) -> dict[int, float]:
    """Per-thread idle seconds between consecutive worker-task spans.

    ``source`` is a :class:`TelemetryCollector` or an iterable of spans.
    For each thread that ran at least one matching span, sums the
    positive gaps between the end of one task and the start of the next
    on that thread.  Overlapping spans (a task span nested inside
    another) extend a running horizon, so nothing is double-counted and
    nesting contributes no phantom idle.  Time before a thread's first
    task or after its last is not counted -- it is unattributable
    without knowing the worker's lifetime.
    """
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for span in _task_spans(source, names):
        by_thread[span.thread_id].append(span)
    return {thread_id: _gap_seconds(spans)
            for thread_id, spans in by_thread.items()}


def _gap_seconds(spans: list[Span]) -> float:
    """Positive gap time between spans, with overlap-merging horizon."""
    spans.sort(key=lambda s: (s.start, s.end))
    idle = 0.0
    horizon = spans[0].end
    for span in spans[1:]:
        if span.start > horizon:
            idle += span.start - horizon
        horizon = max(horizon, span.end)
    return idle


def total_worker_idle(source, names: tuple[str, ...] = WORKER_SPAN_NAMES,
                      ) -> float:
    """Summed :func:`worker_idle_times` across all worker threads."""
    return sum(worker_idle_times(source, names).values())


def worker_process_idle(source) -> dict[int, float]:
    """Per-worker-process idle seconds from merged remote spans.

    Groups spans carrying a ``process_pid`` attribute (the mark of a
    record drained from a worker's telemetry ring) by that pid and sums
    the positive gaps between consecutive executions, exactly like
    :func:`worker_idle_times` does per thread.  Only ``worker/*`` spans
    count as executions -- merged counters-turned-spans or future
    worker-side bookkeeping spans would otherwise mask starvation gaps.
    """
    by_pid: dict[int, list[Span]] = defaultdict(list)
    spans: Iterable[Span] = (
        source.spans if isinstance(source, TelemetryCollector) else source
    )
    for span in spans:
        if span.end is None or not span.name.startswith("worker/"):
            continue
        pid = span.attrs.get("process_pid")
        if isinstance(pid, int):
            by_pid[pid].append(span)
    return {pid: _gap_seconds(pid_spans)
            for pid, pid_spans in by_pid.items()}


def total_worker_process_idle(source) -> float:
    """Summed :func:`worker_process_idle` across all worker processes."""
    return sum(worker_process_idle(source).values())
