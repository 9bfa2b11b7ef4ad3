"""Tests for worker idle-time derivation from span data."""

from repro import telemetry
from repro.obs.idle import (
    WORKER_SPAN_NAMES,
    total_worker_idle,
    total_worker_process_idle,
    worker_idle_times,
    worker_process_idle,
)
from repro.telemetry.collector import Span


def span(name, thread_id, start, end, span_id=0):
    return Span(name=name, span_id=span_id, thread_id=thread_id,
                start=start, end=end)


def wspan(name, pid, start, end):
    return Span(name=name, span_id=0, thread_id=pid, start=start, end=end,
                attrs={"process_pid": pid, "worker_slot": 0, "job": 1})


class TestWorkerIdleTimes:
    def test_gap_between_consecutive_tasks_counts(self):
        spans = [
            span("pool/task", 1, 0.0, 1.0),
            span("pool/task", 1, 3.0, 4.0),
        ]
        assert worker_idle_times(spans) == {1: 2.0}

    def test_threads_accounted_separately(self):
        spans = [
            span("pool/task", 1, 0.0, 1.0),
            span("pool/task", 1, 2.0, 3.0),
            span("pool/task", 2, 0.0, 2.0),
            span("pool/task", 2, 2.5, 3.0),
        ]
        idles = worker_idle_times(spans)
        assert idles == {1: 1.0, 2: 0.5}
        assert total_worker_idle(spans) == 1.5

    def test_nested_spans_add_no_phantom_idle(self):
        # A task span enclosing another (retry wrapper, sub-span) must
        # not count the inner span's surroundings as idle.
        spans = [
            span("pool/task", 1, 0.0, 4.0),
            span("pool/task", 1, 1.0, 2.0),
            span("pool/task", 1, 5.0, 6.0),
        ]
        assert worker_idle_times(spans) == {1: 1.0}

    def test_overlap_extends_the_horizon(self):
        # Second span starts inside the first but ends later: idle only
        # starts after the later end.
        spans = [
            span("pool/task", 1, 0.0, 2.0),
            span("pool/task", 1, 1.0, 5.0),
            span("pool/task", 1, 6.0, 7.0),
        ]
        assert worker_idle_times(spans) == {1: 1.0}

    def test_edges_before_first_and_after_last_excluded(self):
        spans = [span("pool/task", 1, 10.0, 11.0)]
        assert worker_idle_times(spans) == {1: 0.0}

    def test_non_worker_spans_ignored(self):
        spans = [
            span("pool/task", 1, 0.0, 1.0),
            span("conv0/fp", 1, 1.0, 2.0),
            span("pool/task", 1, 3.0, 4.0),
        ]
        assert worker_idle_times(spans) == {1: 2.0}

    def test_unfinished_spans_skipped(self):
        spans = [
            span("pool/task", 1, 0.0, 1.0),
            span("pool/task", 1, 2.0, None),
            span("pool/task", 1, 5.0, 6.0),
        ]
        assert worker_idle_times(spans) == {1: 4.0}

    def test_custom_names_selectable(self):
        spans = [
            span("my/task", 1, 0.0, 1.0),
            span("my/task", 1, 2.0, 3.0),
        ]
        assert worker_idle_times(spans) == {}
        assert worker_idle_times(spans, names=("my/task",)) == {1: 1.0}

    def test_accepts_a_collector(self):
        with telemetry.collect() as tel:
            with telemetry.span("pool/task"):
                pass
            with telemetry.span("pool/task"):
                pass
        idles = worker_idle_times(tel)
        assert len(idles) == 1
        assert all(v >= 0.0 for v in idles.values())

    def test_default_names_are_pool_tasks(self):
        assert WORKER_SPAN_NAMES == ("pool/task",)


class TestWorkerProcessIdle:
    def test_gaps_summed_per_process(self):
        spans = [
            wspan("worker/forward", 4001, 0.0, 1.0),
            wspan("worker/forward", 4001, 3.0, 4.0),
            wspan("worker/backward_data", 4002, 0.0, 2.0),
            wspan("worker/backward_data", 4002, 2.5, 3.0),
        ]
        idles = worker_process_idle(spans)
        assert idles == {4001: 2.0, 4002: 0.5}
        assert total_worker_process_idle(spans) == 2.5

    def test_only_worker_execution_spans_count(self):
        spans = [
            wspan("worker/forward", 4001, 0.0, 1.0),
            # A parent-side span on the same pseudo-thread is ignored.
            span("pool/dispatch", 4001, 1.0, 2.0),
            wspan("worker/forward", 4001, 3.0, 4.0),
        ]
        assert worker_process_idle(spans) == {4001: 2.0}

    def test_spans_without_process_pid_ignored(self):
        spans = [span("worker/forward", 1, 0.0, 1.0),
                 span("worker/forward", 1, 2.0, 3.0)]
        assert worker_process_idle(spans) == {}
        assert total_worker_process_idle(spans) == 0.0

    def test_accepts_a_collector(self):
        tel = telemetry.TelemetryCollector()
        tel.record_span("worker/forward", 0.0, 1.0, thread_id=4001,
                        attrs={"process_pid": 4001})
        tel.record_span("worker/forward", 2.0, 3.0, thread_id=4001,
                        attrs={"process_pid": 4001})
        assert worker_process_idle(tel) == {4001: 1.0}
