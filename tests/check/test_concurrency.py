"""Tests for the concurrency lint: seeded hazards are caught, the real
package is clean."""

import textwrap

from repro.check.concurrency import lint_package, lint_source


def _lint(code: str):
    return lint_source("mod.py", textwrap.dedent(code))


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


class TestMutableDefaults:
    def test_list_default_is_an_error(self):
        findings = _lint("def f(x=[]):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_dict_call_default_is_an_error(self):
        findings = _lint("def f(x=dict()):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_kwonly_default_is_checked(self):
        findings = _lint("def f(*, x={}):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_immutable_defaults_are_fine(self):
        assert _lint("def f(x=(), y=0, z=None):\n    return x\n") == []


class TestSharedMutation:
    POOLED = """
    from repro.runtime.pool import WorkerPool

    RESULTS = []

    def run(pool):
        def task(i):
            RESULTS.append(i)
        pool.map(task, range(4))
    """

    def test_closure_mutation_without_lock_is_an_error(self):
        findings = _lint(self.POOLED)
        assert any("worker-pool threads race" in f.message
                   for f in findings), findings

    def test_lock_guard_suppresses_the_finding(self):
        code = """
        import threading
        from repro.runtime.pool import WorkerPool

        RESULTS = []
        _LOCK = threading.Lock()

        def run(pool):
            def task(i):
                with _LOCK:
                    RESULTS.append(i)
            pool.map(task, range(4))
        """
        assert _errors(_lint(code)) == []

    def test_module_without_pool_usage_is_not_flagged(self):
        code = """
        RESULTS = []

        def run():
            def task(i):
                RESULTS.append(i)
            task(0)
        """
        assert _lint(code) == []

    def test_top_level_function_mutation_is_not_a_closure(self):
        # Mutation directly in a top-level function (not a closure handed
        # to the pool) is the collector-style idiom and stays legal.
        code = """
        from repro.runtime.pool import WorkerPool

        RESULTS = []

        def record(i):
            RESULTS.append(i)
        """
        assert _lint(code) == []

    def test_subscript_assignment_in_closure_is_an_error(self):
        code = """
        from repro.runtime.pool import WorkerPool

        STATE = {}

        def run(pool):
            def task(i):
                STATE[i] = i
            pool.map(task, range(4))
        """
        findings = _lint(code)
        assert any("item-assigned" in f.message for f in findings)


class TestTelemetryApi:
    def test_private_attribute_access_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            return telemetry._ACTIVE
        """
        findings = _lint(code)
        assert any("private telemetry attribute" in f.message
                   for f in findings)

    def test_typoed_helper_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            telemetry.guage("x", 1.0)
        """
        findings = _lint(code)
        assert any("not a public telemetry helper" in f.message
                   for f in findings)

    def test_import_time_emission_is_a_warning(self):
        code = """
        from repro import telemetry

        telemetry.add("boot", 1)
        """
        findings = _lint(code)
        assert any("import time" in f.message and f.severity == "warning"
                   for f in findings)

    def test_guarded_emission_in_function_is_fine(self):
        code = """
        from repro import telemetry

        def f():
            telemetry.add("x", 1)
            with telemetry.span("region"):
                pass
        """
        assert _lint(code) == []

    def test_aliased_import_is_tracked(self):
        code = """
        from repro import telemetry as tel

        def f():
            tel.guage("x", 1.0)
        """
        findings = _lint(code)
        assert any("not a public telemetry helper" in f.message
                   for f in findings)

    def test_unrelated_module_attribute_is_ignored(self):
        code = """
        import numpy as np

        def f():
            return np._private_thing
        """
        assert _lint(code) == []


class TestWorkerSideTelemetry:
    def test_worker_function_calling_collector_api_is_an_error(self):
        # CHK-TEL-WORKER: a spawned worker's collector stack is empty,
        # so telemetry.* calls in declared worker-side functions are
        # silently lost.
        code = """
        from repro import telemetry

        __worker_side__ = ("run_slice",)

        def run_slice(lo, hi):
            telemetry.add("worker.slices", 1)
        """
        findings = _lint(code)
        assert any("worker-side function" in f.message
                   and "telemetry ring" in f.message
                   and f.severity == "error" for f in findings)

    def test_span_helper_in_worker_function_also_flagged(self):
        code = """
        from repro import telemetry

        __worker_side__ = ("run_slice",)

        def run_slice(lo, hi):
            with telemetry.span("worker/slice"):
                pass
        """
        findings = _lint(code)
        assert any("worker-side function" in f.message for f in findings)

    def test_parent_side_functions_unaffected(self):
        code = """
        from repro import telemetry

        __worker_side__ = ("run_slice",)

        def run_slice(lo, hi):
            return lo + hi

        def dispatch():
            telemetry.add("pool.jobs", 1)
        """
        assert _lint(code) == []

    def test_remote_ring_use_in_worker_function_is_clean(self):
        # The sanctioned remediation: repro.telemetry.remote writes to
        # the shm ring, not the parent-only collector stack.
        code = """
        from repro.telemetry import remote

        __worker_side__ = ("run_slice",)

        def run_slice(lo, hi):
            with remote.worker_span("worker/slice", lo=lo, hi=hi):
                remote.record_counter("worker.slices")
        """
        assert _lint(code) == []

    def test_without_marker_no_worker_rule_fires(self):
        code = """
        from repro import telemetry

        def run_slice(lo, hi):
            telemetry.add("worker.slices", 1)
        """
        assert _lint(code) == []

    def test_aliased_import_tracked_in_worker_functions(self):
        code = """
        from repro import telemetry as tel

        __worker_side__ = ("worker_main",)

        def worker_main():
            tel.event("worker.start")
        """
        findings = _lint(code)
        assert any("worker-side function" in f.message for f in findings)


class TestSpanLeak:
    def test_span_outside_with_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            span = telemetry.span("region")
            do_work()
        """
        findings = _lint(code)
        assert any("never finished and leaks" in f.message
                   and f.severity == "error" for f in findings)

    def test_span_as_with_item_is_fine(self):
        code = """
        from repro import telemetry

        def f():
            with telemetry.span("region") as s:
                do_work(s)
            with telemetry.span("a"), telemetry.span("b"):
                do_work()
        """
        assert _lint(code) == []

    def test_aliased_span_leak_is_caught(self):
        code = """
        from repro import telemetry as tel

        def f():
            tel.span("region")
        """
        findings = _lint(code)
        assert any("never finished and leaks" in f.message for f in findings)


class TestHotLoopEmission:
    def test_emitter_in_nested_loop_is_a_warning(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                for value in row:
                    telemetry.add("elements", 1)
        """
        findings = _lint(code)
        assert any("nested per-element loop" in f.message
                   and f.severity == "warning" for f in findings)

    def test_gauge_and_observe_are_also_hot_emitters(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                while row:
                    telemetry.gauge("depth", 1.0)
                    telemetry.observe("latency", 0.1)
                    row = row[1:]
        """
        findings = _lint(code)
        hot = [f for f in findings if "per-element loop" in f.message]
        assert len(hot) == 2

    def test_single_loop_emission_is_fine(self):
        code = """
        from repro import telemetry

        def f(batches):
            for batch in batches:
                telemetry.add("batches", 1)
        """
        assert _lint(code) == []

    def test_span_in_nested_loop_is_not_a_hot_emitter(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                for value in row:
                    with telemetry.span("cell"):
                        do_work(value)
        """
        assert _lint(code) == []


class TestPackageLint:
    def test_real_package_has_no_errors(self):
        findings, files = lint_package()
        assert files > 50  # the whole repro package was walked
        assert _errors(findings) == [], [f.location for f in _errors(findings)]

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("broken.py", "def broken(:\n")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message


class TestForkSafety:
    """CHK-FORK: fork/pickle-unsafe captures in pool submissions."""

    def test_lambda_capturing_lock_is_an_error(self):
        code = """
        import threading

        def run(pool):
            lock = threading.Lock()
            return pool.run_tasks([lambda: work(lock)])
        """
        findings = _lint(code)
        assert any("threading lock" in f.message
                   and "pickle boundary" in f.message for f in findings)

    def test_nested_function_capturing_shm_handle_is_an_error(self):
        code = """
        from repro.runtime.shm import SharedArray

        def run(pool, data):
            seg = SharedArray.from_array(data)
            def task(lo, hi):
                return seg.ndarray[lo:hi].sum()
            return pool.map_batches(task, data.shape[0])
        """
        findings = _lint(code)
        assert any("shared-memory handle" in f.message for f in findings)

    def test_captured_collector_is_an_error(self):
        code = """
        from repro.telemetry import TelemetryCollector

        def run(pool):
            collector = TelemetryCollector()
            return pool.map_items(lambda i: collector.add("n", i), 4)
        """
        findings = _lint(code)
        assert any("telemetry collector" in f.message for f in findings)

    def test_open_file_from_with_block_is_an_error(self):
        code = """
        def run(pool, path):
            with open(path) as fh:
                return pool.run_tasks([lambda: fh.read()])
        """
        findings = _lint(code)
        assert any("file handle" in f.message for f in findings)

    def test_descriptor_shipping_is_clean(self):
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            try:
                return pool.map_batches(
                    functools.partial(task, seg.descriptor), data.shape[0]
                )
            finally:
                seg.unlink()
        """
        assert _lint(code) == []

    def test_unsafe_handle_outside_submission_is_clean(self):
        code = """
        import threading

        def run(pool):
            lock = threading.Lock()
            with lock:
                return pool.run_tasks([lambda: work()])
        """
        assert _lint(code) == []

    def test_safe_captures_are_clean(self):
        code = """
        def run(pool, items):
            scale = 2.0
            return pool.map_items(lambda i: items[i] * scale, len(items))
        """
        assert _lint(code) == []


class TestForkWrappedCallables:
    """CHK-FORK sees through functools.partial submissions."""

    def test_fork_submission_keeps_descriptor_extraction_clean(self):
        # Extracting seg.descriptor inside a partial is the
        # *sanctioned* CHK-FORK remediation and must stay clean.
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            try:
                return pool.map_batches(
                    functools.partial(task, seg.descriptor), data.shape[0]
                )
            finally:
                seg.unlink()
        """
        assert _lint(code) == []

    def test_fork_partial_shipping_unsafe_handle_is_an_error(self):
        # Shipping the handle itself (not its descriptor) through a
        # partial is the bug the descriptor pattern exists to avoid.
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            return pool.map_batches(functools.partial(task, seg),
                                    data.shape[0])
        """
        findings = _lint(code)
        assert len(findings) == 1
        assert "functools.partial(...)" in findings[0].message


class TestSchedBypassRule:
    """CHK-SCHED-BYPASS: emitters must lower through the pass pipeline."""

    def test_emitter_calling_basic_block_directly_is_an_error(self):
        findings = _lint("""
            def emit_conv_kernel(spec):
                block = generate_basic_block(spec)
                return block
        """)
        assert any("bypassing the schedule pass pipeline" in f.message
                   for f in _errors(findings))

    def test_attribute_call_is_also_flagged(self):
        findings = _lint("""
            from repro.stencil import basic_block

            def emit_conv_kernel(spec):
                return basic_block.optimize_register_tile(spec)
        """)
        assert any("bypassing the schedule pass pipeline" in f.message
                   for f in _errors(findings))

    def test_non_emitter_module_is_not_flagged(self):
        # The basic-block layer itself (no emit_* definitions) may call
        # its own entry points freely.
        findings = _lint("""
            def optimize(spec):
                return generate_basic_block(spec)
        """)
        assert not any("bypassing" in f.message for f in findings)

    def test_pipeline_path_is_sanctioned(self):
        findings = _lint("""
            def emit_conv_kernel(spec, pipeline):
                nest = pipeline.build_nest(spec)
                return pipeline.vector_block(spec)
        """)
        assert not any("bypassing" in f.message for f in findings)
