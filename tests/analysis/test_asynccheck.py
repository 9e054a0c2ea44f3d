"""Unit tests for the coroutine-safety rules (ASYNC001, TIME001)."""

import ast
import textwrap

from repro.analysis.asynccheck import (
    BLOCKING_CALLS,
    expanded_call_name,
    scope_walk,
)
from repro.analysis.dataflow import summarize_module
from repro.analysis.engine import LintEngine


def _analyze(source, select=None, module="repro.service.app"):
    return LintEngine(select=select, families=("service",)).lint_source(
        textwrap.dedent(source), module=module, path=f"{module}.py"
    )


def _codes(diags):
    return [d.code for d in diags]


class TestHelpers:
    def test_expanded_call_name_follows_import_aliases(self):
        summary = summarize_module(
            "m", "m.py", ast.parse("import numpy as np\nfrom time import sleep\n")
        )
        assert expanded_call_name(summary, "np.load") == "numpy.load"
        assert expanded_call_name(summary, "sleep") == "time.sleep"
        assert expanded_call_name(summary, "os.remove") == "os.remove"

    def test_scope_walk_yields_but_does_not_enter_nested_defs(self):
        tree = ast.parse(
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
        )
        outer = tree.body[0]
        names = [
            n.id for n in scope_walk(outer) if isinstance(n, ast.Name)
        ]
        assert names == ["x"]
        assert any(
            isinstance(n, ast.FunctionDef) and n.name == "inner"
            for n in scope_walk(outer)
        )

    def test_blocking_catalogue_covers_the_issue_surface(self):
        for name in ("time.sleep", "numpy.load", "open",
                     "subprocess.run", "socket.create_connection"):
            assert name in BLOCKING_CALLS


class TestAsync001:
    def test_direct_blocking_call_in_coroutine(self):
        diags = _analyze(
            """
            import time

            async def handler():
                time.sleep(1)
            """
        )
        assert _codes(diags) == ["ASYNC001"]
        assert "time.sleep" in diags[0].message

    def test_transitive_blocking_call_names_the_coroutine(self):
        diags = _analyze(
            """
            async def handler():
                helper()

            def helper():
                open("f").read()
            """
        )
        assert _codes(diags) == ["ASYNC001"]
        assert "via coroutine 'handler'" in diags[0].message

    def test_executor_routed_helper_is_clean(self):
        diags = _analyze(
            """
            import asyncio

            async def handler():
                loop = asyncio.get_event_loop()
                await loop.run_in_executor(None, helper)

            def helper():
                open("f").read()
            """
        )
        assert diags == []

    def test_thread_lock_acquisition_in_coroutine(self):
        diags = _analyze(
            """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                async def handler(self):
                    with self._lock:
                        pass
            """
        )
        assert _codes(diags) == ["ASYNC001"]
        assert "thread-lock" in diags[0].message

    def test_blocking_queue_get_in_coroutine(self):
        diags = _analyze(
            """
            import queue

            async def handler():
                q = queue.Queue()
                q.get()
            """
        )
        assert _codes(diags) == ["ASYNC001"]

    def test_sync_only_code_never_fires(self):
        diags = _analyze(
            """
            import time

            def handler():
                time.sleep(1)
                open("f").read()
            """
        )
        assert diags == []

    def test_asyncio_sleep_is_not_blocking(self):
        diags = _analyze(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(1)
            """
        )
        assert diags == []

    def test_suppression_comment_is_honoured(self):
        diags = _analyze(
            """
            import time

            async def handler():
                time.sleep(1)  # repro-lint: disable=ASYNC001 warm-up only
            """
        )
        assert diags == []


class TestTime001:
    def test_wall_clock_assigned_to_deadline(self):
        diags = _analyze(
            """
            import time

            def plan(budget):
                deadline = time.time() + budget
                return deadline
            """
        )
        assert _codes(diags) == ["TIME001"]
        assert "monotonic" in diags[0].message

    def test_wall_clock_compared_with_deadline_attr(self):
        diags = _analyze(
            """
            import time

            def due(job):
                return time.time() >= job.deadline_s
            """
        )
        assert _codes(diags) == ["TIME001"]

    def test_mixed_clock_domains(self):
        diags = _analyze(
            """
            import time

            def skew():
                return time.monotonic() - time.time()
            """
        )
        assert _codes(diags) == ["TIME001"]

    def test_record_only_wall_clock_is_clean(self):
        diags = _analyze(
            """
            import time

            def stamp(started):
                return {"now": time.time(), "elapsed": time.time() - started}
            """
        )
        assert diags == []


class TestAnalyzerSurface:
    def test_select_narrows_to_one_code(self):
        source = """
            import time

            async def handler():
                time.sleep(1)
                deadline = time.time() + 5
                return deadline
        """
        assert _codes(_analyze(source)) == ["ASYNC001", "TIME001"]
        assert _codes(_analyze(source, select=["TIME001"])) == ["TIME001"]

    def test_service_rules_are_opt_in(self):
        diags = LintEngine().lint_source(
            "import time\n\nasync def h():\n    time.sleep(1)\n",
            module="repro.service.app",
            path="app.py",
        )
        assert "ASYNC001" not in {d.code for d in diags}
