"""The sanitizer-factory rule: every lock the library builds is one the
sanitizer sees."""

from __future__ import annotations

import pytest

from repro.lint.engine import lint_source

THREADED = "src/repro/service/server.py"


def codes(result):
    return [f.code for f in result.active]


class TestSanitizerFactoryRule:
    def test_raw_lock_flagged_in_threaded_module(self):
        src = "import threading\nlock = threading.Lock()\n"
        assert "sanitizer-factory" in codes(lint_source(src, THREADED))

    def test_raw_queue_flagged_in_threaded_module(self):
        src = "import queue\nq = queue.Queue()\n"
        assert "sanitizer-factory" in codes(lint_source(src, THREADED))

    @pytest.mark.parametrize("module", [
        "runtime/async_exec.py", "distributed/ranks.py",
        # lock-holding modules the hand-kept list never named
        "campaign/executors.py", "campaign/engine.py", "campaign/store.py",
        "somewhere/new.py"])
    def test_every_library_module_is_covered(self, module):
        src = "import threading\nlock = threading.Lock()\n"
        assert "sanitizer-factory" in codes(
            lint_source(src, f"src/repro/{module}"))

    @pytest.mark.parametrize("path", [
        "src/repro/sanitize/instrument.py",   # builds the raw primitives
        "tests/runtime/test_async_exec.py",   # relaxed
        "examples/quickstart.py"])
    def test_not_flagged_where_raw_primitives_belong(self, path):
        src = "import threading\nlock = threading.Lock()\n"
        assert "sanitizer-factory" not in codes(lint_source(src, path))

    def test_default_factory_kwarg_flagged(self):
        src = (
            "import threading\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Job:\n"
            "    done: threading.Event = field(default_factory=threading.Event)\n"
        )
        assert "sanitizer-factory" in codes(lint_source(src, THREADED))

    def test_factory_construction_is_clean(self):
        src = (
            "from repro.sanitize import make_condition, make_lock, make_queue\n"
            "lock = make_lock('x')\n"
            "cond = make_condition(name='y')\n"
            "q = make_queue('z')\n"
        )
        assert "sanitizer-factory" not in codes(lint_source(src, THREADED))

    def test_pragma_suppresses_with_reason(self):
        src = (
            "import threading\n"
            "lock = threading.Lock()  # repro-lint: allow[sanitizer-factory] bootstrap lock for the sanitizer itself\n"
        )
        result = lint_source(src, THREADED)
        assert "sanitizer-factory" not in codes(result)
        assert any(f.code == "sanitizer-factory" for f in result.suppressed)

    def test_import_alias_resolved(self):
        src = "import threading as th\nlock = th.Lock()\n"
        assert "sanitizer-factory" in codes(lint_source(src, THREADED))
