"""The suite-wide fixture of ``tests/conftest.py``, driven from outside:
a throw-away test module run in a subprocess with ``REPRO_TSAN=1``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

NESTING = """
from repro.sanitize import make_lock

def test_nests_two_locks_twice():
    a, b = make_lock("T.a"), make_lock("T.b")
    for outer, inner in [(a, b), {second}]:
        with outer:
            with inner:
                pass
"""

RACE = """
import threading
from repro.sanitize import record_access

def test_two_threads_write_unordered():
    pool = [threading.Thread(target=record_access, args=("T.counter",),
                             kwargs={"write": True}) for _ in range(2)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
"""


def run_module(tmp_path, source, tsan):
    shutil.copy(REPO / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_throwaway.py").write_text(source)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TSAN"}
    env["PYTHONPATH"] = str(REPO / "src")
    if tsan:
        env["REPRO_TSAN"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_both_lock_orders_fail_the_test(tmp_path):
    proc = run_module(tmp_path, NESTING.format(second="(b, a)"), tsan=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "lock-order cycle T.a -> T.b -> T.a" in proc.stdout


def test_one_lock_order_passes(tmp_path):
    proc = run_module(tmp_path, NESTING.format(second="(a, b)"), tsan=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_race_fails_the_test(tmp_path):
    proc = run_module(tmp_path, RACE, tsan=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "race on 'T.counter'" in proc.stdout


@pytest.mark.parametrize("source", [NESTING.format(second="(b, a)"), RACE],
                         ids=["cycle", "race"])
def test_without_the_sanitizer_there_is_no_verdict(tmp_path, source):
    proc = run_module(tmp_path, source, tsan=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
