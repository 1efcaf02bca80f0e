"""Stale-pragma detection: an allow[...] grant that suppresses nothing
is itself an (unsuppressible) ``unused-pragma`` finding on every run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint.engine import lint_source

PATH = "src/repro/x.py"
REPO = Path(__file__).resolve().parents[2]


def stale_of(result):
    return [f for f in result.active if f.code == "unused-pragma"]


def run_lint(*argv, cwd=REPO):
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})


class TestEngine:
    def test_used_pragma_not_reported(self):
        src = "import time\nt = time.time()  # repro-lint: allow[wall-clock] measured, not fingerprinted\n"
        result = lint_source(src, PATH)
        assert stale_of(result) == []
        assert len(result.suppressed) == 1

    def test_stale_pragma_reported_at_its_own_line(self):
        src = "import time\nx = 1  # repro-lint: allow[wall-clock] the call this guarded is gone\n"
        result = lint_source(src, PATH)
        [stale] = stale_of(result)
        assert stale.code == "unused-pragma"
        assert stale.line == 2
        assert "wall-clock" in stale.message

    def test_stale_standalone_pragma_reported(self):
        src = (
            "# repro-lint: allow[unseeded-rng] long-gone rng call\n"
            "x = 1\n"
        )
        result = lint_source(src, PATH)
        [stale] = stale_of(result)
        assert stale.line == 1

    def test_multi_code_pragma_reports_only_stale_codes(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: allow[wall-clock, unseeded-rng] half stale\n"
        )
        result = lint_source(src, PATH)
        [stale] = stale_of(result)
        assert "unseeded-rng" in stale.message
        assert len(result.suppressed) == 1  # wall-clock half still works

    def test_unknown_code_is_always_stale(self):
        src = "x = 1  # repro-lint: allow[no-such-rule] typo'd code\n"
        result = lint_source(src, PATH)
        [stale] = stale_of(result)
        assert "no-such-rule" in stale.message

    def test_a_stale_pragma_fails_ok(self):
        src = "x = 1  # repro-lint: allow[wall-clock] stale\n"
        result = lint_source(src, PATH)
        assert not result.ok
        assert result.active == stale_of(result)

    def test_unused_pragma_findings_are_unsuppressible(self):
        # a pragma cannot allowlist its own staleness: both grants come
        # back stale (no checker is named `unused-pragma`)
        src = "x = 1  # repro-lint: allow[wall-clock, unused-pragma] nice try\n"
        result = lint_source(src, PATH)
        assert [f.code for f in result.active] == ["unused-pragma"] * 2
        assert result.suppressed == []


class TestCli:
    def test_a_stale_pragma_fails_the_run(self, tmp_path):
        stale_file = tmp_path / "stale.py"
        stale_file.write_text("x = 1  # repro-lint: allow[wall-clock] long gone\n")
        proc = run_lint(str(stale_file))
        assert proc.returncode == 1
        assert "unused-pragma" in proc.stdout

    def test_a_used_pragma_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: allow[wall-clock] measured\n")
        proc = run_lint(str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_a_stale_pragma_counts_as_a_finding(self, tmp_path):
        stale_file = tmp_path / "stale.py"
        stale_file.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: allow[wall-clock] measured\n"
            "x = 1  # repro-lint: allow[unseeded-rng] long gone\n")
        proc = run_lint(str(stale_file))
        assert proc.returncode == 1
        assert f"{stale_file.as_posix()}:3:" in proc.stdout
        assert "1 finding(s), 1 suppressed" in proc.stdout
