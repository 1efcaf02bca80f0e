"""Stale-pragma detection: allow[...] grants that suppress nothing."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint.engine import lint_source

PATH = "src/repro/x.py"
REPO = Path(__file__).resolve().parents[2]


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
        assert result.unused_pragmas == []
        assert len(result.suppressed) == 1

    def test_stale_pragma_reported_at_its_own_line(self):
        src = "import time\nx = 1  # repro-lint: allow[wall-clock] the call this guarded is gone\n"
        result = lint_source(src, PATH)
        [stale] = result.unused_pragmas
        assert stale.code == "unused-pragma"
        assert stale.line == 2
        assert "wall-clock" in stale.message

    def test_stale_standalone_pragma_reported(self):
        src = (
            "# repro-lint: allow[unseeded-rng] long-gone rng call\n"
            "x = 1\n"
        )
        result = lint_source(src, PATH)
        [stale] = result.unused_pragmas
        assert stale.line == 1

    def test_multi_code_pragma_reports_only_stale_codes(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: allow[wall-clock, unseeded-rng] half stale\n"
        )
        result = lint_source(src, PATH)
        [stale] = result.unused_pragmas
        assert "unseeded-rng" in stale.message
        assert len(result.suppressed) == 1  # wall-clock half still works

    def test_unknown_code_is_always_stale(self):
        src = "x = 1  # repro-lint: allow[no-such-rule] typo'd code\n"
        result = lint_source(src, PATH)
        [stale] = result.unused_pragmas
        assert "no-such-rule" in stale.message

    def test_stale_pragmas_do_not_fail_ok(self):
        src = "x = 1  # repro-lint: allow[wall-clock] stale\n"
        result = lint_source(src, PATH)
        assert result.ok  # opt-in via --show-unused-pragmas
        assert result.unused_pragmas

    def test_unused_pragma_findings_are_unsuppressible(self):
        # a pragma cannot allowlist its own staleness: both grants come
        # back stale (no checker is named `unused-pragma`)
        src = "x = 1  # repro-lint: allow[wall-clock, unused-pragma] nice try\n"
        result = lint_source(src, PATH)
        assert len(result.unused_pragmas) == 2
        assert all(f.code == "unused-pragma" for f in result.unused_pragmas)


class TestCli:
    def test_show_unused_pragmas_fails_on_stale(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro-lint: allow[wall-clock] long gone\n")
        proc = run_lint("--show-unused-pragmas", str(stale))
        assert proc.returncode == 1
        assert "unused-pragma" in proc.stdout

    def test_show_unused_pragmas_clean_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: allow[wall-clock] measured\n")
        proc = run_lint("--show-unused-pragmas", str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_without_flag_stale_pragma_does_not_fail(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro-lint: allow[wall-clock] long gone\n")
        proc = run_lint(str(stale))
        assert proc.returncode == 0
