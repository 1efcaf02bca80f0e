"""CLI behaviour: exit codes, --explain, --list-rules, and the canary
property (a violating tempfile fails the lint)."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def run_lint(*argv, cwd=REPO):
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = run_lint(str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violating_tempfile_exits_nonzero(self, tmp_path):
        # the canary: a silently no-op linter would return 0 here
        canary = tmp_path / "canary.py"
        canary.write_text("import time\nt = time.time()\n")
        proc = run_lint(str(canary))
        assert proc.returncode == 1
        assert "wall-clock" in proc.stdout

    def test_raw_queue_under_repro_exits_nonzero(self, tmp_path):
        # the sanitizer-factory rule reaches a file under any repro/
        canary = tmp_path / "repro" / "canary.py"
        canary.parent.mkdir()
        canary.write_text("import queue\nq = queue.SimpleQueue()\n")
        proc = run_lint(str(canary))
        assert proc.returncode == 1
        assert "sanitizer-factory" in proc.stdout

    def test_unknown_rule_code_exits_two(self):
        proc = run_lint("--explain", "no-such-rule")
        assert proc.returncode == 2

    def test_no_paths_exits_two(self):
        proc = run_lint()
        assert proc.returncode == 2


class TestOutput:
    def test_explain_prints_rationale(self):
        proc = run_lint("--explain", "paged-reduction")
        assert proc.returncode == 0
        assert "paged_dot" in proc.stdout

    def test_list_rules(self):
        proc = run_lint("--list-rules")
        assert proc.returncode == 0
        for code in ("wall-clock", "unseeded-rng", "unordered-iter",
                     "paged-reduction", "lock-discipline",
                     "sanitizer-factory"):
            assert code in proc.stdout


class TestRepoIsClean:
    """The committed tree lints clean — the acceptance criterion."""

    def test_src_exits_zero(self):
        proc = run_lint("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_tests_exit_zero(self):
        proc = run_lint("tests")
        assert proc.returncode == 0, proc.stdout + proc.stderr
