"""Seeded schedule exploration: replayable from the seed alone."""

from __future__ import annotations

import json

import numpy as np

from repro.sanitize.__main__ import main as sanitize_main
from repro.sanitize.explore import ScheduleExplorer, explore


class TestExplorerDeterminism:
    def test_same_seed_same_verdict_byte_for_byte(self):
        kwargs = dict(scheduler="threaded", placement="local", clock="wall",
                      ranks=1, points=12, page_size=32)
        first = explore(1234, 2, **kwargs)
        second = explore(1234, 2, **kwargs)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert first["ok"], first
        assert first["bit_identity_broken"] == []
        assert first["racy_schedules"] == []
        # every schedule really solved and stayed on the reference
        for record in first["schedules"]:
            assert record["bit_identical"]
            assert record["accesses"] > 0

    def test_different_seeds_may_differ_but_both_ok(self):
        kwargs = dict(scheduler="threaded", placement="local", clock="wall",
                      ranks=1, points=12, page_size=32)
        a = explore(1, 1, **kwargs)
        b = explore(2, 1, **kwargs)
        assert a["ok"] and b["ok"]
        # fingerprints agree because bit-identity is cell-independent
        assert a["reference_fingerprint"] == b["reference_fingerprint"]


class TestExplorerHook:
    def test_priorities_keyed_by_thread_role_name(self):
        seed = np.random.SeedSequence(entropy=7)
        one = ScheduleExplorer(seed)
        two = ScheduleExplorer(np.random.SeedSequence(entropy=7))
        # same seed, same role names -> identical priorities, regardless
        # of the order threads first touch the explorer
        one._state_for("repro-exec-0")
        one._state_for("repro-exec-1")
        two._state_for("repro-exec-1")
        two._state_for("repro-exec-0")
        assert one._priorities == two._priorities

    def test_distinct_roles_get_distinct_streams(self):
        explorer = ScheduleExplorer(np.random.SeedSequence(entropy=7))
        _, p0 = explorer._state_for("repro-exec-0")
        _, p1 = explorer._state_for("repro-exec-1")
        assert p0 != p1


class TestCli:
    def test_canary_subcommand_exits_zero(self, capsys):
        assert sanitize_main(["canary"]) == 0
        out = capsys.readouterr().out
        assert "detector alive" in out
        assert "locked control clean" in out
        assert "lock-order analysis alive" in out

    def test_explore_subcommand_writes_verdict(self, tmp_path, capsys):
        out_file = tmp_path / "verdict.json"
        code = sanitize_main([
            "explore", "--seed", "99", "--schedules", "1",
            "--points", "12", "--quiet", "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["seed"] == 99
        [schedule] = payload["schedules"]
        assert schedule["races"] == [] and schedule["lock_cycles"] == 0
        # stdout carries the same JSON
        assert json.loads(capsys.readouterr().out) == payload
