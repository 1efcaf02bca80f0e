"""Interrupted campaigns resume from their last persisted trial.

Workers persist every finished trial into the content-addressed store
the moment it completes, so killing a campaign mid-stream loses only
in-flight work: a re-run serves the persisted trials as cache hits and
executes just the remainder, converging on a fingerprint identical to a
never-interrupted run.  A ``progress`` callback that raises
(:func:`kill_after`) simulates the kill deterministically, right after
a trial is recorded (a real SIGKILL would race the pool).
"""

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import ProcessPoolExecutor, SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignStore


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class Killed(Exception):
    """The simulated kill."""


def kill_after(limit):
    """A ``progress`` callback that kills the campaign once ``limit``
    trials have executed (cached trials never reach it)."""
    executed = []

    def progress(result, completed, total):
        executed.append(result)
        if len(executed) >= limit:
            raise Killed(len(executed))
    return progress


class TestKillAfter:
    def test_a_campaign_stops_right_after_the_limit(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(Killed) as info:
            run_campaign(tiny_spec(), executor=SerialExecutor(),
                         store=store, progress=kill_after(3))
        assert info.value.args == (3,)
        assert store.entry_count()["trials"] == 3


class TestResume:
    @pytest.mark.parametrize("make_executor", [
        SerialExecutor,
        lambda: ProcessPoolExecutor(max_workers=2),
    ], ids=["serial", "process"])
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path,
                                                         make_executor):
        reference = run_campaign(tiny_spec(), executor=SerialExecutor())

        store = CampaignStore(tmp_path / "store")
        limit = 3
        with pytest.raises(Killed):
            run_campaign(tiny_spec(), executor=make_executor(),
                         store=store, progress=kill_after(limit))

        # The killed run persisted at least the trials the parent saw
        # complete (pool trials in flight may finish a few more — on a
        # grid this small possibly even all of them).
        survivors = store.entry_count()["trials"]
        assert limit <= survivors <= tiny_spec().num_trials

        resumed = run_campaign(tiny_spec(), executor=make_executor(),
                               store=CampaignStore(tmp_path / "store"))
        assert resumed.cache_hits == survivors
        assert resumed.executed == tiny_spec().num_trials - survivors
        assert resumed.fingerprint() == reference.fingerprint()

    def test_journal_records_the_interrupted_run(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = tiny_spec().store_key()
        with pytest.raises(Killed):
            run_campaign(tiny_spec(), executor=SerialExecutor(),
                         store=store, progress=kill_after(2))
        summary = store.journal_summary(key)
        assert summary is not None
        assert summary["persisted"] == 2
        assert summary["last"]["event"] == "trial"  # never reached "done"

        run_campaign(tiny_spec(), executor=SerialExecutor(),
                     store=CampaignStore(tmp_path / "store"))
        summary = store.journal_summary(key)
        assert summary["last"]["event"] == "done"
        assert "fingerprint" in summary["last"]

    def test_double_interrupt_still_converges(self, tmp_path):
        """Two successive kills, then a clean run: the store accretes
        trials monotonically until the campaign completes."""
        reference = run_campaign(tiny_spec(), executor=SerialExecutor())
        counts = []
        for limit in (2, 3):
            store = CampaignStore(tmp_path / "store")
            with pytest.raises(Killed):
                run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=store, progress=kill_after(limit))
            counts.append(store.entry_count()["trials"])
        assert counts[1] > counts[0]

        final = run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=CampaignStore(tmp_path / "store"))
        assert final.fingerprint() == reference.fingerprint()
        assert final.executed == tiny_spec().num_trials - counts[1]

    def test_a_kill_counts_only_executed_trials(self, tmp_path):
        """A fully warm campaign executes nothing, so the callback never
        fires — cache hits must not count toward the interruption."""
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        warm = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=CampaignStore(tmp_path / "store"),
                            progress=kill_after(1))
        assert warm.executed == 0
