"""Interrupted campaigns resume from their last persisted trial.

Workers persist every finished trial into the content-addressed store
the moment it completes, so killing a campaign mid-stream loses only
in-flight work: a re-run serves the persisted trials as cache hits and
executes just the remainder, converging on a fingerprint identical to a
never-interrupted run.  :class:`TripAfter` simulates the kill
deterministically (a real SIGKILL would race the pool).
"""

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import (CampaignInterrupted,
                                      ProcessPoolExecutor, SerialExecutor,
                                      TripAfter)
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


class TestTripAfter:
    def test_trips_at_the_limit(self):
        trip = TripAfter(3)
        trip(1)
        trip(2)
        with pytest.raises(CampaignInterrupted) as info:
            trip(3)
        assert info.value.executed == 3

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            TripAfter(0)


class TestResume:
    @pytest.mark.parametrize("make_executor", [
        SerialExecutor,
        lambda: ProcessPoolExecutor(max_workers=2),
    ], ids=["serial", "process"])
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path,
                                                         make_executor):
        reference = run_campaign(tiny_spec(), executor=SerialExecutor())

        store = CampaignStore(tmp_path / "store")
        kill_after = 3
        with pytest.raises(CampaignInterrupted):
            run_campaign(tiny_spec(), executor=make_executor(),
                         store=store, trip=TripAfter(kill_after))

        # The killed run persisted at least the trials the parent saw
        # complete (pool trials in flight may finish a few more — on a
        # grid this small possibly even all of them).
        survivors = store.entry_count()["trials"]
        assert kill_after <= survivors <= tiny_spec().num_trials

        resumed = run_campaign(tiny_spec(), executor=make_executor(),
                               store=CampaignStore(tmp_path / "store"))
        assert resumed.cache_hits == survivors
        assert resumed.executed == tiny_spec().num_trials - survivors
        assert resumed.fingerprint() == reference.fingerprint()

    def test_journal_records_the_interrupted_run(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = tiny_spec().store_key()
        with pytest.raises(CampaignInterrupted):
            run_campaign(tiny_spec(), executor=SerialExecutor(),
                         store=store, trip=TripAfter(2))
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
            with pytest.raises(CampaignInterrupted):
                run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=store, trip=TripAfter(limit))
            counts.append(store.entry_count()["trials"])
        assert counts[1] > counts[0]

        final = run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=CampaignStore(tmp_path / "store"))
        assert final.fingerprint() == reference.fingerprint()
        assert final.executed == tiny_spec().num_trials - counts[1]

    def test_trip_counts_only_executed_trials(self, tmp_path):
        """A fully warm campaign executes nothing, so a trip hook never
        fires — cache hits must not count toward the interruption."""
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        warm = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=CampaignStore(tmp_path / "store"),
                            trip=TripAfter(1))
        assert warm.executed == 0
