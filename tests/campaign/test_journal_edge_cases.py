"""Journal robustness: the resume path must survive real crash debris.

``journal_append`` fsyncs every line, so the only artifact a crash can
leave is a torn *trailing* line — and the daemon or a resumed offline
run must shrug at empty files, torn tails and journals that belong to a
different campaign entirely (copied or renamed by tooling).
"""

import json

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignStore

KEY_A = "a" * 64
KEY_B = "b" * 64


class Killed(Exception):
    """The simulated kill."""


def kill_at_once(result, completed, total):
    """A ``progress`` callback that kills the campaign right after its
    first executed trial is recorded."""
    raise Killed


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR",), rates=(2.0,),
        repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


@pytest.fixture()
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


class TestEmptyJournal:
    def test_missing_file_yields_nothing(self, store):
        assert list(store.journal_events(KEY_A)) == []
        assert store.journal_summary(KEY_A) is None

    def test_empty_file_is_not_a_resume(self, store):
        path = store.journal_path(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
        assert list(store.journal_events(KEY_A)) == []
        assert store.journal_summary(KEY_A) is None

    def test_whitespace_only_file(self, store):
        path = store.journal_path(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n  \n\n")
        assert list(store.journal_events(KEY_A)) == []
        assert store.journal_summary(KEY_A) is None


class TestTornTrailingLine:
    def events(self, store, key=KEY_A):
        store.journal_append(key, {"event": "start", "key": key,
                                   "pending": 2})
        store.journal_append(key, {"event": "trial", "key": key,
                                   "index": 0})
        store.journal_append(key, {"event": "trial", "key": key,
                                   "index": 1})

    def tear(self, store, key=KEY_A):
        """Simulate a crash mid-append: a partial JSON line, no newline."""
        with open(store.journal_path(key), "a") as handle:
            handle.write('{"event": "tri')

    def test_torn_tail_is_skipped(self, store):
        self.events(store)
        self.tear(store)
        kinds = [e["event"] for e in store.journal_events(KEY_A)]
        assert kinds == ["start", "trial", "trial"]

    def test_summary_counts_only_whole_lines(self, store):
        self.events(store)
        self.tear(store)
        summary = store.journal_summary(KEY_A)
        assert summary["persisted"] == 2
        assert summary["last"]["event"] == "trial"

    def test_append_after_tear_keeps_both_sides(self, store):
        """A resumed run appends past the torn fragment; the fragment
        plus the new line decode as garbage and are skipped, everything
        else survives."""
        self.events(store)
        self.tear(store)
        store.journal_append(KEY_A, {"event": "done", "key": KEY_A})
        events = list(store.journal_events(KEY_A))
        assert [e["event"] for e in events[:3]] == ["start", "trial",
                                                    "trial"]
        # the torn fragment merged with the next append into one
        # undecodable line — skipped, never raising
        assert all("event" in e for e in events)

    def test_mid_file_garbage_does_not_hide_the_tail(self, store):
        path = store.journal_path(KEY_A)
        store.journal_append(KEY_A, {"event": "start", "key": KEY_A})
        with open(path, "a") as handle:
            handle.write("\x00\x01 not json at all\n")
        store.journal_append(KEY_A, {"event": "done", "key": KEY_A})
        kinds = [e["event"] for e in store.journal_events(KEY_A)]
        assert kinds == ["start", "done"]


class TestKeyMismatch:
    def test_foreign_journal_is_ignored_not_merged(self, store):
        """A journal whose stamped key disagrees with its filename (file
        copied between campaigns) must produce *no* resume summary —
        merging it would claim another spec's trials as persisted."""
        store.journal_append(KEY_A, {"event": "start", "key": KEY_A,
                                     "pending": 4})
        store.journal_append(KEY_A, {"event": "trial", "key": KEY_A,
                                     "index": 0})
        # simulate `cp journals/aaa.jsonl journals/bbb.jsonl`
        path_b = store.journal_path(KEY_B)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(store.journal_path(KEY_A).read_bytes())

        assert store.journal_summary(KEY_A)["persisted"] == 1
        assert store.journal_summary(KEY_B) is None

    def test_unstamped_legacy_events_still_summarise(self, store):
        """Journals written before key-stamping carry no ``key`` field;
        they are trusted by filename as before."""
        path = store.journal_path(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(json.dumps({"event": "trial", "index": 3}) + "\n")
        summary = store.journal_summary(KEY_A)
        assert summary is not None
        assert summary["persisted"] == 1

    def test_one_foreign_event_poisons_the_whole_journal(self, store):
        store.journal_append(KEY_A, {"event": "trial", "key": KEY_A,
                                     "index": 0})
        store.journal_append(KEY_A, {"event": "trial", "key": KEY_B,
                                     "index": 1})
        assert store.journal_summary(KEY_A) is None


class TestEngineIntegration:
    def test_interrupted_run_resumes_past_a_torn_tail(self, store,
                                                      tmp_path):
        spec = tiny_spec()
        key = spec.store_key()
        with pytest.raises(Killed):
            run_campaign(spec, executor=SerialExecutor(), store=store,
                         progress=kill_at_once)
        with open(store.journal_path(key), "a") as handle:
            handle.write('{"event": "trial", "ind')

        resumed = run_campaign(spec, executor=SerialExecutor(),
                               store=CampaignStore(tmp_path / "store"))
        assert resumed.cache_hits >= 1
        summary = store.journal_summary(key)
        assert summary["last"]["event"] == "done"

    def test_journal_events_are_key_stamped(self, store):
        spec = tiny_spec()
        run_campaign(spec, executor=SerialExecutor(), store=store)
        events = list(store.journal_events(spec.store_key()))
        assert events, "campaign with a store must journal"
        assert all(e["key"] == spec.store_key() for e in events)

    def test_append_is_durable_on_return(self, store):
        """flush+fsync per append: the line is on disk (visible through
        a fresh handle) the moment journal_append returns."""
        store.journal_append(KEY_A, {"event": "start", "key": KEY_A})
        raw = store.journal_path(KEY_A).read_text()
        assert raw.endswith("\n")
        assert json.loads(raw.splitlines()[0])["event"] == "start"
