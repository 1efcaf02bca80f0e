"""`store --verify`: every artifact must re-hash to its filename.

The store is content-addressed — an entry's filename *is* a SHA-256 of
its content token, and entries embed both that key and a checksum over
their canonical payload.  ``verify`` recomputes everything; these tests
corrupt entries in the ways disks and tooling actually corrupt them
(truncation, bit flips, renames) and check each is caught, reported and
— with ``remove=True`` — degraded to a plain cache miss.
"""

import json

import pytest

from repro.campaign.__main__ import main
from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import STORE_SCHEMA_VERSION, CampaignStore


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
def populated(tmp_path):
    """A store holding one real campaign's artifacts."""
    store = CampaignStore(tmp_path / "store")
    run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
    return store


def one_entry(store, kind, suffix):
    paths = sorted((store.root / kind).glob(f"*/*{suffix}"))
    assert paths, f"expected at least one {kind} entry"
    return paths[0]


class TestCleanStore:
    def test_fresh_campaign_verifies(self, populated):
        report = populated.verify()
        assert report.ok
        assert report.corrupt == []
        assert report.legacy == 0
        counts = populated.entry_count()
        assert set(counts) == {"trials", "matrices", "baselines",
                               "journals"}
        assert report.verified == sum(counts.values())

    def test_empty_store_verifies(self, tmp_path):
        report = CampaignStore(tmp_path / "store").verify()
        assert report.ok
        assert report.verified == 0


class TestTornTemporary:
    """A writer killed between ``mkstemp`` and ``os.replace`` (a pool
    sibling terminated with the broken pool) leaves a ``tmp*.tmp`` beside
    the entries.  It was never committed, so it is not an entry."""

    def test_it_is_not_counted_not_corrupt_and_ages_out(self, populated):
        committed = populated.entry_count()
        verified = populated.verify().verified
        for kind, tail in (("trials", '{"schema": 1, "tri'),
                           ("matrices", "PK\x03\x04")):
            torn = populated.root / kind / "ab" / "tmp7dq_x3kz.tmp"
            torn.parent.mkdir(exist_ok=True)
            torn.write_text(tail)
        assert populated.entry_count() == committed
        report = populated.verify()
        assert report.ok and report.verified == verified
        removed, kept = populated.gc(days=0, now=2e10)
        assert removed == sum(committed.values()) + 2 and kept == 0
        assert not list(populated.root.glob("*/ab/*"))


class TestJsonCorruption:
    def test_unparseable_trial_is_corrupt(self, populated):
        path = one_entry(populated, "trials", ".json")
        path.write_text("{ definitely not json")
        report = populated.verify()
        assert not report.ok
        assert [c[0] for c in report.corrupt] == ["trials"]
        assert "unreadable JSON" in report.corrupt[0][2]

    def test_bit_flip_fails_the_checksum(self, populated):
        """Valid JSON, silently altered payload — only the embedded
        checksum can catch this."""
        path = one_entry(populated, "trials", ".json")
        payload = json.loads(path.read_text())
        payload["trial"]["iterations"] = 10 ** 6
        path.write_text(json.dumps(payload, sort_keys=True))
        report = populated.verify()
        assert not report.ok
        assert "checksum mismatch" in report.corrupt[0][2]

    def test_renamed_entry_fails_the_key_check(self, populated):
        """`cp` between content addresses: the payload is pristine but
        lives under the wrong name."""
        path = one_entry(populated, "trials", ".json")
        impostor = path.with_name("f" * 64 + ".json")
        impostor.write_bytes(path.read_bytes())
        report = populated.verify()
        assert not report.ok
        assert any("does not match" in reason
                   for _, _, reason in report.corrupt)

    def test_legacy_entry_is_reported_not_corrupt(self, populated):
        """Pre-checksum entries (no embedded key/checksum) stay readable
        and count as legacy, never as corruption."""
        path = one_entry(populated, "baselines", ".json")
        payload = json.loads(path.read_text())
        payload.pop("key", None)
        payload.pop("checksum", None)
        assert payload["schema"] == STORE_SCHEMA_VERSION
        path.write_text(json.dumps(payload, sort_keys=True))
        report = populated.verify()
        assert report.ok
        assert report.legacy == 1


class TestMatrixCorruption:
    def test_truncated_npz_is_corrupt(self, populated):
        path = one_entry(populated, "matrices", ".npz")
        path.write_bytes(path.read_bytes()[:100])
        report = populated.verify()
        assert not report.ok
        assert [c[0] for c in report.corrupt] == ["matrices"]
        assert "unreadable npz" in report.corrupt[0][2]


class TestJournalVerdicts:
    def test_torn_tail_is_ok(self, populated):
        spec_key = tiny_spec().store_key()
        with open(populated.journal_path(spec_key), "a") as handle:
            handle.write('{"event": "tri')
        assert populated.verify().ok

    def test_mid_file_garbage_is_corrupt(self, populated):
        spec_key = tiny_spec().store_key()
        with open(populated.journal_path(spec_key), "a") as handle:
            handle.write("\x00 garbage\n")
            handle.write(json.dumps({"event": "done",
                                     "key": spec_key}) + "\n")
        report = populated.verify()
        assert not report.ok
        assert [c[0] for c in report.corrupt] == ["journals"]


class TestRemove:
    def test_remove_degrades_to_cache_miss(self, populated, tmp_path):
        path = one_entry(populated, "trials", ".json")
        path.write_text("garbage")
        before = populated.entry_count()["trials"]

        report = populated.verify(remove=True)
        assert report.removed == 1
        assert populated.entry_count()["trials"] == before - 1
        assert populated.verify().ok

        # the removed trial is simply recomputed on the next run
        resumed = run_campaign(tiny_spec(), executor=SerialExecutor(),
                               store=CampaignStore(tmp_path / "store"))
        assert resumed.executed == 1
        assert resumed.cache_hits == tiny_spec().num_trials - 1

    def test_remove_without_corruption_removes_nothing(self, populated):
        report = populated.verify(remove=True)
        assert report.ok
        assert report.removed == 0


class TestCli:
    def test_verify_exit_codes(self, populated, capsys):
        root = str(populated.root)
        assert main(["store", "--store", root, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

        path = one_entry(populated, "trials", ".json")
        path.write_text("garbage")
        assert main(["store", "--store", root, "--verify"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out

        assert main(["store", "--store", root, "--verify",
                     "--remove"]) == 1
        out = capsys.readouterr().out
        assert "1 removed" in out
        assert main(["store", "--store", root, "--verify"]) == 0

    def test_remove_requires_verify(self, populated, capsys):
        assert main(["store", "--store", str(populated.root),
                     "--remove"]) == 2
