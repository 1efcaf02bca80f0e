"""`store --verify`: every artifact must re-hash to its filename.

The store is content-addressed — an entry's filename *is* a SHA-256 of
its content token, and entries embed both that key and a checksum over
their canonical payload.  ``verify`` recomputes everything; these tests
corrupt entries in the ways disks and tooling actually corrupt them
(truncation, bit flips, renames) and check each is caught, reported and
— with ``remove=True`` — degraded to a plain cache miss.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.campaign.__main__ import main
from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore


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


def one_entry(store, kind):
    paths = sorted((store.root / kind).glob("*/*.json"))
    assert paths, f"expected at least one {kind} entry"
    return paths[0]


def replace_once(path, old, new):
    """Edit ``path``'s stored text in place, ``old`` occurring once."""
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def flip_iterations(store):
    """A trial whose iteration count is one more than it was: still
    valid JSON, in its writer's layout, under its own key."""
    path = one_entry(store, "trials")
    iterations = json.loads(path.read_text())["trial"]["iterations"]
    replace_once(path, f'"iterations": {iterations},',
                 f'"iterations": {iterations + 1},')
    return path


def double_ideal_time(store):
    path = one_entry(store, "baselines")
    value = json.loads(path.read_text())["ideal_time"]
    replace_once(path, f'"ideal_time": "{value}"',
                 f'"ideal_time": "{(2 * float.fromhex(value)).hex()}"')
    return path


def overwrite(kind, data):
    def corrupt(store):
        path = one_entry(store, kind)
        path.write_bytes(data(path.read_bytes()))
        return path
    return corrupt


def copy_under_another_key(kind):
    def corrupt(store):
        source = one_entry(store, kind)
        target = Path(store._path(kind, "ab" + "0" * 62))
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(source.read_bytes())
        return target
    return corrupt


def unseal(*members):
    """The same payload without the named members (by default both of
    its embedded key and checksum)."""
    def strip(data):
        payload = json.loads(data)
        for member in members or ("key", "checksum"):
            del payload[member]
        return json.dumps(payload, sort_keys=True).encode()
    return strip


def reformat(data):
    """The same members, indented: equal as JSON, not as stored text."""
    return json.dumps(json.loads(data), sort_keys=True, indent=1).encode()


#: Ways an entry goes bad, each ``(kind, corrupt)``: ``corrupt(store)``
#: damages one entry of a populated store and returns its path.
CORRUPTIONS = {
    "trial-unparseable": ("trials", overwrite(
        "trials", lambda data: b"{ definitely not json")),
    "trial-not-an-object": ("trials", overwrite(
        "trials", lambda data: b"[1, 2]")),
    "trial-flipped-digit": ("trials", flip_iterations),
    "trial-reformatted": ("trials", overwrite("trials", reformat)),
    "trial-copied-under-another-key": (
        "trials", copy_under_another_key("trials")),
    "trial-unsealed": ("trials", overwrite("trials", unseal())),
    "trial-without-checksum": ("trials", overwrite(
        "trials", unseal("checksum"))),
    "baseline-flipped-digit": ("baselines", double_ideal_time),
    "baseline-unsealed": ("baselines", overwrite("baselines", unseal())),
    "baseline-without-key": ("baselines", overwrite(
        "baselines", unseal("key"))),
}

#: Each artifact kind's reader.
READERS = {"trials": CampaignStore.get_trial,
           "baselines": CampaignStore.get_baseline}


class TestCleanStore:
    def test_fresh_campaign_verifies(self, populated):
        report = populated.verify()
        assert report.ok
        assert report.corrupt == []
        counts = populated.entry_count()
        assert set(counts) == {"trials", "baselines", "journals"}
        assert report.verified == sum(counts.values())

    def test_empty_store_verifies(self, tmp_path):
        report = CampaignStore(tmp_path / "store").verify()
        assert report.ok
        assert report.verified == 0


class TestTornTemporary:
    """A writer killed between opening its temporary and ``os.replace``
    (a pool sibling terminated with the broken pool) leaves a
    ``<entry>.<hex>.tmp`` beside the entries.  It was never committed,
    so it is not an entry."""

    def test_it_is_not_counted_not_corrupt_and_ages_out(self, populated):
        committed = populated.entry_count()
        verified = populated.verify().verified
        for kind, tail in (("trials", '{"schema": 1, "tri'),
                           ("baselines", '{"checksum": "')):
            torn = (populated.root / kind / "ab"
                    / f"ab{'0' * 62}.json.5f0c2e9a17d4b3e8.tmp")
            torn.parent.mkdir(exist_ok=True)
            torn.write_text(tail)
        assert populated.entry_count() == committed
        report = populated.verify()
        assert report.ok and report.verified == verified
        old = time.time() - 86400.0
        for path in populated.root.rglob("*"):
            if path.is_file():
                os.utime(path, (old, old))
        removed, kept = populated.gc(days=0)
        assert removed == sum(committed.values()) + 2 and kept == 0
        assert not list(populated.root.glob("*/ab/*"))


class TestJsonCorruption:
    def test_unparseable_trial_is_corrupt(self, populated):
        path = one_entry(populated, "trials")
        path.write_text("{ definitely not json")
        report = populated.verify()
        assert not report.ok
        assert [c[0] for c in report.corrupt] == ["trials"]
        assert "unreadable JSON" in report.corrupt[0][2]

    def test_bit_flip_fails_the_checksum(self, populated):
        """Valid JSON, silently altered payload — only the embedded
        checksum can catch this."""
        path = one_entry(populated, "trials")
        payload = json.loads(path.read_text())
        payload["trial"]["iterations"] = 10 ** 6
        path.write_text(json.dumps(payload, sort_keys=True))
        report = populated.verify()
        assert not report.ok
        assert "checksum mismatch" in report.corrupt[0][2]

    def test_renamed_entry_fails_the_key_check(self, populated):
        """`cp` between content addresses: the payload is pristine but
        lives under the wrong name."""
        path = one_entry(populated, "trials")
        impostor = path.with_name("f" * 64 + ".json")
        impostor.write_bytes(path.read_bytes())
        report = populated.verify()
        assert not report.ok
        assert any("does not match" in reason
                   for _, _, reason in report.corrupt)


class TestReadPath:
    """A read makes the check ``verify`` makes: an entry it calls
    corrupt is discarded and counted as a miss, so it is recomputed
    instead of served."""

    def test_a_flipped_digit_reads_as_a_miss(self, populated):
        path = flip_iterations(populated)
        assert "checksum mismatch" in populated.verify().corrupt[0][2]
        store = CampaignStore(populated.root)
        assert store.get_trial(path.stem) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)

    def test_a_trial_copied_under_another_key_reads_as_a_miss(
            self, populated):
        source, target = sorted(populated.root.glob("trials/*/*.json"))[:2]
        target.write_bytes(source.read_bytes())
        store = CampaignStore(populated.root)
        assert store.get_trial(target.stem) is None
        assert not target.exists()
        assert store.get_trial(source.stem) is not None
        assert (store.hits, store.misses) == (1, 1)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_verify_and_the_read_path_agree(self, populated, case):
        """One check decides "corrupt": the entry ``verify`` names is
        the one a read discards, and nothing else is touched."""
        kind, corrupt = CORRUPTIONS[case]
        path = corrupt(populated)
        [(found_kind, found_path, _)] = populated.verify().corrupt
        assert (found_kind, found_path) == (kind, str(path))
        store = CampaignStore(populated.root)
        assert READERS[kind](store, path.stem) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)
        assert store.verify().ok

    def test_every_entry_leads_with_its_checksum(self, populated):
        """The read path hashes the text after the leading ``"checksum"``
        member instead of re-serializing, so the writer must put it
        first, and the rest must hash to it."""
        paths = sorted(populated.root.glob("trials/*/*.json")) + \
            sorted(populated.root.glob("baselines/*/*.json"))
        assert len(paths) == tiny_spec().num_trials + 1
        for path in paths:
            text = path.read_text()
            checksum = json.loads(text)["checksum"]
            head = f'{{"checksum": "{checksum}", '
            assert text.startswith(head)
            body = json.loads("{" + text[len(head):])
            assert "checksum" not in body
            assert json.dumps(body, sort_keys=True) == "{" + text[len(head):]

    def test_a_recomputed_entry_replaces_the_corrupt_one(self, populated):
        key = one_entry(populated, "trials").stem
        original = CampaignStore(populated.root).get_trial(key)
        path = flip_iterations(populated)
        cache = CampaignCache(CampaignStore(populated.root))
        assert cache.get_trial(key) is None
        assert cache.counts("trials")["misses"] == 1
        cache.put_trial(key, original)
        assert path.exists()
        assert populated.verify().ok
        assert CampaignStore(populated.root).get_trial(key) == original

    def test_a_corrupted_trial_is_recomputed_by_the_next_run(
            self, populated):
        flip_iterations(populated)
        rerun = run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=CampaignStore(populated.root))
        assert rerun.executed == 1
        assert rerun.fingerprint() == run_campaign(
            tiny_spec(), executor=SerialExecutor()).fingerprint()
        assert populated.verify().ok


    def test_unsealed_entries_are_recomputed_by_the_next_run(
            self, populated):
        """An entry without an embedded key and checksum is not served:
        a run that needs it recomputes it, with the cold fingerprint."""
        for case in ("trial-unsealed", "baseline-unsealed"):
            CORRUPTIONS[case][1](populated)
        store = CampaignStore(populated.root)
        rerun = run_campaign(tiny_spec(), executor=SerialExecutor(),
                             store=store)
        assert rerun.executed == 1
        # the sound trial, then the unsealed one twice and its baseline
        assert (store.hits, store.misses) == (1, 3)
        assert rerun.fingerprint() == run_campaign(
            tiny_spec(), executor=SerialExecutor()).fingerprint()
        assert populated.verify().ok


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
        path = one_entry(populated, "trials")
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

        path = one_entry(populated, "trials")
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
