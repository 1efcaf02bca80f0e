"""Sharded campaigns meet in the store.

The contract under test: N shard runs partition the campaign exactly,
each persists exactly its own trials, and an unsharded run over a store
holding all of them — one store, or several combined by a no-clobber
copy of their entries in any order — executes nothing and reproduces
the fingerprint of a single unsharded run byte-for-byte.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs, parse_shard
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


class TestShardPartition:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("text", ["4/4", "-1/4", "1", "a/4", "1/b",
                                      "0/0", "0/-2"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    @pytest.mark.parametrize("index, count", [(4, 4), (-1, 4), (0, 0)])
    def test_the_cli_and_the_spec_refuse_a_shard_alike(self, index, count):
        with pytest.raises(ValueError) as cli:
            parse_shard(f"{index}/{count}")
        with pytest.raises(ValueError) as spec:
            tiny_spec().trial_keys((index, count))
        assert str(cli.value) == str(spec.value)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 11])
    def test_shards_partition_disjoint_and_complete(self, count):
        spec = tiny_spec()
        indices = [index for i in range(count)
                   for index, _ in spec.trial_keys((i, count))]
        assert sorted(indices) == list(range(spec.num_trials))

    def test_round_robin_balances_shards(self):
        spec = tiny_spec()  # 8 trials
        a, b = ([index for index, _ in spec.trial_keys((i, 2))]
                for i in range(2))
        # Round-robin: consecutive indices alternate shards, so each
        # shard samples every region of the grid.
        assert a == [0, 2, 4, 6]
        assert b == [1, 3, 5, 7]

    def test_shard_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            tiny_spec().trial_keys((2, 2))
        with pytest.raises(ValueError):
            tiny_spec().trial_keys((0, 0))


def run_shard(spec, shard, root):
    """Run one shard of ``spec`` into the store at ``root``."""
    return run_campaign(spec, executor=SerialExecutor(), shard=shard,
                        store=CampaignStore(root))


def copy_entries(source, target):
    """``cp -rn source/trials source/baselines target/``: every entry the
    target lacks, none it has."""
    CampaignStore(target)
    for kind in ("trials", "baselines"):
        for path in sorted((Path(source) / kind).rglob("*.json")):
            dest = Path(target) / kind / path.relative_to(Path(source) / kind)
            if not dest.exists():
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, dest)


def full_run(spec, root, executed=None):
    """The unsharded run over the store at ``root``; the indices it
    executes are appended to ``executed``."""
    def progress(trial, done, total):
        executed.append(trial.index)
    return run_campaign(spec, executor=SerialExecutor(),
                        store=CampaignStore(root),
                        progress=None if executed is None else progress)


def unsharded_fingerprint():
    """The storeless, unsharded run's fingerprint: the ground truth."""
    return run_campaign(tiny_spec(), executor=SerialExecutor()).fingerprint()


def files(root):
    return sorted(path.relative_to(root).as_posix()
                  for kind in ("trials", "baselines")
                  for path in (root / kind).rglob("*.json"))


class TestShardsMeetInTheStore:
    def test_a_shard_run_persists_exactly_its_own_trials(self, tmp_path):
        part = run_shard(tiny_spec(), (0, 2), tmp_path / "store")
        assert len(part) == tiny_spec().num_trials // 2
        store = CampaignStore(tmp_path / "store")
        assert store.entry_count()["trials"] == len(part)
        executed = []
        full_run(tiny_spec(), tmp_path / "store", executed)
        assert executed == [1, 3, 5, 7]

    def test_shards_run_into_one_store_make_the_unsharded_run(self, tmp_path):
        for i in range(3):
            run_shard(tiny_spec(), (i, 3), tmp_path / "store")
        full = full_run(tiny_spec(), tmp_path / "store")
        assert (full.executed, full.cache_hits) == (0, tiny_spec().num_trials)
        assert full.fingerprint() == unsharded_fingerprint()

    def test_shards_in_two_stores_combine_by_copying_files(self, tmp_path):
        for i in range(2):
            run_shard(tiny_spec(), (i, 2), tmp_path / f"store{i}")
        copy_entries(tmp_path / "store1", tmp_path / "store0")
        full = full_run(tiny_spec(), tmp_path / "store0")
        assert (full.executed, full.cache_hits) == (0, tiny_spec().num_trials)
        assert full.fingerprint() == unsharded_fingerprint()
        assert CampaignStore(tmp_path / "store0").verify().ok

    def test_the_copy_order_does_not_matter(self, tmp_path):
        for i in range(3):
            run_shard(tiny_spec(), (i, 3), tmp_path / f"shard{i}")
        for name, order in (("forward", (0, 1, 2)), ("backward", (2, 1, 0))):
            for i in order:
                copy_entries(tmp_path / f"shard{i}", tmp_path / name)
        assert files(tmp_path / "forward") == files(tmp_path / "backward")
        forward = full_run(tiny_spec(), tmp_path / "forward")
        backward = full_run(tiny_spec(), tmp_path / "backward")
        assert forward.executed == backward.executed == 0
        assert forward.fingerprint() == backward.fingerprint()


class TestCopyOrderProperty:
    """Hypothesis: *any* shard split, its stores copied into one in *any*
    order, serves the unsharded fingerprint and executes nothing.  Each
    split runs once (cached per class), so an example only copies files
    and reads them back."""

    _cache = {}

    @classmethod
    def stores_for(cls, count):
        if not cls._cache:
            cls._cache["root"] = Path(tempfile.mkdtemp(prefix="shards-"))
            cls._cache["reference"] = unsharded_fingerprint()
        if count not in cls._cache:
            root = cls._cache["root"] / str(count)
            for i in range(count):
                run_shard(tiny_spec(), (i, count), root / f"shard{i}")
            cls._cache[count] = [root / f"shard{i}" for i in range(count)]
        return cls._cache["reference"], cls._cache[count]

    @classmethod
    def teardown_class(cls):
        if cls._cache:
            shutil.rmtree(cls._cache["root"], ignore_errors=True)
        cls._cache.clear()

    @given(count=st.integers(min_value=1, max_value=5),
           order_seed=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_copy_order_serves_the_unsharded_run(self, count,
                                                     order_seed):
        reference, stores = self.stores_for(count)
        stores = list(stores)
        order_seed.shuffle(stores)
        with tempfile.TemporaryDirectory() as combined:
            for store in stores:
                copy_entries(store, combined)
            full = full_run(tiny_spec(), combined)
        assert full.executed == 0
        assert full.fingerprint() == reference


class TestWhatTheStoreHolds:
    def test_a_full_run_over_an_empty_store_executes_every_trial(
            self, tmp_path):
        full = full_run(tiny_spec(), tmp_path / "store")
        assert (full.executed, full.cache_hits) == (tiny_spec().num_trials, 0)
        assert full.fingerprint() == unsharded_fingerprint()

    def test_copying_one_shard_twice_changes_nothing(self, tmp_path):
        for i in range(2):
            run_shard(tiny_spec(), (i, 2), tmp_path / f"shard{i}")
        copy_entries(tmp_path / "shard0", tmp_path / "combined")
        once = files(tmp_path / "combined")
        copy_entries(tmp_path / "shard0", tmp_path / "combined")
        assert files(tmp_path / "combined") == once
        copy_entries(tmp_path / "shard1", tmp_path / "combined")
        full = full_run(tiny_spec(), tmp_path / "combined")
        assert full.executed == 0
        assert full.fingerprint() == unsharded_fingerprint()

    def test_another_campaigns_entries_are_never_served(self, tmp_path):
        run_shard(tiny_spec(), (0, 2), tmp_path / "mine")
        run_shard(tiny_spec(seed=100), (1, 2), tmp_path / "other")
        alone = full_run(tiny_spec(), tmp_path / "alone")
        copy_entries(tmp_path / "mine", tmp_path / "combined")
        copy_entries(tmp_path / "other", tmp_path / "combined")
        mixed = full_run(tiny_spec(), tmp_path / "combined")
        copy_entries(tmp_path / "mine", tmp_path / "only-mine")
        mine = full_run(tiny_spec(), tmp_path / "only-mine")
        assert mixed.cache_hits == mine.cache_hits == len(alone) // 2
        assert alone.cache_hits == 0
        assert mixed.fingerprint() == alone.fingerprint()

    def test_a_store_missing_some_trials_executes_exactly_those(
            self, tmp_path):
        for i in range(2):
            run_shard(tiny_spec(), (i, 3), tmp_path / "store")
        executed = []
        full = full_run(tiny_spec(), tmp_path / "store", executed)
        assert sorted(executed) == [index for index, _ in
                                    tiny_spec().trial_keys((2, 3))]
        assert full.executed == len(executed)
        assert full.fingerprint() == unsharded_fingerprint()


class TestCli:
    """The partial-result file format and ``merge`` are gone, and a shard
    that could never be combined is refused."""

    @pytest.mark.parametrize("argv", [
        ["merge", "a.json"],
        ["--matrix", "laplacian2d:10", "--out", "r.json"],
        ["store", "--gc", "--now", "0"],
    ])
    def test_a_deleted_spelling_is_a_usage_error(self, argv, tmp_path,
                                                 monkeypatch, capsys):
        from repro.campaign.__main__ import main
        monkeypatch.setenv("REPRO_CAMPAIGN_STORE", str(tmp_path / "store"))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_storeless_shard_exits_2_and_names_the_store(self, capsys):
        from repro.campaign.__main__ import main
        assert main(["--matrix", "laplacian2d:10", "--trials", "1",
                     "--shard", "0/2", "--no-store"]) == 2
        captured = capsys.readouterr()
        assert "store" in captured.err
        assert "fingerprint" not in captured.out
