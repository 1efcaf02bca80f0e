"""Content-addressed campaign store: cache correctness and maintenance.

The store's acceptance bar is the byte-identity anchor: a cache hit must
reproduce exactly what a cold computation would have produced — same
trial records, same aggregates, same fingerprint — no matter which
executor ran the cold pass.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import ProcessPoolExecutor, SerialExecutor
from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import (STORE_SCHEMA_VERSION, CampaignStore,
                                  StoreSchemaError, default_store_root,
                                  process_cache)


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestStoreBasics:
    def test_creates_layout_and_schema(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        schema = json.loads((store.root / "SCHEMA").read_text())
        assert schema["schema"] == STORE_SCHEMA_VERSION
        for kind in ("trials", "baselines", "matrices"):
            assert (store.root / kind).is_dir()
        assert not (store.root / "scalars").exists()

    def test_a_scalars_directory_from_an_older_version_is_ignored(
            self, tmp_path):
        """A store laid out before Figure 5's calibration became trials
        may carry ``scalars/``: it opens, verifies and is not counted."""
        root = tmp_path / "store"
        for kind in ("trials", "baselines", "matrices", "scalars",
                     "journals"):
            (root / kind).mkdir(parents=True)
        (root / "SCHEMA").write_text(
            json.dumps({"schema": STORE_SCHEMA_VERSION}) + "\n")
        key = "ab" + "0" * 62
        (root / "scalars" / "ab").mkdir()
        (root / "scalars" / "ab" / f"{key}.json").write_text(json.dumps(
            {"schema": STORE_SCHEMA_VERSION, "key": key, "value": 27}))
        store = CampaignStore(root)
        assert store.verify().ok
        assert "scalars" not in store.entry_count()

    def test_env_override_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_STORE", str(tmp_path / "env"))
        assert default_store_root() == tmp_path / "env"

    def test_rejects_incompatible_schema(self, tmp_path):
        root = tmp_path / "store"
        CampaignStore(root)
        (root / "SCHEMA").write_text('{"schema": 99}')
        with pytest.raises(StoreSchemaError, match="schema v99"):
            CampaignStore(root)

    def test_rejects_unreadable_schema(self, tmp_path):
        root = tmp_path / "store"
        CampaignStore(root)
        (root / "SCHEMA").write_text("not json")
        with pytest.raises(StoreSchemaError, match="unreadable"):
            CampaignStore(root)

    def test_refuses_to_adopt_foreign_directory(self, tmp_path):
        root = tmp_path / "not-a-store"
        root.mkdir()
        (root / "precious.txt").write_text("user data")
        with pytest.raises(StoreSchemaError, match="refusing to adopt"):
            CampaignStore(root)

    def test_incompatible_artifact_fails_loudly(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = "ab" + "0" * 62
        store.put_baseline(key, 1.0)
        path = store._path("baselines", key)
        payload = json.loads(path.read_text())
        payload["schema"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreSchemaError, match="schema v0"):
            store.get_baseline(key)

    def test_corrupt_artifact_self_heals_as_miss(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = "cd" + "0" * 62
        store.put_baseline(key, 1.0)
        store._path("baselines", key).write_text("{torn")
        assert store.get_baseline(key) is None
        assert not store._path("baselines", key).exists()

    @pytest.mark.parametrize("text", [
        "[1, 2]",                                   # not an object
        json.dumps({"schema": STORE_SCHEMA_VERSION}),   # no payload field
        json.dumps({"schema": STORE_SCHEMA_VERSION, "ideal_time": 3,
                    "trial": "x"}),                 # fields of wrong type
        json.dumps({"schema": STORE_SCHEMA_VERSION, "ideal_time": "zz",
                    "trial": {"no_such_field": 1}}),    # undecodable
    ], ids=["list", "bare-schema", "mistyped", "undecodable"])
    @pytest.mark.parametrize("kind", ["baselines", "trials"])
    def test_a_wellformed_but_wrong_json_entry_is_a_miss(self, tmp_path,
                                                         kind, text):
        """What ``store --verify`` calls corrupt must not raise out of a
        read (out of a trial): unlink, count a miss, recompute."""
        store = CampaignStore(tmp_path / "store")
        key = "cd" + "0" * 62
        path = store._path(kind, key)
        path.parent.mkdir(parents=True)
        path.write_text(text)
        get = store.get_baseline if kind == "baselines" else store.get_trial
        assert get(key) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:len(raw) // 2],            # torn write
        lambda raw: b"",                            # emptied
        lambda raw: raw[:200] + bytes([raw[200] ^ 0xFF]) + raw[201:],
        lambda raw: b"not a zip archive",
    ], ids=["truncated", "empty", "bit-flip", "garbage"])
    def test_a_damaged_matrix_archive_is_a_miss(self, tmp_path, damage):
        store = CampaignStore(tmp_path / "store")
        key = "aa" + "0" * 62
        A, b = MatrixSpec.parse("laplacian2d:9").build()
        store.put_matrix(key, A, b)
        path = store._path("matrices", key, suffix=".npz")
        path.write_bytes(damage(path.read_bytes()))
        assert store.get_matrix(key) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)
        store.put_matrix(key, A, b)                 # ... and recomputes
        assert np.array_equal(store.get_matrix(key)[1], b)

    def test_process_cache_is_one_per_root(self, tmp_path):
        a = process_cache(str(tmp_path / "store"))
        b = process_cache(str(tmp_path / "store"))
        assert a is b
        assert a.store.root == tmp_path / "store"
        assert process_cache(str(tmp_path / "other")) is not a


class TestArtifactRoundTrips:
    def test_baseline_roundtrip_is_bit_exact(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        value = 0.1 + 0.2  # a float with no short decimal representation
        store.put_baseline("ee" + "0" * 62, value)
        assert store.get_baseline("ee" + "0" * 62) == value

    @pytest.mark.parametrize("text,sparse", [("laplacian2d:9", True),
                                             ("qa8fm", False)])
    def test_matrix_roundtrip_is_bit_exact(self, tmp_path, text, sparse):
        store = CampaignStore(tmp_path / "store")
        matrix = MatrixSpec.parse(text, sparse=sparse)
        A, b = matrix.build()
        store.put_matrix("aa" + "0" * 62, A, b)
        A2, b2 = store.get_matrix("aa" + "0" * 62)
        assert type(A2).__name__ == type(A).__name__
        assert A2.shape == A.shape
        assert np.array_equal(A2.data, A.data)
        assert np.array_equal(A2.indices, A.indices)
        assert np.array_equal(A2.indptr, A.indptr)
        assert np.array_equal(b2, b)
        assert b2.dtype == b.dtype

    def test_missing_entries_are_none(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = "ff" + "0" * 62
        assert store.get_trial(key) is None
        assert store.get_baseline(key) is None
        assert store.get_matrix(key) is None


class TestWarmCampaigns:
    def test_warm_rerun_executes_zero_trials_same_fingerprint(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=store)
        assert cold.executed == tiny_spec().num_trials
        assert cold.cache_hits == 0

        warm = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=CampaignStore(tmp_path / "store"))
        assert warm.executed == 0
        assert warm.cache_hits == tiny_spec().num_trials
        assert warm.fingerprint() == cold.fingerprint()
        for a, b in zip(warm.sorted_trials(), cold.sorted_trials(), strict=True):
            assert a.solve_time == b.solve_time
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual

    def test_store_run_matches_storeless_run(self, tmp_path):
        stored = run_campaign(tiny_spec(), executor=SerialExecutor(),
                              store=CampaignStore(tmp_path / "store"))
        plain = run_campaign(tiny_spec(), executor=SerialExecutor())
        assert stored.fingerprint() == plain.fingerprint()

    def test_warm_hit_rate_survives_executor_swap(self, tmp_path):
        """Trials cached by the serial executor satisfy a pool run —
        the store is executor-agnostic, like the fingerprints."""
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=store)
        warm = run_campaign(
            tiny_spec(), executor=ProcessPoolExecutor(max_workers=2),
            store=CampaignStore(tmp_path / "store"))
        assert warm.executed == 0
        assert warm.fingerprint() == cold.fingerprint()

    def test_a_damaged_entry_of_each_kind_costs_a_recompute_and_nothing_else(
            self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=store)
        [matrix] = store._entries("matrices")
        [baseline] = store._entries("baselines")
        trial = store._entries("trials")[0]
        matrix.write_bytes(matrix.read_bytes()[:100])
        baseline.write_text(json.dumps({"schema": STORE_SCHEMA_VERSION}))
        trial.write_text("[1, 2]")
        healed = run_campaign(tiny_spec(), executor=SerialExecutor(),
                              store=CampaignStore(tmp_path / "store"))
        assert healed.fingerprint() == cold.fingerprint()
        assert healed.executed == 1
        assert CampaignStore(tmp_path / "store").verify().ok

    def test_grid_growth_only_executes_new_cells(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        grown = run_campaign(tiny_spec(rates=(2.0, 5.0, 20.0)),
                             executor=SerialExecutor(),
                             store=CampaignStore(tmp_path / "store"))
        assert grown.cache_hits == tiny_spec().num_trials
        assert grown.executed == grown.total_trials - grown.cache_hits

    @pytest.mark.parametrize("reps", [3, 4, 5])
    def test_a_grid_served_from_another_grids_store_is_its_own_cold_run(
            self, tmp_path, reps):
        """Results persisted under another grid's enumeration are
        renumbered by the cached/pending split: the grown grid sorts,
        fingerprints and shard-merges exactly like its own cold run."""
        grid = dict(matrices=["laplacian2d:16"], methods=("FEIR", "Lossy"),
                    knobs=SolverKnobs(tolerance=1e-8))
        grown = tiny_spec(rates=(10.0,), repetitions=reps, **grid)
        cold = run_campaign(grown)
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(rates=(1.0, 10.0), repetitions=2, **grid),
                     store=store)
        warm = run_campaign(grown, store=store)
        assert warm.cache_hits == 4
        assert [t.index for t in warm.sorted_trials()] == \
            list(range(grown.num_trials))
        assert [t.repetition for t in warm.sorted_trials()] == \
            [t.repetition for t in cold.sorted_trials()]
        assert warm.fingerprint() == cold.fingerprint()
        parts = [run_campaign(grown, store=store, shard=(i, 2))
                 for i in range(2)]
        assert sum(p.executed for p in parts) == 0
        assert CampaignResult.merge(parts).fingerprint() == \
            cold.fingerprint()

    def test_different_seed_misses_the_cache(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        other = run_campaign(tiny_spec(seed=100), executor=SerialExecutor(),
                             store=CampaignStore(tmp_path / "store"))
        assert other.cache_hits == 0

    def test_runtime_cell_partitions_the_cache(self, tmp_path):
        """The cross-cell bit-identity invariant is *checked*, never
        assumed: a threaded-cell campaign must not be satisfied from
        trials cached under the list cell."""
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        threaded = tiny_spec(knobs=SolverKnobs(
            tolerance=1e-8, max_iterations=2000, num_workers=4,
            page_size=20, scheduler="threaded", clock="wall", pace=0.0))
        assert (tiny_spec().expand()[0].store_key()
                != threaded.expand()[0].store_key())
        served = run_campaign(threaded, executor=SerialExecutor(),
                              store=CampaignStore(tmp_path / "store"))
        assert served.cache_hits == 0
        assert served.executed == threaded.num_trials


class TestCliStoreLine:
    """The ``store:`` line counts every look-up of an in-process run: the
    trials go through the caller's own handle (they used to land on a
    second one fetched per root, so the line under-counted)."""

    ARGS = ["--matrix", "laplacian2d:10", "--methods", "FEIR", "--rates",
            "1", "--trials", "2", "--quiet"]

    def run(self, root, capsys):
        from repro.campaign.__main__ import main
        assert main([*self.ARGS, "--store", str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        [store] = [line for line in lines if line.startswith("store: ")]
        [executed] = [line for line in lines if line.startswith("executed: ")]
        fields = dict(field.split("=") for field in store.split()[1:])
        return fields, executed

    def test_cold_counts_every_miss_and_warm_hits(self, tmp_path, capsys):
        root = tmp_path / "store"
        cold, executed = self.run(root, capsys)
        # one matrix, one baseline, and each of the two trials twice:
        # when the run splits cached from pending, and when the runner
        # reads through before it executes (what makes a resubmitted
        # trial a hit, see TestReadThroughRunner in test_worker_death.py)
        assert (cold["hits"], cold["misses"]) == ("0", "6")
        assert executed.startswith("executed: 2 ")
        warm, executed = self.run(root, capsys)
        assert executed.startswith("executed: 0 ")
        assert warm["misses"] == "0"
        assert float(warm["hit-rate"].rstrip("%")) >= 90.0


class TestGc:
    def test_gc_prunes_old_entries_keeps_fresh(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        counts = store.entry_count()
        assert counts["trials"] == tiny_spec().num_trials
        # Nothing is older than 30 days: gc keeps everything.
        removed, kept = store.gc(days=30)
        assert removed == 0 and kept > 0
        # Pretend a month passes: everything is unreferenced and pruned.
        removed, kept = store.gc(days=30,
                                 now=time.time() + 31 * 86400.0)
        assert kept == 0
        assert removed == sum(counts.values())
        assert store.entry_count()["trials"] == 0

    def test_reads_refresh_entry_age(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        path = store._path("baselines", "aa" + "0" * 62)
        old = time.time() - 40 * 86400.0
        os.utime(path, (old, old))
        assert store.get_baseline("aa" + "0" * 62) == 7.0  # touches mtime
        removed, kept = store.gc(days=30)
        assert removed == 0 and kept == 1

    def test_gc_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignStore(tmp_path / "store").gc(days=-1)

    def test_gc_now_cli_override(self, tmp_path, capsys):
        """`store --gc --now` pins the cutoff clock — no monkeypatching."""
        from repro.campaign.__main__ import main_store

        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        root = str(tmp_path / "store")
        # From the perspective of "now" = one second from now, nothing
        # is 30 days old yet.
        rc = main_store(["--store", root, "--gc", "--days", "30",
                         "--now", str(time.time() + 1.0)])
        assert rc == 0
        assert store.entry_count()["baselines"] == 1
        # A "now" 31 days in the future ages everything out.
        rc = main_store(["--store", root, "--gc", "--days", "30",
                         "--now", str(time.time() + 31 * 86400.0)])
        assert rc == 0
        assert store.entry_count()["baselines"] == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
