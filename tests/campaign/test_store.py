"""Content-addressed campaign store: cache correctness and maintenance.

The store's acceptance bar is the byte-identity anchor: a cache hit must
reproduce exactly what a cold computation would have produced — same
trial records, same aggregates, same fingerprint — no matter which
executor ran the cold pass.
"""

import dataclasses
import json
import math
import os
import stat
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.engine import _problem, run_campaign
from repro.campaign.executors import ProcessPoolExecutor, SerialExecutor
from repro.campaign.results import TrialResult
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import (STORE_SCHEMA_VERSION, CampaignCache,
                                  CampaignStore, StoreSchemaError, _sealed,
                                  default_store_root, process_cache)


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


#: A trial outcome whose floats have no short decimal representation.
TRIAL = TrialResult(
    index=3, matrix="laplacian2d:10", method="FEIR", rate=2.0,
    repetition=1, converged=True, iterations=57, solve_time=0.1 + 0.2,
    ideal_time=0.25, final_residual=1e-9 / 3, faults_injected=2,
    faults_detected=2, pages_recovered=3, wall_time=0.01)


class TestStoreBasics:
    def test_entries_take_the_journal_mode(self, tmp_path):
        """SCHEMA, a trial and a baseline are created ``0o666`` less the
        umask, as a journal is, so every user of a shared store can
        read them."""
        umask = os.umask(0o022)
        try:
            store = CampaignStore(tmp_path / "store")
            key = "ab" + "0" * 62
            store.put_trial(key, TRIAL)
            store.put_baseline(key, 0.25)
            store.journal_append(key, {"event": "start", "key": key})
        finally:
            os.umask(umask)
        paths = [store.root / "SCHEMA", store._path("trials", key),
                 store._path("baselines", key), store.journal_path(key)]
        assert [stat.S_IMODE(os.stat(path).st_mode) for path in paths] \
            == [0o644] * 4

    def test_creates_layout_and_schema(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        schema = json.loads((store.root / "SCHEMA").read_text())
        assert schema["schema"] == STORE_SCHEMA_VERSION
        for kind in ("trials", "baselines", "journals"):
            assert (store.root / kind).is_dir()
        assert not (store.root / "scalars").exists()
        assert not (store.root / "matrices").exists()

    def test_a_scalars_directory_from_an_older_version_is_ignored(
            self, tmp_path):
        """A store laid out before Figure 5's calibration became trials
        may carry ``scalars/``, and one laid out before built problems
        stayed in RAM ``matrices/``: it opens, verifies and neither is
        counted."""
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
        (root / "matrices" / "ab").mkdir()
        A, b = MatrixSpec.parse("laplacian2d:9").build()
        np.savez(root / "matrices" / "ab" / f"{key}.npz", kind="operator",
                 key=key, data=A.data, indices=A.indices, indptr=A.indptr,
                 shape=np.asarray(A.shape), b=b)
        store = CampaignStore(root)
        report = store.verify()
        assert report.ok and report.verified == 0
        assert set(store.entry_count()) == {"trials", "baselines",
                                            "journals"}

    def test_opening_a_store_without_journals_creates_them(self, tmp_path):
        """``journal_append`` does not create ``journals/``: opening the
        store does, for a store laid out without one too."""
        root = tmp_path / "store"
        CampaignStore(root)
        (root / "journals").rmdir()
        store = CampaignStore(root)
        store.journal_append("ab" * 32, {"event": "start"})
        assert list(store.journal_events("ab" * 32)) == [{"event": "start"}]

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
        path = Path(store._path("baselines", key))
        payload = json.loads(path.read_text())
        payload["schema"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreSchemaError, match="schema v0"):
            store.get_baseline(key)

    def test_corrupt_artifact_self_heals_as_miss(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = "cd" + "0" * 62
        store.put_baseline(key, 1.0)
        Path(store._path("baselines", key)).write_text("{torn")
        assert store.get_baseline(key) is None
        assert not Path(store._path("baselines", key)).exists()

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
        path = Path(store._path(kind, key))
        path.parent.mkdir(parents=True)
        path.write_text(text)
        get = store.get_baseline if kind == "baselines" else store.get_trial
        assert get(key) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:len(raw) // 2],            # torn write
        lambda raw: b"",                            # emptied
        lambda raw: (raw[:len(raw) * 3 // 4]
                     + bytes([raw[len(raw) * 3 // 4] ^ 0x01])
                     + raw[len(raw) * 3 // 4 + 1:]),
        lambda raw: b"not a json document",
    ], ids=["truncated", "empty", "bit-flip", "garbage"])
    @pytest.mark.parametrize("kind", ["baselines", "trials"])
    def test_a_damaged_entry_is_a_miss(self, tmp_path, kind, damage):
        """A sealed entry damaged on disk is discarded and read as a
        miss; the recomputed entry is then served."""
        store = CampaignStore(tmp_path / "store")
        key = "aa" + "0" * 62
        get, put, value = {
            "baselines": (store.get_baseline, store.put_baseline, 0.1 + 0.2),
            "trials": (store.get_trial, store.put_trial, TRIAL)}[kind]
        put(key, value)
        path = Path(store._path(kind, key))
        path.write_bytes(damage(path.read_bytes()))
        assert get(key) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)
        put(key, value)                             # ... and recomputes
        assert get(key) == value

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
    def test_a_rebuilt_problem_is_bit_exact(self, tmp_path, text, sparse):
        """A built problem is never stored: another process's cache over
        the same store rebuilds it, bit for bit, and the store holds
        nothing of it."""
        store = CampaignStore(tmp_path / "store")
        matrix = MatrixSpec.parse(text, sparse=sparse)
        first, second = CampaignCache(store), CampaignCache(store)
        A, b = _problem(matrix, first)
        assert _problem(matrix, first)[0] is A      # a RAM hit
        A2, b2 = _problem(matrix, second)
        assert A2 is not A
        assert (first.hits["matrices"], first.misses["matrices"]) == (1, 1)
        assert (second.hits["matrices"], second.misses["matrices"]) == (0, 1)
        assert type(A2) is type(A)
        assert A2.shape == A.shape
        assert np.array_equal(A2.data, A.data)
        assert np.array_equal(A2.indices, A.indices)
        assert np.array_equal(A2.indptr, A.indptr)
        assert np.array_equal(b2, b)
        assert b2.dtype == b.dtype
        assert sum(store.entry_count().values()) == 0
        assert not list(store.root.rglob("*.npz"))

    @pytest.mark.parametrize("result", [
        TRIAL,
        dataclasses.replace(TRIAL, method=None, rate=0.0),
        dataclasses.replace(TRIAL, converged=False, iterations=2000,
                            final_residual=0.5 + 1e-17),
        dataclasses.replace(TRIAL, converged=False, final_residual=math.inf),
        dataclasses.replace(TRIAL, converged=False, final_residual=math.nan),
    ], ids=["feir", "ideal", "diverged", "inf-residual", "nan-residual"])
    def test_a_stored_trial_is_the_sealed_text_of_its_asdict(self, tmp_path,
                                                              result):
        """A trial's stored bytes are the seal of ``asdict(result)``, the
        spelling the pinned store addresses were written with, whatever
        the payload is built from."""
        store = CampaignStore(tmp_path / "store")
        key = "ab" + "0" * 62
        store.put_trial(key, result)
        expected = _sealed({"schema": STORE_SCHEMA_VERSION, "key": key,
                            "trial": dataclasses.asdict(result)})
        path = store.root / "trials" / key[:2] / f"{key}.json"
        assert path.read_bytes() == expected.encode("utf-8")
        assert repr(store.get_trial(key)) == repr(result)

    def test_missing_entries_are_none(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        key = "ff" + "0" * 62
        assert store.get_trial(key) is None
        assert store.get_baseline(key) is None


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

    def test_a_pool_campaign_stores_outcomes_only(self, tmp_path):
        """A built problem stays in the process that built it: pool
        children on a fresh store write trials and a baseline, no
        matrix."""
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=ProcessPoolExecutor(max_workers=2),
                     store=store)
        assert sorted(path.name for path in store.root.iterdir()) == [
            "SCHEMA", "baselines", "journals", "trials"]
        assert not list(store.root.rglob("*.npz"))
        assert store.entry_count()["trials"] == tiny_spec().num_trials

    def test_a_damaged_entry_of_each_kind_costs_a_recompute_and_nothing_else(
            self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=store)
        [baseline] = store._entries("baselines")
        trial = store._entries("trials")[0]
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
        assert grown.executed == \
            tiny_spec(rates=(2.0, 5.0, 20.0)).num_trials - grown.cache_hits

    @pytest.mark.parametrize("reps", [3, 4, 5])
    def test_a_grid_served_from_another_grids_store_is_its_own_cold_run(
            self, tmp_path, reps):
        """Results persisted under another grid's enumeration are
        renumbered by the cached/pending split: the grown grid sorts and
        fingerprints exactly like its own cold run, and its shards, run
        into the same store, leave a full warm run nothing to execute."""
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
        full = run_campaign(grown, store=store)
        assert full.executed == 0
        assert full.fingerprint() == cold.fingerprint()

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
        # one baseline, and each of the two trials twice: when the run
        # splits cached from pending, and when the runner reads through
        # before it executes (what makes a resubmitted trial a hit, see
        # TestReadThroughRunner in test_worker_death.py); the matrix is
        # never looked up in the store
        assert (cold["hits"], cold["misses"]) == ("0", "5")
        assert executed.startswith("executed: 2 ")
        warm, executed = self.run(root, capsys)
        assert executed.startswith("executed: 0 ")
        assert warm["misses"] == "0"
        assert float(warm["hit-rate"].rstrip("%")) >= 90.0

    def test_a_rerun_reports_the_previous_journal(self, tmp_path, capsys):
        """A run with no journal prints no ``resume:`` line; a re-run
        prints what the previous run persisted, unasked."""
        from repro.campaign.__main__ import main
        resumes = []
        for _ in range(2):
            assert main([*self.ARGS, "--store", str(tmp_path / "store")]) == 0
            resumes.append([line for line in capsys.readouterr().out.splitlines()
                            if line.startswith("resume: ")])
        assert resumes == [[], ["resume: previous run persisted 2 trial(s) "
                                "(last event: done)"]]

    def test_a_shard_journal_is_named_on_resume(self, tmp_path, capsys):
        """The unsharded spec over a store shard 0/2 ran into says whose
        journal it read, then executes the other shard's trials."""
        from repro.campaign.__main__ import main
        args = ["--matrix", "laplacian2d:10", "--methods", "FEIR", "Lossy",
                "--rates", "1", "10", "--trials", "2", "--quiet",
                "--store", str(tmp_path / "store")]
        assert main([*args, "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("resume: ", "executed: "))]
        assert lines[0] == ("resume: previous run of shard 0/2 persisted 4 "
                            "trial(s) (last event: done)")
        assert lines[1].startswith("executed: 4 ")


def age_all(store, days):
    """Set the mtime of every file of ``store`` ``days`` days back."""
    old = time.time() - days * 86400.0
    for path in store.root.rglob("*"):
        if path.is_file():
            os.utime(path, (old, old))


class TestGc:
    def test_gc_prunes_old_entries_keeps_fresh(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(tiny_spec(), executor=SerialExecutor(), store=store)
        counts = store.entry_count()
        assert counts["trials"] == tiny_spec().num_trials
        # Nothing is older than 30 days: gc keeps everything.
        removed, kept = store.gc(days=30)
        assert removed == 0 and kept > 0
        # Age every entry a month: everything is unreferenced and pruned.
        age_all(store, 31)
        removed, kept = store.gc(days=30)
        assert kept == 0
        assert removed == sum(counts.values())
        assert store.entry_count()["trials"] == 0

    def test_reads_refresh_entry_age(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        path = Path(store._path("baselines", "aa" + "0" * 62))
        old = time.time() - 40 * 86400.0
        os.utime(path, (old, old))
        assert store.get_baseline("aa" + "0" * 62) == 7.0  # touches mtime
        removed, kept = store.gc(days=30)
        assert removed == 0 and kept == 1

    def test_a_trial_hit_refreshes_its_entry_age(self, tmp_path):
        """A sweep that still reads its trials keeps them through gc,
        though it executes nothing (so its baseline ages out)."""
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=store)
        old = time.time() - 40 * 86400.0
        for path in store.root.glob("*/*/*.*"):   # every artifact
            os.utime(path, (old, old))
        warm = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            store=CampaignStore(store.root))
        assert warm.cache_hits == tiny_spec().num_trials
        assert warm.fingerprint() == cold.fingerprint()
        store.gc(days=30)
        assert store.entry_count()["trials"] == tiny_spec().num_trials
        assert store.entry_count()["baselines"] == 0

    def test_gc_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignStore(tmp_path / "store").gc(days=-1)

    def test_gc_rejects_nan_age_and_keeps_inf(self, tmp_path):
        """NaN compares false with everything, so a bare ``days < 0``
        check lets it through and gc silently keeps every entry."""
        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        with pytest.raises(ValueError):
            store.gc(days=float("nan"))
        assert store.gc(days=float("inf")) == (0, 1)

    def test_gc_nan_days_cli_exits_2(self, tmp_path, capsys):
        from repro.campaign.__main__ import main_store

        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        age_all(store, 31)
        rc = main_store(["--store", str(store.root), "--gc", "--days", "nan"])
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err
        assert store.entry_count()["baselines"] == 1

    def test_gc_cli_prunes_only_entries_older_than_days(self, tmp_path,
                                                        capsys):
        """`store --gc --days` against entries aged with ``os.utime``."""
        from repro.campaign.__main__ import main_store

        store = CampaignStore(tmp_path / "store")
        store.put_baseline("aa" + "0" * 62, 7.0)
        root = str(tmp_path / "store")
        # A day-old entry is not 30 days old yet.
        age_all(store, 1)
        rc = main_store(["--store", root, "--gc", "--days", "30"])
        assert rc == 0
        assert store.entry_count()["baselines"] == 1
        # A month-old one is.
        age_all(store, 31)
        rc = main_store(["--store", root, "--gc", "--days", "30"])
        assert rc == 0
        assert store.entry_count()["baselines"] == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
