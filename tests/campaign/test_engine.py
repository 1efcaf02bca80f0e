"""Campaign engine tests: determinism and executor equivalence.

The acceptance bar for the engine is strict: under a fixed campaign
seed, the aggregated statistics must be *byte-identical* between the
serial executor and both pool executors, no matter in which order the
pool completes trials.
"""

import pytest

import dataclasses
import pickle

from repro.campaign.engine import (CampaignRun, TrialRunner, run_campaign,
                                   run_trial, solve_trial)
from repro.campaign.executors import (ProcessPoolExecutor, SerialExecutor,
                                      make_executor)
from repro.campaign.results import CampaignResult, TrialResult
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore, process_cache


def tiny_spec(**overrides):
    """A campaign small enough for process-pool tests on any machine."""
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestRunTrial:
    def test_single_trial_runs_and_converges(self):
        trial = tiny_spec().expand()[0]
        result = run_trial(trial, CampaignCache())
        assert isinstance(result, TrialResult)
        assert result.converged
        assert result.iterations > 0
        assert result.ideal_time > 0
        assert result.solve_time >= result.ideal_time

    def test_trial_is_reproducible(self):
        trial = tiny_spec().expand()[3]
        a = run_trial(trial, CampaignCache())
        b = run_trial(trial, CampaignCache())
        assert a.solve_time == b.solve_time
        assert a.iterations == b.iterations
        assert a.faults_injected == b.faults_injected

    def test_fault_free_trial_has_zero_overhead(self):
        spec = tiny_spec(rates=(0.0,), methods=("FEIR",), repetitions=1)
        result = run_trial(spec.expand()[0], CampaignCache())
        assert result.faults_injected == 0
        # FEIR's recovery tasks overlap with compute on a fault-free run
        # but never cost more than a few percent.
        assert result.overhead_percent < 25.0


class TestOnePipeline:
    """``solve_trial`` is the only way a cell is built, baselined and
    solved; ``run_trial`` is its reduction and the cache is handed in."""

    def test_run_trial_is_the_reduction_of_solve_trial(self):
        trial = tiny_spec().expand()[3]
        cache = CampaignCache()
        full = solve_trial(trial, cache)
        slim = run_trial(trial, cache)
        assert slim.solve_time == full.solve_time
        assert slim.iterations == full.record.iterations
        assert slim.pages_recovered == full.stats.pages_recovered

    def test_one_cache_builds_and_baselines_once(self):
        cache = CampaignCache()
        for trial in tiny_spec().expand():
            run_trial(trial, cache)
        assert cache.misses["matrices"] == cache.misses["baselines"] == 1
        assert cache.hits["baselines"] > 0

    def test_fresh_stores_are_fresh_caches(self, tmp_path):
        """No module state: two runs of one spec on two empty stores each
        write their own matrix and baseline artifact."""
        for name in ("a", "b"):
            store = CampaignStore(tmp_path / name)
            run_campaign(tiny_spec(), store=store)
            counts = store.entry_count()
            assert counts["matrices"] == counts["baselines"] == 1
            assert counts["trials"] == tiny_spec().num_trials

    def test_an_ideal_trial_is_its_own_baseline_and_solves_once(
            self, monkeypatch):
        """``method=None`` through ``run_trial``: one solve cold, none
        through the runner on the same cache, and a method trial of the
        same ``(matrix, knobs)`` solves no second baseline."""
        from repro.solvers.resilient_cg import ResilientCG
        solves = []
        real = ResilientCG.solve
        monkeypatch.setattr(
            ResilientCG, "solve",
            lambda self, **kw: solves.append(kw) or real(self, **kw))
        trial = tiny_spec().expand()[0]
        ideal = dataclasses.replace(trial, method=None, rate=0.0)
        cache = CampaignCache()
        runner = TrialRunner(cache)
        result = runner(ideal)
        assert len(solves) == 1
        assert result.method is None and result.converged
        assert result.ideal_time == result.solve_time > 0
        assert runner(ideal) == result and len(solves) == 1
        assert run_trial(trial, cache).ideal_time == result.solve_time
        assert len(solves) == 2 and cache.misses["baselines"] == 0

    def test_runner_pickles_to_the_process_cache_of_its_root(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        runner = TrialRunner(CampaignCache(store))
        twice = [pickle.loads(pickle.dumps(runner)) for _ in range(2)]
        assert twice[0].cache is twice[1].cache is process_cache(
            str(store.root))
        assert twice[0].cache is not runner.cache
        assert twice[0].cache.store.root == store.root
        storeless = pickle.loads(pickle.dumps(TrialRunner(CampaignCache())))
        assert storeless.cache is process_cache(None)
        assert storeless.cache.store is None

    def test_warm_pass_reads_each_trial_from_the_store_once(self, tmp_path,
                                                            monkeypatch):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(tiny_spec(), store=store)
        calls = []
        real = CampaignStore.get_trial
        monkeypatch.setattr(
            CampaignStore, "get_trial",
            lambda self, key: calls.append(key) or real(self, key))
        warm = run_campaign(tiny_spec(), store=store)
        assert warm.executed == 0
        assert len(calls) == len(set(calls)) == tiny_spec().num_trials
        assert warm.fingerprint() == cold.fingerprint()


class TestCampaignRun:
    """The one cached/pending -> record -> journal -> result loop, driven
    by hand the way ``run_campaign`` and the daemon drive it."""

    def test_split_record_finish(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore(tmp_path / "store")
        cache = CampaignCache(store)
        runner = TrialRunner(cache)
        warmed = [runner(trial) for trial in spec.expand()[:3]]
        run = CampaignRun(spec, cache, executor="by hand",
                          stamp={"source": "test"})
        assert (run.total, run.cached, run.executed) == (8, 3, 0)
        assert [t.index for t in run.pending] == [3, 4, 5, 6, 7]
        assert run.result.trials == warmed and run.fingerprint is None
        with pytest.raises(RuntimeError, match="0 results for 5 pending"):
            run.finish()
        # any order; a result that is not awaited is not counted twice
        counts = [run.record(runner(trial)) for trial in run.pending[::-1]]
        assert counts == [4, 5, 6, 7, 8]
        assert run.record(warmed[0]) == run.record(run.result.trials[-1]) == 0
        assert (run.executed, run.completed) == (5, 8)
        result = run.finish()
        assert result is run.result and result.executor == "by hand"
        assert (result.cache_hits, result.executed) == (3, 5)
        assert run.fingerprint == result.fingerprint() == \
            run_campaign(spec).fingerprint()
        events = list(store.journal_events(spec.store_key()))
        assert [e["event"] for e in events] == ["start"] + ["trial"] * 5 \
            + ["done"]
        assert all(e["source"] == "test" and e["key"] == run.key
                   for e in events)
        assert (events[0]["cached"], events[0]["pending"]) == (3, 5)
        assert events[-1]["fingerprint"] == run.fingerprint

    def test_abandon_says_how_far_it_got(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore(tmp_path / "store")
        cache = CampaignCache(store)
        run = CampaignRun(spec, cache)
        run.record(TrialRunner(cache)(run.pending[0]))
        run.abandon("cancelled", error=None)
        last = list(store.journal_events(spec.store_key()))[-1]
        assert last == {"event": "cancelled", "key": run.key,
                        "completed": 1, "error": None}

    def test_a_shard_run_answers_for_its_shard_only(self):
        spec = tiny_spec()
        run = CampaignRun(spec, CampaignCache(), shard=(1, 3))
        assert [t.index for t in run.pending] == [1, 4, 7]
        assert run.total == 3 and run.result.total_trials == 8
        assert run.result.shard == (1, 3)

    def test_concurrent_recording_counts_every_trial_once(self):
        """More recorders than cores, each offering every result: a lost
        update would count a trial twice or skip a completed-count."""
        import sys
        import threading
        spec = tiny_spec()
        cache = CampaignCache()
        results = [TrialRunner(cache)(trial) for trial in spec.expand()]
        run = CampaignRun(spec, CampaignCache())
        counts = []
        threads = [threading.Thread(
            target=lambda: counts.extend(run.record(r) for r in results))
            for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(counts) == [0] * 56 + list(range(1, 9))
        assert (run.executed, run.completed) == (8, 8)
        assert run.finish().fingerprint() == run_campaign(spec).fingerprint()


class TestDeterminism:
    def test_serial_repeat_is_byte_identical(self):
        a = run_campaign(tiny_spec(), executor=SerialExecutor())
        b = run_campaign(tiny_spec(), executor=SerialExecutor())
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_changes_results(self):
        a = run_campaign(tiny_spec(), executor=SerialExecutor())
        b = run_campaign(tiny_spec(seed=100), executor=SerialExecutor())
        assert a.fingerprint() != b.fingerprint()

    def test_aggregation_is_order_independent(self):
        a = run_campaign(tiny_spec(), executor=SerialExecutor())
        shuffled = CampaignResult(name=a.name)
        shuffled.extend(reversed(a.sorted_trials()))
        assert shuffled.fingerprint() == a.fingerprint()
        assert shuffled.summary() == a.summary()


class TestExecutorEquivalence:
    """Serial vs process pool: identical statistics."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_campaign(tiny_spec(), executor=SerialExecutor())

    def test_process_pool_matches_serial(self, serial_result):
        pool = run_campaign(tiny_spec(),
                            executor=ProcessPoolExecutor(max_workers=2))
        assert pool.fingerprint() == serial_result.fingerprint()
        for a, b in zip(pool.sorted_trials(), serial_result.sorted_trials(), strict=True):
            assert a.solve_time == b.solve_time
            assert a.iterations == b.iterations

    def test_all_trials_accounted_for(self, serial_result):
        assert len(serial_result) == tiny_spec().num_trials


class TestEngineApi:
    def test_progress_callback_sees_every_trial(self):
        seen = []
        run_campaign(tiny_spec(repetitions=1),
                     progress=lambda t, done, total: seen.append((done,
                                                                  total)))
        assert len(seen) == tiny_spec(repetitions=1).num_trials
        assert seen[-1][0] == seen[-1][1]

    def test_make_executor_registry(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process"), ProcessPoolExecutor)
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_summary_and_cells_agree_on_grid(self):
        result = run_campaign(tiny_spec(), executor=SerialExecutor())
        cells = result.cells()
        assert set(result.summary()) == {(m, r)
                                         for (_, m, r) in cells}
        cell = result.cell("laplacian2d(nx=10,ny=10)", "FEIR", 2.0)
        assert cell.trials == 2

    def test_format_renders_table(self):
        result = run_campaign(tiny_spec(repetitions=1),
                              executor=SerialExecutor())
        text = result.format()
        assert "FEIR" in text and "rate 20" in text
