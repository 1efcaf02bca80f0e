"""A warm re-run answers each cached trial by its store key alone.

``CampaignSpec.trial_keys`` enumerates the grid as ``(index, key)``
pairs from the entropy words a trial's seed is built from, and
``CampaignRun`` builds a ``TrialSpec`` — and its ``SeedSequence`` — only
for a trial the cache does not answer.  These tests pin that the two
enumerations agree on every key, that a warm run builds neither object,
and which sealed trial entries the store's decoder still refuses.
"""

import collections
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.campaign import spec as spec_module
from repro.campaign.engine import CampaignRun, run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.results import TrialResult
from repro.campaign.spec import CampaignSpec, SolverKnobs, TrialSpec
from repro.campaign.store import CampaignCache, CampaignStore
from repro.faults.scenarios import ErrorScenario


def small_grid(**overrides):
    """8 trials: 2 methods x 2 rates x 2 repetitions."""
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="warm")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def shard_trials(trials, index, count):
    """Shard ``index`` of ``count`` of an expanded trial list: the
    round-robin rule over the trial index, written out independently."""
    return [t for t in trials if t.index % count == index]


#: Grids whose keys must agree between the two enumerations: several
#: matrices, a fault-free rate, and a seed past 32 bits.
KEY_GRIDS = {
    "matrices": dict(matrices=["laplacian2d:10", "laplacian2d:12x9",
                               "poisson3d27:4", "qa8fm"],
                     methods=("FEIR", "AFEIR"), rates=(1.0,),
                     repetitions=2, seed=3),
    "rate-zero": dict(matrices=["laplacian1d:30"],
                      methods=("FEIR", "Lossy", "ckpt"),
                      rates=(0.0, 0.5, 10.0), repetitions=3, seed=0),
    "large-seed": dict(matrices=["laplacian2d:8", "poisson2d:6x7"],
                       methods=("AFEIR",), rates=(0.0, 4.0), repetitions=4,
                       seed=2**40),
}


class TestKeys:
    @pytest.mark.parametrize("grid", sorted(KEY_GRIDS))
    @pytest.mark.parametrize("shard", [None, (0, 3), (1, 3), (2, 3)])
    def test_keys_equal_the_expanded_trials_keys(self, grid, shard):
        spec = CampaignSpec(**KEY_GRIDS[grid])
        trials = spec.expand()
        if shard is not None:
            trials = shard_trials(trials, *shard)
        assert spec.trial_keys(shard) == \
            [(t.index, t.store_key()) for t in trials]

    @pytest.mark.parametrize("grid", sorted(KEY_GRIDS))
    def test_trials_at_builds_the_expanded_trials(self, grid):
        spec = CampaignSpec(**KEY_GRIDS[grid])
        expanded = spec.expand()
        wanted = dict(spec.trial_keys()[1::3])
        built = spec.trials_at(wanted)
        assert [t.index for t in built] == sorted(wanted)
        for trial in built:
            twin = expanded[trial.index]
            assert trial.store_key() == wanted[trial.index]
            # a copy has no memo: its key is hashed from its content
            assert replace(trial).store_key() == trial.store_key()
            assert list(trial.seed.entropy) == list(twin.seed.entropy)
            assert trial.make_scenario().seed is trial.seed

    def test_a_bad_shard_is_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            small_grid().trial_keys((3, 3))
        with pytest.raises(ValueError, match="must be positive"):
            small_grid().trial_keys((0, 0))


@pytest.fixture
def constructions(monkeypatch):
    """Count the ``SeedSequence``s and ``TrialSpec``s ``campaign.spec``
    builds, through the names it builds them by."""
    counts = collections.Counter()
    seed_sequence = np.random.SeedSequence

    def counted_seed(*args, **kwargs):
        counts["SeedSequence"] += 1
        return seed_sequence(*args, **kwargs)

    def counted_trial(*args, **kwargs):
        counts["TrialSpec"] += 1
        return TrialSpec(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted_seed)
    monkeypatch.setattr(spec_module, "TrialSpec", counted_trial)
    return counts


class TestWarmRun:
    def test_a_warm_run_builds_no_trial_and_no_seed(self, tmp_path,
                                                    constructions):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(small_grid(), SerialExecutor(), store=store)
        # the counters see the cold run (whose baseline seeds one more)
        assert constructions["TrialSpec"] == 8
        assert constructions["SeedSequence"] >= 8
        constructions.clear()
        warm = run_campaign(small_grid(), SerialExecutor(), store=store)
        assert (warm.executed, warm.cache_hits) == (0, 8)
        assert warm.fingerprint() == cold.fingerprint()
        assert constructions == {}

    def test_only_the_missing_trials_are_built(self, tmp_path,
                                               constructions):
        store = CampaignStore(tmp_path / "store")
        spec = small_grid()
        gone = [key for _, key in spec.trial_keys()[::3]]
        run_campaign(spec, SerialExecutor(), store=store)
        for key in gone:
            (store.root / "trials" / key[:2] / f"{key}.json").unlink()
        constructions.clear()
        run = CampaignRun(small_grid(), CampaignCache(store))
        assert sorted(t.store_key() for t in run.pending) == sorted(gone)
        assert constructions == {"SeedSequence": len(gone),
                                 "TrialSpec": len(gone)}


class TestSealedTrialDecoding:
    """A sealed entry whose ``trial`` object is not a ``TrialResult`` is
    a miss and is discarded; one lacking only a defaulted field is a
    hit.  (What the read path did before the decoder skipped
    ``__init__``.)"""

    def stored(self, tmp_path, edit):
        store = CampaignStore(tmp_path / "store")
        trial = TrialResult(index=0, matrix="m", method="FEIR", rate=1.0,
                            repetition=0, converged=True, iterations=12,
                            solve_time=2.5, ideal_time=2.0,
                            final_residual=1e-9, wall_time=0.25)
        payload = asdict(trial)
        edit(payload)
        key = "ab" + "0" * 62
        store._put_json("trials", key, {"trial": payload})
        path = store.root / "trials" / key[:2] / f"{key}.json"
        return store, key, path, trial

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(extra=1),
        lambda p: p.pop("iterations"),
        lambda p: p.pop("index"),
    ], ids=["extra-field", "no-iterations", "no-index"])
    def test_a_trial_that_is_not_a_result_is_a_discarded_miss(
            self, tmp_path, edit):
        store, key, path, _ = self.stored(tmp_path, edit)
        assert store.get_trial(key) is None
        assert (store.hits, store.misses) == (0, 1)
        assert not path.exists()

    def test_a_trial_without_wall_time_is_a_hit(self, tmp_path):
        store, key, path, trial = self.stored(
            tmp_path, lambda p: p.pop("wall_time"))
        loaded = store.get_trial(key)
        assert loaded == replace(trial, wall_time=0.0)
        assert loaded.wall_time == 0.0
        assert (store.hits, store.misses) == (1, 0)
        assert path.exists()

    def test_a_complete_trial_is_the_stored_result(self, tmp_path):
        store, key, _, trial = self.stored(tmp_path, lambda p: None)
        loaded = store.get_trial(key)
        assert loaded == trial
        assert type(loaded) is TrialResult
        assert asdict(loaded) == asdict(trial)
        with pytest.raises(AttributeError):
            loaded.iterations = 0  # still frozen


def test_the_seed_is_still_a_seed_sequence():
    trial = small_grid().expand()[5]
    assert isinstance(trial.seed, np.random.SeedSequence)
    assert isinstance(trial.make_scenario(), ErrorScenario)
