"""Sharded campaigns and the merge protocol.

The contract under test: N shard runs partition the campaign exactly,
and merging their partial results — in any order — reproduces the
fingerprint of a single unsharded run byte-for-byte.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.results import CampaignResult
from repro.campaign.spec import (CampaignSpec, SolverKnobs, parse_shard,
                                 shard_trials)


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

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 11])
    def test_shards_partition_disjoint_and_complete(self, count):
        trials = tiny_spec().expand()
        shards = [shard_trials(trials, i, count) for i in range(count)]
        indices = [t.index for shard in shards for t in shard]
        assert sorted(indices) == [t.index for t in trials]

    def test_round_robin_balances_shards(self):
        trials = tiny_spec().expand()  # 8 trials
        a, b = (shard_trials(trials, i, 2) for i in range(2))
        assert abs(len(a) - len(b)) <= 1
        # Round-robin: consecutive indices alternate shards, so each
        # shard samples every region of the grid.
        assert [t.index for t in a] == [0, 2, 4, 6]
        assert [t.index for t in b] == [1, 3, 5, 7]

    def test_shard_rejects_bad_indices(self):
        trials = tiny_spec().expand()
        with pytest.raises(ValueError):
            shard_trials(trials, 2, 2)
        with pytest.raises(ValueError):
            shard_trials(trials, 0, 0)


def run_shards(spec, count):
    """One partial CampaignResult per shard, fresh caches in between."""
    parts = []
    for i in range(count):
        parts.append(run_campaign(spec, executor=SerialExecutor(),
                                  shard=(i, count)))
    return parts


class TestShardedRuns:
    def test_partial_result_records_shard_and_total(self):
        part = run_campaign(tiny_spec(), executor=SerialExecutor(),
                            shard=(0, 2))
        assert part.shard == (0, 2)
        assert part.total_trials == tiny_spec().num_trials
        assert len(part) == tiny_spec().num_trials // 2
        assert part.spec_key == tiny_spec().store_key()

    def test_merge_matches_unsharded_fingerprint(self):
        unsharded = run_campaign(tiny_spec(), executor=SerialExecutor())
        merged = CampaignResult.merge(run_shards(tiny_spec(), 3))
        assert merged.fingerprint() == unsharded.fingerprint()
        assert len(merged) == len(unsharded)

    def test_merge_survives_save_load_roundtrip(self, tmp_path):
        unsharded = run_campaign(tiny_spec(), executor=SerialExecutor())
        paths = []
        for i, part in enumerate(run_shards(tiny_spec(), 2)):
            path = tmp_path / f"part{i}.json"
            part.save(path)
            paths.append(path)
        merged = CampaignResult.merge([CampaignResult.load(p)
                                       for p in paths])
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_merge_is_order_independent_explicit(self):
        parts = run_shards(tiny_spec(), 3)
        forward = CampaignResult.merge(parts)
        backward = CampaignResult.merge(parts[::-1])
        assert forward.fingerprint() == backward.fingerprint()


class TestMergeOrderIndependenceProperty:
    """Hypothesis: *any* permutation of *any* shard split merges to the
    same fingerprint.  Trials run once per split (cached per class) so
    the property test permutes cheap in-memory partials."""

    _cache = {}

    @classmethod
    def parts_for(cls, count):
        if count not in cls._cache:
            cls._cache[count] = (
                run_campaign(tiny_spec(), executor=SerialExecutor())
                .fingerprint(),
                run_shards(tiny_spec(), count))
        return cls._cache[count]

    @given(count=st.integers(min_value=1, max_value=5),
           order_seed=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_permutation_merges_identically(self, count, order_seed):
        reference, parts = self.parts_for(count)
        shuffled = list(parts)
        order_seed.shuffle(shuffled)
        merged = CampaignResult.merge(shuffled)
        assert merged.fingerprint() == reference
        assert merged.total_trials == tiny_spec().num_trials


class TestMergeValidation:
    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="nothing to merge"):
            CampaignResult.merge([])

    def test_merge_rejects_duplicate_shards(self):
        parts = run_shards(tiny_spec(), 2)
        with pytest.raises(ValueError, match="more than one partial"):
            CampaignResult.merge([parts[0], parts[0]])

    def test_merge_rejects_mixed_campaigns(self):
        a = run_campaign(tiny_spec(), executor=SerialExecutor(),
                         shard=(0, 2))
        b = run_campaign(tiny_spec(seed=100), executor=SerialExecutor(),
                         shard=(1, 2))
        with pytest.raises(ValueError, match="different campaigns"):
            CampaignResult.merge([a, b])

    def test_merge_rejects_incomplete_by_default(self):
        parts = run_shards(tiny_spec(), 3)
        with pytest.raises(ValueError, match="incomplete"):
            CampaignResult.merge(parts[:2])

    def test_merge_allows_incomplete_when_asked(self):
        parts = run_shards(tiny_spec(), 3)
        partial = CampaignResult.merge(parts[:2], require_complete=False)
        assert len(partial) == len(parts[0]) + len(parts[1])
