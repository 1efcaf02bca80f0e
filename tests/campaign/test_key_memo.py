"""Content tokens and trial keys are computed once per spec object.

The specs are frozen, so a memo cannot go stale: ``dataclasses.replace``
builds a new object (with no memo) and a pickle carries the memo along.
The counting tests pin what the memo buys: a warm re-run builds the
knob token once, and every trial key, warm or cold, is derived once.
"""

import collections
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import spec as spec_module
from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import (CampaignSpec, MatrixSpec, SolverKnobs,
                                 TrialSpec)
from repro.campaign.store import CampaignStore


def grid():
    """8 trials: 2 methods x 2 rates x 2 repetitions."""
    return CampaignSpec(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="memo")


@pytest.fixture
def derivations(monkeypatch):
    """Count knob-token builds (one runtime-spec resolution each) and
    trial-key hashes (one ``content_hash`` of a ``trial/`` token each)."""
    counts = {"knob_tokens": 0, "trial_keys": collections.Counter()}
    resolve = SolverKnobs.runtime_spec
    content_hash = spec_module.content_hash

    def counted_resolve(knobs):
        counts["knob_tokens"] += 1
        return resolve(knobs)

    def counted_hash(token):
        if token.startswith("trial/"):
            counts["trial_keys"][token] += 1
        return content_hash(token)

    monkeypatch.setattr(SolverKnobs, "runtime_spec", counted_resolve)
    monkeypatch.setattr(spec_module, "content_hash", counted_hash)
    return counts


class TestNoStaleMemo:
    @pytest.mark.parametrize("tolerance, moves", [(1e-8, False),
                                                  (1e-9, True)])
    def test_replaced_knobs_get_their_own_token(self, tolerance, moves):
        knobs = SolverKnobs(tolerance=1e-8)
        token = knobs.content_token()
        other = replace(knobs, tolerance=tolerance)
        assert (other.content_token() != token) is moves
        assert other.content_token() == \
            SolverKnobs(tolerance=tolerance).content_token()

    @pytest.mark.parametrize("rhs_seed, moves", [(5, False), (6, True),
                                                 (None, True)])
    def test_replaced_matrix_gets_its_own_token(self, rhs_seed, moves):
        matrix = MatrixSpec.parametric("laplacian2d", nx=8, rhs_seed=5)
        token = matrix.content_token()
        other = replace(matrix, rhs_seed=rhs_seed)
        assert (other.content_token() != token) is moves

    @pytest.mark.parametrize("derived_first", [True, False])
    def test_a_pickled_trial_keeps_its_key(self, derived_first):
        trial = grid().expand()[3]
        if derived_first:
            trial.store_key()
        clone = pickle.loads(pickle.dumps(trial))
        assert clone.store_key() == trial.store_key()
        assert clone.store_key() == grid().expand()[3].store_key()

    def test_a_trial_built_by_hand_has_the_expanded_key(self):
        spec = grid()
        for trial in spec.expand():
            by_hand = TrialSpec(
                index=trial.index, matrix=MatrixSpec.parse("laplacian2d:10"),
                method=trial.method, rate=trial.rate,
                repetition=trial.repetition,
                seed=np.random.SeedSequence(list(trial.seed.entropy)),
                knobs=replace(spec.knobs))
            assert by_hand.cell_token() == trial.cell_token()
            assert by_hand.store_key() == trial.store_key()


class TestDerivedOnce:
    def test_a_warm_run_builds_the_knob_token_once(self, tmp_path,
                                                   derivations):
        store = CampaignStore(tmp_path / "store")
        cold = run_campaign(grid(), executor=SerialExecutor(), store=store)
        spec = grid()  # a fresh spec object: no memo from the cold run
        derivations["knob_tokens"] = 0
        derivations["trial_keys"].clear()
        warm = run_campaign(spec, executor=SerialExecutor(), store=store)
        assert warm.executed == 0
        assert warm.fingerprint() == cold.fingerprint()
        assert derivations["knob_tokens"] == 1
        assert len(derivations["trial_keys"]) == 8
        assert set(derivations["trial_keys"].values()) == {1}

    def test_an_executed_trial_derives_its_key_once(self, tmp_path,
                                                    derivations):
        run_campaign(grid(), executor=SerialExecutor(),
                     store=CampaignStore(tmp_path / "store"))
        assert len(derivations["trial_keys"]) == 8
        assert set(derivations["trial_keys"].values()) == {1}
