"""The cell statistics are bit-identical to numpy's own spellings.

``mean_and_std`` and ``harmonic_mean_overhead`` reduce one float64 array
with the ufuncs ``ndarray.mean``, ``ndarray.std`` and ``np.sum`` use, in
their order; ``CampaignResult.cells()`` builds each cell's slowdown
array once.  The references below are the spellings they replaced: any
bit that moves moves a campaign fingerprint.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import harmonic_mean_overhead, mean_and_std
from repro.campaign.results import (DIVERGED_SLOWDOWN, CampaignResult,
                                    TrialResult)

#: What a cell's slowdowns are made of: zeros, the diverged cap, values
#: over seven decades, and the negatives of a run faster than its ideal.
slowdown = st.one_of(
    st.sampled_from([0.0, DIVERGED_SLOWDOWN]),
    st.floats(1e-3, 1e4),
    st.floats(-99.9, -1e-3),
)
slowdowns = st.lists(slowdown, min_size=1, max_size=64)


def reference_mean_and_std(values):
    arr = np.asarray(list(values))
    return float(arr.mean()), float(arr.std())


def reference_harmonic_overhead(values):
    arr = 1.0 + np.asarray(list(values), dtype=np.float64) / 100.0
    return 100.0 * (float(arr.size / np.sum(1.0 / arr)) - 1.0)


def bits(value):
    return value.hex() if isinstance(value, float) else value


class TestStatistics:
    @given(values=slowdowns)
    @settings(max_examples=400, deadline=None)
    def test_mean_and_std(self, values):
        arr = np.array(values, dtype=np.float64)
        assert [bits(v) for v in mean_and_std(arr)] == \
            [bits(v) for v in reference_mean_and_std(values)]
        # any sequence is still taken, and the input is left as it was
        assert mean_and_std(values) == mean_and_std(arr)
        assert arr.tolist() == values

    @given(values=slowdowns)
    @settings(max_examples=400, deadline=None)
    def test_harmonic_mean_overhead(self, values):
        clamped = np.maximum(values, 0.0)
        assert bits(harmonic_mean_overhead(clamped)) == \
            bits(reference_harmonic_overhead(clamped))


CELLS = [("m1", "FEIR", 1.0), ("m1", "AFEIR", 1.0), ("m2", "FEIR", 10.0)]

trial_draws = st.lists(
    st.tuples(st.sampled_from(range(len(CELLS))), st.booleans(),
              st.integers(0, 10**6), st.floats(1e-4, 10.0),
              st.floats(1e-4, 10.0), st.integers(0, 50)),
    min_size=1, max_size=64)


def reference_cells(trials):
    """``CampaignResult.cells()`` as it was spelled before."""
    grouped = {}
    for trial in sorted(trials, key=lambda t: t.index):
        grouped.setdefault((trial.matrix, trial.method, trial.rate),
                           []).append(trial)
    cells = {}
    for key, members in grouped.items():
        values = [t.scored_slowdown for t in members]
        mean, std = reference_mean_and_std(values)
        cells[key] = dict(
            matrix=key[0], method=key[1], rate=key[2], trials=len(members),
            diverged=sum(1 for t in members if not t.converged),
            mean_slowdown=mean, std_slowdown=std,
            harmonic_slowdown=reference_harmonic_overhead(
                np.maximum(values, 0.0)),
            mean_iterations=float(np.mean([t.iterations for t in members])),
            faults_injected=sum(t.faults_injected for t in members),
            faults_detected=sum(t.faults_detected for t in members))
    return cells


class TestCells:
    @given(draws=trial_draws, order=st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_cells_equal_the_reference_field_for_field(self, draws, order):
        trials = []
        for index, (cell, converged, iterations, solve, ideal,
                    faults) in enumerate(draws):
            matrix, method, rate = CELLS[cell]
            trials.append(TrialResult(
                index=index, matrix=matrix, method=method, rate=rate,
                repetition=index, converged=converged,
                iterations=iterations, solve_time=solve, ideal_time=ideal,
                final_residual=1e-9, faults_injected=faults,
                faults_detected=faults // 2))
        order.shuffle(trials)  # any arrival order aggregates the same
        result = CampaignResult(trials=trials)
        expected = reference_cells(trials)
        cells = result.cells()
        assert sorted(cells) == sorted(expected)
        for key, cell in cells.items():
            ours = {name: bits(value) for name, value in vars(cell).items()}
            theirs = {name: bits(value)
                      for name, value in expected[key].items()}
            assert ours == theirs
            assert isinstance(cell.mean_iterations, float)
            assert all(math.isfinite(getattr(cell, name)) for name in
                       ("mean_slowdown", "std_slowdown", "harmonic_slowdown"))
