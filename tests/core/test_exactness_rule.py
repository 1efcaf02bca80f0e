"""The exactness rule of exact forward recovery, on a campaign grid.

FEIR and AFEIR rebuild a lost page from Table 1's relations "up to
rounding errors", so a lost page may cost time but never convergence.
On a campaign that reads: a FEIR/AFEIR trial in which no page was
unrecoverable (``pages_unrecoverable == 0``) and no page was dropped
from a reduction (``contributions_skipped == 0``) takes exactly the
fault-free iteration count.  The only two excuses are the related-data
conflicts of Section 2.4 (case 2) and AFEIR's late DUEs (Section 5.4).

The grid is the benchmark's campaign grid (a 20 x 20 Laplacian with
50-double pages, tolerance 1e-8), rebuilt here with its own seed
derivation, at two seeds, three repetitions and the rates 1, 5 and 20,
through one cache in expansion order, and again in reversed order.  A
recovery formula perturbed by a relative 1e-3 breaks the rule on
several of its trials.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.campaign import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.engine import solve_trial
from repro.campaign.store import CampaignCache

SEEDS = (1, 2)
RATES = (1.0, 5.0, 20.0)
REPETITIONS = 3


def derive(seed: int, *parts: object) -> int:
    """A 32-bit seed derived from ``seed`` and a purpose."""
    token = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big")


def grid_spec(seed: int) -> CampaignSpec:
    matrix = MatrixSpec.parametric("laplacian2d", nx=20, ny=20,
                                   rhs_seed=derive(seed, "rhs", 0))
    return CampaignSpec(
        matrices=[matrix], methods=("FEIR", "AFEIR"), rates=RATES,
        repetitions=REPETITIONS, seed=derive(seed, "campaign", 0),
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=50),
        name="exactness")


def solve_grid(reverse: bool = False) -> list:
    """``(label, iterations, fault-free iterations, unrecoverable,
    skipped)`` of every trial of the grid, through one cache, each seed's
    trials in expansion order or (``reverse``) the other way round."""
    cache = CampaignCache()
    rows = []
    for seed in SEEDS:
        specs = grid_spec(seed).expand()
        ideal = solve_trial(dataclasses.replace(specs[0], method=None,
                                                rate=0.0), cache)
        for spec in reversed(specs) if reverse else specs:
            result = solve_trial(spec, cache)
            rows.append((f"seed {seed} {spec.method} rate {spec.rate:g} "
                         f"rep {spec.repetition}",
                         result.record.iterations, ideal.record.iterations,
                         result.stats.pages_unrecoverable,
                         result.stats.contributions_skipped))
    return rows


@pytest.fixture(scope="module")
def trials():
    return solve_grid()


def test_a_trial_that_loses_nothing_takes_the_fault_free_iteration_count(
        trials):
    assert len(trials) == len(SEEDS) * 2 * len(RATES) * REPETITIONS
    violations = [f"{label}: {iterations} iterations, fault-free {ideal}"
                  for label, iterations, ideal, unrecoverable, skipped
                  in trials
                  if unrecoverable == 0 and skipped == 0
                  and iterations != ideal]
    assert violations == []


def test_the_grid_in_reversed_order_reads_the_same(trials):
    """Other trials record the prefix tapes the others resume from, and
    every row, the rule's verdict with it, stays as it was."""
    assert sorted(solve_grid(reverse=True)) == sorted(trials)


def test_both_excuses_occur_on_the_grid(trials):
    """The rule is not vacuous: the grid has trials the rule exempts for
    each cause, a skip without any conflict among them."""
    assert any(unrecoverable > 0 for *_, unrecoverable, _ in trials)
    assert any(skipped > 0 and unrecoverable == 0
               for *_, unrecoverable, skipped in trials)
    exempt = sum(1 for *_, unrecoverable, skipped in trials
                 if unrecoverable or skipped)
    assert exempt < len(trials) // 2
