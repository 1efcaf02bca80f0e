"""Tests for the recovery strategies through the solver-state interface."""

import numpy as np
import pytest

from repro.core.afeir import AFEIRStrategy
from repro.core.checkpoint import CheckpointStrategy, optimal_checkpoint_interval
from repro.core.feir import FEIRStrategy
from repro.core.lossy import LossyRestartStrategy
from repro.core.manager import STRATEGY_NAMES, make_strategy
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.core.trivial import TrivialStrategy
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.solvers.resilient_cg import CGState, SolverConfig


def make_state(page_size=32, seed=0):
    """A consistent CG state: g = b - Ax and q = A d hold exactly."""
    A = laplacian_2d(12)                         # n = 144
    blocked = PageBlockedMatrix(A, page_size=page_size)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(144)
    d = rng.standard_normal(144)
    b = A @ rng.standard_normal(144)
    memory = MemoryManager()
    vectors = {
        "x": memory.register(PagedVector(x, name="x", page_size=page_size)),
        "g": memory.register(PagedVector(b - A @ x, name="g", page_size=page_size)),
        "d0": memory.register(PagedVector(d, name="d0", page_size=page_size)),
        "d1": memory.register(PagedVector(rng.standard_normal(144), name="d1",
                                          page_size=page_size)),
        "q": memory.register(PagedVector(A @ d, name="q", page_size=page_size)),
    }
    state = CGState(blocked=blocked, b=b, vectors=vectors, memory=memory,
                    residual_relation=ResidualRelation(blocked, b),
                    matvec_relation=MatVecRelation(blocked),
                    config=SolverConfig(page_size=page_size),
                    current_d_name="d0", previous_d_name="d1")
    return state, A


def lose(state, vector, page):
    """Simulate a detected DUE: the page is re-mapped blank."""
    state.memory.poison(vector, page, time=0.0)
    state.memory.touch(vector, page, time=0.0)
    return (vector, page)


class TestStrategyFactory:
    def test_all_names(self):
        assert set(STRATEGY_NAMES) == {"AFEIR", "FEIR", "Lossy", "ckpt", "Trivial"}
        assert {make_strategy(name).name for name in STRATEGY_NAMES} \
            == set(STRATEGY_NAMES)

    @pytest.mark.parametrize("name,cls", [
        ("FEIR", FEIRStrategy), ("afeir", AFEIRStrategy),
        ("lossy", LossyRestartStrategy), ("checkpoint", CheckpointStrategy),
        ("Trivial", TrivialStrategy)])
    def test_factory_dispatch(self, name, cls):
        assert isinstance(make_strategy(name), cls)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_strategy("magic")

    def test_scheduling_flags(self):
        assert FEIRStrategy().recovery_in_critical_path
        assert not AFEIRStrategy().recovery_in_critical_path
        assert AFEIRStrategy().uses_recovery_tasks
        assert not LossyRestartStrategy().uses_recovery_tasks


class TestFEIRExactRecovery:
    @pytest.mark.parametrize("vector", ["x", "g", "d0", "q"])
    def test_single_page_recovered_exactly(self, vector):
        state, A = make_state()
        original = state.vectors[vector].array.copy()
        lost = [lose(state, vector, 2)]
        outcome = FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        assert outcome.recovered == [(vector, 2)]
        assert not outcome.restart_required
        np.testing.assert_allclose(state.vectors[vector].array, original,
                                   rtol=1e-7, atol=1e-9)
        assert not state.memory.lost_pages()

    def test_multiple_pages_same_vector(self):
        state, A = make_state()
        original = state.vectors["x"].array.copy()
        lost = [lose(state, "x", 0), lose(state, "x", 3)]
        FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        np.testing.assert_allclose(state.vectors["x"].array, original,
                                   rtol=1e-7, atol=1e-9)

    def test_losses_in_different_vectors(self):
        state, A = make_state()
        originals = {v: state.vectors[v].array.copy() for v in ("x", "g", "q")}
        lost = [lose(state, "x", 1), lose(state, "g", 2), lose(state, "q", 0)]
        FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        for vector, original in originals.items():
            np.testing.assert_allclose(state.vectors[vector].array, original,
                                       rtol=1e-7, atol=1e-9)

    def test_xg_conflict_preserves_residual_invariant(self):
        state, A = make_state()
        lost = [lose(state, "x", 1), lose(state, "g", 1)]
        outcome = FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        assert ("x", 1) in outcome.unrecoverable
        x = state.vectors["x"].array
        g = state.vectors["g"].array
        np.testing.assert_allclose(g, state.b - A @ x, atol=1e-9)

    def test_dq_conflict_preserves_matvec_invariant(self):
        state, A = make_state()
        lost = [lose(state, "d0", 2), lose(state, "q", 2)]
        outcome = FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        assert ("d0", 2) in outcome.unrecoverable
        d = state.vectors["d0"].array
        q = state.vectors["q"].array
        np.testing.assert_allclose(q, A @ d, atol=1e-9)

    def test_stale_buffer_is_blanked(self):
        state, A = make_state()
        lost = [lose(state, "d1", 0)]
        outcome = FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        assert ("d1", 0) in outcome.recovered
        assert np.all(state.vectors["d1"].page(0) == 0.0)

    def test_recovery_reports_work_time(self):
        state, A = make_state()
        lost = [lose(state, "x", 1)]
        outcome = FEIRStrategy().handle_lost_pages(state, lost, iteration=1)
        assert outcome.work_time > 0

    def test_empty_loss_list_is_noop(self):
        state, A = make_state()
        outcome = AFEIRStrategy().handle_lost_pages(state, [], iteration=1)
        assert outcome.recovered == [] and outcome.work_time == 0.0


class TestLossyStrategy:
    def test_x_loss_interpolates_and_requests_restart(self):
        state, A = make_state()
        lost = [lose(state, "x", 2)]
        outcome = LossyRestartStrategy().handle_lost_pages(state, lost, 1)
        assert outcome.restart_required
        assert ("x", 2) in outcome.recovered
        # The interpolated block zeroes the block residual (Theorem 3 proof).
        residual = state.b - A @ state.vectors["x"].array
        sl = state.blocked.block_slice(2)
        np.testing.assert_allclose(residual[sl], 0.0, atol=1e-9)

    def test_non_x_loss_blanks_and_restarts(self):
        state, A = make_state()
        lost = [lose(state, "q", 1)]
        outcome = LossyRestartStrategy().handle_lost_pages(state, lost, 1)
        assert outcome.restart_required
        assert np.all(state.vectors["q"].page(1) == 0.0)


class TestTrivialStrategy:
    def test_pages_blanked_and_marked(self):
        state, A = make_state()
        lost = [lose(state, "g", 0), lose(state, "x", 3)]
        outcome = TrivialStrategy().handle_lost_pages(state, lost, 1)
        assert set(outcome.unrecoverable) == {("g", 0), ("x", 3)}
        assert np.all(state.vectors["g"].page(0) == 0.0)
        assert not state.memory.lost_pages()


class TestCheckpointStrategy:
    def test_optimal_interval_formula(self):
        # sqrt(2 * C * MTBE) / t_iter
        assert optimal_checkpoint_interval(mtbe=50.0, checkpoint_cost=1.0,
                                           iteration_time=0.1) == 100
        assert optimal_checkpoint_interval(float("inf"), 1.0, 0.1) == 10 ** 9

    def test_optimal_interval_validation(self):
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(10.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(-1.0, 1.0, 0.1)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointStrategy(interval=0)

    def test_should_checkpoint_requires_interval(self):
        with pytest.raises(RuntimeError):
            CheckpointStrategy().should_checkpoint(5)

    def test_should_checkpoint_period(self):
        strat = CheckpointStrategy(interval=10)
        assert not strat.should_checkpoint(0)
        assert not strat.should_checkpoint(9)
        assert strat.should_checkpoint(10)
        assert strat.should_checkpoint(20)

    def test_rollback_restores_checkpointed_state(self):
        state, A = make_state()
        strat = CheckpointStrategy(interval=5)
        strat.on_solve_start(state)
        saved_x = state.vectors["x"].array.copy()
        saved_d = state.vectors["d0"].array.copy()
        # The solver keeps iterating and the iterate drifts...
        state.vectors["x"].array[:] += 1.0
        state.vectors["d0"].array[:] -= 2.0
        lost = [lose(state, "x", 1)]
        outcome = strat.handle_lost_pages(state, lost, iteration=3)
        assert outcome.rolled_back and outcome.restart_required
        np.testing.assert_allclose(state.vectors["x"].array, saved_x)
        np.testing.assert_allclose(state.vectors["d0"].array, saved_d)
        assert outcome.work_time > 0

    def test_rollback_without_checkpoint_raises(self):
        state, A = make_state()
        strat = CheckpointStrategy(interval=5)
        with pytest.raises(RuntimeError):
            strat.handle_lost_pages(state, [lose(state, "x", 0)], 1)

    def test_configure_interval_from_error_rate(self):
        strat = CheckpointStrategy()
        interval = strat.configure_interval(mtbe=10.0, iteration_time=1e-3,
                                            write_time=0.01)
        assert interval >= 1
        assert strat.interval == interval
