"""Tests for the resilient CG under fault injection (the paper's claims)."""

import numpy as np
import pytest

from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import (ErrorScenario, multi_error_scenario,
                                    single_error_scenario)
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.memory.manager import MemoryManager
from repro.runtime.cost_model import FAULT_SERVICE_TIME
from repro.solvers.resilient_cg import ResilientCG, SolverConfig


@pytest.fixture(scope="module")
def problem():
    A = laplacian_2d(32)                 # n = 1024, 8 pages of 128
    b = stencil_rhs(A, kind="random", seed=1)
    return A, b


@pytest.fixture(scope="module")
def ideal(problem):
    A, b = problem
    return ResilientCG(A, b, config=config()).solve()


def config(**overrides):
    defaults = dict(num_workers=8, page_size=128, tolerance=1e-10)
    defaults.update(overrides)
    return SolverConfig(**defaults)


def run(problem, method, scenario, ideal, **cfg):
    A, b = problem
    solver = ResilientCG(A, b, strategy=make_strategy(method),
                         scenario=scenario, config=config(**cfg))
    return solver.solve(ideal_time=ideal.solve_time)


class TestSingleError:
    """Figure 3 behaviour: one error in a page of the iterate."""

    @pytest.fixture(scope="class")
    def results(self, problem, ideal):
        scenario = single_error_scenario("x", 3, 0.4 * ideal.solve_time)
        return {name: run(problem, name, scenario, ideal)
                for name in ("FEIR", "AFEIR", "Lossy", "Trivial", "ckpt")}

    def test_all_methods_eventually_converge(self, results):
        for name, res in results.items():
            assert res.converged, f"{name} did not converge"
            assert res.record.final_residual <= 1e-9

    def test_exact_recovery_preserves_iteration_count(self, results, ideal):
        for name in ("FEIR", "AFEIR"):
            assert results[name].record.iterations == ideal.record.iterations

    def test_exact_recovery_detects_the_fault(self, results):
        assert results["FEIR"].record.faults_detected == 1
        assert results["FEIR"].stats.pages_recovered >= 1

    def test_lossy_restart_needs_more_iterations(self, results, ideal):
        assert results["Lossy"].record.iterations > ideal.record.iterations
        assert results["Lossy"].stats.restarts >= 1

    def test_trivial_is_worst_in_iterations(self, results):
        assert results["Trivial"].record.iterations >= \
            results["Lossy"].record.iterations

    def test_checkpoint_rolls_back(self, results, ideal):
        assert results["ckpt"].stats.rollbacks >= 1
        assert results["ckpt"].record.iterations >= ideal.record.iterations

    def test_exact_methods_are_fastest(self, results):
        for name in ("Lossy", "Trivial", "ckpt"):
            assert results["FEIR"].solve_time < results[name].solve_time
            assert results["AFEIR"].solve_time < results[name].solve_time

    def test_solution_still_accurate(self, results, problem):
        A, b = problem
        for name, res in results.items():
            rel = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
            assert rel <= 1e-9, f"{name} final solution inaccurate"


class TestErrorsInEveryVector:
    @pytest.mark.parametrize("vector", ["x", "g", "d0", "d1", "q"])
    def test_feir_exact_recovery_any_vector(self, problem, ideal, vector):
        scenario = single_error_scenario(vector, 2, 0.5 * ideal.solve_time)
        res = run(problem, "FEIR", scenario, ideal)
        assert res.converged
        # Exact recovery: no extra iterations beyond the ideal run.
        assert res.record.iterations <= ideal.record.iterations + 1

    @pytest.mark.parametrize("vector", ["x", "g", "q"])
    def test_afeir_exact_recovery_any_vector(self, problem, ideal, vector):
        scenario = single_error_scenario(vector, 1, 0.6 * ideal.solve_time)
        res = run(problem, "AFEIR", scenario, ideal)
        assert res.converged
        assert res.record.iterations <= ideal.record.iterations + 1


class TestMultipleErrors:
    def test_two_errors_same_vector_same_time(self, problem, ideal):
        t = 0.3 * ideal.solve_time
        scenario = multi_error_scenario([Injection(t, "x", 1),
                                         Injection(t, "x", 4)])
        res = run(problem, "FEIR", scenario, ideal)
        assert res.converged
        assert res.record.iterations <= ideal.record.iterations + 1
        assert res.stats.pages_recovered >= 2

    def test_related_data_conflict_degrades_but_converges(self, problem, ideal):
        t = 0.3 * ideal.solve_time
        scenario = multi_error_scenario([Injection(t, "x", 2),
                                         Injection(t, "g", 2)])
        res = run(problem, "FEIR", scenario, ideal)
        assert res.converged
        assert res.stats.pages_unrecoverable >= 1

    def test_several_errors_spread_over_time(self, problem, ideal):
        tau = ideal.solve_time
        scenario = multi_error_scenario(
            [Injection(tau * f, "g", p) for f, p in
             ((0.2, 0), (0.4, 3), (0.6, 5), (0.8, 7))])
        res = run(problem, "FEIR", scenario, ideal)
        assert res.converged
        assert res.record.faults_detected == 4
        assert res.record.iterations <= ideal.record.iterations + 1


class TestRateBasedInjection:
    def test_rate_sweep_ordering(self, problem, ideal):
        """At a moderate rate the paper's method ordering must hold."""
        scenario = ErrorScenario(name="r10", normalized_rate=10.0, seed=11)
        times = {}
        for name in ("FEIR", "AFEIR", "Lossy", "ckpt"):
            res = run(problem, name, scenario, ideal)
            assert res.converged, f"{name} did not converge"
            times[name] = res.solve_time
        assert times["FEIR"] < times["Lossy"] < times["ckpt"]
        assert times["AFEIR"] < times["Lossy"]

    def test_higher_rate_is_not_cheaper(self, problem, ideal):
        low = run(problem, "FEIR",
                  ErrorScenario(normalized_rate=2.0, seed=3), ideal)
        high = run(problem, "FEIR",
                   ErrorScenario(normalized_rate=20.0, seed=3), ideal)
        assert high.record.faults_detected >= low.record.faults_detected
        assert high.solve_time >= low.solve_time

    def test_rate_scenario_requires_ideal_time(self, problem):
        A, b = problem
        solver = ResilientCG(A, b, strategy=make_strategy("FEIR"),
                             scenario=ErrorScenario(normalized_rate=5.0),
                             config=config())
        with pytest.raises(ValueError):
            solver.solve()

    def test_fault_counts_scale_with_rate(self, problem, ideal):
        counts = []
        for rate in (5.0, 50.0):
            res = run(problem, "Trivial",
                      ErrorScenario(normalized_rate=rate, seed=9), ideal,
                      max_iterations=3000)
            counts.append(res.record.faults_detected)
        assert counts[1] > counts[0]

    @pytest.mark.parametrize("method", ["FEIR", "AFEIR", "Lossy", "Trivial",
                                        "ckpt"])
    def test_every_detected_due_is_counted_once(self, problem, ideal, method,
                                                monkeypatch):
        """The memory manager counts each DUE its check points hand it,
        never more than were injected, and the ledger charges each one
        page-fault service time once (AFEIR's late ones among them)."""
        handed = []
        detect = MemoryManager.detect_batch
        monkeypatch.setattr(MemoryManager, "detect_batch", lambda self, batch: (
            handed.append(len(batch)), detect(self, batch)))
        res = run(problem, method, ErrorScenario(normalized_rate=10.0, seed=5),
                  ideal, max_iterations=3000)
        detected = res.record.faults_detected
        assert 0 < detected <= res.record.faults_injected
        assert detected == sum(handed)
        assert sum(entry.service for entry in res.ledger) == \
            pytest.approx(detected * FAULT_SERVICE_TIME, rel=1e-12)
        late = sum(entry.late for entry in res.ledger)
        assert (late > 0) if method == "AFEIR" else (late == 0)
