"""Backend equivalence: the threaded runtime must change *nothing* but
the measurements.

With zero injected faults the ``threaded`` (threaded scheduler, wall
clock) and ``simulated`` (list scheduler, simulated clock) runtime cells
must produce bitwise-identical solver iterates, identical simulated
timelines and identical campaign fingerprints; with faults they must
take identical recovery decisions for the same injection schedule.  The
``stress``-marked repetitions hammer the thread pool to surface races
and run in the quarantined ``threaded-backend`` CI job.
"""

import numpy as np
import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.laplacian import laplacian_2d, laplacian_3d
from repro.matrices.stencil import stencil_rhs
from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.backend import SimulatedBackend
from repro.runtime.trace import ExecutionTrace
from repro.solvers.resilient_cg import ResilientCG, SolverConfig


@pytest.fixture(scope="module")
def problem():
    A = laplacian_2d(20)                 # n = 400, several pages of 64
    b = stencil_rhs(A, kind="random", seed=7)
    return A, b


#: The two runtime cells compared throughout, by the executor they run on.
CELLS = {"simulated": dict(scheduler="list", clock="simulated"),
         "threaded": dict(scheduler="threaded", clock="wall")}


def config(backend, **overrides):
    defaults = dict(num_workers=4, page_size=64, tolerance=1e-10,
                    **CELLS[backend])
    defaults.update(overrides)
    return SolverConfig(**defaults)


def solve(problem, method, backend, scenario=None, ideal_time=None, **cfg):
    A, b = problem
    strategy = make_strategy(method) if method else None
    with ResilientCG(A, b, strategy=strategy, scenario=scenario,
                     config=config(backend, **cfg)) as solver:
        return solver.solve(ideal_time=ideal_time)


def assert_bitwise_equal(sim, real):
    assert np.array_equal(sim.x, real.x), "iterates diverged across backends"
    assert sim.record.iterations == real.record.iterations
    assert sim.record.solve_time == real.record.solve_time
    assert sim.record.final_residual == real.record.final_residual
    assert sim.record.converged == real.record.converged


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("method", ["AFEIR", "FEIR", None])
    def test_bitwise_identical_iterates_and_timeline(self, problem, method):
        sim = solve(problem, method, "simulated")
        real = solve(problem, method, "threaded")
        assert sim.converged and real.converged
        assert_bitwise_equal(sim, real)

    def test_threaded_backend_measures_what_simulation_cannot(self, problem):
        real = solve(problem, "AFEIR", "threaded")
        summary = real.window_summary
        assert summary["recovery_scans"] > 0, "recovery tasks never executed"
        assert summary["runs"] == real.record.iterations
        assert real.wall_clock > 0.0
        assert real.wall_trace is not None
        assert real.wall_trace.breakdown.total > 0.0
        # Overlap/window *positivity* is asserted in the stress suite —
        # it depends on real thread timing, which a loaded CI runner can
        # starve; tier-1 keeps only the deterministic observations.

    def test_serial_wall_replay_is_measured_on_one_worker(self,
                                                          monkeypatch):
        """The list scheduler's wall clock replays each plan on the
        calling thread, so its measured trace spreads the wall time over
        one worker, not over the simulated eight."""
        runs = []
        execute = SimulatedBackend.execute

        def recording(backend, *args, **kwargs):
            runs.append(execute(backend, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(SimulatedBackend, "execute", recording)
        A = laplacian_3d(16)
        b = stencil_rhs(A, kind="random", seed=7)
        with ResilientCG(A, b, config=SolverConfig(
                num_workers=8, page_size=64, scheduler="list",
                clock="wall")) as solver:
            trace = solver.solve().wall_trace
        expected = ExecutionTrace(num_workers=1)
        for run in runs:
            expected.accumulate(ExecutionTrace(
                1, run.measured_breakdown(1), run.wall_time, len(run.plan)))
        assert trace.num_workers == 1
        assert trace == expected
        assert trace.breakdown.total == pytest.approx(trace.wall_time)

    def test_the_measured_side_is_the_fold_of_the_runs(self, problem,
                                                       monkeypatch):
        """A threaded/wall AFEIR solve's window summary and wall trace
        are what its runs' results give, recomputed in run order."""
        runs, lanes = [], set()
        execute = ThreadedBackend.execute

        def recording(backend, *args, **kwargs):
            lanes.add(backend.thread_count)
            runs.append(execute(backend, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ThreadedBackend, "execute", recording)
        real = solve(problem, "AFEIR", "threaded")
        (threads,) = lanes
        expected = ExecutionTrace(num_workers=threads)
        windows, total, overlaps, halo = 0, 0.0, 0, 0
        for run in runs:
            expected.accumulate(ExecutionTrace(
                threads, run.measured_breakdown(threads), run.wall_time,
                len(run.plan)))
            roles = run.plan.roles
            for recovery, scalar in (("r2", "beta"), ("r1", "alpha")):
                gap = run.starts[roles[scalar]] - run.ends[roles[recovery]]
                if gap > 0.0:
                    windows, total = windows + 1, total + gap
            overlaps += run.recovery_overlaps()
            halo += run.recovery_halo_overlaps()
        assert len(runs) == real.record.iterations
        assert real.wall_trace == expected
        assert real.wall_clock == expected.wall_time
        assert real.window_summary == {
            "runs": len(runs), "recovery_scans": 3 * len(runs),
            "overlapped_recoveries": overlaps,
            "halo_overlapped_recoveries": halo,
            "windows": windows, "total_window": total,
            "mean_window": total / windows if windows else 0.0,
            "concurrency_observed": overlaps > 0}

    def test_feir_barrier_never_records_windows(self, problem):
        feir = solve(problem, "FEIR", "threaded")
        # Structural, not timing: FEIR has no vulnerable pairs, so no
        # window can ever be recorded no matter how threads interleave.
        assert feir.window_summary["windows"] == 0

    def test_simulated_backend_reports_no_real_measurements(self, problem):
        sim = solve(problem, "AFEIR", "simulated")
        assert sim.wall_clock == 0.0
        assert sim.wall_trace is None
        assert sim.window_summary["overlapped_recoveries"] == 0


class TestFaultedEquivalence:
    """Same injection schedule => identical recovery decisions."""

    INJECTIONS = [
        Injection(time=0.002, vector="g", page=1),
        Injection(time=0.004, vector="x", page=3),
        Injection(time=0.006, vector="q", page=2),
        Injection(time=0.011, vector="d0", page=0),
    ]

    @pytest.mark.parametrize("method", ["AFEIR", "FEIR", "Lossy", "ckpt"])
    def test_identical_recovery_decisions(self, problem, method):
        ideal = solve(problem, None, "simulated")
        scenario = multi_error_scenario(self.INJECTIONS)
        sim = solve(problem, method, "simulated", scenario=scenario,
                    ideal_time=ideal.solve_time)
        real = solve(problem, method, "threaded", scenario=scenario,
                     ideal_time=ideal.solve_time)
        assert_bitwise_equal(sim, real)
        assert sim.record.faults_detected == real.record.faults_detected
        assert sim.stats.pages_recovered == real.stats.pages_recovered
        assert sim.stats.pages_unrecoverable == real.stats.pages_unrecoverable
        assert sim.stats.contributions_skipped == \
            real.stats.contributions_skipped
        assert sim.stats.restarts == real.stats.restarts
        assert sim.stats.rollbacks == real.stats.rollbacks

    def test_the_ledger_is_backend_independent(self, problem):
        """Every entry — its timeline, makespan, handler work, fault
        service and late DUEs — is a fact of the simulated clock, so the
        list/simulated, threaded/wall and threaded-ranks/wall cells hold
        the same ledger."""
        ideal = solve(problem, None, "simulated")
        # In iteration 3, after r1 started and before point C: too late
        # for the alpha reduction.
        late = Injection(time=0.0013885, vector="q", page=2)
        scenario = multi_error_scenario([late, *self.INJECTIONS])
        ledgers = [[(entry.timeline, entry.makespan.hex(),
                     entry.handler_work.hex(), entry.service.hex(),
                     entry.late) for entry in solve(
                         problem, "AFEIR", backend, scenario=scenario,
                         ideal_time=ideal.solve_time, **cell).ledger]
                   for backend, cell in (("simulated", {}), ("threaded", {}),
                                         ("threaded", dict(placement="ranks",
                                                           ranks=2)))]
        assert ledgers[0] == ledgers[1] == ledgers[2]
        serviced = [entry for entry in ledgers[0] if entry[3] != "0x0.0p+0"]
        assert len(serviced) > 1  # the injections reached the ledger
        assert [entry[-1] for entry in serviced].count(1) == 1  # one late


class TestCampaignFingerprints:
    def spec(self, backend, rates):
        return CampaignSpec(
            matrices=["laplacian2d:16"], methods=("FEIR", "AFEIR"),
            rates=rates, repetitions=2, seed=99,
            knobs=SolverKnobs(tolerance=1e-8, page_size=64,
                              num_workers=4, **CELLS[backend]),
            name=f"equiv-{backend}")

    @pytest.mark.parametrize("rates", [(0.0,), (1.0, 10.0)])
    def test_fingerprints_identical_across_backends(self, rates):
        fingerprints = {}
        for backend in ("simulated", "threaded"):
            result = run_campaign(self.spec(backend, rates))
            fingerprints[backend] = result.fingerprint()
        assert fingerprints["simulated"] == fingerprints["threaded"]

    def test_knobs_reject_unknown_axis_values(self):
        with pytest.raises(ValueError, match="scheduler axis"):
            SolverKnobs(scheduler="warp-drive")
        with pytest.raises(ValueError, match="clock axis"):
            SolverKnobs(clock="sundial")


class TestTable2OnBothBackends:
    @pytest.mark.parametrize("backend", ["simulated", "threaded"])
    def test_afeir_fault_free_overhead_strictly_below_feir(self, backend):
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.table2 import run_table2
        cfg = ExperimentConfig(
            matrices=("qa8fm",), repetitions=1,
            knobs=SolverKnobs(max_iterations=6000, tolerance=1e-9,
                              **CELLS[backend]))
        result = run_table2(cfg)
        assert result.overheads["AFEIR"] < result.overheads["FEIR"]
        if backend == "threaded":
            # Wall-clock overheads are reported next to the simulated
            # column (noisy on one tiny matrix, so only presence and
            # finiteness are asserted here).
            assert set(result.wall_overheads) == set(result.overheads)
            assert all(np.isfinite(v)
                       for v in result.wall_overheads.values())
        else:
            assert result.wall_overheads == {}


@pytest.mark.stress
class TestRaceStress:
    """Repeated runs to surface thread-pool races (quarantined CI job)."""

    REPEATS = 20

    def test_fault_free_stays_bitwise_identical(self, problem):
        reference = solve(problem, "AFEIR", "simulated")
        for _ in range(self.REPEATS):
            real = solve(problem, "AFEIR", "threaded")
            assert_bitwise_equal(reference, real)
            assert real.window_summary["recovery_scans"] > 0

    def test_faulted_decisions_stay_identical(self, problem):
        ideal = solve(problem, None, "simulated")
        scenario = multi_error_scenario(TestFaultedEquivalence.INJECTIONS)
        reference = solve(problem, "AFEIR", "simulated", scenario=scenario,
                          ideal_time=ideal.solve_time)
        for _ in range(self.REPEATS):
            real = solve(problem, "AFEIR", "threaded", scenario=scenario,
                         ideal_time=ideal.solve_time)
            assert_bitwise_equal(reference, real)

    def test_observed_concurrency_is_stable(self, problem):
        # AFEIR's r2 has no dependency on the rho partials, so across a
        # whole solve recovery tasks measurably overlap other tasks on
        # other threads, and the r2->beta / r1->alpha gaps are positive:
        # real asynchrony, observed via the monitor.
        for _ in range(self.REPEATS):
            real = solve(problem, "AFEIR", "threaded")
            summary = real.window_summary
            assert summary["concurrency_observed"]
            assert summary["overlapped_recoveries"] > 0
            assert summary["windows"] > 0
            assert summary["mean_window"] > 0.0

    def test_observed_concurrency_is_stable_on_one_cpu(self, problem,
                                                       one_cpu):
        """One usable CPU still gives the backend two lanes, so recovery
        still overlaps other tasks."""
        self.test_observed_concurrency_is_stable(problem)
