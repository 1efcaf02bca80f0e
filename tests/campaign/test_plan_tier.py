"""Iteration shapes are compiled once per process, and nobody can tell.

``CampaignCache.compiled`` is the RAM-only table ``solve_trial`` hands
every solver; :class:`~repro.solvers.cg_plan.CGPlanner` keys it by what
a shape is a function of and keeps chunk costs, compiled plans, the
scheduler's structure table, the fault-free timing and the ideal
makespan there.  These tests pin the counts that buys (graph builds and
event-loop runs per campaign), that a trial solved through a warm table
equals a standalone solver bit for bit, that the key separates what it
must, that every shape reaching the table passes the structural race
check, and that none of it travels with a pickled cache.

``CampaignCache.tapes`` is the other RAM-only table: the prefix tapes a
trial resumes from at its first injection.  The same transparency is
asked of it, over orders, methods, knobs and hand-placed first
injections, and its bounds and scope are pinned by counts.
"""

import dataclasses
import pickle

import pytest

from repro.campaign.engine import (TAPE_KEYS, CampaignRun, TrialRunner,
                                   run_campaign, solve_trial)
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore, process_cache
from repro.core.manager import make_strategy
from repro.faults.scenarios import single_error_scenario
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import GraphRaceError, TaskGraph, verify_graph
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.scheduler import ListScheduler
from repro.solvers.cg_plan import CGPlanner
from repro.solvers.resilient_cg import (TAPE_LENGTH, ResilientCG,
                                       SolverConfig)

METHODS = ("FEIR", "AFEIR", "Lossy", "ckpt")


def bench_grid(seed=20150715, **overrides):
    """The grid of the benchmark's campaign plane: one 400-unknown
    matrix, the paper's four methods, three rates, five repetitions."""
    fields = dict(
        matrices=[MatrixSpec.parametric("laplacian2d", nx=20, ny=20,
                                        rhs_seed=3)],
        methods=METHODS, rates=(1.0, 5.0, 20.0), repetitions=5, seed=seed,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=50),
        name="bench-grid")
    fields.update(overrides)
    return CampaignSpec(**fields)


def tiny_grid(**knobs):
    """One trial per method (and the ideal run first) on a 100-unknown
    matrix, at a rate that disturbs most iterations."""
    knobs = SolverKnobs(tolerance=1e-8, max_iterations=2000, num_workers=4,
                        page_size=20, checkpoint_interval=5, **knobs)
    spec = CampaignSpec(matrices=["laplacian2d:10"], methods=METHODS,
                        rates=(20.0,), repetitions=1, seed=99, knobs=knobs,
                        name="tiny")
    trials = spec.expand()
    ideal = dataclasses.replace(trials[0], method=None, rate=0.0)
    return [ideal, *trials]


def prefix_grid(seed=20150715, **knobs):
    """The benchmark's grid with two repetitions, on knobs of choice: at
    rate 1 about 40 % of a trial's iterations come before its first
    injection."""
    knobs = SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=50,
                        **knobs)
    return bench_grid(seed=seed, repetitions=2, knobs=knobs).expand()


def tape_key(trial):
    """Where ``solve_trial`` files the tapes of ``trial``'s method."""
    return (trial.matrix.content_token(), trial.knobs.content_token(),
            trial.method)


@pytest.fixture()
def resumes(monkeypatch):
    """Every snapshot a solve resumed from, process-wide."""
    seen = []
    resume = ResilientCG._resume

    def counting(self, run, snapshot):
        seen.append(snapshot)
        return resume(self, run, snapshot)

    monkeypatch.setattr(ResilientCG, "_resume", counting)
    return seen


@pytest.fixture()
def counts(monkeypatch):
    """``TaskGraph`` builds and event-loop runs, process-wide."""
    seen = {"graphs": 0, "loops": 0}
    build, discover = TaskGraph.__init__, ListScheduler._discover

    def counting_build(self, *args, **kwargs):
        seen["graphs"] += 1
        build(self, *args, **kwargs)

    def counting_discover(self, *args, **kwargs):
        seen["loops"] += 1
        return discover(self, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "__init__", counting_build)
    monkeypatch.setattr(ListScheduler, "_discover", counting_discover)
    return seen


def drive(spec, cache):
    """``run_campaign`` over a cache the caller keeps."""
    run = CampaignRun(spec, cache)
    for result in SerialExecutor().run(TrialRunner(cache), run.pending):
        run.record(result)
    return run.finish()


def standalone(trial):
    """The trial's solve with no campaign machinery at all: the problem
    built from its spec, the ideal time from a standalone ideal solver,
    and a ``ResilientCG`` that is handed no table."""
    knobs = trial.knobs
    A, b = trial.matrix.build()

    def solver(**kwargs):
        preconditioner = (BlockJacobiPreconditioner(
            A, page_size=knobs.page_size) if knobs.preconditioned else None)
        return ResilientCG(A, b, preconditioner=preconditioner, config=knobs,
                           matrix_name=trial.matrix.label, **kwargs)

    with solver() as ideal:
        result = ideal.solve()
    if trial.method is None:
        return result
    strategy = make_strategy(trial.method,
                             checkpoint_interval=knobs.checkpoint_interval)
    with solver(strategy=strategy, scenario=trial.make_scenario()) as cg:
        return cg.solve(ideal_time=result.solve_time)


def bits(result):
    """Everything of a solve the simulated timeline and the numerics
    determine."""
    record, breakdown = result.record, result.trace.breakdown
    history = record.history
    return (result.x.tobytes(), record.iterations, record.converged,
            record.solve_time.hex(), record.final_residual.hex(),
            record.faults_injected, record.faults_detected,
            dataclasses.astuple(result.stats),
            [(entry.timeline, entry.makespan.hex(), entry.handler_work.hex(),
              entry.service.hex(), entry.late) for entry in result.ledger],
            result.ideal_iteration_time.hex(),
            {state: value.hex() for state, value
             in sorted(vars(breakdown).items())
             if isinstance(value, float)},
            result.trace.task_count,
            (history.iterations, [t.hex() for t in history.times],
             [r.hex() for r in history.residuals]))


# ----------------------------------------------------------------------
# (a) the counts
# ----------------------------------------------------------------------
class TestCompiledOncePerProcess:
    def test_a_campaign_builds_each_shape_once(self, counts):
        """105 builds and 105 loop runs before the table; 8 distinct
        shapes in the grid (ideal 1, FEIR 2, AFEIR 2, Lossy 1, ckpt 2)."""
        result = run_campaign(bench_grid(), SerialExecutor())
        assert result.executed == 60
        assert 0 < counts["graphs"] <= 10
        assert 0 < counts["loops"] <= 10

    def test_a_second_campaign_on_the_same_cache_builds_nothing(self, counts):
        cache = CampaignCache()
        drive(bench_grid(repetitions=1), cache)
        first = dict(counts)
        again = drive(bench_grid(seed=7, repetitions=1), cache)
        assert again.executed == 12 and again.cache_hits == 0
        assert counts == first

    def test_a_fresh_cache_is_a_cold_one(self, counts):
        """No module state: what one cache compiled, another does not
        see."""
        drive(bench_grid(repetitions=1), CampaignCache())
        first = dict(counts)
        drive(bench_grid(repetitions=1), CampaignCache())
        assert counts == {key: 2 * value for key, value in first.items()}


# ----------------------------------------------------------------------
# (b) transparency
# ----------------------------------------------------------------------
class TestTransparency:
    @staticmethod
    def check(trials):
        """Each trial twice through one cache — compiling, then on the
        warm table — against its standalone solve."""
        cache = CampaignCache()
        for trial in trials:
            reference = bits(standalone(trial))
            assert bits(solve_trial(trial, cache)) == reference, trial
        for trial in trials:
            assert bits(solve_trial(trial, cache)) == bits(standalone(trial))
        return cache

    def test_list_local_simulated(self):
        trials = tiny_grid()
        cache = self.check(trials)
        assert len(cache.compiled) == 5  # ideal, FEIR, AFEIR, Lossy, ckpt

    def test_preconditioned(self):
        self.check(tiny_grid(preconditioned=True))

    @pytest.mark.ranks
    def test_threaded_ranks_wall(self):
        self.check(tiny_grid(scheduler="threaded", placement="ranks",
                             clock="wall", ranks=2, pace=0.0))

    @pytest.mark.parametrize("order", ["forward", "reversed",
                                       "interleaved"])
    def test_a_prefix_tape_changes_no_bit(self, order, resumes):
        """The grid through one cache in three orders: which trial
        records a stretch of tape and which resumes from it moves, the
        bits do not.  ckpt at Young's interval has a tape per rate."""
        grid = prefix_grid()
        trials = {"forward": grid, "reversed": grid[::-1],
                  "interleaved": grid[0::3] + grid[1::3] + grid[2::3]}[order]
        cache = self.check(trials)
        assert len(resumes) >= len(grid) // 2
        assert len(cache.tapes[tape_key(grid[0])]) == 1
        ckpt = next(trial for trial in grid if trial.method == "ckpt")
        assert len(cache.tapes[tape_key(ckpt)]) == 3

    @pytest.mark.parametrize("knobs", [
        dict(checkpoint_interval=5),
        dict(preconditioned=True, record_history=True),
    ], ids=["ckpt-interval-5", "preconditioned-history"])
    def test_a_prefix_tape_changes_no_bit_on_other_knobs(self, knobs,
                                                         resumes):
        self.check(prefix_grid(**knobs))
        assert resumes

    def test_where_the_first_injection_lands(self, resumes):
        """FEIR trials with one hand-placed DUE.  Through one cache: past
        convergence (the trial records the whole trajectory), in
        iteration 1, in the middle of a stride and exactly at a
        snapshot's clock (the resume is from the one before it).
        Through a fresh one, whose tape starts one iteration apart: in
        iteration 1 (nothing precedes it) and in iteration 2 (the
        snapshot after iteration 1 does)."""
        base = next(t for t in prefix_grid() if t.method == "FEIR")
        ideal = standalone(dataclasses.replace(base, method=None, rate=0.0))

        def solve_with_a_due_at(time, cache):
            trial = dataclasses.replace(
                base, scenario=single_error_scenario("g", 3, time))
            result = solve_trial(trial, cache)
            assert bits(result) == bits(standalone(trial))
            return result

        cache = CampaignCache()
        late = solve_with_a_due_at(100 * ideal.solve_time, cache)
        assert late.record.faults_detected == 0 and resumes == []
        [tape] = cache.tapes[tape_key(base)].values()
        snapshots = list(tape.snapshots)
        assert [len(s.ledger) for s in snapshots] == list(range(8, 57, 8))
        step = snapshots[0].clock / len(snapshots[0].ledger)
        solve_with_a_due_at(0.5 * step, cache)
        assert resumes == []
        solve_with_a_due_at(snapshots[2].clock + 3.5 * step, cache)
        assert resumes[-1] is snapshots[2]
        solve_with_a_due_at(snapshots[3].clock, cache)
        assert resumes[-1] is snapshots[2]
        solve_with_a_due_at(100 * ideal.solve_time, cache)
        assert resumes[-1] is snapshots[-1]
        assert tape.snapshots == snapshots

        fresh = CampaignCache()
        solve_with_a_due_at(3.5 * step, fresh)
        [tape] = fresh.tapes[tape_key(base)].values()
        assert [len(s.ledger) for s in tape.snapshots] == [1, 2, 3]
        resumed = len(resumes)
        solve_with_a_due_at(0.5 * step, fresh)
        assert len(resumes) == resumed
        solve_with_a_due_at(1.5 * step, fresh)
        assert resumes[-1] is tape.snapshots[0]

    def test_a_trial_replays_a_structure_another_one_replaced(self, counts):
        """Recovery enlarges the last task of its phase, so in the CG
        shapes an enlarged r1/r2/r3 does not reorder completions (no
        trial of either grid above makes the loop run twice for a
        shape).  The replacement is therefore manufactured: a planner on
        the shared table re-times the resilient shape with a spmv chunk
        stretched past everything else, which fails the held structure's
        check, runs the loop and leaves *that* structure in the table
        for the next trial to start from."""
        trials = [t for t in tiny_grid() if t.method in ("FEIR", "AFEIR")]
        cache = CampaignCache()
        references = [bits(standalone(trial)) for trial in trials]
        for trial in trials:
            solve_trial(trial, cache)
        entries = [entry for entry in cache.compiled.values()
                   if (True, False, False) in entry.plans]
        assert len(entries) == 2
        for entry in entries:
            plan = entry.plans[True, False, False]
            durations = list(plan.durations)
            durations[plan.roles["q"][0]] = 1.0
            scheduler = ListScheduler(4, cost_model=trials[0].knobs.cost_model)
            scheduler.structures = entry.structures
            held = entry.structures[id(plan), 4]
            scheduler.retime(plan, durations, start_time=0.25)
            assert scheduler.loop_runs == 1
            assert entry.structures[id(plan), 4] != held
        loops = counts["loops"]
        for trial, reference in zip(trials, references, strict=True):
            assert bits(solve_trial(trial, cache)) == reference
        assert counts["loops"] > loops  # the odd structure was rejected


class TestPrefixTape:
    def test_a_long_prefix_keeps_at_most_eight_snapshots(self):
        """114 fault-free iterations: the stride doubles from 1 to 16 and
        the tape ends at every 16th."""
        A, b = MatrixSpec.parametric("laplacian2d", nx=40, ny=40,
                                     rhs_seed=3).build()
        tapes = {}
        with ResilientCG(A, b, strategy=make_strategy("FEIR"),
                         config=SolverConfig(tolerance=1e-8, page_size=50),
                         tapes=tapes) as cg:
            assert cg.solve().record.iterations == 114
        [tape] = tapes.values()
        assert TAPE_LENGTH == 8 and tape.stride == 16
        assert [len(s.ledger) for s in tape.snapshots] == list(
            range(16, 113, 16))

    def test_a_cache_keeps_the_most_recently_used_tape_keys(self):
        """FEIR trials on more right-hand sides than the bound: the cache
        keeps the newest keys, the oldest go first, and every trial —
        the one whose tape was dropped too — equals its standalone
        solve.  A benchmark pass uses fewer keys than the bound."""
        assert len({tape_key(t) for t in bench_grid().expand()}) < TAPE_KEYS
        knobs = SolverKnobs(tolerance=1e-8, max_iterations=2000,
                            num_workers=4, page_size=20)
        trials = [CampaignSpec(
            matrices=[MatrixSpec.parametric("laplacian2d", nx=10, ny=10,
                                            rhs_seed=seed)],
            methods=("FEIR",), rates=(5.0,), repetitions=1, seed=99,
            knobs=knobs).expand()[0] for seed in range(TAPE_KEYS + 2)]
        cache = CampaignCache()
        for trial in [*trials, trials[0]]:
            assert bits(solve_trial(trial, cache)) == bits(standalone(trial))
            assert len(cache.tapes) <= TAPE_KEYS
        assert list(cache.tapes) == [tape_key(t) for t in
                                     trials[3:] + trials[:1]]

    def test_a_fresh_cache_is_a_cold_one(self, resumes):
        """What one cache's trials recorded, another's do not see: a
        warm tape would resume the first trial of each method too."""
        drive(bench_grid(repetitions=2), CampaignCache())
        first = len(resumes)
        drive(bench_grid(repetitions=2), CampaignCache())
        assert first > 0 and len(resumes) == 2 * first

    @pytest.mark.parametrize("cell", [
        dict(scheduler="threaded", clock="wall", pace=0.0),
        pytest.param(dict(scheduler="threaded", placement="ranks", ranks=2,
                          clock="wall", pace=0.0), marks=pytest.mark.ranks),
    ], ids=["threaded-local-wall", "threaded-ranks-wall"])
    def test_a_wall_clock_cell_never_resumes(self, cell, resumes):
        """Its outputs include measured ones, so it keeps no tape; the
        same trials in the list cell do resume."""
        cache = CampaignCache()
        for knobs in (cell, {}):
            for trial in prefix_grid(**knobs):
                if trial.rate == 1.0 and trial.method in ("FEIR", "AFEIR"):
                    solve_trial(trial, cache)
            if knobs:
                assert resumes == []
                assert not any(cache.tapes.values())
        assert len(resumes) == 2


# ----------------------------------------------------------------------
# (c) the key
# ----------------------------------------------------------------------
def planner(compiled, *, n=12, method="FEIR", workers=4, page=16,
            cost_model=None, preconditioned=False, checkpoint_bytes=None):
    blocked = PageBlockedMatrix(laplacian_2d(n), page_size=page)
    config = SolverConfig(page_size=page, num_workers=workers,
                          **({"cost_model": cost_model} if cost_model else {}))
    strategy = make_strategy(method, checkpoint_interval=5) if method else None
    if checkpoint_bytes is not None:
        strategy.checkpoint_bytes = lambda n: checkpoint_bytes
    return CGPlanner(blocked, config, strategy=strategy,
                     preconditioned=preconditioned,
                     executor=SimulatedBackend(workers, config.cost_model),
                     engine=make_kernel_engine(blocked, config.runtime_spec()),
                     compiled=compiled)


class TestKey:
    def test_the_same_content_built_twice_is_one_entry(self):
        compiled = {}
        first, second = planner(compiled), planner(compiled)
        assert len(compiled) == 1
        assert first.blocked is not second.blocked
        assert first.plan(True, False) is second.plan(True, False)
        assert first.chunk_costs is second.chunk_costs
        assert (first.executor.scheduler.structures
                is second.executor.scheduler.structures)
        assert first.time_iteration(0.0, False) \
            is second.time_iteration(0.0, False)

    @pytest.mark.parametrize("other", [
        dict(cost_model=CostModel(task_overhead=1e-5)),
        dict(cost_model=CostModel(flop_rate=1e9)),
        dict(workers=3),
        dict(method="AFEIR"),
        dict(method=None),
        dict(preconditioned=True),
        dict(page=8),
        dict(n=13),
    ], ids=lambda other: "-".join(f"{k}" for k in other))
    def test_a_different_shape_gets_its_own_entry(self, other):
        compiled = {}
        base, changed = planner(compiled), planner(compiled, **other)
        assert len(compiled) == 2
        assert base.plan(False, False) is not changed.plan(False, False)

    def test_the_checkpoint_volume_is_part_of_the_key(self):
        compiled = {}
        plain = planner(compiled, method="ckpt")
        planner(compiled, method="ckpt")
        assert len(compiled) == 1
        bulky = planner(compiled, method="ckpt", checkpoint_bytes=1e9)
        assert len(compiled) == 2
        ckpt = [p.plan(False, True) for p in (plain, bulky)]
        durations = [plan.durations[plan.roles["ckpt"]] for plan in ckpt]
        assert durations[0] < durations[1]

    def test_a_planner_handed_no_table_keeps_its_own(self):
        compiled = {}
        shared, alone = planner(compiled), planner(None)
        assert shared.plan(True, False) is not alone.plan(True, False)
        assert shared.plan(True, False) == alone.plan(True, False)
        assert len(compiled) == 1


# ----------------------------------------------------------------------
# (d) the shapes that reach the table are race-free
# ----------------------------------------------------------------------
@pytest.fixture()
def built(monkeypatch):
    """Every ``(shape, graph)`` a planner builds, process-wide."""
    seen = []
    build = CGPlanner.build_iteration_graph

    def recording(self, **shape):
        graph, roles = build(self, **shape)
        seen.append((shape, graph))
        return graph, roles

    monkeypatch.setattr(CGPlanner, "build_iteration_graph", recording)
    return seen


class TestVerification:
    def test_every_shape_a_campaign_shares_is_race_free(self, built):
        """The grid's 8 shapes are built once each, through the table,
        and each passes the structural race check."""
        cache = CampaignCache()
        drive(bench_grid(rates=(5.0,), repetitions=2), cache)
        assert len(built) == 8
        for _, graph in built:
            verify_graph(graph)
        drive(bench_grid(rates=(5.0,), repetitions=2, seed=7), cache)
        assert len(built) == 8

    def test_a_dropped_edge_in_a_shared_shape_is_reported(self, built,
                                                          monkeypatch):
        """Lose the beta -> d-update dependency and every shape that
        reaches the table races on the scalar."""
        build = CGPlanner.build_iteration_graph

        def drop_edge(self, **shape):
            graph, roles = build(self, **shape)
            for task in graph.tasks:
                if task.name.startswith("d{t}:"):
                    task.deps.remove("beta{t}")
            return graph, roles

        monkeypatch.setattr(CGPlanner, "build_iteration_graph", drop_edge)
        cache = CampaignCache()
        for trial in tiny_grid()[:2]:
            solve_trial(trial, cache)
        assert built
        for _, graph in built:
            with pytest.raises(GraphRaceError) as err:
                verify_graph(graph)
            assert err.value.races[0].resource == "scalar:beta"


# ----------------------------------------------------------------------
# (e) RAM only
# ----------------------------------------------------------------------
class TestNeverPickled:
    def test_a_pickled_cache_carries_the_store_root_and_nothing_else(
            self, tmp_path):
        cache = CampaignCache(CampaignStore(tmp_path / "store"))
        solve_trial(tiny_grid()[1], cache)
        assert cache.compiled
        payload = pickle.dumps(TrialRunner(cache))
        assert len(payload) < 400
        assert b"IterationPlan" not in payload and b"_Compiled" not in payload
        assert b"PrefixTape" not in payload and b"_Snapshot" not in payload
        arrived = pickle.loads(payload).cache
        assert arrived is process_cache(str(tmp_path / "store"))
        assert arrived is not cache and arrived.compiled == {}
        assert arrived.tapes == {}

    def test_nothing_of_it_reaches_the_store(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(bench_grid(repetitions=1), SerialExecutor(), store=store)
        assert set(store.entry_count()) == {"baselines", "trials",
                                            "journals"}
        assert not [path for path in store.root.rglob("*") if path.is_file()
                    and b"IterationPlan" in path.read_bytes()]
