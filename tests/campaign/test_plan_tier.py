"""Iteration shapes are compiled once per process, and nobody can tell.

``CampaignCache.compiled`` is the RAM-only table ``solve_trial`` hands
every solver; :class:`~repro.solvers.cg_plan.CGPlanner` keys it by what
a shape is a function of and keeps chunk costs, compiled plans, the
scheduler's structure table, the fault-free timing and the ideal
makespan there.  These tests pin the counts that buys (graph builds and
event-loop runs per campaign), that a trial solved through a warm table
equals a standalone solver bit for bit, that the key separates what it
must, that ``REPRO_VERIFY_GRAPHS=1`` still sees every shape — once — and
that none of it travels with a pickled cache.
"""

import dataclasses
import pickle

import pytest

from repro.campaign.engine import (CampaignRun, TrialRunner, run_campaign,
                                   solve_trial)
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore, process_cache
from repro.core.manager import make_strategy
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.runtime import graph as graph_module
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import (VERIFY_GRAPHS_ENV, GraphRaceError,
                                 TaskGraph)
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.scheduler import ListScheduler
from repro.solvers.cg_plan import CGPlanner
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

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
    strategy = make_strategy(trial.method, cost_model=knobs.cost_model,
                             checkpoint_interval=knobs.checkpoint_interval)
    with solver(strategy=strategy, scenario=trial.make_scenario()) as cg:
        return cg.solve(ideal_time=result.solve_time)


def bits(result):
    """Everything of a solve the simulated timeline and the numerics
    determine."""
    record, breakdown = result.record, result.trace.breakdown
    return (result.x.tobytes(), record.iterations, record.converged,
            record.solve_time.hex(), record.faults_injected,
            record.faults_detected, result.ideal_iteration_time.hex(),
            {state: value.hex() for state, value
             in sorted(vars(breakdown).items())
             if isinstance(value, float)},
            result.trace.task_count)


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
# (d) REPRO_VERIFY_GRAPHS=1
# ----------------------------------------------------------------------
class TestVerification:
    def test_a_shared_shape_is_verified_exactly_once(self, monkeypatch):
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        verified = []
        verify = graph_module.verify_graph
        monkeypatch.setattr(graph_module, "verify_graph",
                            lambda graph: verified.append(graph)
                            or verify(graph))
        spec = bench_grid(methods=("FEIR",), rates=(5.0,), repetitions=4)
        cache = CampaignCache()
        drive(spec, cache)
        # the baseline's plain shape, then FEIR's plain and resilient ones
        assert len(verified) == 3
        drive(bench_grid(methods=("FEIR",), rates=(5.0,), repetitions=4,
                         seed=7), cache)
        assert len(verified) == 3

    def test_a_dropped_edge_is_still_reported(self, monkeypatch):
        """Lose the beta -> d-update dependency and the shape that
        reaches the table is refused when it is compiled, for the first
        trial and — nothing having been kept — for the next."""
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        original = CGPlanner.build_iteration_graph

        def drop_edge(self, **shape):
            graph, roles = original(self, **shape)
            for task in graph.tasks:
                if task.name.startswith("d{t}:"):
                    task.deps.remove("beta{t}")
            return graph, roles

        monkeypatch.setattr(CGPlanner, "build_iteration_graph", drop_edge)
        cache = CampaignCache()
        for trial in tiny_grid()[:2]:
            with pytest.raises(GraphRaceError) as err:
                solve_trial(trial, cache)
            assert err.value.races[0].resource == "scalar:beta"
        assert not any(entry.plans for entry in cache.compiled.values())


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
        arrived = pickle.loads(payload).cache
        assert arrived is process_cache(str(tmp_path / "store"))
        assert arrived is not cache and arrived.compiled == {}

    def test_nothing_of_it_reaches_the_store(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_campaign(bench_grid(repetitions=1), SerialExecutor(), store=store)
        assert set(store.entry_count()) == {"matrices", "baselines",
                                            "trials", "journals"}
        assert not [path for path in store.root.rglob("*") if path.is_file()
                    and b"IterationPlan" in path.read_bytes()]
