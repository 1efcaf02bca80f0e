"""The compiled-plan event loop against an oracle that shares no code with it.

``fixtures/schedule_oracle.json`` holds seeded random DAGs and real CG
iteration graphs with the schedule the *parent commit's*
``ListScheduler.run`` produced (see ``fixtures/generate_schedule_oracle.py``).
Both ways into today's single event loop — ``ListScheduler.run(graph)``
and re-timing a compiled plan — must reproduce every recorded float bit
for bit.  Beside it: property tests of the schedule invariants on
arbitrary DAGs, the differential between a replayed schedule and a fresh
event loop, and the checks that must be able to fail.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.runtime.scheduler import ListScheduler, _Structure
from repro.runtime.task import TaskKind

ORACLE = json.loads(
    (Path(__file__).parent / "fixtures" / "schedule_oracle.json").read_text())
CASES = ORACLE["cases"]
BREAKDOWN = ("useful", "runtime", "idle", "recovery", "checkpoint",
             "communication")


def build(case, durations=None):
    graph = TaskGraph()
    names = [t[0] for t in case["tasks"]]
    for i, (name, duration, kind, priority, deps) in enumerate(case["tasks"]):
        graph.add_task(name, float.fromhex(duration) if durations is None
                       else durations[i], kind=TaskKind(kind),
                       priority=priority, deps=[names[d] for d in deps])
    return graph


def scheduler_of(case):
    return ListScheduler(case["workers"], cost_model=CostModel(
        task_overhead=float.fromhex(case["overhead"])))


def assert_matches(case, result):
    assert result.makespan.hex() == case["makespan"]
    assert [s.hex() for s in result.starts] == case["start"]
    assert [e.hex() for e in result.ends] == case["end"]
    assert result.workers == case["worker"]
    assert result.launch_order == case["order"]
    for key in BREAKDOWN:
        assert getattr(result.trace.breakdown, key).hex() == \
            case["breakdown"][key], key
    assert result.trace.wall_time.hex() == case["wall_time"]
    assert result.trace.task_count == case["task_count"]


class TestOracle:
    def test_fixture_is_what_the_generator_describes(self):
        assert ORACLE["recorded_at"] == "4ff29e5"
        assert sum(c["label"] == "random" for c in CASES) >= 200
        cg = {c["label"] for c in CASES if c["label"].startswith("cg-")}
        # ideal, resilient, checkpoint shapes and fault-enlarged recovery
        assert any(label.endswith("-res") for label in cg)
        assert any(label.endswith("-ckpt") for label in cg)
        assert any(label.endswith("-rec") for label in cg)
        assert any(float.fromhex(c["start_time"]) > 0 for c in CASES)
        assert any(float.fromhex(t[1]) == 0.0 for c in CASES for t in c["tasks"])
        assert {c["workers"] for c in CASES} == set(range(1, 9))

    @pytest.mark.parametrize("case", CASES,
                             ids=[f"{i}-{c['label']}" for i, c in enumerate(CASES)])
    def test_run_and_retime_reproduce_the_parent_schedule(self, case):
        start = float.fromhex(case["start_time"])
        scheduler = scheduler_of(case)
        graph = build(case)
        ran = scheduler.run(graph, start_time=start)
        assert_matches(case, ran)
        # the named views agree with the arrays
        names = [t[0] for t in case["tasks"]]
        assert ran.order_started() == [names[i] for i in case["order"]]
        for seq, name in enumerate(ran.order_started()):
            placed = ran.scheduled[name]
            assert (placed.seq, placed.start.hex(), placed.end.hex()) == \
                (seq, case["start"][names.index(name)],
                 case["end"][names.index(name)])

        # Re-time a plan compiled at *other* durations with this case's.
        durations = [float.fromhex(t[1]) for t in case["tasks"]]
        plan = compile_plan(build(case, durations=[1.0] * len(durations)))
        assert_matches(case, scheduler.retime(plan, durations, start))
        backend = SimulatedBackend(case["workers"], cost_model=scheduler.cost_model)
        assert_matches(case, backend.simulate(plan, start, durations))

    @pytest.mark.parametrize("case", CASES,
                             ids=[f"{i}-{c['label']}" for i, c in enumerate(CASES)])
    def test_a_replay_reproduces_the_parent_schedule(self, case):
        """Timed twice on one scheduler: the event loop, then a replay of
        the structure it left — the same recorded bits both times."""
        start = float.fromhex(case["start_time"])
        scheduler = scheduler_of(case)
        plan = compile_plan(build(case))
        durations = [float.fromhex(t[1]) for t in case["tasks"]]
        assert_matches(case, scheduler.retime(plan, durations, start))
        assert (scheduler.loop_runs, scheduler.replays) == (1, 0)
        assert_matches(case, scheduler.retime(plan, durations, start))
        assert (scheduler.loop_runs, scheduler.replays) == (1, 1)


# ----------------------------------------------------------------------
# schedule invariants on arbitrary DAGs
# ----------------------------------------------------------------------
@st.composite
def dags(draw):
    n = draw(st.integers(0, 16))
    tasks = []
    for i in range(n):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=4)) if i else []
        tasks.append((draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
                      draw(st.sampled_from(list(TaskKind))),
                      draw(st.integers(-2, 2)), deps))
    return tasks


def graph_of(tasks):
    graph = TaskGraph()
    for i, (duration, kind, priority, deps) in enumerate(tasks):
        graph.add_task(f"t{i}", duration, kind=kind, priority=priority,
                       deps=[f"t{d}" for d in deps])
    return graph


class TestScheduleInvariants:
    @given(tasks=dags(), workers=st.integers(1, 8),
           start=st.floats(0.0, 1e3), overhead=st.sampled_from([0.0, 8e-6, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_dag(self, tasks, workers, start, overhead):
        scheduler = ListScheduler(workers,
                                  cost_model=CostModel(task_overhead=overhead))
        graph = graph_of(tasks)
        result = scheduler.run(graph, start_time=start)
        # no task starts before its dependencies end, or before the clock
        for i, (_, _, _, deps) in enumerate(tasks):
            assert result.starts[i] >= start
            for d in deps:
                assert result.starts[i] >= result.ends[d]
        # no two tasks overlap on a worker
        by_worker = {}
        for i in range(len(tasks)):
            by_worker.setdefault(result.workers[i], []).append(
                (result.starts[i], result.ends[i]))
        assert all(0 <= w < workers for w in by_worker)
        for spans in by_worker.values():
            spans.sort()
            for (_, first_end), (second_start, _) in zip(spans, spans[1:],
                                                         strict=False):
                assert second_start >= first_end
        # every task launched once, in non-decreasing start order
        assert sorted(result.launch_order) == list(range(len(tasks)))
        launched = [result.starts[i] for i in result.launch_order]
        assert launched == sorted(launched)
        # re-timing the compiled plan with its base durations is the run
        plan = compile_plan(graph)
        for again in (scheduler.retime(plan, start_time=start),
                      scheduler.retime(plan, list(plan.durations), start)):
            assert again.starts == result.starts
            assert again.ends == result.ends
            assert again.workers == result.workers
            assert again.launch_order == result.launch_order
            assert again.makespan == result.makespan
            assert again.trace.breakdown == result.trace.breakdown

    @given(tasks=dags(), threads=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_both_executors_run_the_plan_in_dependency_order(self, tasks,
                                                             threads):
        """The plan's third consumer: the same compiled arrays, run."""
        plan = compile_plan(graph_of(tasks))
        ran = []
        actions = [lambda i=i: ran.append(i) or i for i in range(len(plan))]
        with ThreadedBackend(threads, max_threads=threads,
                             pace=0.0) as threaded:
            for backend in (SimulatedBackend(threads), threaded):
                del ran[:]
                result = backend.execute(plan, actions)
                assert sorted(ran) == list(range(len(plan)))
                assert result.results == list(range(len(plan)))
                for i, deps in enumerate(plan.deps):
                    for d in deps:
                        assert result.ends[d] <= result.starts[i]
                        assert ran.index(d) < ran.index(i)


# ----------------------------------------------------------------------
# a replayed schedule against a fresh event loop
# ----------------------------------------------------------------------
def assert_same_schedule(got, want):
    for column in ("starts", "ends", "workers", "launch_order", "makespan",
                   "start_time", "trace"):
        assert getattr(got, column) == getattr(want, column), column


def differential(tasks, workers, overhead, start, factors):
    """Re-time ``tasks`` from ``start`` with durations scaled by
    ``factors`` on a scheduler that first timed them as they are from 0.0
    (so it may replay) and on a fresh one (the event loop): same bits."""
    plan = compile_plan(graph_of(tasks))
    durations = [d * f for d, f in zip(plan.durations, factors, strict=False)]
    durations += plan.durations[len(durations):]
    cost_model = CostModel(task_overhead=overhead)
    warmed = ListScheduler(workers, cost_model=cost_model)
    warmed.retime(plan)
    got = warmed.retime(plan, durations, start)
    fresh = ListScheduler(workers, cost_model=cost_model)
    assert_same_schedule(got, fresh.retime(plan, durations, start))
    assert (fresh.loop_runs, fresh.replays) == (1, 0)
    assert warmed.loop_runs + warmed.replays == 2
    return warmed.replays


#: 1e9 * u absorbs the durations' low bits, so distinct ends tie; the
#: factors move a task past its neighbours (or onto them, at 0.0).
STARTS = st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.just(1e3),
                   st.floats(0.0, 1.0).map(lambda u: 1e9 * u))
FACTORS = st.lists(st.sampled_from([1.0, 1.0, 1.0, 3.0, 100.0, 0.0]),
                   max_size=16)
DIFFERENTIAL = dict(tasks=dags(), workers=st.integers(1, 8),
                    overhead=st.sampled_from([0.0, 8e-6, 0.5]),
                    start=STARTS, factors=FACTORS)

#: ``r`` (recovery) ends before ``a`` at its base duration and, enlarged
#: by a fault, after it: the completion order the structure recorded
#: breaks, and the task waiting for both starts elsewhere.
OVERTAKING = dict(tasks=[(1.0, TaskKind.COMPUTE, 0, []),
                         (0.25, TaskKind.RECOVERY, 0, []),
                         (1.0, TaskKind.REDUCTION, 0, [0, 1])],
                  workers=2, overhead=8e-6, start=2.5, factors=[1.0, 100.0])


class TestReplayDifferential:
    @given(**DIFFERENTIAL)
    @settings(max_examples=150, deadline=None)
    def test_warmed_scheduler_equals_a_fresh_one(self, **example):
        event("replayed" if differential(**example) else "fell back")

    @pytest.mark.slow
    @given(**DIFFERENTIAL)
    @settings(max_examples=5000, deadline=None)
    def test_warmed_scheduler_equals_a_fresh_one_at_length(self, **example):
        differential(**example)

    def test_translation_alone_replays(self):
        assert differential(**{**OVERTAKING, "factors": []}) == 1

    def test_an_overtaking_recovery_task_falls_back_to_the_loop(self):
        assert differential(**OVERTAKING) == 0
        # ... and the structure that loop left is the one held from then on
        plan = compile_plan(graph_of(OVERTAKING["tasks"]))
        enlarged = [1.0, 25.0, 1.0]
        scheduler = ListScheduler(2)
        for durations, start, counts in ((None, 0.0, (1, 0)),
                                        (enlarged, 2.5, (2, 0)),
                                        (enlarged, 7.0, (2, 1)),
                                        (None, 7.0, (3, 1))):
            result = scheduler.retime(plan, durations, start)
            assert (scheduler.loop_runs, scheduler.replays) == counts
            assert_same_schedule(
                result, ListScheduler(2).retime(plan, durations, start))


# ----------------------------------------------------------------------
# checks that must be able to fail
# ----------------------------------------------------------------------
class TestChecksCanFail:
    def test_dangling_dependency_raises_at_compile(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0, deps=["ghost"])
        with pytest.raises(ValueError, match="unknown task 'ghost'"):
            compile_plan(graph)

    def test_cycle_raises_at_compile(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0, deps=["b"])
        graph.add_task("b", 1.0, deps=["a"])
        with pytest.raises(ValueError, match="cycle"):
            compile_plan(graph)
        with pytest.raises(ValueError, match="cycle"):
            ListScheduler(2).run(graph)

    def test_negative_duration_raises_at_compile_and_at_retime(self):
        graph = TaskGraph()
        graph.add_task("r1", 1.0, kind=TaskKind.RECOVERY)
        graph.add_task("alpha", 1.0, deps=["r1"])
        plan = compile_plan(graph, roles={"r1": "r1"})
        scheduler = ListScheduler(2)
        durations = list(plan.durations)
        durations[plan.roles["r1"]] = -1e-9
        with pytest.raises(ValueError, match="'r1' has negative duration"):
            scheduler.retime(plan, durations)
        # min([nan, 1.0]) < 0 is False: a NaN must not pass for that reason
        for bad in (float("nan"), float("inf")):
            for durations in ([bad, 1.0], [1.0, bad]):
                name = plan.names[durations.index(bad)]
                with pytest.raises(ValueError,
                                   match=f"'{name}' has non-finite duration"):
                    scheduler.retime(plan, durations)
                with pytest.raises(ValueError, match="non-finite duration"):
                    SimulatedBackend(2).execute(plan, durations=durations)
        assert scheduler.loop_runs == 0
        graph.task("r1").duration = -1.0     # mutated after construction
        with pytest.raises(ValueError, match="negative duration"):
            compile_plan(graph)
        graph.task("r1").duration = float("nan")
        with pytest.raises(ValueError, match="'r1' has non-finite duration"):
            compile_plan(graph)

    def test_replay_check_rejects_a_structure_that_does_not_hold(self):
        plan = compile_plan(graph_of(OVERTAKING["tasks"]))
        scheduler = ListScheduler(2)
        ends = scheduler.retime(plan).ends
        (structure,) = scheduler.structures.values()
        first, second, last = structure.completions
        assert [tied for _, tied in structure.completions] == [False] * 3
        assert structure.holds(ends, 0.0)
        for broken in ([(first[0], True), second, last],    # a tie flag flipped
                       [first, second, (last[0], True)],
                       [second, first, last],               # two completions swapped
                       [first, last, second]):
            assert not structure._replace(
                completions=tuple(broken)).holds(ends, 0.0)
        # equal ends recorded as a tie hold only as a tie
        tied = structure._replace(completions=(first, (second[0], True), last))
        assert tied.holds([1.0, 1.0, 2.0], 0.0)
        assert not structure.holds([1.0, 1.0, 2.0], 0.0)
        # fail closed: a NaN satisfies neither relation
        nan = float("nan")
        assert not structure.holds([nan, ends[1], ends[2]], 0.0)
        assert not structure.holds(ends, nan)
        assert not tied.holds([nan, nan, 2.0], 0.0)

    def test_differential_fails_on_a_check_that_accepts_everything(
            self, monkeypatch):
        monkeypatch.setattr(_Structure, "holds", lambda *args: True)
        with pytest.raises(AssertionError, match="starts"):
            differential(**OVERTAKING)

    def test_wrong_length_durations_raise(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        plan = compile_plan(graph)
        with pytest.raises(ValueError, match="1 tasks, got 2 durations"):
            ListScheduler(1).retime(plan, [1.0, 2.0])
        with pytest.raises(ValueError, match="re-time a compiled"):
            SimulatedBackend(1).simulate(graph, durations=[1.0])

    def test_plan_without_roots_deadlocks(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 1.0, deps=["a"])
        plan = dataclasses.replace(compile_plan(graph), roots=())
        with pytest.raises(RuntimeError, match="scheduler deadlock.*'a'"):
            ListScheduler(2).retime(plan)

    def test_roles_resolve_to_indices(self):
        graph = TaskGraph()
        for name in ("q:0", "q:1", "alpha"):
            graph.add_task(name, 1.0)
        plan = compile_plan(graph, roles={"alpha": "alpha",
                                          "q": ["q:0", "q:1"]})
        assert plan.roles == {"alpha": 2, "q": (0, 1)}
        with pytest.raises(KeyError):
            compile_plan(graph, roles={"beta": "beta"})
