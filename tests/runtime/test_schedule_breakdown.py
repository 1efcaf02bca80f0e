"""A schedule's per-state breakdown is derived on read, and it is the one
the evaluator used to sum while it timed.

``ListScheduler._evaluate`` computes starts, ends and the makespan only;
``ScheduleResult.trace`` sums the breakdown from them on first read.  The
reference below is the evaluator's old loop, kept here: it re-times a
structure and sums the breakdown in the same pass, in launch order.  Over
every plan of the schedule oracle, at random durations and start times,
the derived breakdown must equal it bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.runtime.scheduler import ListScheduler
from repro.runtime.task import TaskKind
from repro.runtime.trace import WORK_STATES, ExecutionTrace

ORACLE = json.loads(
    (Path(__file__).parent / "fixtures" / "schedule_oracle.json").read_text())
CASES = ORACLE["cases"]
BREAKDOWN = ("useful", "runtime", "idle", "recovery", "checkpoint",
             "communication")


def plan_of(case):
    graph = TaskGraph()
    names = [t[0] for t in case["tasks"]]
    for name, duration, kind, priority, deps in case["tasks"]:
        graph.add_task(name, float.fromhex(duration), kind=TaskKind(kind),
                       priority=priority, deps=[names[d] for d in deps])
    return compile_plan(graph)


def eager_trace(structure, durations, start_time, overhead, num_workers):
    """The breakdown as the evaluator summed it while re-timing."""
    plan = structure.plan
    starts = [start_time] * len(plan)
    ends = [start_time] * (len(plan) + 1)
    work = [0.0] * len(WORK_STATES)
    runtime = busy = 0.0
    for i, trigger in structure.launches:
        starts[i] = begin = ends[trigger]
        ends[i] = end = begin + overhead + durations[i]
        occupied = end - begin
        runtime += overhead
        busy += occupied
        work[plan.work_states[i]] += occupied - overhead
    del ends[-1]
    return ExecutionTrace.from_sums(
        work, runtime, busy, len(plan), num_workers=num_workers,
        start=start_time, end=max(ends, default=start_time))


def fields(trace):
    return ([getattr(trace.breakdown, key).hex() for key in BREAKDOWN],
            trace.wall_time.hex(), trace.task_count, trace.num_workers)


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{i}-{c['label']}" for i, c in enumerate(CASES)])
def test_the_derived_breakdown_is_the_eager_one(case):
    overhead = float.fromhex(case["overhead"])
    scheduler = ListScheduler(case["workers"],
                              cost_model=CostModel(task_overhead=overhead))
    plan = plan_of(case)
    rng = np.random.default_rng(len(plan) * 7919 + case["workers"])
    draws = [(list(plan.durations), float.fromhex(case["start_time"]))]
    draws += [(list(rng.uniform(0.0, 3.0, len(plan))
                    * (rng.random(len(plan)) < 0.9)),
               float(rng.uniform(0.0, 1e3))) for _ in range(3)]
    for durations, start in draws:
        result = scheduler.retime(plan, durations, start)
        structure = scheduler.structures[(id(plan), scheduler.num_workers)]
        assert fields(result.trace) == fields(eager_trace(
            structure, durations, start, overhead, scheduler.num_workers))


def test_a_schedule_derives_its_breakdown_once():
    case = next(c for c in CASES if c["label"].endswith("-rec"))
    result = ListScheduler(case["workers"]).run(plan_of(case))
    assert "trace" not in vars(result)  # re-timing did not sum it
    assert result.trace is result.trace
