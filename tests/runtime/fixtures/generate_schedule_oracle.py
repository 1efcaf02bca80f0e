"""Record ``schedule_oracle.json``: exact list schedules from the parent commit.

The fixture is the oracle of ``tests/runtime/test_plan_exactness.py``: it
holds seeded random DAGs plus real CG iteration graphs, each with the
schedule ``ListScheduler.run`` produced at commit ``4ff29e5`` — the last
commit whose ``run`` owned a name-keyed event loop of its own — so the
expectations share no code with the compiled-plan loop they check.  Every
float is stored as ``float.hex``.

The recorded file came from a checkout of that commit.  The generator is
kept runnable against the current tree — the CG cases take their graphs
from the iteration-plan owner, ``repro.solvers.cg_plan.CGPlanner`` — and
must then print the committed file byte for byte (the cases, and the
schedules today's scheduler gives them)::

    PYTHONPATH=src python tests/runtime/fixtures/generate_schedule_oracle.py
    git diff --exit-code tests/runtime/fixtures/schedule_oracle.json
"""

from __future__ import annotations

import json
import random  # repro-lint: allow[unseeded-rng] a seeded random.Random instance: no global state, same draws on every Python
from pathlib import Path

from repro.core import make_strategy
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.plan import compile_plan
from repro.runtime.runtime import RuntimeSpec, make_executor
from repro.runtime.scheduler import ListScheduler
from repro.runtime.task import TaskKind
from repro.solvers.cg_plan import RECOVERY_TASKS, CGPlanner
from repro.solvers.resilient_cg import SolverConfig

SEED = 20150715
RANDOM_DAGS = 240
OUT = Path(__file__).with_name("schedule_oracle.json")

KINDS = [kind.value for kind in TaskKind]
#: Duration pool: zero, exact ties, cost-model-sized and awkward values.
DURATIONS = [0.0, 0.0, 1.0, 1.0, 0.5, 0.1, 1e-6, 2e-6, 8e-6, 3.3e-5, 1.7e-4]
#: Start times: zero, and clocks accumulated over many iterations.
START_TIMES = [0.0, 0.0, 1e-3, 0.1 + 0.2, 7 * 1.23456789e-4, 12.5, 1234.56789]
OVERHEADS = [0.0, CostModel().task_overhead, 1e-7, 0.25]


def random_case(rng: random.Random) -> dict:
    """One random DAG: deps point at earlier tasks, so it is acyclic."""
    n = rng.choice([0, 1, 2, 3, 5, 8, 13, 21, 30])
    exact = rng.random() < 0.5
    tasks = []
    for i in range(n):
        dur = (rng.choice(DURATIONS) if exact or rng.random() < 0.3
               else rng.uniform(0.0, 2.0) * rng.choice([1e-5, 1e-3, 1.0]))
        fan_in = min(i, rng.choice([0, 0, 1, 1, 2, 3, i]))
        deps = sorted(rng.sample(range(i), fan_in))
        if deps and rng.random() < 0.1:
            deps.append(deps[0])        # a dependency listed twice
        tasks.append({"name": f"t{i}", "duration": dur,
                      "kind": rng.choice(KINDS),
                      "priority": rng.choice([0, 0, 0, -1, -1, 1, 5]),
                      "deps": deps})
    start = rng.choice(START_TIMES)
    if rng.random() < 0.3:
        start += rng.uniform(0.0, 10.0)
    return {"label": "random", "workers": rng.randint(1, 8),
            "overhead": rng.choice(OVERHEADS), "start_time": start,
            "tasks": tasks}


def cg_cases(rng: random.Random) -> list:
    """The four CG shapes (ideal, resilient, +/- checkpoint) at the base
    recovery durations and with fault-enlarged ones, at running clocks."""
    blocked = PageBlockedMatrix(laplacian_2d(20), page_size=32)
    spec = RuntimeSpec()
    cases = []
    for workers, method, precond in ((4, "feir", False), (8, "afeir", False),
                                     (3, "ckpt", False), (4, "afeir", True)):
        config = SolverConfig(num_workers=workers, page_size=32)
        planner = CGPlanner(
            blocked, config,
            strategy=make_strategy(method, checkpoint_interval=5),
            preconditioned=precond,
            executor=make_executor(spec, workers, config.cost_model),
            engine=make_kernel_engine(blocked, spec))
        overhead = config.cost_model.task_overhead
        check = config.cost_model.recovery_check()
        shapes = [(False, False, None)]
        if method == "ckpt":
            shapes.append((False, True, None))
        if planner.uses_recovery_tasks:
            shapes.append((True, False, None))
            for _ in range(3):
                shapes.append((True, False, {
                    "r1": check + rng.choice([0.0, rng.uniform(0, 2e-3)]),
                    "r2": check + rng.choice([0.0, rng.uniform(0, 2e-3)]),
                    "r3": check + rng.uniform(0, 5e-3)}))
        clock = 0.0
        for resilient, checkpoint, recovery in shapes:
            plan = planner.plan(resilient, checkpoint)
            durations = list(plan.durations)
            for key in RECOVERY_TASKS if recovery else ():
                durations[plan.roles[key]] = recovery[key]
            tasks = [{"name": plan.names[i].format(t=0),
                      "duration": durations[i],
                      "kind": plan.kinds[i].value,
                      "priority": plan.priorities[i],
                      "deps": list(plan.deps[i])}
                     for i in range(len(plan))]
            for start in (0.0, clock):
                cases.append({"label": f"cg-{method}-w{workers}"
                                       f"{'-pcg' if precond else ''}"
                                       f"{'-res' if resilient else ''}"
                                       f"{'-ckpt' if checkpoint else ''}"
                                       f"{'-rec' if recovery else ''}",
                              "workers": workers, "overhead": overhead,
                              "start_time": start, "tasks": tasks})
            # the next shape starts where a run of these iterations ends
            clock += 37 * ListScheduler(workers).retime(
                plan, durations).makespan
    return cases


def record(case: dict) -> dict:
    """Schedule one case with the commit's own scheduler; hex everything."""
    graph = TaskGraph()
    names = [t["name"] for t in case["tasks"]]
    for t in case["tasks"]:
        graph.add_task(t["name"], t["duration"], kind=TaskKind(t["kind"]),
                       priority=t["priority"],
                       deps=[names[d] for d in t["deps"]])
    scheduler = ListScheduler(case["workers"],
                              cost_model=CostModel(task_overhead=case["overhead"]))
    result = scheduler.run(compile_plan(graph), start_time=case["start_time"])
    placed = [result.plan.names.index(name) for name in names]
    breakdown = result.trace.breakdown
    return {
        "label": case["label"], "workers": case["workers"],
        "overhead": case["overhead"].hex(),
        "start_time": case["start_time"].hex(),
        "tasks": [[t["name"], t["duration"].hex(), t["kind"], t["priority"],
                   t["deps"]] for t in case["tasks"]],
        "makespan": result.makespan.hex(),
        "start": [result.starts[i].hex() for i in placed],
        "end": [result.ends[i].hex() for i in placed],
        "worker": [result.workers[i] for i in placed],
        "order": [names.index(result.plan.names[i])
                  for i in result.launch_order],
        "breakdown": {key: getattr(breakdown, key).hex() for key in
                      ("useful", "runtime", "idle", "recovery", "checkpoint",
                       "communication")},
        "wall_time": result.trace.wall_time.hex(),
        "task_count": result.trace.task_count,
    }


def main() -> None:
    rng = random.Random(SEED)
    cases = [random_case(rng) for _ in range(RANDOM_DAGS)] + cg_cases(rng)
    for case in cases:
        case["overhead"] = float(case["overhead"])
        case["start_time"] = float(case["start_time"])
    lines = ",\n".join(json.dumps(record(case), separators=(",", ":"))
                       for case in cases)
    OUT.write_text('{"seed": %d, "recorded_at": "4ff29e5", "cases": [\n%s\n]}\n'
                   % (SEED, lines))
    print(f"{len(cases)} cases -> {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
