"""Task-based data-flow runtime (OmpSs stand-in).

The paper parallelises CG by strip-mining each vector operation into
tasks and letting the OmpSs runtime schedule them according to data-flow
dependencies (Figure 1).  The central claims — that recovery tasks can
be placed either in the critical path (FEIR) or overlapped with the
reduction tasks (AFEIR, Figure 2) and that this changes load imbalance
and overhead — are claims about *task scheduling*.

The runtime is one composition of three orthogonal axes, resolved into
a :class:`~repro.runtime.runtime.RuntimeSpec` from which a solver
builds its graph executor (:func:`make_executor`) and its kernel engine
(:func:`make_kernel_engine`):

* **scheduler** — how compiled iteration plans run: ``"list"`` is the
  deterministic discrete-event priority list scheduler over ``P``
  workers with durations from a calibrated
  :class:`~repro.runtime.cost_model.CostModel`; ``"threaded"``
  (:mod:`repro.runtime.async_exec`) additionally executes every plan
  for real on a dependency-tracked priority thread pool with per-page
  locks.
* **placement** — where the numerical kernels run: ``"local"`` is the
  single-address-space NumPy engine
  (:class:`~repro.runtime.kernels.LocalKernelEngine`); ``"ranks"``
  strip-partitions every kernel over N rank workers with real halo
  exchange and tree allreduces
  (:class:`~repro.distributed.ranks.RankKernelEngine`).
* **clock** — which timeline is reported: ``"simulated"`` only the
  discrete-event timeline (makespans, Table 3 state breakdowns);
  ``"wall"`` additionally measured wall intervals of the re-enacted
  execution (task overlap, vulnerable windows).

The simulated timeline is authoritative for every clock-dependent
decision in all cells, and every engine reduces dot products in fixed
page order (:func:`~repro.runtime.kernels.paged_dot`), so each
(scheduler x placement x clock) cell produces bit-identical results.
"""

from repro.runtime.backend import (ExecutionBackend, ExecutionResult,
                                   SimulatedBackend, WallInterval)
from repro.runtime.async_exec import (PageLockTable, ThreadedBackend,
                                      VulnerableWindowMonitor)
from repro.runtime.kernels import (KernelEngine, LocalKernelEngine,
                                   make_kernel_engine, paged_dot)
from repro.runtime.runtime import (CLOCK_NAMES, PLACEMENT_NAMES,
                                   RuntimeSpec, SCHEDULER_NAMES,
                                   make_executor, resolve_runtime_spec)
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import (GraphRace, GraphRaceError, TaskGraph,
                                 VERIFY_GRAPHS_ENV, find_races,
                                 verification_enabled, verify_graph)
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.scheduler import ListScheduler, ScheduleResult
from repro.runtime.task import Task, TaskKind
from repro.runtime.trace import ExecutionTrace, StateBreakdown

__all__ = [
    "CLOCK_NAMES",
    "CostModel",
    "ExecutionBackend",
    "ExecutionResult",
    "ExecutionTrace",
    "GraphRace",
    "GraphRaceError",
    "IterationPlan",
    "KernelEngine",
    "ListScheduler",
    "LocalKernelEngine",
    "PLACEMENT_NAMES",
    "PageLockTable",
    "RuntimeSpec",
    "SCHEDULER_NAMES",
    "ScheduleResult",
    "SimulatedBackend",
    "StateBreakdown",
    "Task",
    "TaskGraph",
    "TaskKind",
    "ThreadedBackend",
    "VERIFY_GRAPHS_ENV",
    "VulnerableWindowMonitor",
    "WallInterval",
    "compile_plan",
    "make_kernel_engine",
    "find_races",
    "make_executor",
    "paged_dot",
    "resolve_runtime_spec",
    "verification_enabled",
    "verify_graph",
]
