"""Traced run: timing wrappers around each layer's public entry points.

Everything here lives in ``bench/``: nothing under ``src/`` knows it is
being traced.  :class:`Tracer` installs a wrapper on every target of
:data:`TARGETS` (class methods where possible; a module-level function
is replaced in every ``repro``/``bench`` module that imported it by
name), records one span per call in memory, and restores the originals
on exit.  A target that no longer exists is listed under
``Tracer.missing`` instead of raising, so a refactor of ``src/`` cannot
break the end-to-end run; its metrics then read 0.

A span is ``(id, name, start, end, parent, thread, op)``: ``parent`` is
the id of the enclosing span *on the same thread* (``None`` at the top
of a thread), ``op`` is the operation the load generator had in flight
(one at a time: every workload is a closed loop with one client).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: str
    op: Optional[str]


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``where`` is ``"package.module:Class.attr"`` or
    ``"package.module:function"``.  ``after`` (optional) runs after a
    successful call as ``after(count, args, kwargs, result)`` and records
    exact counts at the boundary through ``count(name, amount)``.
    """

    span: str
    where: str
    after: Optional[Callable] = None


# ----------------------------------------------------------------------
# counts read at the boundaries
# ----------------------------------------------------------------------
def _after_solve(count, args, kwargs, result) -> None:
    record = result.record
    count("solvers.iterations", record.iterations)
    count("faults.injected", record.faults_injected)
    count("faults.detected", record.faults_detected)
    count("core.pages_recovered", result.stats.pages_recovered)
    count("core.pages_unrecoverable", result.stats.pages_unrecoverable)
    count("runtime.async_exec.reenact_wall_s", result.wall_clock)
    stats = result.rank_stats
    if stats is not None:
        count("distributed.ranks.halo_msgs", len(stats.message_samples))
        count("distributed.ranks.halo_bytes", stats.halo_bytes)
        count("distributed.ranks.halo_s", stats.halo_seconds)
        count("distributed.ranks.allreduce_ops", stats.allreduces)
        count("distributed.ranks.allreduce_s", stats.allreduce_seconds)


def _after_execute(count, args, kwargs, result) -> None:
    count("runtime.async_exec.tasks_dispatched", len(args[1]))


def _after_get_trial(count, args, kwargs, result) -> None:
    if result is not None:
        count("campaign.store.get_trial_hits", 1)


# Computed (not measured) kernel work: 2 flops per nonzero or vector
# element; bytes follow the solver's own cost model (12 B per nonzero of
# CSR data + index, 8 B per vector element touched).
def _after_spmv(count, args, kwargs, result) -> None:
    engine = args[0]
    nnz = engine.A.nnz
    count("runtime.kernels.flops_computed", 2 * nnz)
    count("runtime.kernels.bytes_computed", 12 * nnz + 16 * engine.n)


def _after_residual(count, args, kwargs, result) -> None:
    engine = args[0]
    nnz = engine.A.nnz
    count("runtime.kernels.flops_computed", 2 * nnz + engine.n)
    count("runtime.kernels.bytes_computed", 12 * nnz + 24 * engine.n)


def _after_dot(count, args, kwargs, result) -> None:
    n = args[0].n
    count("runtime.kernels.flops_computed", 2 * n)
    count("runtime.kernels.bytes_computed", 16 * n)


def _after_vector_update(count, args, kwargs, result) -> None:
    n = args[0].n
    count("runtime.kernels.flops_computed", 2 * n)
    count("runtime.kernels.bytes_computed", 24 * n)


_KERNELS = "repro.runtime.kernels:LocalKernelEngine."
_RANKS = "repro.distributed.ranks:RankKernelEngine."
_GRAPH = "repro.runtime.graph:TaskGraph."
_STORE = "repro.campaign.store:CampaignStore."

#: The wrapped surface, one row per entry point.  Only non-deprecated
#: public names: nothing here mentions ``backend=``, ``make_backend`` or
#: ``clear_caches``.
TARGETS: Tuple[Target, ...] = (
    # runtime: graph build, simulated timeline
    Target("runtime.graph.init", _GRAPH + "__init__"),
    Target("runtime.graph.add_task", _GRAPH + "add_task"),
    Target("runtime.graph.validate", _GRAPH + "validate"),
    Target("runtime.graph.topological_order", _GRAPH + "topological_order"),
    Target("runtime.backend.simulate",
           "repro.runtime.backend:ExecutionBackend.simulate"),
    Target("runtime.scheduler.run", "repro.runtime.scheduler:ListScheduler.run"),
    Target("runtime.trace.from_schedule",
           "repro.runtime.trace:ExecutionTrace.from_schedule"),
    # runtime: numerics in one address space
    Target("runtime.kernels.spmv", _KERNELS + "spmv", _after_spmv),
    Target("runtime.kernels.dot", _KERNELS + "dot", _after_dot),
    Target("runtime.kernels.axpy", _KERNELS + "axpy", _after_vector_update),
    Target("runtime.kernels.update_direction", _KERNELS + "update_direction",
           _after_vector_update),
    Target("runtime.kernels.residual", _KERNELS + "residual", _after_residual),
    # runtime: real execution
    Target("runtime.async_exec.execute",
           "repro.runtime.async_exec:ThreadedBackend.execute", _after_execute),
    # distributed
    Target("distributed.ranks.spmv", _RANKS + "spmv"),
    Target("distributed.ranks.dot", _RANKS + "dot"),
    # recovery
    Target("core.recovery", "repro.core.feir:FEIRStrategy.handle_lost_pages"),
    Target("core.recovery", "repro.core.lossy:LossyRestartStrategy.handle_lost_pages"),
    Target("core.recovery", "repro.core.checkpoint:CheckpointStrategy.handle_lost_pages"),
    Target("matrices.blocked.coupled_solve",
           "repro.matrices.blocked:PageBlockedMatrix.coupled_diag_solve"),
    Target("memory.touch", "repro.memory.manager:MemoryManager.touch"),
    # solver
    Target("solvers.init", "repro.solvers.resilient_cg:ResilientCG.__init__"),
    Target("solvers.solve", "repro.solvers.resilient_cg:ResilientCG.solve",
           _after_solve),
    # matrices
    Target("matrices.build", "repro.campaign.spec:MatrixSpec.build"),
    Target("matrices.build", "repro.matrices.stencil:poisson_3d_27pt"),
    Target("matrices.build", "repro.matrices.stencil:stencil_rhs"),
    # campaign
    Target("campaign.spec.expand", "repro.campaign.spec:CampaignSpec.expand"),
    Target("campaign.spec.key", "repro.campaign.spec:CampaignSpec.store_key"),
    Target("campaign.spec.key", "repro.campaign.spec:TrialSpec.store_key"),
    Target("campaign.store.get_trial", _STORE + "get_trial", _after_get_trial),
    Target("campaign.store.put_trial", _STORE + "put_trial"),
    Target("campaign.store.journal_append", _STORE + "journal_append"),
    Target("campaign.results.fingerprint",
           "repro.campaign.results:CampaignResult.fingerprint"),
    Target("campaign.results.add", "repro.campaign.results:CampaignResult.add"),
    Target("campaign.results.add", "repro.campaign.results:CampaignResult.extend"),
    Target("campaign.engine.run_trial", "repro.campaign.engine:run_trial"),
    # service
    Target("service.protocol", "repro.service.protocol:spec_to_payload"),
    Target("service.protocol", "repro.service.protocol:spec_from_payload"),
)

#: Module-level functions are re-bound in modules under these packages.
_PATCHED_PACKAGES = ("repro", "bench")


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "thread")

    def __init__(self, thread: str) -> None:
        self.stack: List[int] = []
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.thread = thread

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class Tracer:
    """Installs the wrappers, collects spans and counts, restores."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        #: Targets that could not be resolved (their ``where`` string) and
        #: spans whose boundary counter could not be read.
        self.missing: List[str] = []
        #: Operation id stamped on every span recorded while it is set.
        self.op: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and restoring
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.where)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install_one(self, target: Target) -> None:
        module_name, _, qualname = target.where.partition(":")
        module = importlib.import_module(module_name)
        parts = qualname.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapper = self._wrap(target.span, original, target.after)
            for owner in list(sys.modules.values()):
                name = getattr(owner, "__name__", "")
                if name.split(".")[0] not in _PATCHED_PACKAGES:
                    continue
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
            return
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = vars(owner)[attr]  # KeyError: inherited, so not this class's
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(target.span, raw.__func__,
                                           target.after))
        else:
            wrapper = self._wrap(target.span, raw, target.after)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self) -> _ThreadState:
        state = _ThreadState(threading.current_thread().name)
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]):
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None:
                state = self._thread_state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.spans.append(Span(span_id, name, start, end, parent,
                                        state.thread, self.op))
            if after is not None:
                try:
                    after(state.count, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The boundary changed shape under a refactor: report
                    # the counter as missing, keep the run going.
                    if name not in self.missing:
                        self.missing.append(name)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """All spans recorded so far, in id (call-start) order."""
        with self._states_lock:
            states = list(self._states)
        merged = [span for state in states for span in state.spans]
        merged.sort(key=lambda span: span.id)
        return merged

    def counts(self) -> Dict[str, float]:
        with self._states_lock:
            states = list(self._states)
        total: Dict[str, float] = {}
        for state in states:
            for name, amount in state.counts.items():
                total[name] = total.get(name, 0) + amount
        return total


# ----------------------------------------------------------------------
# span arithmetic (pure functions over a span list)
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    calls: int = 0
    #: Sum of span durations (inclusive of child spans).
    busy: float = 0.0
    #: Busy time minus the part covered by direct child spans.
    self_time: float = 0.0


def aggregate(spans: Iterable[Span]) -> Dict[str, SpanStats]:
    """Per-name call count, busy seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children run on the parent's thread and therefore never
    overlap each other.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = (covered.get(span.parent, 0.0)
                                    + span.end - span.start)
    stats: Dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, SpanStats())
        duration = span.end - span.start
        entry.calls += 1
        entry.busy += duration
        entry.self_time += duration - covered.get(span.id, 0.0)
    return stats


def union_busy(spans: Iterable[Span], names: Iterable[str]) -> float:
    """Seconds covered by spans named in ``names``, nested ones counted
    once: a span contributes only if no ancestor of it is in the group.
    ``spans`` must be in id order (a parent's id precedes its children's)."""
    group = set(names)
    inside: Dict[Optional[int], bool] = {None: False}
    total = 0.0
    for span in spans:
        under_member = inside.get(span.parent, False)
        member = span.name in group
        if member and not under_member:
            total += span.end - span.start
        inside[span.id] = under_member or member
    return total


def child_counts(spans: Iterable[Span]) -> Dict[Tuple[str, Optional[str]], int]:
    """How many spans of each name ran directly under each parent name."""
    spans = list(spans)
    names = {span.id: span.name for span in spans}
    edges: Dict[Tuple[str, Optional[str]], int] = {}
    for span in spans:
        key = (span.name, names.get(span.parent))
        edges[key] = edges.get(key, 0) + 1
    return edges
