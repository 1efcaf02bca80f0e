"""The per-layer metric table of the traced run.

Each row names a metric, its unit and how it is read from the traced
data.  Times and counts are **per repeat** of the workload (every repeat
does identical work, so counts repeat exactly when single-threaded):
the traced phase's totals are divided by the number of traced repeats.
``BENCHMARK.json`` lists the same names and units (a self-test keeps the
two in step); ``bench/README.md`` says which end-to-end metric each row
should move, on which workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.trace import Span, SpanStats, aggregate, child_counts, union_busy


@dataclass
class TraceData:
    """What one traced phase produced."""

    spans: List[Span]
    counts: Dict[str, float]
    #: Number of workload repeats the spans and counts cover.
    repeats: int
    #: Samples the workload measured itself, from the *untraced* repeats
    #: of the same run (so they carry no tracing overhead).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Run-level values (tracing overhead, sanitizer ratio, ...).
    values: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, SpanStats] = field(init=False)

    def __post_init__(self) -> None:
        self.stats = aggregate(self.spans)
        self.repeats = max(self.repeats, 1)


Reader = Callable[[TraceData], float]


def busy(*names: str) -> Reader:
    """Seconds inside the named spans (nested group members once)."""
    if len(names) == 1:
        return lambda d: d.stats.get(names[0], SpanStats()).busy / d.repeats
    return lambda d: union_busy(d.spans, names) / d.repeats


def self_time(name: str) -> Reader:
    return lambda d: d.stats.get(name, SpanStats()).self_time / d.repeats


def calls(*names: str) -> Reader:
    return lambda d: sum(d.stats.get(n, SpanStats()).calls
                         for n in names) / d.repeats


def counter(name: str) -> Reader:
    return lambda d: d.counts.get(name, 0) / d.repeats


def quantile(name: str, q: float) -> Reader:
    """``q``-quantile of the workload's own samples (0 when it has none)."""
    def read(d: TraceData) -> float:
        values = sorted(d.samples.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]
    return read


def median(name: str) -> Reader:
    return lambda d: (statistics.median(d.samples[name])
                      if d.samples.get(name) else 0.0)


def value(name: str) -> Reader:
    return lambda d: d.values.get(name, 0.0)


def _baseline_solves(d: TraceData) -> float:
    """Solves under ``run_trial`` beyond the trial's own: the fault-free
    baseline computed when neither cache tier holds it."""
    under = child_counts(d.spans).get(
        ("solvers.solve", "campaign.engine.run_trial"), 0)
    trials = d.stats.get("campaign.engine.run_trial", SpanStats()).calls
    return max(under - trials, 0) / d.repeats


_GRAPH_BUILD = ("runtime.graph.add_task", "runtime.graph.validate",
                "runtime.graph.topological_order")

#: ``(name, unit, reader)`` — the order is the order of the report.
PER_LAYER: Tuple[Tuple[str, str, Reader], ...] = (
    # simulated timeline -> ops_per_s, op_p50_ms on campaign_cold, service_jobs
    ("runtime.graph.graphs_built", "count", calls("runtime.graph.init")),
    ("runtime.graph.tasks_added", "count", calls("runtime.graph.add_task")),
    ("runtime.graph.build_s", "s", busy(*_GRAPH_BUILD)),
    ("runtime.backend.simulate_calls", "count", calls("runtime.backend.simulate")),
    ("runtime.backend.simulate_s", "s", busy("runtime.backend.simulate")),
    ("runtime.scheduler.run_s", "s", busy("runtime.scheduler.run")),
    ("runtime.trace.from_schedule_s", "s", busy("runtime.trace.from_schedule")),
    # numerics -> ops_per_s on solve_large
    ("runtime.kernels.spmv_s", "s", busy("runtime.kernels.spmv")),
    ("runtime.kernels.spmv_calls", "count", calls("runtime.kernels.spmv")),
    ("runtime.kernels.dot_s", "s", busy("runtime.kernels.dot")),
    ("runtime.kernels.dot_calls", "count", calls("runtime.kernels.dot")),
    ("runtime.kernels.axpy_s", "s", busy("runtime.kernels.axpy")),
    ("runtime.kernels.update_direction_s", "s",
     busy("runtime.kernels.update_direction")),
    ("runtime.kernels.residual_s", "s", busy("runtime.kernels.residual")),
    ("runtime.kernels.flops_computed", "flop",
     counter("runtime.kernels.flops_computed")),
    ("runtime.kernels.bytes_computed", "B",
     counter("runtime.kernels.bytes_computed")),
    # recovery -> ops_per_s on solve_large, trial_p95_ms on campaign_cold
    ("core.recovery_s", "s", busy("core.recovery")),
    ("core.recovery_calls", "count", calls("core.recovery")),
    ("core.pages_recovered", "count", counter("core.pages_recovered")),
    ("core.pages_unrecoverable", "count", counter("core.pages_unrecoverable")),
    ("matrices.blocked.coupled_solve_s", "s",
     busy("matrices.blocked.coupled_solve")),
    # solver -> every solve-bearing workload
    ("solvers.solve_s", "s", busy("solvers.solve")),
    ("solvers.solve_self_s", "s", self_time("solvers.solve")),
    ("solvers.init_s", "s", busy("solvers.init")),
    ("solvers.iterations", "count", counter("solvers.iterations")),
    ("faults.injected", "count", counter("faults.injected")),
    ("faults.detected", "count", counter("faults.detected")),
    ("memory.touch_calls", "count", calls("memory.touch")),
    # real execution -> ops_per_s, op_p50_ms on solve_cells
    ("runtime.async_exec.execute_s", "s", busy("runtime.async_exec.execute")),
    ("runtime.async_exec.execute_calls", "count",
     calls("runtime.async_exec.execute")),
    ("runtime.async_exec.tasks_dispatched", "count",
     counter("runtime.async_exec.tasks_dispatched")),
    ("runtime.async_exec.reenact_wall_s", "s",
     counter("runtime.async_exec.reenact_wall_s")),
    ("distributed.ranks.halo_s", "s", counter("distributed.ranks.halo_s")),
    ("distributed.ranks.halo_msgs", "count",
     counter("distributed.ranks.halo_msgs")),
    ("distributed.ranks.halo_bytes", "B", counter("distributed.ranks.halo_bytes")),
    ("distributed.ranks.allreduce_ops", "count",
     counter("distributed.ranks.allreduce_ops")),
    ("distributed.ranks.allreduce_s", "s",
     counter("distributed.ranks.allreduce_s")),
    ("distributed.ranks.spmv_s", "s", busy("distributed.ranks.spmv")),
    ("distributed.ranks.dot_s", "s", busy("distributed.ranks.dot")),
    ("distributed.ranks.iters_per_s", "1/s",
     median("distributed.ranks.iters_per_s")),
    ("sanitize.on_over_off", "ratio", value("sanitize.on_over_off")),
    ("sanitize.events", "count", value("sanitize.events")),
    # campaign plane -> ops_per_s, op_p50_ms on campaign_warm (reads) and
    # campaign_cold (writes)
    ("campaign.spec.expand_s", "s", busy("campaign.spec.expand")),
    ("campaign.spec.key_s", "s", busy("campaign.spec.key")),
    ("campaign.store.get_trial_s", "s", busy("campaign.store.get_trial")),
    ("campaign.store.get_trial_calls", "count",
     calls("campaign.store.get_trial")),
    ("campaign.store.get_trial_hits", "count",
     counter("campaign.store.get_trial_hits")),
    ("campaign.store.put_trial_s", "s", busy("campaign.store.put_trial")),
    ("campaign.store.put_trial_calls", "count",
     calls("campaign.store.put_trial")),
    ("campaign.store.journal_append_s", "s",
     busy("campaign.store.journal_append")),
    ("campaign.store.journal_append_calls", "count",
     calls("campaign.store.journal_append")),
    ("campaign.store.bytes_written", "B", median("campaign.store.bytes_written")),
    ("campaign.results.fingerprint_s", "s", busy("campaign.results.fingerprint")),
    ("campaign.results.add_s", "s", busy("campaign.results.add")),
    ("campaign.engine.run_trial_s", "s", busy("campaign.engine.run_trial")),
    ("campaign.engine.run_trial_self_s", "s",
     self_time("campaign.engine.run_trial")),
    ("campaign.engine.baseline_solves", "count", _baseline_solves),
    ("campaign.engine.trials_per_s", "1/s",
     median("campaign.engine.trials_per_s")),
    ("campaign.engine.trial_p50_ms", "ms",
     quantile("campaign.engine.trial_ms", 0.50)),
    ("campaign.engine.trial_p95_ms", "ms",
     quantile("campaign.engine.trial_ms", 0.95)),
    ("matrices.build_s", "s", busy("matrices.build")),
    ("matrices.build_calls", "count", calls("matrices.build")),
    # daemon -> ops_per_s, op_p50_ms on service_jobs
    ("service.submit_ms", "ms", median("service.submit_ms")),
    ("service.first_event_ms", "ms", median("service.first_event_ms")),
    ("service.queue_wait_ms", "ms", median("service.queue_wait_ms")),
    ("service.protocol_s", "s", busy("service.protocol")),
    ("service.warmcache.trial_hits", "count",
     median("service.warmcache.trial_hits")),
    ("service.warmcache.trial_misses", "count",
     median("service.warmcache.trial_misses")),
    ("service.shard_retries", "count", median("service.shard_retries")),
    ("service.worker_deaths", "count", median("service.worker_deaths")),
    ("service.http_exceptions", "count", median("service.http_exceptions")),
    ("service.warm_p95_ms", "ms", quantile("service.warm_ms", 0.95)),
    ("service.cold_trials_per_s", "1/s", median("service.cold_trials_per_s")),
    # the instrument itself, and the host
    ("host.calibration_ms", "ms", value("host.calibration_ms")),
    ("trace.overhead_frac", "ratio", value("trace.overhead_frac")),
    ("trace.missing", "count", value("trace.missing")),
)

#: Layer groups whose share of the traced wall the report prints; the
#: predicted shapes in ``bench/README.md`` are stated over these.
SHARES: Tuple[Tuple[str, Sequence[str]], ...] = (
    ("timeline", ("runtime.backend.simulate",) + _GRAPH_BUILD),
    ("numerics", ("runtime.kernels.spmv", "runtime.kernels.dot",
                  "runtime.kernels.axpy", "runtime.kernels.update_direction",
                  "runtime.kernels.residual", "distributed.ranks.spmv",
                  "distributed.ranks.dot", "core.recovery")),
    ("real_execution", ("runtime.async_exec.execute",)),
    ("store", ("campaign.store.get_trial", "campaign.store.put_trial",
               "campaign.store.journal_append")),
    ("campaign_bookkeeping", ("campaign.spec.expand", "campaign.spec.key",
                              "campaign.results.fingerprint",
                              "campaign.results.add")),
)


#: Rows read from the traced *set-ups* (per set-up), not from the traced
#: repeats: the work they count is done once and then found cached.
SETUP_ROWS = ("matrices.build_s", "matrices.build_calls",
              "campaign.engine.baseline_solves")


def layer_table(data: TraceData, rows: Optional[Sequence[str]] = None
                ) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics (all, or those named in ``rows``) as
    ``{"value": ..., "unit": ...}``."""
    return {name: {"value": float(read(data)), "unit": unit}
            for name, unit, read in PER_LAYER
            if rows is None or name in rows}


def layer_shares(data: TraceData, traced_wall: float) -> Dict[str, float]:
    """Share of the traced wall spent in each layer group of
    :data:`SHARES`, plus the solver's own (self) share."""
    if traced_wall <= 0:
        return {}
    shares = {name: union_busy(data.spans, group) / traced_wall
              for name, group in SHARES}
    solve = data.stats.get("solvers.solve", SpanStats())
    shares["solver_self"] = solve.self_time / traced_wall
    return shares
