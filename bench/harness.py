"""Measuring one workload: set-up, timed repeats, checks, the result file.

A workload (``bench/workloads.py``) supplies three things: ``setup``
(build inputs, warm caches), ``repeat`` (one unit of work, identical
every time, returning a :class:`Repeat`) and ``teardown``.  This module
does the rest: it sets up :data:`SETUPS` times and reports the median as
``setup_s``, repeats the unit for the requested number of seconds,
derives the end-to-end metrics, and — for a traced run — repeats first
with tracing off and then with the wrappers of ``bench/trace.py``
installed, so the per-layer table and the tracing overhead come from
the same process and the same inputs.

Timings are estimated part by part.  Every repeat does the same parts
(trials, solves, jobs) in the same order, so part *i* of one repeat and
part *i* of the next are the same work; what differs is how much the
shared host interfered, and interference only ever adds time.  The
time of a part is therefore a low quantile over the repeats (the
minimum, below ten repeats).  Between the parts the workloads run a
fixed calibration kernel (:func:`calibration_sample`); the same low
quantile of its times says how fast the host was at its best during
this run, and every reported time is scaled to the reference host
speed :data:`CALIBRATION_REFERENCE_S`; the set-up time, a median, goes
by the median of the kernel's times (``bench/README.md``, "How a time
is estimated" and "Limits", has the measurements behind these choices).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy
import scipy
import scipy.sparse

from bench import DEFAULT_SEED
from bench.layers import SETUP_ROWS, TraceData, layer_shares, layer_table
from bench.trace import Tracer

#: Version of the result-file layout.
RESULT_SCHEMA = 1

#: Set-ups per run; ``setup_s`` is their median.  Each uses its own
#: derived inputs so no set-up finds the caches the previous one filled.
SETUPS = 3

#: Every phase runs at least this many repeats, however slow.
MIN_REPEATS = 2

#: Share of ``--seconds`` a traced run spends untraced (its overhead base).
UNTRACED_SHARE = 0.4

#: Quantile that stands for "the host at its best during this run", taken
#: of every part's times over the repeats and of the calibration samples.
LOW_QUANTILE = 0.1

#: What :func:`calibration_sample` takes on the host the benchmark was
#: written on, in its quiet state; reported times are scaled by this over
#: the run's own low-quantile calibration time.
CALIBRATION_REFERENCE_S = 0.0023

#: Span files keep the spans of this traced repeat, the first (the
#: aggregates in the result file cover all of them).
SPAN_FILE_OP = "t0"


# ----------------------------------------------------------------------
# what a workload hands back
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """One unit of a workload's work, as measured by the workload."""

    #: Wall seconds of each part that did work the throughput counts, and
    #: the work units (CG iterations, cached trials) each part did.
    work_s: List[float]
    ops: List[int]
    #: Wall seconds of each operation ``op_p50_ms`` describes.
    latency_s: List[float]
    #: Operations checked (trials, solves, jobs) and how many failed.
    attempted: int
    failed: int
    #: Hash of the results of this repeat (never of timings).
    fingerprint: str
    #: Human-readable reasons for the failures.
    problems: List[str] = field(default_factory=list)
    #: Further samples for per-layer rows, by sample name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Wall seconds of the whole repeat without its calibration samples
    #: (tracing overhead is taken on it).
    wall: float = 0.0


class Workload:
    """Interface of a workload; see ``bench/workloads.py``."""

    name = ""
    why = ""
    #: Whether the run keeps to one CPU (see :func:`pinned_to_one_cpu`).
    one_cpu = True
    #: Whether the part times are scaled to the reference host speed (the
    #: set-up time always is).
    host_scaled = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        #: Times of the calibration kernel, one per :meth:`tick`, and the
        #: seconds spent ticking.
        self.calibration: List[float] = []
        self.ticking_s = 0.0

    def setup(self, variant: int) -> None:
        """Build the inputs of ``variant`` and warm what a user would
        have warm; replaces the products of any earlier set-up."""
        raise NotImplementedError

    def repeat(self) -> Repeat:
        """One unit of work: the same parts, in the same order, every
        time, with a :meth:`tick` between the parts (outside their times)."""
        raise NotImplementedError

    def tick(self) -> None:
        """Sample the host's speed now.  The kernel runs twice and the
        second time counts, so that a sample does not depend on what the
        part before it left in the caches."""
        started = time.perf_counter()
        calibration_sample()
        self.calibration.append(calibration_sample())
        self.ticking_s += time.perf_counter() - started

    def layer_values(self, untraced: List[Repeat]) -> Dict[str, float]:
        """Run-level per-layer values only this workload can measure
        (called in a traced run, with tracing off)."""
        return {}

    def teardown(self) -> None:
        """Stop what ``setup`` started."""


# ----------------------------------------------------------------------
# small statistics and the host's speed
# ----------------------------------------------------------------------
def low_quantile(values: Sequence[float]) -> float:
    """The :data:`LOW_QUANTILE` of ``values``: their minimum below ten."""
    ordered = sorted(values)
    return ordered[int(LOW_QUANTILE * len(ordered))]


def part_times(repeats: Sequence["Repeat"], parts: str) -> List[float]:
    """The low-quantile time of every part over the repeats."""
    return [low_quantile(column) for column in
            zip(*(getattr(r, parts) for r in repeats), strict=True)]


_CALIBRATION_N = 50_000


@functools.lru_cache(maxsize=None)
def _calibration_operands():
    """A 9-diagonal matrix of 5 MB and a vector: beyond the first-level
    caches, as the solvers' operands are."""
    offsets = (-300, -30, -3, -1, 0, 1, 3, 30, 300)
    matrix = scipy.sparse.diags([float(1 + abs(k)) for k in offsets], offsets,
                                shape=(_CALIBRATION_N, _CALIBRATION_N),
                                format="csr")
    return matrix, numpy.linspace(0.0, 1.0, _CALIBRATION_N)


def calibration_sample() -> float:
    """Seconds the fixed calibration kernel takes now: an interpreter
    loop, then sparse matrix-vector products and dot products.  It is the
    mix the workloads are made of and calls nothing of ``repro``, so a
    change to the program cannot move it; the host's speed does."""
    matrix, vector = _calibration_operands()
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(4):
        product = matrix @ vector
        total += product @ vector
    return time.perf_counter() - started


def host_scale(calibration: Sequence[float], estimate=low_quantile) -> float:
    """Factor that takes a time measured in this run to the reference
    host speed (1 when the workload took no calibration sample).

    ``estimate`` picks the calibration time to go by, and matches how the
    time being scaled was estimated: part times are low quantiles, so
    they go by the low quantile; a set-up is a median of whole set-ups,
    interference included, so it goes by the median.  (Between two sets
    of ten runs the host slowed: the low quantile of the kernel by 13 %,
    its median by 35 %, the set-ups of ``campaign_warm`` by 45 %.)"""
    if not calibration:
        return 1.0
    return CALIBRATION_REFERENCE_S / estimate(calibration)


# ----------------------------------------------------------------------
# the host
# ----------------------------------------------------------------------
def _numpy_build() -> Dict[str, str]:
    """BLAS and SIMD of the numpy build, as ``numpy.show_config`` has them."""
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"blas": str(blas.get("openblas configuration")
                            or f"{blas.get('name')} {blas.get('version')}"),
                "simd": str(config["SIMD Extensions"]["found"])}
    except (TypeError, KeyError, AttributeError):
        return {"blas": "unknown", "simd": "unknown"}


def host_description() -> Dict[str, object]:
    """Who measured: cores, versions, BLAS, and how busy the host was."""
    cpus = os.cpu_count() or 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_numpy_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "load1_at_start": load1,
        "busy": load1 > cpus / 2,
    }


def numerics_stack(host: Dict[str, object]) -> str:
    """The part of the host a bit-exact result depends on; a golden
    fingerprint is only enforced on the stack it was recorded on."""
    return "|".join(str(host[key]) for key in
                    ("machine", "numpy", "scipy", "blas", "blas_threads",
                     "simd"))


@contextlib.contextmanager
def pinned_to_one_cpu(enabled: bool = True):
    """Keep this thread, and the threads it starts, on one CPU.

    The interpreter computes on one core at a time anyway (one BLAS
    thread, the GIL), but where the kernel places it decides what a
    migration or a hand-off between worker threads costs: the same
    ``solve_cells`` repeat took 0.23 s on one CPU and 0.44 s spread over
    two, and the median of a fixed interpreter loop moved 1.5 % between
    pinned runs against 14 % between unpinned ones.
    """
    if not enabled or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# golden fingerprints
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> Dict[str, object]:
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {"seed": None, "stack": None, "fingerprints": {}}


def golden_for(workload: str, seed: int, host: Dict[str, object]
               ) -> Optional[str]:
    """The fingerprint ``workload`` must reproduce, or ``None`` when no
    golden applies (another seed, or another numerics stack)."""
    golden = load_golden()
    if golden.get("seed") != seed or golden.get("stack") != numerics_stack(host):
        return None
    return golden.get("fingerprints", {}).get(workload)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def _measure(workload: Workload, deadline: float,
             tracer: Optional[Tracer] = None) -> List[Repeat]:
    """Repeat the workload's unit until ``time.perf_counter()`` passes
    ``deadline``; under a tracer, repeat *i* is operation ``t<i>``."""
    repeats: List[Repeat] = []
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = f"t{len(repeats)}"
        ticking = workload.ticking_s
        started = time.perf_counter()
        repeat = workload.repeat()
        repeat.wall = (time.perf_counter() - started
                       - (workload.ticking_s - ticking))
        repeats.append(repeat)
    return repeats


def _judge(repeats: List[Repeat], golden: Optional[str]) -> Dict[str, object]:
    """Fold the repeats' own checks with the cross-repeat ones: every
    repeat must yield one fingerprint, equal to the golden if one applies.
    A repeat that breaks either fails all the operations it attempted."""
    attempted = sum(r.attempted for r in repeats)
    failed = 0
    problems: List[str] = []
    expected = golden if golden is not None else repeats[0].fingerprint
    for index, repeat in enumerate(repeats):
        bad = repeat.failed
        problems.extend(f"repeat {index}: {p}" for p in repeat.problems)
        if repeat.fingerprint != expected:
            bad = repeat.attempted
            which = "the golden" if golden is not None else "repeat 0's"
            problems.append(f"repeat {index}: fingerprint "
                            f"{repeat.fingerprint[:12]} is not {which} "
                            f"{expected[:12]}")
        failed += bad
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "problems": problems,
            "fingerprint": repeats[0].fingerprint,
            "golden": golden}


def _end_to_end(repeats: List[Repeat], setup_times: List[float],
                scale: float, setup_scale: float
                ) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, times at the reference host speed."""
    # Every part weighs the same in the throughput, so that a part made
    # long by its inputs (a restarting trial) does not decide it.
    per_unit = [seconds / ops for seconds, ops in
                zip(part_times(repeats, "work_s"), repeats[0].ops, strict=True)]
    latency = statistics.median(part_times(repeats, "latency_s"))
    return {
        "setup_s": {"value": setup_scale * statistics.median(setup_times),
                    "unit": "s"},
        "ops_per_s": {"value": 1.0 / (scale * statistics.mean(per_unit)),
                      "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * scale * latency, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
    }


def _pooled_samples(repeats: List[Repeat]) -> Dict[str, List[float]]:
    pooled: Dict[str, List[float]] = {}
    for repeat in repeats:
        for name, values in repeat.samples.items():
            pooled.setdefault(name, []).extend(values)
    return pooled


def run_workload(workload_cls, seed: int = DEFAULT_SEED, seconds: float = 10.0,
                 trace: bool = False, out: Optional[Path] = None
                 ) -> Dict[str, object]:
    """Measure one workload in this interpreter; returns (and writes) the
    result document.  ``result["line"]`` is the driver's JSON object."""
    with pinned_to_one_cpu(workload_cls.one_cpu):
        return _run_workload(workload_cls, seed, seconds, trace, out)


def _run_workload(workload_cls, seed: int, seconds: float, trace: bool,
                  out: Optional[Path]) -> Dict[str, object]:
    out = Path(out) if out is not None else Path.cwd() / "bench-results"
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / "tmp" / f"{workload_cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    host = host_description()
    workload = workload_cls(seed, workdir)
    # A traced run also traces the set-ups: that is where matrices are
    # built and baselines solved, which the repeats find cached.
    tracer = Tracer() if trace else None
    try:
        setup_times: List[float] = []
        with tracer or contextlib.nullcontext():
            for variant in range(SETUPS):
                started = time.perf_counter()
                workload.setup(variant)
                setup_times.append(time.perf_counter() - started)

        # The first repeat of the measuring time is discarded: thread pools
        # start, lazy set-up finishes, and a host that was idle spends its
        # burst of extra speed.
        started = time.perf_counter()
        workload.repeat()
        workload.calibration.clear()
        golden = golden_for(workload.name, seed, host)
        result: Dict[str, object] = {
            "schema": RESULT_SCHEMA, "workload": workload.name,
            "why": workload.why, "seed": seed, "seconds": seconds,
            "trace": int(trace), "host": host,
            "setup_s_raw": setup_times,
        }
        if not trace:
            repeats = _measure(workload, started + seconds)
            verdict = _judge(repeats, golden)
            scale = (host_scale(workload.calibration)
                     if workload.host_scaled else 1.0)
            setup_scale = host_scale(workload.calibration, statistics.median)
            metrics = _end_to_end(repeats, setup_times, scale, setup_scale)
            result["host_scale"] = {"parts": scale, "setup": setup_scale}
        else:
            untraced = _measure(workload, started + seconds * UNTRACED_SHARE)
            values = dict(workload.layer_values(untraced))
            values["host.calibration_ms"] = 1e3 * low_quantile(
                workload.calibration or [CALIBRATION_REFERENCE_S])
            setup_data = TraceData(spans=tracer.spans(),
                                   counts=tracer.counts(), repeats=SETUPS)
            tracer = Tracer()
            with tracer:
                traced_started = time.perf_counter()
                repeats = _measure(
                    workload,
                    traced_started + seconds * (1 - UNTRACED_SHARE), tracer)
                traced_wall = time.perf_counter() - traced_started
            base = min(r.wall for r in untraced)
            values["trace.overhead_frac"] = (
                min(r.wall for r in repeats) - base) / base
            values["trace.missing"] = float(len(tracer.missing))
            data = TraceData(spans=tracer.spans(), counts=tracer.counts(),
                             repeats=len(repeats),
                             samples=_pooled_samples(untraced), values=values)
            verdict = _judge(untraced + repeats, golden)
            metrics = layer_table(data)
            metrics.update(layer_table(setup_data, SETUP_ROWS))
            result["trace_missing"] = list(tracer.missing)
            result["layer_shares"] = layer_shares(data, traced_wall)
            result["untraced_repeats"] = len(untraced)
            result["spans_file"] = _write_spans(out, workload.name, seed, data)
        result.update({
            "repeats": len(repeats),
            "raw": {
                "ops": repeats[0].ops,
                "calibration_s": workload.calibration,
                "work_s": [r.work_s for r in repeats],
                "latency_s": [r.latency_s for r in repeats],
                "wall_s": [r.wall for r in repeats],
            },
            "metrics": metrics,
            **verdict,
        })
        result["line"] = {"correct": verdict["correct"],
                          "attempted": verdict["attempted"],
                          "failed": verdict["failed"], "metrics": metrics}
        path = out / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        result["path"] = str(path)
        return result
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def _write_spans(out: Path, workload: str, seed: int, data: TraceData) -> str:
    """One JSON object per line: the spans of the first traced repeat."""
    path = out / f"{workload}-seed{seed}.spans.jsonl"
    with path.open("w") as handle:
        for span in data.spans:
            if span.op == SPAN_FILE_OP:
                handle.write(json.dumps(span._asdict()) + "\n")
    return str(path)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_report(result: Dict[str, object], stream=sys.stdout) -> None:
    """Every metric by name with its unit, the checks, then the driver's
    JSON object as the last line."""
    host = result["host"]
    print(f"# {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  trace={result['trace']}  "
          f"repeats={result['repeats']}", file=stream)
    print(f"# host: {host['cpus']} cpus, python {host['python']}, numpy "
          f"{host['numpy']}, scipy {host['scipy']}, load1 "
          f"{host['load1_at_start']:.2f}{' (busy)' if host['busy'] else ''}",
          file=stream)
    for name, entry in result["metrics"].items():
        print(f"{name:42s} {entry['value']:16.6g} {entry['unit']}",
              file=stream)
    for name, share in result.get("layer_shares", {}).items():
        print(f"share.{name:36s} {100 * share:15.1f}% of traced wall",
              file=stream)
    if result.get("trace_missing"):
        print(f"# trace.missing: {', '.join(result['trace_missing'])}",
              file=stream)
    golden = result["golden"]
    print(f"# fingerprint {result['fingerprint'][:16]}  golden "
          f"{'n/a' if golden is None else golden[:16]}  attempted "
          f"{result['attempted']}  failed {result['failed']}", file=stream)
    for problem in result["problems"][:20]:
        print(f"# FAILED {problem}", file=stream)
    print(json.dumps(result["line"]), file=stream)
