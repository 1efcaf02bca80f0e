"""Campaign results: per-trial records and deterministic aggregation.

Workers return slim, picklable :class:`TrialResult` records (no traces,
no residual histories) so that a 10^4-trial campaign streams through a
process pool without serialising solver state.  :class:`CampaignResult`
collects them — in whatever order the executor completes them — and
aggregates *in trial-index order*, so the aggregated statistics of a
campaign are byte-identical between the serial and the parallel
executors under the same campaign seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.overheads import overhead_percent
from repro.analysis.stats import harmonic_mean_overhead, mean_and_std

#: Slowdown (percent) assigned to trials that failed to converge, the
#: same top-of-axis convention Figure 4 uses.
DIVERGED_SLOWDOWN = 2000.0


@dataclass(frozen=True)
class TrialResult:
    """Slim outcome of one campaign trial (safe to ship across processes)."""

    index: int
    matrix: str
    #: ``None`` for a stored ideal run (its own baseline).
    method: Optional[str]
    rate: float
    repetition: int
    converged: bool
    iterations: int
    solve_time: float
    ideal_time: float
    final_residual: float
    faults_injected: int = 0
    faults_detected: int = 0
    restarts: int = 0
    rollbacks: int = 0
    pages_recovered: int = 0
    pages_unrecoverable: int = 0
    #: Wall-clock seconds the worker spent on this trial (diagnostics
    #: only; excluded from aggregation so results stay deterministic).
    wall_time: float = 0.0

    @property
    def overhead_percent(self) -> float:
        """Slowdown versus the fault-free ideal run, in percent."""
        return overhead_percent(self.solve_time, self.ideal_time)

    @property
    def scored_slowdown(self) -> float:
        """Overhead used for aggregation; diverged trials are capped."""
        return self.overhead_percent if self.converged else DIVERGED_SLOWDOWN


#: The field names of :class:`TrialResult`, in declaration order.
_TRIAL_NAMES = tuple(f.name for f in fields(TrialResult))
_TRIAL_FIELDS = frozenset(_TRIAL_NAMES)


def trial_payload(trial: TrialResult) -> dict:
    """What ``asdict(trial)`` gives, read field by field: every field is
    a scalar, so the recursive copy ``asdict`` makes buys nothing."""
    return {name: getattr(trial, name) for name in _TRIAL_NAMES}


def trial_from_payload(payload: dict) -> TrialResult:
    """The :class:`TrialResult` a stored trial payload describes.

    A payload with exactly the dataclass's fields (what ``asdict``
    writes) becomes the new object's ``__dict__``, without the generated
    frozen ``__init__``, which sets one field at a time.  Any other key
    set goes through ``TrialResult(**payload)``: a field with a default
    may be absent, an unknown one or a missing required one raises
    ``TypeError``.
    """
    if type(payload) is dict and payload.keys() == _TRIAL_FIELDS:
        trial = object.__new__(TrialResult)
        trial.__dict__.update(payload)
        return trial
    return TrialResult(**payload)


@dataclass
class CellStats:
    """Aggregate of one (matrix, method, rate) campaign cell."""

    matrix: str
    method: str
    rate: float
    trials: int
    diverged: int
    mean_slowdown: float
    std_slowdown: float
    harmonic_slowdown: float
    mean_iterations: float
    faults_injected: int
    faults_detected: int


@dataclass
class CampaignResult:
    """All trial results of one campaign (or one shard of it) plus
    deterministic aggregates.

    A result is never written anywhere: shards meet in the
    content-addressed store, and an unsharded run over the store their
    trials went to serves them all and prints the unsharded fingerprint.
    """

    name: str = "campaign"
    trials: List[TrialResult] = field(default_factory=list)
    #: Wall-clock duration of the whole campaign (seconds); informational.
    wall_time: float = 0.0
    executor: str = "serial"
    #: Trials served from the content-addressed store / actually
    #: executed this run.  Diagnostics only — never part of the
    #: fingerprint, which must not see where a trial's bytes came from.
    cache_hits: int = 0
    executed: int = 0

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add(self, result: TrialResult) -> None:
        self.trials.append(result)
        self._invalidate()

    def extend(self, results: Iterable[TrialResult]) -> None:
        self.trials.extend(results)
        self._invalidate()

    def _invalidate(self) -> None:
        self.__dict__.pop("_cells_cache", None)

    def sorted_trials(self) -> List[TrialResult]:
        """Trials in expansion (trial-index) order, however they arrived."""
        return sorted(self.trials, key=lambda t: t.index)

    def __len__(self) -> int:
        return len(self.trials)

    # ------------------------------------------------------------------
    # aggregation (deterministic: trial-index order everywhere)
    # ------------------------------------------------------------------
    def cells(self) -> Dict[Tuple[str, str, float], CellStats]:
        """Per (matrix, method, rate) aggregates."""
        cached = self.__dict__.get("_cells_cache")
        if cached is not None:
            return cached
        grouped: Dict[Tuple[str, str, float], List[TrialResult]] = {}
        for trial in self.sorted_trials():
            key = (trial.matrix, trial.method, trial.rate)
            grouped.setdefault(key, []).append(trial)
        cells: Dict[Tuple[str, str, float], CellStats] = {}
        for key, members in grouped.items():
            slowdowns = np.array([t.scored_slowdown for t in members],
                                 dtype=np.float64)
            mean, std = mean_and_std(slowdowns)
            cells[key] = CellStats(
                matrix=key[0], method=key[1], rate=key[2],
                trials=len(members),
                diverged=sum(1 for t in members if not t.converged),
                mean_slowdown=mean, std_slowdown=std,
                harmonic_slowdown=harmonic_mean_overhead(
                    np.maximum(slowdowns, 0.0)),
                # An exact integer sum over an exact count: the bits of
                # ``np.mean`` of the iteration counts.
                mean_iterations=(sum(t.iterations for t in members)
                                 / len(members)),
                faults_injected=sum(t.faults_injected for t in members),
                faults_detected=sum(t.faults_detected for t in members))
        self.__dict__["_cells_cache"] = cells
        return cells

    def summary(self) -> Dict[Tuple[str, float], float]:
        """Per (method, rate) harmonic-mean slowdown across matrices —
        the paper's "CG mean" aggregation of Figure 4."""
        collected: Dict[Tuple[str, float], List[float]] = {}
        for trial in self.sorted_trials():
            collected.setdefault((trial.method, trial.rate), []).append(
                trial.scored_slowdown)
        return {key: harmonic_mean_overhead(np.maximum(values, 0.0))
                for key, values in collected.items()}

    def cell(self, matrix: str, method: str, rate: float) -> CellStats:
        try:
            return self.cells()[(matrix, method, rate)]
        except KeyError:
            raise KeyError(f"no campaign cell ({matrix!r}, {method!r}, "
                           f"{rate:g})") from None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary_rows(self) -> List[List[object]]:
        """Rows (method, then one column per rate) for ``format_table``."""
        summary = self.summary()
        rates = sorted({rate for (_, rate) in summary})
        methods = sorted({method for (method, _) in summary})
        rows: List[List[object]] = []
        for method in methods:
            row: List[object] = [method]
            for rate in rates:
                row.append(summary.get((method, rate), float("nan")))
            rows.append(row)
        return rows

    def fingerprint(self) -> str:
        """Stable hash over the aggregated statistics.

        Two campaigns with the same spec and seed must produce the same
        fingerprint no matter which executor ran them — the equivalence
        tests and the CI smoke job assert exactly this.
        """
        import hashlib
        payload: List[str] = []
        for key in sorted(self.cells()):
            c = self.cells()[key]
            payload.append(
                f"{c.matrix}|{c.method}|{c.rate!r}|{c.trials}|{c.diverged}|"
                f"{c.mean_slowdown!r}|{c.std_slowdown!r}|"
                f"{c.harmonic_slowdown!r}|{c.mean_iterations!r}|"
                f"{c.faults_injected}|{c.faults_detected}")
        digest = hashlib.sha256("\n".join(payload).encode("utf-8"))
        return digest.hexdigest()

    def format(self, title: Optional[str] = None) -> str:
        """Human-readable summary table."""
        from repro.analysis.report import format_table
        summary = self.summary()
        rates = sorted({rate for (_, rate) in summary})
        headers = ["method"] + [f"rate {rate:g}" for rate in rates]
        return format_table(
            headers, self.summary_rows(),
            title=title or (f"Campaign {self.name!r}: harmonic-mean "
                            f"slowdown % ({len(self.trials)} trials, "
                            f"{self.executor} executor)"))
