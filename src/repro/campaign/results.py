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

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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
        if self.ideal_time <= 0:
            raise ValueError("ideal time must be positive")
        return 100.0 * (self.solve_time - self.ideal_time) / self.ideal_time

    @property
    def scored_slowdown(self) -> float:
        """Overhead used for aggregation; diverged trials are capped."""
        return self.overhead_percent if self.converged else DIVERGED_SLOWDOWN


#: The field names of :class:`TrialResult`.
_TRIAL_FIELDS = frozenset(f.name for f in fields(TrialResult))


def trial_from_payload(payload: dict) -> TrialResult:
    """The :class:`TrialResult` a stored or serialized trial payload
    describes.

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
    """All trial results of one campaign plus deterministic aggregates."""

    name: str = "campaign"
    trials: List[TrialResult] = field(default_factory=list)
    #: Wall-clock duration of the whole campaign (seconds); informational.
    wall_time: float = 0.0
    executor: str = "serial"
    #: Content address of the producing :class:`CampaignSpec`; lets
    #: ``merge`` refuse to combine partials from different campaigns.
    spec_key: Optional[str] = None
    #: Trial count of the *full* campaign grid (a shard run records the
    #: whole grid's size here, so merges can verify completeness).
    total_trials: Optional[int] = None
    #: ``(index, count)`` when this result covers one shard only.
    shard: Optional[Tuple[int, int]] = None
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

    # ------------------------------------------------------------------
    # serialization (shard emit / merge)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe payload carrying every trial bit-exactly.

        Python's ``json`` emits floats via ``repr`` (shortest exact
        round-trip), so a load of a dump reproduces the identical
        fingerprint — the property the shard/merge protocol rests on.
        """
        from repro.campaign.store import STORE_SCHEMA_VERSION
        return {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "campaign-result",
            "name": self.name,
            "executor": self.executor,
            "wall_time": self.wall_time,
            "spec_key": self.spec_key,
            "total_trials": self.total_trials,
            "shard": list(self.shard) if self.shard else None,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "trials": [asdict(t) for t in self.sorted_trials()],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object],
                     source: str = "payload") -> "CampaignResult":
        from repro.campaign.store import STORE_SCHEMA_VERSION, StoreSchemaError
        if not isinstance(payload, dict) or \
                payload.get("kind") != "campaign-result":
            raise ValueError(f"{source} is not a serialized campaign "
                             f"result")
        found = payload.get("schema")
        if found != STORE_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{source} was written by result schema v{found}, but "
                f"this version of repro reads v{STORE_SCHEMA_VERSION}; "
                f"re-run the shard that produced it")
        shard = payload.get("shard")
        result = cls(name=payload["name"], executor=payload["executor"],
                     wall_time=float(payload.get("wall_time", 0.0)),
                     spec_key=payload.get("spec_key"),
                     total_trials=payload.get("total_trials"),
                     shard=tuple(shard) if shard else None,
                     cache_hits=int(payload.get("cache_hits", 0)),
                     executed=int(payload.get("executed", 0)))
        result.extend(trial_from_payload(t) for t in payload["trials"])
        return result

    def save(self, path) -> None:
        """Write this (possibly partial) result to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_payload(), sort_keys=True)
                              + "\n")

    @classmethod
    def load(cls, path) -> "CampaignResult":
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_payload(payload, source=str(path))

    # ------------------------------------------------------------------
    # shard merge
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["CampaignResult"],
              require_complete: bool = True) -> "CampaignResult":
        """Combine shard partials into one aggregate result.

        Deterministic fingerprints make the merge order-independent:
        aggregation sorts by trial index, so any permutation of the same
        shard set merges to an aggregate byte-identical to the
        single-process run.  Validates that all parts come from the same
        campaign (``spec_key``), that no trial index appears twice, and
        (``require_complete``) that the union covers the full grid.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to merge: no partial results given")
        spec_keys = {p.spec_key for p in parts if p.spec_key is not None}
        if len(spec_keys) > 1:
            raise ValueError(
                f"refusing to merge partial results from "
                f"{len(spec_keys)} different campaigns (distinct spec "
                f"keys: {', '.join(sorted(k[:12] for k in spec_keys))}...)")
        merged = cls(name=parts[0].name,
                     executor=f"merge({len(parts)} partials)",
                     spec_key=parts[0].spec_key,
                     total_trials=parts[0].total_trials,
                     cache_hits=sum(p.cache_hits for p in parts),
                     executed=sum(p.executed for p in parts),
                     wall_time=max(p.wall_time for p in parts))
        seen: Dict[int, str] = {}
        for part in parts:
            for trial in part.trials:
                if trial.index in seen:
                    raise ValueError(
                        f"trial index {trial.index} appears in more than "
                        f"one partial result (shards must be disjoint — "
                        f"did the same shard get merged twice?)")
                seen[trial.index] = part.executor
            merged.extend(part.trials)
        totals = {p.total_trials for p in parts if p.total_trials}
        if len(totals) > 1:
            raise ValueError(f"partial results disagree on the campaign "
                             f"size: {sorted(totals)}")
        if require_complete and totals:
            expected = totals.pop()
            if len(merged.trials) != expected:
                missing = expected - len(merged.trials)
                raise ValueError(
                    f"merge is incomplete: {len(merged.trials)} of "
                    f"{expected} trials present ({missing} missing — "
                    f"pass every shard, or require_complete=False for a "
                    f"partial aggregate)")
        return merged
