"""Declarative description of a fault-injection campaign.

A campaign is the paper's evaluation unit: a grid of

    matrix family x solver method x recovery strategy x fault scenario
    x error-rate x repetition

whose cells are *independent* solver trials (Figs. 4-5 are thousands of
them).  :class:`CampaignSpec` describes the grid declaratively;
:meth:`CampaignSpec.expand` turns it into a flat list of picklable
:class:`TrialSpec` objects, each carrying everything a worker process
needs to rebuild its problem and run its solve — including a private
:class:`numpy.random.SeedSequence` keyed on the campaign seed and on what
the trial is, so results do not depend on which executor (serial,
process pool) runs the trials or in which order they complete.
:meth:`CampaignSpec.trial_keys` enumerates the same grid as bare
``(index, store key)`` pairs, which is all a cached trial needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.config import DEFAULT_SEED
from repro.faults.scenarios import ErrorScenario
from repro.runtime.runtime import add_runtime_arguments, runtime_axes
from repro.solvers.cg_types import SolverConfig

#: Matrix families the campaign engine can build by name.  ``suite:*``
#: entries come from :data:`repro.matrices.suite.PAPER_MATRICES`;
#: ``laplacian1d`` (shifted by 1e-3), ``laplacian2d`` and its alias
#: ``poisson2d`` from :mod:`repro.matrices.laplacian`; ``poisson3d27``
#: is the 27-point stencil.
MATRIX_FAMILIES = ("suite", "laplacian1d", "laplacian2d", "poisson2d",
                   "poisson3d27")

#: The parameters each parametric family's ``build`` reads, the required
#: one first.
_FAMILY_PARAMS = {"laplacian1d": ("n",), "laplacian2d": ("nx", "ny"),
                  "poisson2d": ("nx", "ny"), "poisson3d27": ("nx",)}


# ----------------------------------------------------------------------
# content keys
# ----------------------------------------------------------------------
# Every spec object exposes a ``content_token()`` — a canonical string
# over exactly the fields that determine a trial's numerical outcome —
# and hashing that token gives the content address under which
# :class:`repro.campaign.store.CampaignStore` caches artifacts.  Tokens
# use ``repr`` for floats (shortest exact round-trip), so two specs have
# equal tokens iff they are numerically the same spec.
#
# The specs are frozen, so a token (and a trial's key) is computed once
# per object and kept on it (:func:`_once`): ``dataclasses.replace``
# builds a new object with no memo, and a pickle carries the memo to a
# pool child.  A trial's key is therefore fixed when the trial is built.
# The one mutable part of a spec is an ``ErrorScenario`` override: do
# not mutate one once it is in a ``CampaignSpec``, or the stored keys
# (and, as ever, the trial seeds) no longer describe what runs.

def _once(method):
    """Memoise the zero-argument ``method`` of a frozen spec in the
    instance's ``__dict__`` (under ``_<name>``; not a dataclass field)."""
    slot = f"_{method.__name__}"

    @functools.wraps(method)
    def once(self):
        value = self.__dict__.get(slot)
        if value is None:
            value = self.__dict__[slot] = method(self)
        return value
    return once


def content_hash(token: str) -> str:
    """SHA-256 content address of a canonical spec token."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def _scenario_token(scenario: Optional[ErrorScenario]) -> str:
    """Canonical token of a scenario override (``name`` is cosmetic and
    the seed is threaded per trial, so neither participates)."""
    if scenario is None:
        return "none"
    fixed = ";".join(f"{inj.time!r}@{inj.vector}[{inj.page}]"
                     for inj in scenario.fixed_injections)
    return f"rate={float(scenario.normalized_rate)!r}/fixed=[{fixed}]"


def _cell_token(matrix: MatrixSpec, method: Optional[str], rate: float,
                scenario: Optional[ErrorScenario]) -> str:
    """Canonical token of one campaign cell: what a trial is, short of
    its repetition, seed and knobs."""
    return (f"{matrix.content_token()}|method={method}|"
            f"rate={float(rate)!r}|scenario={_scenario_token(scenario)}")


def _trial_token(cell: str, repetition: int, entropy, spawn_key,
                 knobs: "SolverKnobs") -> str:
    """Canonical token of one trial, the one definition of its address:
    its cell, its repetition, the material of its
    :class:`~numpy.random.SeedSequence` (``entropy`` and ``spawn_key``)
    and every solver knob."""
    if isinstance(entropy, (list, tuple)):
        entropy = ",".join([str(int(e)) for e in entropy])
    return (f"trial/v1|{cell}|rep={repetition}|"
            f"seed={entropy}/{tuple(spawn_key)}|{knobs.content_token()}")


@dataclass(frozen=True)
class MatrixSpec:
    """One matrix family instance, rebuildable inside any worker process.

    ``family='suite'`` interprets ``name`` as a
    :data:`~repro.matrices.suite.PAPER_MATRICES` key; the parametric
    families use ``params`` (e.g. ``{'nx': 45, 'ny': 45}``).  With
    ``sparse=True`` the matrix is materialised as a SciPy-free
    :class:`~repro.matrices.sparse.SparseOperator`, the fast path that
    makes n >= 10^4 trials affordable.  ``rhs_seed`` seeds the random
    unit solution behind the right-hand side; ``None`` is the seedless
    ``b = A·1`` (the Figure 5 calibration's).
    """

    family: str = "suite"
    name: str = ""
    params: Tuple[Tuple[str, int], ...] = ()
    sparse: bool = False
    rhs_seed: Optional[int] = DEFAULT_SEED

    def __post_init__(self):
        if self.family not in MATRIX_FAMILIES:
            raise ValueError(f"unknown matrix family {self.family!r}; "
                             f"known families: {', '.join(MATRIX_FAMILIES)}")
        if self.family == "suite":
            from repro.matrices.suite import PAPER_MATRICES
            if self.name not in PAPER_MATRICES:
                raise ValueError(
                    f"unknown suite matrix {self.name!r}; available: "
                    f"{', '.join(sorted(PAPER_MATRICES))} (or a parametric "
                    f"family like laplacian2d:45)")
            return
        params = dict(self.params)
        allowed = _FAMILY_PARAMS[self.family]
        if allowed[0] not in params:
            raise ValueError(f"matrix family {self.family!r} needs the "
                             f"parameter {allowed[0]!r}, got {params}")
        for key, value in params.items():
            if key not in allowed:
                raise ValueError(f"matrix family {self.family!r} takes no "
                                 f"parameter {key!r}; it takes "
                                 f"{', '.join(allowed)}")
            if value <= 0:
                raise ValueError(f"matrix parameter {key}={value} of "
                                 f"{self.family!r} must be positive")

    @property
    def label(self) -> str:
        if self.family == "suite":
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"

    @_once
    def content_token(self) -> str:
        """Canonical token over everything :meth:`build` depends on."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return (f"matrix/{self.family}/{self.name}/[{params}]/"
                f"sparse={int(self.sparse)}/rhs_seed={self.rhs_seed}")

    @classmethod
    def suite(cls, name: str, sparse: bool = False,
              rhs_seed: Optional[int] = DEFAULT_SEED) -> "MatrixSpec":
        return cls(family="suite", name=name, sparse=sparse,
                   rhs_seed=rhs_seed)

    @classmethod
    def parametric(cls, family: str, sparse: bool = True,
                   rhs_seed: Optional[int] = DEFAULT_SEED,
                   **params: int) -> "MatrixSpec":
        return cls(family=family, name="",
                   params=tuple(sorted(params.items())), sparse=sparse,
                   rhs_seed=rhs_seed)

    @classmethod
    def parse(cls, text: str, sparse: bool = True) -> "MatrixSpec":
        """Parse CLI shorthand: ``qa8fm``, ``laplacian2d:45`` or
        ``laplacian2d:45x52``."""
        if ":" not in text:
            return cls.suite(text, sparse=sparse)
        family, _, args = text.partition(":")
        try:
            dims = [int(d) for d in args.lower().split("x") if d]
        except ValueError:
            raise ValueError(f"matrix spec {text!r}: dimensions after ':' "
                             f"must be integers (e.g. laplacian2d:45 or "
                             f"laplacian2d:64x32)") from None
        if not dims:
            raise ValueError(f"matrix spec {text!r} has no dimensions")
        if family not in _FAMILY_PARAMS:
            raise ValueError(f"unknown matrix family {family!r}")
        takes = len(_FAMILY_PARAMS[family])
        if len(dims) > takes:
            plural = "s" if takes > 1 else ""
            raise ValueError(f"matrix spec {text!r}: family {family!r} "
                             f"takes at most {takes} dimension{plural}, "
                             f"got {len(dims)}")
        if family == "laplacian1d":
            return cls.parametric("laplacian1d", sparse=sparse, n=dims[0])
        if family in ("laplacian2d", "poisson2d"):
            nx = dims[0]
            ny = dims[1] if len(dims) > 1 else dims[0]
            return cls.parametric(family, sparse=sparse, nx=nx, ny=ny)
        return cls.parametric("poisson3d27", sparse=sparse, nx=dims[0])

    def build(self):
        """Materialise ``(A, b)`` for this spec (runs inside workers):
        every family as SciPy CSR, converted once under ``sparse``."""
        from repro.matrices import stencil
        from repro.matrices.laplacian import laplacian_1d, laplacian_2d
        from repro.matrices.sparse import SparseOperator
        params = dict(self.params)
        if self.family == "suite":
            from repro.matrices.suite import PAPER_MATRICES
            A = PAPER_MATRICES[self.name].build()
        elif self.family == "laplacian1d":
            A = laplacian_1d(params["n"], shift=1e-3)
        elif self.family == "poisson3d27":
            A = stencil.poisson_3d_27pt(params["nx"])
        else:  # laplacian2d, poisson2d
            A = laplacian_2d(params["nx"], params.get("ny"))
        if self.sparse:
            A = SparseOperator.from_scipy(A)
        if self.rhs_seed is None:
            return A, stencil.stencil_rhs(A)
        return A, stencil.stencil_rhs(A, kind="random", seed=self.rhs_seed)


@dataclass(frozen=True)
class SolverKnobs(SolverConfig):
    """The :class:`~repro.solvers.cg_types.SolverConfig` shared by every
    trial of a campaign, plus the two knobs that pick the trial's
    preconditioner and checkpoint interval.  ``page_size`` and
    ``record_history`` default differently from a standalone solver's:
    those defaults are part of every store address already written."""

    page_size: int = 128
    record_history: bool = False
    preconditioned: bool = False
    checkpoint_interval: Optional[int] = None

    @_once
    def content_token(self) -> str:
        """Canonical token over every knob.

        Conservative by design: knobs that are *proven* not to change
        results (the runtime cell — the bit-identical invariant) still
        participate, so the store can never paper over a broken
        invariant by serving a trial cached under another cell.  The
        runtime portion is a *token format* fixed when the store was
        introduced, not an input: the (list, simulated) cell is written
        ``backend=simulated``, (threaded, wall) ``backend=threaded``,
        any other pair ``backend=<scheduler>+<clock>``, and only
        ``placement='ranks'`` with ``ranks=1`` adds a ``placement=``
        token — so every store address ever written stays valid.
        """
        cost = ",".join(
            f"{f.name}={getattr(self.cost_model, f.name)!r}"
            for f in dataclasses.fields(self.cost_model))
        spec = self.runtime_spec()
        cell_token = {("list", "simulated"): "simulated",
                      ("threaded", "wall"): "threaded"}.get(
            (spec.scheduler, spec.clock), f"{spec.scheduler}+{spec.clock}")
        placement_token = ("placement=ranks/"
                           if (spec.placement == "ranks" and spec.ranks == 1)
                           else "")
        return (f"knobs/tol={self.tolerance!r}/maxit={self.max_iterations}/"
                f"workers={self.num_workers}/page={self.page_size}/"
                f"scale={self.work_scale!r}/"
                f"precond={int(self.preconditioned)}/"
                f"ckpt={self.checkpoint_interval}/"
                f"history={int(self.record_history)}/"
                f"backend={cell_token}/pace={self.pace!r}/"
                f"{placement_token}"
                f"ranks={spec.ranks}/cost[{cost}]")


@dataclass(frozen=True)
class TrialSpec:
    """One independent solver run of the campaign grid (picklable)."""

    index: int
    matrix: MatrixSpec
    #: ``None`` is the fault-free ideal run (no strategy, no scenario).
    method: Optional[str]
    rate: float
    repetition: int
    seed: np.random.SeedSequence
    knobs: SolverKnobs = SolverKnobs()
    #: Overrides the rate-based Poisson scenario when set (targeted
    #: injection grids; the per-trial seed is threaded in regardless).
    scenario: Optional[ErrorScenario] = None

    def __str__(self) -> str:
        return (f"trial {self.index} ({self.matrix.label} {self.method} "
                f"rate={self.rate:g} rep={self.repetition})")

    @_once
    def cell_token(self) -> str:
        """Canonical token of the trial's campaign cell (no seed/knobs)."""
        return _cell_token(self.matrix, self.method, self.rate,
                           self.scenario)

    def content_token(self) -> str:
        """Canonical token over everything that determines this trial's
        :class:`~repro.campaign.results.TrialResult` — the cell, the
        repetition, the seed material and every solver knob.  The trial
        ``index`` is deliberately absent: it is an enumeration position,
        not an input to the numerics, so a trial keeps its content
        address when the surrounding grid grows."""
        return _trial_token(self.cell_token(), self.repetition,
                            self.seed.entropy, self.seed.spawn_key,
                            self.knobs)

    @_once
    def store_key(self) -> str:
        """Content address of this trial's result in the campaign store."""
        return content_hash(self.content_token())

    def make_scenario(self) -> ErrorScenario:
        """The concrete, per-trial-seeded scenario this trial runs."""
        if self.scenario is not None:
            return self.scenario.reseeded(self.seed)
        if self.rate <= 0:
            return ErrorScenario(name="fault-free", normalized_rate=0.0,
                                 seed=self.seed)
        return ErrorScenario(
            name=f"{self.matrix.label}-rate{self.rate:g}-rep{self.repetition}",
            normalized_rate=float(self.rate), seed=self.seed)


def _distinct(axis: str, values, identity, show) -> None:
    """Refuse a grid axis that lists one value twice, values being the
    same when ``identity`` maps them to equal keys (``show`` names one)."""
    seen = set()
    for value in values:
        same = identity(value)
        if same in seen:
            raise ValueError(f"the campaign {axis} list {show(value)} more "
                             f"than once; every value of a grid axis must "
                             f"be distinct")
        seen.add(same)


@dataclass
class CampaignSpec:
    """The declarative campaign grid.

    ``expand()`` enumerates matrices (outer) x rates x methods x
    repetitions (inner) in a deterministic order and gives each trial
    its own :class:`~numpy.random.SeedSequence`, keyed on ``seed`` and
    on what the trial is (:meth:`trial_seed`); :meth:`trial_keys`
    enumerates the same order as ``(index, store key)`` pairs without
    building a trial.  Every value of an axis must be distinct and the
    seed a non-negative integer; ``__post_init__`` refuses anything else.
    """

    matrices: Sequence[Union[MatrixSpec, str]] = ()
    methods: Sequence[str] = ("FEIR",)
    rates: Sequence[float] = (1.0,)
    repetitions: int = 1
    seed: int = DEFAULT_SEED
    knobs: SolverKnobs = field(default_factory=SolverKnobs)
    scenario: Optional[ErrorScenario] = None
    name: str = "campaign"

    def __post_init__(self):
        if self.repetitions <= 0:
            raise ValueError(f"repetitions must be positive, "
                             f"got {self.repetitions}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or self.seed < 0):
            raise ValueError(f"the campaign seed must be a non-negative "
                             f"integer, got {self.seed!r}")
        self.matrices = tuple(
            m if isinstance(m, MatrixSpec) else MatrixSpec.parse(m)
            for m in self.matrices)
        if not self.matrices:
            raise ValueError("a campaign needs at least one matrix")
        if not self.methods:
            raise ValueError("a campaign needs at least one method")
        from repro.core.manager import make_strategy
        for method in self.methods:
            make_strategy(method)  # raises on a name no trial could run
        for rate in map(float, self.rates):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"error rates must be finite and "
                                 f"non-negative, got {rate!r}")
        # A repeated value would run each of its trials twice, under one
        # seed, and count both copies as repetitions of its cell.
        _distinct("matrices", self.matrices, MatrixSpec.content_token,
                  lambda m: m.label)
        _distinct("methods", self.methods, str, str)
        _distinct("rates", self.rates, float, lambda r: f"{float(r):g}")

    @property
    def num_trials(self) -> int:
        return (len(self.matrices) * len(self.methods) * len(self.rates)
                * self.repetitions)

    def _entropy(self, cell: str, repetition: int) -> List[int]:
        """``[campaign seed, sha256(cell token + repetition) words]``:
        the entropy of :meth:`trial_seed`, and a trial key's seed part."""
        token = f"{cell}|rep={repetition}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return [self.seed, *struct.unpack_from(">4I", digest)]

    def trial_seed(self, cell: str,
                   repetition: int) -> np.random.SeedSequence:
        """The per-trial seed material of repetition ``repetition`` of the
        cell whose token (:meth:`TrialSpec.cell_token`) is ``cell``.

        The entropy is ``[campaign seed, sha256(cell token + repetition)
        words]`` rather than a spawn-by-flat-index child, so a trial's
        seed — and therefore its result and its store key — depends only
        on the campaign seed and what the trial *is*, never on where it
        sits in the expansion.  Adding a rate or a matrix to a sweep
        leaves every pre-existing trial's seed untouched, which is what
        makes warm-store campaigns incremental under grid growth.
        """
        return np.random.SeedSequence(self._entropy(cell, repetition))

    def _grid(self) -> Iterator[Tuple[int, MatrixSpec, float, str, str,
                                      int]]:
        """Every trial's ``(index, matrix, rate, method, cell token,
        repetition)`` in expansion order; each cell's token is built once
        and shared by its repetitions."""
        index = 0
        for matrix in self.matrices:
            for rate in map(float, self.rates):
                for method in self.methods:
                    cell = _cell_token(matrix, method, rate, self.scenario)
                    for rep in range(self.repetitions):
                        yield index, matrix, rate, method, cell, rep
                        index += 1

    def _trial(self, index: int, matrix: MatrixSpec, rate: float,
               method: str, cell: str, rep: int) -> TrialSpec:
        trial = TrialSpec(index=index, matrix=matrix, method=method,
                          rate=rate, repetition=rep,
                          seed=self.trial_seed(cell, rep),
                          knobs=self.knobs, scenario=self.scenario)
        trial.__dict__["_cell_token"] = cell  # cell_token() memo
        return trial

    def expand(self) -> List[TrialSpec]:
        """The flat, deterministic trial list with content-keyed seeds."""
        return [self._trial(*at) for at in self._grid()]

    def trial_keys(self, shard: Optional[Tuple[int, int]] = None
                   ) -> List[Tuple[int, str]]:
        """``(index, store key)`` of every trial of the grid (of shard
        ``(i, N)``'s under ``shard``) in expansion order: what
        ``[(t.index, t.store_key()) for t in expand()]`` lists, from the
        entropy words alone — no :class:`TrialSpec`, no
        :class:`~numpy.random.SeedSequence`."""
        if shard is not None:
            shard = _check_shard(*shard)
        keys: List[Tuple[int, str]] = []
        for index, _, _, _, cell, rep in self._grid():
            if shard is None or _in_shard(index, *shard):
                token = _trial_token(cell, rep, self._entropy(cell, rep),
                                     (), self.knobs)
                keys.append((index, content_hash(token)))
        return keys

    def trials_at(self, keys: Dict[int, str]) -> List[TrialSpec]:
        """The trials whose indices ``keys`` maps to their store keys, in
        expansion order, each with that key preset as its
        :meth:`TrialSpec.store_key` (so it is never hashed again)."""
        trials: List[TrialSpec] = []
        for at in self._grid():
            key = keys.get(at[0])
            if key is not None:
                trial = self._trial(*at)
                trial.__dict__["_store_key"] = key  # store_key() memo
                trials.append(trial)
        return trials

    def content_token(self) -> str:
        """Canonical token of the whole campaign grid (``name`` is
        cosmetic and absent, so renaming a campaign keeps its identity)."""
        mats = ";".join(m.content_token() for m in self.matrices)
        rates = ",".join(repr(float(r)) for r in self.rates)
        return (f"campaign/v1|seed={self.seed}|matrices=[{mats}]|"
                f"methods=[{','.join(self.methods)}]|rates=[{rates}]|"
                f"reps={self.repetitions}|"
                f"scenario={_scenario_token(self.scenario)}|"
                f"{self.knobs.content_token()}")

    def store_key(self) -> str:
        """Content address identifying this campaign (journal, shards)."""
        return content_hash(self.content_token())

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (logging, CLI)."""
        return {
            "name": self.name,
            "matrices": [m.label for m in self.matrices],
            "methods": list(self.methods),
            "rates": [float(r) for r in self.rates],
            "repetitions": self.repetitions,
            "seed": self.seed,
            "trials": self.num_trials,
        }


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def parse_shard(text: str) -> Tuple[int, int]:
    """Parse the CLI ``--shard i/N`` syntax into ``(index, count)``."""
    part, sep, total = text.partition("/")
    if not sep:
        raise ValueError(f"shard spec {text!r} must look like i/N "
                         f"(e.g. 0/4)")
    try:
        index, count = int(part), int(total)
    except ValueError:
        raise ValueError(f"shard spec {text!r}: both halves of i/N must "
                         f"be integers") from None
    if count <= 0:
        raise ValueError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for "
                         f"{count} shards (valid: 0..{count - 1})")
    return index, count


def _check_shard(index: int, count: int) -> Tuple[int, int]:
    """``(index, count)`` as integers, refused unless a shard exists."""
    index, count = int(index), int(count)
    if count <= 0:
        raise ValueError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for "
                         f"{count} shards")
    return index, count


def _in_shard(trial_index: int, index: int, count: int) -> bool:
    """Whether trial ``trial_index`` belongs to shard ``index`` of
    ``count``: the one sharding rule, round-robin over the trial index.

    Round-robin gives every shard a balanced mix of cells (contiguous
    strips would give one shard all the expensive high-rate trials).
    The selection depends only on the expansion order, which is
    deterministic, so N shard runs partition the campaign exactly;
    merging their partial results reproduces the unsharded fingerprint
    byte-for-byte.
    """
    return trial_index % count == index



# ----------------------------------------------------------------------
# command-line spelling of the grid
# ----------------------------------------------------------------------
def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the campaign-grid flags (and the four runtime-axis flags)
    on ``parser``: what ``repro.campaign run`` executes is what
    ``repro.service submit`` submits."""
    parser.add_argument("--matrix", nargs="+", default=["laplacian2d:45"],
                        help="matrix specs: suite names (qa8fm) or "
                             "parametric families (laplacian2d:45, "
                             "laplacian2d:64x32, poisson3d27:12)")
    parser.add_argument("--methods", nargs="+", default=["FEIR"],
                        help="recovery methods (FEIR AFEIR Lossy ckpt "
                             "Trivial)")
    parser.add_argument("--rates", nargs="+", type=float, default=[1.0],
                        help="normalised error rates")
    parser.add_argument("--trials", type=int, default=1,
                        help="repetitions per (matrix, method, rate) cell")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="campaign master seed (a non-negative "
                             "integer)")
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--max-iterations", type=int, default=20000)
    parser.add_argument("--page-size", type=int, default=128)
    parser.add_argument("--preconditioned", action="store_true")
    add_runtime_arguments(parser)


def spec_from_args(args: argparse.Namespace, name: str) -> CampaignSpec:
    """The :class:`CampaignSpec` the parsed grid flags describe."""
    return CampaignSpec(
        matrices=list(args.matrix), methods=list(args.methods),
        rates=list(args.rates), repetitions=args.trials, seed=args.seed,
        knobs=SolverKnobs(tolerance=args.tolerance,
                          max_iterations=args.max_iterations,
                          page_size=args.page_size,
                          preconditioned=args.preconditioned,
                          **runtime_axes(args)),
        name=name)
