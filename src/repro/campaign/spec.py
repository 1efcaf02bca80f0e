"""Declarative description of a fault-injection campaign.

A campaign is the paper's evaluation unit: a grid of

    matrix family x solver method x recovery strategy x fault scenario
    x error-rate x repetition

whose cells are *independent* solver trials (Figs. 4-5 are thousands of
them).  :class:`CampaignSpec` describes the grid declaratively;
:meth:`CampaignSpec.expand` turns it into a flat list of picklable
:class:`TrialSpec` objects, each carrying everything a worker process
needs to rebuild its problem and run its solve — including a private
:class:`numpy.random.SeedSequence` spawned from the campaign seed, so
results do not depend on which executor (serial, process pool) runs the
trials or in which order they complete.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import (DEFAULT_MAX_ITERATIONS, DEFAULT_SEED,
                          DEFAULT_TOLERANCE, DEFAULT_WORKERS)
from repro.faults.scenarios import ErrorScenario
from repro.runtime.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.runtime.runtime import (RuntimeSpec, add_runtime_arguments,
                                   resolve_runtime_spec, runtime_axes)

def _operator_to_scipy(A):
    """SciPy CSR view of a SparseOperator (``sparse=False`` on a family
    that builds SciPy-free by default)."""
    import scipy.sparse as sp
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


#: Matrix families the campaign engine can build by name.  ``suite:*``
#: entries come from :data:`repro.matrices.suite.PAPER_MATRICES`;
#: ``laplacian1d``/``laplacian2d`` are built SciPy-free directly as
#: :class:`~repro.matrices.sparse.SparseOperator` CSR;
#: ``poisson2d``/``poisson3d27`` use the stencil generators.
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


def _seed_token(seed: np.random.SeedSequence) -> str:
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = ",".join(str(int(e)) for e in entropy)
    return f"{entropy}/{tuple(seed.spawn_key)}"


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
        if family == "laplacian1d":
            return cls.parametric("laplacian1d", sparse=sparse, n=dims[0])
        if family in ("laplacian2d", "poisson2d"):
            nx = dims[0]
            ny = dims[1] if len(dims) > 1 else dims[0]
            return cls.parametric(family, sparse=sparse, nx=nx, ny=ny)
        if family == "poisson3d27":
            return cls.parametric("poisson3d27", sparse=sparse, nx=dims[0])
        raise ValueError(f"unknown matrix family {family!r}")

    def build(self):
        """Materialise ``(A, b)`` for this spec (runs inside workers)."""
        from repro.matrices.sparse import (SparseOperator,
                                           laplacian_1d_operator,
                                           laplacian_2d_operator)
        from repro.matrices.stencil import stencil_rhs
        params = dict(self.params)
        if self.family == "suite":
            from repro.matrices.suite import PAPER_MATRICES
            A = PAPER_MATRICES[self.name].build()
            if self.sparse:
                A = SparseOperator.from_scipy(A)
        elif self.family == "laplacian1d":
            A = laplacian_1d_operator(params["n"], shift=1e-3)
            if not self.sparse:
                A = _operator_to_scipy(A)
        elif self.family == "laplacian2d":
            A = laplacian_2d_operator(params["nx"], params.get("ny"))
            if not self.sparse:
                A = _operator_to_scipy(A)
        elif self.family == "poisson2d":
            from repro.matrices.stencil import poisson_2d_5pt
            A = poisson_2d_5pt(params["nx"], params.get("ny"))
            if self.sparse:
                A = SparseOperator.from_scipy(A)
        elif self.family == "poisson3d27":
            from repro.matrices.stencil import poisson_3d_27pt
            A = poisson_3d_27pt(params["nx"])
            if self.sparse:
                A = SparseOperator.from_scipy(A)
        else:  # pragma: no cover - guarded by __post_init__
            raise ValueError(f"unknown matrix family {self.family!r}")
        if self.rhs_seed is None:
            return A, stencil_rhs(A)
        return A, stencil_rhs(A, kind="random", seed=self.rhs_seed)


@dataclass(frozen=True)
class SolverKnobs:
    """Solver configuration shared by every trial of a campaign."""

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    num_workers: int = DEFAULT_WORKERS
    page_size: int = 128
    work_scale: float = 200.0
    preconditioned: bool = False
    checkpoint_interval: Optional[int] = None
    record_history: bool = False
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Wall-clock pacing of the threaded scheduler (see ``SolverConfig``).
    pace: float = 1.0
    #: The runtime cell of every trial (see ``SolverConfig``).  The
    #: simulated timeline — and hence every aggregate and the campaign
    #: fingerprint — is bit-identical in every cell.
    scheduler: str = "list"
    placement: Optional[str] = None
    clock: str = "simulated"
    ranks: int = 1

    def __post_init__(self):
        self.runtime_spec()  # validates the axis composition loudly

    def runtime_spec(self) -> RuntimeSpec:
        """The resolved (scheduler x placement x clock) cell of every trial."""
        return resolve_runtime_spec(scheduler=self.scheduler,
                                    placement=self.placement,
                                    clock=self.clock, ranks=self.ranks)

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

    def cell_token(self) -> str:
        """Canonical token of the trial's campaign cell (no seed/knobs)."""
        return (f"{self.matrix.content_token()}|method={self.method}|"
                f"rate={float(self.rate)!r}|"
                f"scenario={_scenario_token(self.scenario)}")

    def content_token(self) -> str:
        """Canonical token over everything that determines this trial's
        :class:`~repro.campaign.results.TrialResult` — the cell, the
        repetition, the seed material and every solver knob.  The trial
        ``index`` is deliberately absent: it is an enumeration position,
        not an input to the numerics, so a trial keeps its content
        address when the surrounding grid grows."""
        return (f"trial/v1|{self.cell_token()}|rep={self.repetition}|"
                f"seed={_seed_token(self.seed)}|{self.knobs.content_token()}")

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


@dataclass
class CampaignSpec:
    """The declarative campaign grid.

    ``expand()`` enumerates matrices (outer) x rates x methods x
    repetitions (inner) in a deterministic order and spawns one
    independent child :class:`~numpy.random.SeedSequence` per trial from
    ``seed``.
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

    @property
    def num_trials(self) -> int:
        return (len(self.matrices) * len(self.methods) * len(self.rates)
                * self.repetitions)

    def trial_seed(self, matrix: MatrixSpec, method: str, rate: float,
                   repetition: int) -> np.random.SeedSequence:
        """The per-trial seed material, keyed on cell *content*.

        The entropy is ``[campaign seed, sha256(cell token + repetition)
        words]`` rather than a spawn-by-flat-index child, so a trial's
        seed — and therefore its result and its store key — depends only
        on the campaign seed and what the trial *is*, never on where it
        sits in the expansion.  Adding a rate or a matrix to a sweep
        leaves every pre-existing trial's seed untouched, which is what
        makes warm-store campaigns incremental under grid growth.
        """
        token = (f"{matrix.content_token()}|method={method}|"
                 f"rate={float(rate)!r}|"
                 f"scenario={_scenario_token(self.scenario)}|"
                 f"rep={repetition}")
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i:i + 4], "big")
                 for i in range(0, 16, 4)]
        return np.random.SeedSequence([self.seed, *words])

    def expand(self) -> List[TrialSpec]:
        """The flat, deterministic trial list with content-keyed seeds."""
        trials: List[TrialSpec] = []
        index = 0
        for matrix in self.matrices:
            for rate in self.rates:
                for method in self.methods:
                    for rep in range(self.repetitions):
                        trials.append(TrialSpec(
                            index=index, matrix=matrix, method=method,
                            rate=float(rate), repetition=rep,
                            seed=self.trial_seed(matrix, method, rate, rep),
                            knobs=self.knobs, scenario=self.scenario))
                        index += 1
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


def shard_trials(trials: Sequence[TrialSpec], index: int,
                 count: int) -> List[TrialSpec]:
    """Shard ``index`` of ``count`` of an expanded trial list.

    Round-robin over the trial index, so every shard sees a balanced
    mix of cells (contiguous strips would give one shard all the
    expensive high-rate trials).  The selection depends only on the
    expansion order, which is deterministic, so N shard runs partition
    the campaign exactly; merging their partial results reproduces the
    unsharded fingerprint byte-for-byte.
    """
    index, count = int(index), int(count)
    if count <= 0:
        raise ValueError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for "
                         f"{count} shards")
    return [t for t in trials if t.index % count == index]


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
                        help="campaign master seed")
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
