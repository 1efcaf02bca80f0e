"""The runtime cell: scheduler x placement x clock, resolved and validated.

A runtime *cell* is one choice on each of the three orthogonal axes the
package docstring (:mod:`repro.runtime`) describes — scheduler (how the
iteration task graphs run), placement (where the numerical kernels
run), clock (which timeline is reported) — plus the rank count, held as
a :class:`RuntimeSpec`.  The simulated timeline is authoritative for
every clock-dependent decision in **all** cells, and kernels reduce in
fixed page order in all placements, so every cell produces bit-identical
iterates, solve times, recovery decisions and campaign fingerprints —
the repo's central invariant.

A solver builds its two runtime objects straight from the resolved
spec: :func:`make_executor` (scheduler axis) and
:func:`~repro.runtime.kernels.make_kernel_engine` (placement axis).
The command-line spelling of the axes lives here too
(:func:`add_runtime_arguments` / :func:`runtime_axes`), so every CLI
declares and reads them the same way.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime.backend import ExecutionBackend, SimulatedBackend
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL

#: Values of the scheduler axis.
SCHEDULER_NAMES = ("list", "threaded")
#: Values of the placement axis.
PLACEMENT_NAMES = ("local", "ranks")
#: Values of the clock axis.
CLOCK_NAMES = ("simulated", "wall")


@dataclass(frozen=True)
class RuntimeSpec:
    """One resolved (scheduler x placement x clock) cell."""

    scheduler: str = "list"
    placement: str = "local"
    clock: str = "simulated"
    ranks: int = 1

    def __post_init__(self):
        for axis, names in (("scheduler", SCHEDULER_NAMES),
                            ("placement", PLACEMENT_NAMES),
                            ("clock", CLOCK_NAMES)):
            if getattr(self, axis) not in names:
                raise ValueError(
                    f"unknown {axis} {getattr(self, axis)!r}; the {axis} "
                    f"axis takes {' or '.join(names)}")
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.placement == "local" and self.ranks > 1:
            raise ValueError(
                f"placement='local' is a single address space and cannot "
                f"host ranks={self.ranks}; use placement='ranks' or drop "
                f"the ranks axis")

    # ------------------------------------------------------------------
    @property
    def measures_wall(self) -> bool:
        """True when measured wall intervals are reported to the caller."""
        return self.clock == "wall"

    @property
    def runs_reenactment(self) -> bool:
        """True when the solver re-enacts each iteration graph for real
        (either on real threads, to exercise real concurrency, or to
        measure wall time)."""
        return self.scheduler == "threaded" or self.measures_wall


def resolve_runtime_spec(scheduler: str = "list",
                         placement: Optional[str] = None,
                         clock: str = "simulated",
                         ranks: int = 1) -> RuntimeSpec:
    """Resolve the four axis values into a validated :class:`RuntimeSpec`.

    ``placement=None`` is inferred from ``ranks`` (``ranks > 1`` implies
    ``"ranks"``); an explicit ``placement="ranks"`` with ``ranks=1`` runs
    the rank runtime with a single strip.  Invalid values and
    combinations raise a :class:`ValueError` naming the axis to fix.
    """
    ranks = int(ranks)
    if placement is None:
        placement = "ranks" if ranks > 1 else "local"
    return RuntimeSpec(scheduler=str(scheduler).strip().lower(),
                       placement=str(placement).strip().lower(),
                       clock=str(clock).strip().lower(), ranks=ranks)


def make_executor(spec: RuntimeSpec, num_workers: int,
                  cost_model: CostModel = DEFAULT_COST_MODEL,
                  max_threads: Optional[int] = None,
                  pace: float = 1.0) -> ExecutionBackend:
    """The graph executor of ``spec``'s scheduler axis.

    ``max_threads`` caps the *real* thread count of the threaded
    executor (the simulated worker count stays ``num_workers``, so the
    timeline is unaffected) and ``pace`` is its wall-clock pacing factor
    (:class:`~repro.runtime.async_exec.ThreadedBackend`); the list
    executor ignores both.
    """
    if spec.scheduler == "threaded":
        from repro.runtime.async_exec import ThreadedBackend
        return ThreadedBackend(num_workers, cost_model=cost_model,
                               max_threads=max_threads, pace=pace)
    return SimulatedBackend(num_workers, cost_model=cost_model)


# ----------------------------------------------------------------------
# command-line spelling of the axes
# ----------------------------------------------------------------------
def add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the four runtime-axis flags on ``parser``."""
    parser.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                        default="list",
                        help="runtime scheduler axis: 'list' (discrete-event "
                             "only) or 'threaded' (graphs additionally "
                             "execute on real threads; same fingerprint)")
    parser.add_argument("--placement", choices=PLACEMENT_NAMES, default=None,
                        help="runtime placement axis: 'local' (single "
                             "address space) or 'ranks' (strip-partitioned "
                             "kernels over rank workers; implied by --ranks)")
    parser.add_argument("--clock", choices=CLOCK_NAMES, default="simulated",
                        help="runtime clock axis: 'simulated' (report only "
                             "the deterministic timeline) or 'wall' (also "
                             "measure real wall intervals)")
    parser.add_argument("--ranks", type=int, default=1,
                        help="rank workers the kernels are strip-partitioned "
                             "over (real halo exchange, tree allreduces); "
                             "bit-identical results to --ranks 1")


def runtime_axes(args: argparse.Namespace) -> Dict[str, object]:
    """The parsed axis flags as keyword arguments for ``SolverConfig``
    or ``SolverKnobs``."""
    return dict(scheduler=args.scheduler, placement=args.placement,
                clock=args.clock, ranks=args.ranks)
