"""Global configuration constants for the reproduction.

The paper's error model operates at memory-page granularity: a DUE makes
the OS discard a whole 4 KiB page, i.e. 512 double-precision values
(Section 2.3 of the paper).  All page-blocked data structures, recovery
relations and fault injectors in this package share these constants.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Type, TypeVar

T = TypeVar("T")

#: Number of float64 values per memory page (4096 bytes / 8 bytes).
PAGE_DOUBLES: int = 512

#: Bytes per memory page.
PAGE_BYTES: int = PAGE_DOUBLES * 8

#: Default convergence threshold used throughout the paper's evaluation
#: (relative residual ||Ax - b|| / ||b||, Section 5.4).
DEFAULT_TOLERANCE: float = 1e-10

#: Default maximum iterations safeguard for solvers.
DEFAULT_MAX_ITERATIONS: int = 20_000

#: Default seed so experiments are reproducible run-to-run.
DEFAULT_SEED: int = 20150715

#: Default number of workers, matching the paper's single-socket setup
#: (Intel Xeon E5-2670, 8 cores, Section 5.1).
DEFAULT_WORKERS: int = 8

#: Names of the dynamic (protected, fault-injectable) CG vectors.
PROTECTED_CG_VECTORS = ("x", "g", "d0", "d1", "q")

#: Environment variable capping every real worker pool (campaign process
#: pools, threaded execution backend) so shared CI runners are not
#: oversubscribed.  Must be a positive integer when set.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def max_workers_override() -> Optional[int]:
    """The :data:`MAX_WORKERS_ENV` cap, or ``None`` when unset/blank."""
    raw = os.environ.get(MAX_WORKERS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_WORKERS_ENV} must be an integer, "
                         f"got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{MAX_WORKERS_ENV} must be positive, got {value}")
    return value


def resolve_worker_count(requested: Optional[int] = None) -> int:
    """Real (OS-level) worker count for pools and thread backends.

    ``requested=None`` means "all cores".  The result is always capped by
    :func:`max_workers_override` and is at least 1.  An explicit
    non-positive request is an error rather than a silent fallback.
    """
    if requested is not None and requested <= 0:
        raise ValueError(f"worker count must be positive, got {requested}")
    cores = max(1, os.cpu_count() or 1)
    count = requested if requested is not None else cores
    cap = max_workers_override()
    if cap is not None:
        count = min(count, cap)
    return max(1, count)


def derive_config(target: Type[T], source) -> T:
    """Build the ``target`` dataclass from ``source``'s same-named fields.

    ``SolverConfig`` and ``SolverKnobs`` spell a shared knob (tolerance,
    page size, the four runtime axes, ...) with one field name, so a
    knob added to both is carried across without a hand-kept field list
    to forget it in.  Fields only ``target`` has keep their defaults.
    """
    shared = ({f.name for f in dataclasses.fields(target)}
              & {f.name for f in dataclasses.fields(source)})
    return target(**{name: getattr(source, name) for name in shared})
