"""Error-injection scenarios used by the paper's evaluation.

Two families are needed:

* the Figure 4 sweep: normalised error frequencies {1, 2, 5, 10, 20, 50}
  per matrix and method, each repeated with different seeds;
* the Figure 3 illustration: a single error injected into a page of the
  iterate ``x`` at a fixed fraction of the ideal solve time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.config import DEFAULT_SEED
from repro.faults.injector import (ExponentialInjector, Injection,
                                   InjectionQueue, SeedLike)

#: The normalised error frequencies of Figure 4.
PAPER_ERROR_RATES: Tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


@dataclass
class ErrorScenario:
    """A reproducible description of how faults are injected in one run.

    Exactly one of ``normalized_rate`` or ``fixed_injections`` drives the
    run: a Poisson process at the given normalised rate, or a hand-picked
    list of injections (used for the single-error convergence plot and
    for targeted tests).

    ``seed`` may be a plain integer or a
    :class:`numpy.random.SeedSequence`; the campaign engine keys one
    sequence per trial on the campaign seed and the trial's content and
    threads it here, so every trial owns an independent, reproducible
    Generator no matter which executor (serial or process pool) runs it.
    """

    name: str = "fault-free"
    normalized_rate: float = 0.0
    seed: SeedLike = DEFAULT_SEED
    fixed_injections: List[Injection] = field(default_factory=list)

    def reseeded(self, seed: SeedLike, name: Optional[str] = None
                 ) -> "ErrorScenario":
        """Copy of this scenario driven by different seed material."""
        return replace(self, seed=seed, name=name or self.name)

    def queue(self, ideal_time: float, horizon: float,
              pages: Sequence[Tuple[str, int]]) -> InjectionQueue:
        """Concrete injection schedule for this scenario, as a queue that
        builds each injection only when a solve takes it."""
        if self.fixed_injections:
            return InjectionQueue(front=sorted(self.fixed_injections,
                                               key=lambda inj: inj.time))
        if self.is_fault_free:
            return InjectionQueue()
        return ExponentialInjector.from_normalized_rate(
            self.normalized_rate, ideal_time, rng=self.seed
        ).queue(horizon, pages)

    @property
    def is_fault_free(self) -> bool:
        return self.normalized_rate <= 0 and not self.fixed_injections


def single_error_scenario(vector: str, page: int, time: float,
                          name: Optional[str] = None) -> ErrorScenario:
    """The Figure 3 scenario: one DUE in ``vector`` page ``page`` at ``time``."""
    if time < 0:
        raise ValueError(f"injection time must be non-negative, got {time}")
    return ErrorScenario(
        name=name or f"single-{vector}-p{page}",
        fixed_injections=[Injection(time=time, vector=vector, page=page)])


def multi_error_scenario(injections: Sequence[Injection],
                         name: str = "multi") -> ErrorScenario:
    """A scenario with an explicit list of injections (tests, ablations)."""
    return ErrorScenario(name=name, fixed_injections=list(injections))
