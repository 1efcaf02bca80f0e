"""Fault (DUE) injection.

The paper injects errors "from a separate thread at times defined by an
exponential distribution parametrized by the Mean Time Between Errors
(MTBE)", normalised to the ideal convergence time of each matrix, with
pages chosen uniformly at random among the protected Krylov vectors
(Section 5.3).  This package reproduces that injector deterministically:
given a seed, an MTBE and the set of protected pages, it produces the
schedule of (time, vector, page) injections that the simulated run
replays.
"""

from repro.faults.scenarios import single_error_scenario

__all__ = ["single_error_scenario"]
