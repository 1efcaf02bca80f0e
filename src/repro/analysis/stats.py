"""Statistical helpers matching the paper's reporting conventions.

The paper reports *harmonic means* of overheads across matrices
(Tables 2 and Figure 4 captions) and error bars as standard deviations
across repetitions.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def harmonic_mean(values: Sequence[float]) -> float:
    """Plain harmonic mean; every value must be positive."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("harmonic mean of an empty sequence")
    if np.any(arr <= 0):
        raise ValueError("harmonic mean requires strictly positive values")
    return float(arr.size / np.sum(1.0 / arr))


def harmonic_mean_overhead(overheads_percent: Sequence[float]) -> float:
    """Harmonic mean of overhead percentages, robust to zero overheads.

    Overheads are expressed as percentages (possibly zero for methods
    with no fault-free cost, like the Lossy Restart).  A harmonic mean is
    undefined at zero, so we follow the standard convention of averaging
    the slowdown *factors* (1 + overhead/100) harmonically and converting
    back — which reproduces the paper's 0.00% entries exactly.
    """
    arr = np.asarray(list(overheads_percent), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of an empty sequence")
    factors = 1.0 + arr / 100.0
    if np.any(factors <= 0):
        raise ValueError("slowdown factors must be positive")
    hm = harmonic_mean(factors)
    return 100.0 * (hm - 1.0)


def mean_and_std(values: Sequence[float]) -> Tuple[float, float]:
    """Arithmetic mean and standard deviation (ddof=0)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of an empty sequence")
    return float(arr.mean()), float(arr.std())
