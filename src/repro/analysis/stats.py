"""Statistical helpers matching the paper's reporting conventions.

The paper reports *harmonic means* of overheads across matrices
(Tables 2 and Figure 4 captions) and error bars as standard deviations
across repetitions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def harmonic_mean(values: np.ndarray) -> float:
    """Plain harmonic mean of one float64 array (any sequence is
    converted once); every value must be positive.

    ``size / np.sum(1.0 / values)``, ufunc for ufunc — ``true_divide``,
    ``add.reduce``, ``true_divide`` — without ``np.sum``'s dispatch, so
    the bits are the same.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("harmonic mean of an empty sequence")
    if (arr <= 0).any():
        raise ValueError("harmonic mean requires strictly positive values")
    return float(np.true_divide(arr.size,
                                np.add.reduce(np.true_divide(1.0, arr))))


def harmonic_mean_overhead(overheads_percent: np.ndarray) -> float:
    """Harmonic mean of overhead percentages, robust to zero overheads.

    Overheads are expressed as percentages (possibly zero for methods
    with no fault-free cost, like the Lossy Restart).  A harmonic mean is
    undefined at zero, so we follow the standard convention of averaging
    the slowdown *factors* (1 + overhead/100) harmonically and converting
    back — which reproduces the paper's 0.00% entries exactly.  Takes one
    float64 array (any sequence is converted once).
    """
    arr = np.asarray(overheads_percent, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of an empty sequence")
    factors = 1.0 + arr / 100.0
    if (factors <= 0).any():
        raise ValueError("slowdown factors must be positive")
    hm = harmonic_mean(factors)
    return 100.0 * (hm - 1.0)


def mean_and_std(values: np.ndarray) -> Tuple[float, float]:
    """Arithmetic mean and standard deviation (ddof=0) of one float64
    array (any sequence is converted once).

    The reductions are the ones ``ndarray.mean`` and ``ndarray.std``
    make, in their order — ``add.reduce``, ``true_divide``, then
    ``subtract``, ``square``, ``add.reduce``, ``true_divide`` and
    ``sqrt`` — without their dispatch, so both bits are theirs.
    """
    arr = np.asarray(values, dtype=np.float64)
    size = arr.size
    if size == 0:
        raise ValueError("mean of an empty sequence")
    mean = np.true_divide(np.add.reduce(arr), size)
    deviations = np.subtract(arr, mean)
    np.square(deviations, out=deviations)
    std = np.sqrt(np.true_divide(np.add.reduce(deviations), size))
    return float(mean), float(std)
