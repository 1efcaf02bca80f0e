"""Calibrating the interconnect constants of the cost model.

The interconnect is priced by :class:`~repro.runtime.cost_model.CostModel`
itself (``message``, ``halo_exchange``, ``allreduce``: latency plus
bytes over bandwidth); this module fits its two constants to measured
transfers.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


def fit_communication_model(samples: Iterable[Tuple[float, float]],
                            base: CostModel = DEFAULT_COST_MODEL
                            ) -> CostModel:
    """Calibrate the interconnect constants from measured exchanges.

    ``samples`` are ``(payload_bytes, seconds)`` pairs of real point-to-
    point transfers (the rank runtime's halo messages and allreduce
    hops).  A least-squares fit of ``t = latency + bytes / bandwidth``
    yields effective constants; the returned model is ``base`` with its
    ``network_latency`` and ``network_bandwidth`` replaced, so
    ``ClusterModel(cost_model=fitted)`` re-anchors the analytic Figure 5
    projection on *measured* communication instead of the InfiniBand
    defaults.

    Degenerate inputs (fewer than two distinct payload sizes) keep the
    base bandwidth and fit the latency as the mean residual, which is
    still the dominant term for queue-based shared-memory transports.
    """
    pts = [(float(b), float(t)) for b, t in samples if t > 0]
    if not pts:
        raise ValueError("cannot calibrate from zero measured samples")
    xs = np.array([b for b, _ in pts])
    ts = np.array([t for _, t in pts])
    if np.unique(xs).size >= 2:
        design = np.column_stack([np.ones_like(xs), xs])
        (latency, inv_bw), *_ = np.linalg.lstsq(design, ts, rcond=None)
        latency = float(latency)
        bandwidth = (1.0 / inv_bw) if inv_bw > 0 else base.network_bandwidth
    else:
        bandwidth = base.network_bandwidth
        latency = float(np.mean(ts - xs / bandwidth))
    return base.scaled(network_latency=max(latency, 1e-9),
                       network_bandwidth=float(max(bandwidth, 1.0)))
