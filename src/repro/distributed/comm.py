"""Inter-rank communication cost model (halo exchange, allreduce)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


@dataclass(frozen=True)
class CommunicationModel:
    """Latency/bandwidth model of the cluster interconnect.

    The defaults are loosely based on MareNostrum-3 era InfiniBand FDR10
    (the machine of Section 5.5): microsecond-scale latency, a few GB/s
    of per-link bandwidth.
    """

    cost_model: CostModel = DEFAULT_COST_MODEL

    def halo_exchange(self, halo: Union[int, Sequence[int]],
                      num_neighbours: int = 0) -> float:
        """Time for one rank to exchange its halo with its neighbours.

        ``halo`` is either the per-neighbour entry counts (the honest
        form, straight from
        :meth:`~repro.distributed.partition.RankPartition.halo_sizes`) or
        a total entry count evenly split over ``num_neighbours``.

        Messages to different neighbours overlap (they use different
        links and are posted together), so the exchange costs a single
        message latency plus the *largest* per-neighbour share — not the
        mean share with one serialised latency per neighbour.
        """
        if isinstance(halo, (int, np.integer)):
            if halo < 0 or num_neighbours < 0:
                raise ValueError("halo size and neighbour count must be >= 0")
            if num_neighbours == 0 or halo == 0:
                return 0.0
            max_entries = halo / num_neighbours
        else:
            sizes = [int(s) for s in halo]
            if any(s < 0 for s in sizes):
                raise ValueError("per-neighbour halo sizes must be >= 0")
            sizes = [s for s in sizes if s > 0]
            if not sizes:
                return 0.0
            max_entries = max(sizes)
        return (self.cost_model.network_latency
                + 8.0 * max_entries / self.cost_model.network_bandwidth)

    def allreduce(self, num_ranks: int, values: int = 1) -> float:
        """Tree allreduce of ``values`` doubles across ``num_ranks`` ranks."""
        if num_ranks <= 1:
            return 0.0
        if values < 0:
            raise ValueError(f"values must be >= 0, got {values}")
        return self.cost_model.allreduce(8.0 * values, num_ranks)


def fit_communication_model(
        samples: Iterable[Tuple[float, float]],
        base: CostModel = DEFAULT_COST_MODEL) -> Tuple[CommunicationModel,
                                                       float, float]:
    """Calibrate the interconnect constants from measured exchanges.

    ``samples`` are ``(payload_bytes, seconds)`` pairs of real point-to-
    point transfers (the rank runtime's halo messages and allreduce
    hops).  A least-squares fit of ``t = latency + bytes / bandwidth``
    yields effective constants; the returned model plugs straight into
    :class:`~repro.distributed.cluster.ClusterModel`, so the analytic
    Figure 5 projection can be re-anchored on *measured* communication
    instead of the InfiniBand defaults.

    Returns ``(model, latency, bandwidth)``.  Degenerate inputs (fewer
    than two distinct payload sizes) keep the base bandwidth and fit the
    latency as the mean residual, which is still the dominant term for
    queue-based shared-memory transports.
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
    latency = max(latency, 1e-9)
    bandwidth = float(max(bandwidth, 1.0))
    model = CommunicationModel(base.scaled(network_latency=latency,
                                           network_bandwidth=bandwidth))
    return model, latency, bandwidth
