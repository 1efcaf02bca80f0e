"""Distributed-memory layer: measured rank execution + analytic scaling.

The paper's Section 5.5 runs a hybrid MPI + OmpSs CG on 64 to 1024 cores
of MareNostrum (one MPI rank per 8-core socket) solving a 27-point
stencil Poisson problem, and reports speedups for the five resilience
methods under one and two injected errors per run.

This package now covers that setup from two complementary angles:

* :mod:`repro.distributed.ranks` **really executes** the strip
  partition at small scale: one rank worker per
  :class:`~repro.distributed.partition.RankPartition` row strip, halo
  exchange of the search direction over shared-memory message queues,
  reproducibly-ordered tree allreduces for the dot products, and
  recovery dispatched to the rank owning the corrupted page — with
  every transfer wall-clock timed (``SolverConfig(ranks=N)``).
* :class:`~repro.distributed.cluster.ClusterModel` projects the same
  iteration structure analytically to the paper's 512^3 problem on up
  to 1024 cores, from iteration counts the Figure 5 driver measures
  and hands it, using a :class:`~repro.distributed.comm.CommunicationModel`
  whose interconnect constants default to InfiniBand-era values and can
  be calibrated from the measured rank-runtime exchanges
  (:func:`~repro.distributed.comm.fit_communication_model`).
"""

from repro.distributed.partition import RankPartition, StripPartition
from repro.distributed.comm import CommunicationModel, fit_communication_model
from repro.distributed.cluster import ClusterModel, ScalingResult
from repro.distributed.ranks import (RankCommStats, RankKernelEngine,
                                     RankRuntime)

__all__ = [
    "ClusterModel",
    "CommunicationModel",
    "RankCommStats",
    "RankKernelEngine",
    "RankPartition",
    "RankRuntime",
    "ScalingResult",
    "StripPartition",
    "fit_communication_model",
]
