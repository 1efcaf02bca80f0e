"""Task-based data-flow runtime (OmpSs stand-in).

The paper parallelises CG by strip-mining each vector operation into
tasks and letting the OmpSs runtime schedule them according to data-flow
dependencies (Figure 1).  The central claims — that recovery tasks can
be placed either in the critical path (FEIR) or overlapped with the
reduction tasks (AFEIR, Figure 2) and that this changes load imbalance
and overhead — are claims about *task scheduling*.

The runtime is one composition of three orthogonal axes, resolved into
a :class:`~repro.runtime.runtime.RuntimeSpec` from which a solver
builds its plan executor (:func:`make_executor`) and its kernel engine
(:func:`make_kernel_engine`):

* **scheduler** — how compiled iteration plans
  (:class:`~repro.runtime.plan.IterationPlan`, the executors' only
  input) run: ``"list"`` is the deterministic discrete-event priority
  list scheduler over ``P`` workers with durations from a calibrated
  :class:`~repro.runtime.cost_model.CostModel`; ``"threaded"``
  (:mod:`repro.runtime.async_exec`) additionally executes every plan
  for real on a dependency-tracked priority thread pool.
* **placement** — where the numerical kernels run: ``"local"`` is the
  single-address-space NumPy engine
  (:class:`~repro.runtime.kernels.LocalKernelEngine`); ``"ranks"``
  strip-partitions every kernel over N rank workers with real halo
  exchange and tree allreduces
  (:class:`~repro.distributed.ranks.RankKernelEngine`).
* **clock** — which timeline is reported: ``"simulated"`` only the
  discrete-event timeline (makespans, Table 3 state breakdowns);
  ``"wall"`` additionally measured wall intervals of the re-enacted
  execution (task overlap, vulnerable windows).

The simulated timeline is authoritative for every clock-dependent
decision in all cells, and every engine reduces dot products in fixed
page order (:func:`~repro.runtime.kernels.paged_dot`), so each
(scheduler x placement x clock) cell produces bit-identical results.
"""
