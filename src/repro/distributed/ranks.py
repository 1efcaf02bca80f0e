"""Rank-parallel execution of the CG kernels (the paper's Section 3.4).

This module really *executes* the strip partition that
:class:`~repro.distributed.cluster.ClusterModel` only models: ``N`` rank
workers (threads standing in for MPI processes, one per
:class:`~repro.distributed.partition.RankPartition` row strip) run each
iteration's kernels concurrently, with

* **halo exchange** — before the sparse mat-vec, every rank sends the
  strip entries its neighbours reference and receives its own halo of
  the search direction over per-pair message queues; the local mat-vec
  reads remote entries *only* from the received halo buffer, so the
  exchange is load-bearing, not decorative;
* **tree allreduce** — the dot products are reduced over a binary rank
  tree (gather per-page partials up, broadcast the scalar down).  The
  payload is the vector of per-page partial sums and the root combines
  them in fixed page order, so the result is *bit-identical* to the
  single-rank :func:`~repro.runtime.kernels.paged_dot` no matter how
  many ranks contributed — the classic reproducible-reduction trick;
* **owner-local recovery** — FEIR/AFEIR block solves and rollback
  reads are dispatched to the worker owning the corrupted page, the
  paper's locality rule for recovery tasks.  (A multi-page event is
  serviced in one piece by the first page's owner, because simultaneous
  losses may need a coupled solve over the union of the lost pages —
  Section 2.4 case 1 — which cannot be split along ownership lines.)

Every message transfer is wall-clock timed; the per-solve
:class:`RankCommStats` feeds the measured Figure 5 mode and the
calibration of the interconnect constants of the
:class:`~repro.runtime.cost_model.CostModel` the analytic cluster model
prices with (:func:`~repro.distributed.comm.fit_communication_model`).

The simulated timeline of the solver is untouched: ranks change *where*
numerics execute, never what the discrete-event clock decides, which is
what makes N-rank and single-rank solves comparable bit for bit.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.distributed.partition import StripPartition
from repro.matrices.blocked import PageBlockedMatrix
from repro.memory.pages import page_count
from repro.runtime.kernels import (KernelEngine, page_partials,
                                   reduce_partials)
from repro.sanitize import make_lock, make_queue


@dataclass
class RankCommStats:
    """Measured communication of one rank-parallel solve."""

    ranks: int
    #: Halo exchanges executed (one per distributed spmv).
    halo_exchanges: int = 0
    #: Wall seconds of halo exchange, critical path (max across ranks).
    halo_seconds: float = 0.0
    #: Total halo payload bytes moved between ranks.
    halo_bytes: int = 0
    #: Tree allreduces executed (one per dot product).
    allreduces: int = 0
    #: Wall seconds of allreduce communication, critical path.
    allreduce_seconds: float = 0.0
    #: Total allreduce payload bytes (per-page partials up, scalars down).
    allreduce_bytes: int = 0
    #: Recovery thunks dispatched to page owners.
    recoveries: int = 0
    recovery_seconds: float = 0.0
    recoveries_by_rank: Dict[int, int] = field(default_factory=dict)
    #: Probe-grade halo exchanges re-enacted for the wall-clock
    #: measurement (:meth:`RankKernelEngine.halo_exchange`).  Counted apart
    #: from the load-bearing ``halo_exchanges`` so per-exchange averages
    #: keep meaning "one distributed spmv".
    probe_exchanges: int = 0
    #: ``(payload_bytes, seconds)`` of individual point-to-point *halo*
    #: transfers, the raw material of the comm-model calibration.
    #: Allreduce waits are excluded on purpose: they include subtree
    #: compute and barrier skew, which would bias the fitted latency.
    message_samples: List[Tuple[float, float]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def halo_seconds_per_exchange(self) -> float:
        return self.halo_seconds / self.halo_exchanges \
            if self.halo_exchanges else 0.0

    def allreduce_seconds_per_op(self) -> float:
        return self.allreduce_seconds / self.allreduces \
            if self.allreduces else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "ranks": self.ranks,
            "halo_exchanges": self.halo_exchanges,
            "halo_ms_per_exchange": 1e3 * self.halo_seconds_per_exchange(),
            "halo_bytes": self.halo_bytes,
            "allreduces": self.allreduces,
            "allreduce_ms_per_op": 1e3 * self.allreduce_seconds_per_op(),
            "allreduce_bytes": self.allreduce_bytes,
            "recoveries": self.recoveries,
            "recoveries_by_rank": dict(self.recoveries_by_rank),
            "probe_exchanges": self.probe_exchanges,
        }


class _RankState:
    """Per-rank private state: strip bounds, halo plans, local buffers."""

    __slots__ = ("rank", "start", "stop", "recv_plan", "send_plan",
                 "d_buf", "slab_matvec", "inbox")

    def __init__(self, rank: int, start: int, stop: int,
                 recv_plan: Dict[int, np.ndarray],
                 send_plan: Dict[int, np.ndarray],
                 n: int, slab_matvec: Callable[[np.ndarray], np.ndarray]):
        self.rank = rank
        self.start = start
        self.stop = stop
        self.recv_plan = recv_plan
        self.send_plan = send_plan
        #: Rank-local image of the operand vector: own strip plus the
        #: received halo; everything else stays zero (A's strip rows
        #: reference only owned + halo columns, by halo construction).
        self.d_buf = np.zeros(n, dtype=np.float64)
        self.slab_matvec = slab_matvec
        self.inbox = make_queue(f"rank-inbox:{rank}")


class RankError(RuntimeError):
    """A rank worker failed or a message timed out."""


class RankKernelEngine(KernelEngine):
    """The rank runtime: thread-per-rank execution of the strip-partitioned
    CG kernels, behind the :class:`~repro.runtime.kernels.KernelEngine`
    face :class:`~repro.solvers.resilient_cg.ResilientCG` plugs in."""

    name = "ranks"

    def __init__(self, blocked: PageBlockedMatrix, ranks: int,
                 timeout: float = 60.0):
        if ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {ranks}")
        self.blocked = blocked
        self.n = blocked.n
        self.page_size = blocked.page_size
        self.ranks = int(ranks)
        self.timeout = float(timeout)
        self.partition = StripPartition(blocked.A, self.ranks,
                                        align=self.page_size)
        self.stats = RankCommStats(ranks=self.ranks)
        #: Per-op reply queues keyed by sequence number, so concurrent
        #: orchestrator calls (the threaded scheduler dispatches halo
        #: re-enactments and owner probes from different backend worker
        #: threads) never consume each other's replies.
        self._pending: Dict[int, "queue.SimpleQueue"] = {}
        self._post_lock = make_lock("RankKernelEngine.post_lock")
        #: Serialises collectives: the per-pair channels pair sends with
        #: receives positionally, so two collectives must never be in
        #: flight at once.
        self._collective_lock = make_lock("RankKernelEngine.collective_lock")
        self._chan: Dict[Tuple[int, int], "queue.SimpleQueue"] = {
            (src, dst): make_queue(f"rank-chan:{src}->{dst}")
            for src in range(self.ranks)
            for dst in range(self.ranks) if src != dst}
        self._states: List[_RankState] = []
        for part in self.partition.partitions:
            self._states.append(_RankState(
                rank=part.rank, start=part.row_start, stop=part.row_stop,
                recv_plan=self.partition.halo_indices(part.rank),
                send_plan=self.partition.send_plan(part.rank),
                n=self.n,
                slab_matvec=self._make_slab_matvec(part.row_start,
                                                   part.row_stop)))
        #: Scratch of the distributed residual's ``A x``.
        self._tmp = np.zeros(self.n, dtype=np.float64)
        self._seq = 0
        self._closed = False
        self._threads = [threading.Thread(target=self._worker, args=(r,),
                                          name=f"repro-rank-{r}",
                                          daemon=True)
                         for r in range(self.ranks)]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _make_slab_matvec(self, start: int, stop: int
                          ) -> Callable[[np.ndarray], np.ndarray]:
        """``(A v)[start:stop]`` using the same kernel the full-matrix
        product uses, so strip results are bitwise equal to slices of
        the single-rank product."""
        # Bound to the matrix, not the runtime: a rank state that referred
        # back to its runtime would leave every closed runtime (strips,
        # buffers, queues) to the cycle collector.
        blocked = self.blocked
        if not blocked.uses_sparse_operator:
            blocked.row_slab(start, stop)    # build the cache eagerly
        return lambda v: blocked.range_product(start, stop, v)

    def page_owner(self, page: int) -> int:
        """Rank owning memory page ``page`` (strips are page-aligned)."""
        npages = page_count(self.n, self.page_size)
        if not 0 <= page < npages:
            raise IndexError(f"page {page} out of range for {npages} pages")
        return self.partition.owner_of_row(
            min(page * self.page_size, self.n - 1))

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------
    def _post(self, ranks: List[int], op: str, payload) -> Dict[int, object]:
        """Post one op to ``ranks`` and gather their replies.

        Thread-safe for concurrent callers: each op gets a private reply
        queue keyed by its sequence number, and workers route replies by
        that key, so the threaded scheduler can dispatch an owner probe
        while a halo re-enactment collective is still in flight.
        """
        if self._closed:
            raise RankError("rank runtime already closed")
        with self._post_lock:
            self._seq += 1
            seq = self._seq
            reply_queue = make_queue(f"rank-reply:{seq}")
            self._pending[seq] = reply_queue
        try:
            for r in ranks:
                self._states[r].inbox.put((op, seq, payload))
            replies: Dict[int, object] = {}
            failure: Optional[BaseException] = None
            deadline = perf_counter() + self.timeout  # repro-lint: allow[wall-clock] collective timeout deadline, never fingerprinted
            while len(replies) < len(ranks):
                remaining = deadline - perf_counter()  # repro-lint: allow[wall-clock] collective timeout deadline, never fingerprinted
                try:
                    rank, result, exc = reply_queue.get(
                        timeout=max(remaining, 1e-3))
                except queue.Empty:
                    raise RankError(
                        f"rank runtime timed out after {self.timeout}s "
                        f"waiting for op {op!r} (ranks {ranks})") from None
                if exc is not None and failure is None:
                    failure = exc
                replies[rank] = result
        finally:
            with self._post_lock:
                self._pending.pop(seq, None)
        if failure is not None:
            raise RankError(
                f"rank worker failed during op {op!r}") from failure
        return replies

    def _collective(self, op: str, payload) -> Dict[int, object]:
        with self._collective_lock:
            return self._post(list(range(self.ranks)), op, payload)

    # ------------------------------------------------------------------
    # public kernel operations
    # ------------------------------------------------------------------
    def strip_map(self, fn: Callable[[int, int, int], None]) -> None:
        """Run ``fn(rank, row_start, row_stop)`` on every rank worker."""
        self._collective("strip", fn)

    def spmv(self, d: np.ndarray, out: np.ndarray) -> None:
        """Distributed ``out <- A d`` with a real halo exchange of ``d``."""
        replies = self._collective("spmv", (d, out))
        windows = [r["window"] for r in replies.values()]
        self.stats.halo_exchanges += 1
        self.stats.halo_seconds += max(windows) if windows else 0.0
        self.stats.halo_bytes += sum(r["bytes_sent"]
                                     for r in replies.values())
        for r in replies.values():
            self.stats.message_samples.extend(r["samples"])

    def dot(self, u: np.ndarray, v: np.ndarray,
            skip_pages: Set[int] = frozenset()) -> float:
        """Tree-allreduced, reproducibly ordered dot product."""
        replies = self._collective("dot", (u, v, frozenset(skip_pages)))
        self.stats.allreduces += 1
        self.stats.allreduce_seconds += max(r["comm"]
                                            for r in replies.values())
        self.stats.allreduce_bytes += sum(r["bytes_sent"]
                                          for r in replies.values())
        return replies[0]["value"]

    def halo_exchange(self, d: np.ndarray) -> float:
        """Re-enact the halo exchange of ``d`` (read-only, bitwise
        neutral): every rank really sends and receives its halo of the
        current search direction over the rank channels, refreshing the
        same ``d_buf`` entries the preceding distributed spmv filled
        with the same values.  Used by the wall-clock re-enactment so
        the exchange has a measurable interval recovery can overlap;
        counted as a probe, not as a load-bearing exchange.  Returns the
        critical-path window in seconds.
        """
        replies = self._collective("halo", d)
        windows = [r["window"] for r in replies.values()]
        self.stats.probe_exchanges += 1
        for r in replies.values():
            self.stats.message_samples.extend(r["samples"])
        return max(windows) if windows else 0.0

    def run_on_rank(self, rank: int, fn: Callable[[], object]) -> object:
        """Execute ``fn`` on a specific rank's worker without recovery
        accounting (probe work of the wall-clock re-enactment)."""
        if not 0 <= rank < self.ranks:
            raise IndexError(f"rank {rank} out of range for "
                             f"{self.ranks} ranks")
        return self._post([rank], "run", fn)[rank]["value"]

    def run_on_owner(self, page: int, fn: Callable[[], object]) -> object:
        """Execute ``fn`` on the worker owning ``page`` (recovery work)."""
        owner = self.page_owner(page)
        reply = self._post([owner], "run", fn)[owner]
        self.stats.recoveries += 1
        self.stats.recovery_seconds += reply["seconds"]
        self.stats.recoveries_by_rank[owner] = \
            self.stats.recoveries_by_rank.get(owner, 0) + 1
        return reply["value"]

    def update_direction(self, d_cur: np.ndarray, z: np.ndarray,
                         beta: float, d_prev: np.ndarray) -> None:
        def body(rank: int, start: int, stop: int) -> None:
            d_cur[start:stop] = z[start:stop] + beta * d_prev[start:stop]
        self.strip_map(body)

    def axpy(self, y: np.ndarray, a: float, v: np.ndarray,
             skip_pages: Set[int] = frozenset()) -> None:
        psize = self.page_size
        n = self.n
        skip = frozenset(skip_pages)

        def body(rank: int, start: int, stop: int) -> None:
            if not skip:
                y[start:stop] += a * v[start:stop]
                return
            keep = np.ones(stop - start, dtype=bool)
            for page in skip:
                lo = max(page * psize, start)
                hi = min(min(page * psize + psize, n), stop)
                if lo < hi:
                    keep[lo - start:hi - start] = False
            ys = y[start:stop]
            vs = v[start:stop]
            ys[keep] += a * vs[keep]
        self.strip_map(body)

    def residual(self, x: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> None:
        # A real distributed residual: halo-exchange x, then each rank
        # forms its strip of b - A x locally.
        tmp = self._tmp
        self.spmv(x, tmp)

        def body(rank: int, start: int, stop: int) -> None:
            out[start:stop] = b[start:stop] - tmp[start:stop]
        self.strip_map(body)

    def comm_stats(self) -> RankCommStats:
        return self.stats

    def reset_comm_stats(self) -> None:
        self.stats = RankCommStats(ranks=self.ranks)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for st in self._states:
            st.inbox.put(None)
        for t in self._threads:
            t.join(timeout=self.timeout)

    def __enter__(self) -> "RankKernelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker(self, rank: int) -> None:
        st = self._states[rank]
        while True:
            msg = st.inbox.get()
            if msg is None:
                return
            op, seq, payload = msg
            try:
                result = self._dispatch(rank, op, payload)
                self._reply(seq, rank, result, None)
            except BaseException as exc:       # surfaced by _post
                self._reply(seq, rank, None, exc)

    def _reply(self, seq: int, rank: int, result, exc) -> None:
        with self._post_lock:
            reply_queue = self._pending.get(seq)
        if reply_queue is not None:    # dropped if the op already timed out
            reply_queue.put((rank, result, exc))

    def _dispatch(self, rank: int, op: str, payload):
        if op == "strip":
            st = self._states[rank]
            payload(rank, st.start, st.stop)
            return None
        if op == "spmv":
            return self._spmv_local(rank, *payload)
        if op == "dot":
            return self._dot_local(rank, *payload)
        if op == "halo":
            return self._halo_local(rank, payload)
        if op == "run":
            t0 = perf_counter()  # repro-lint: allow[wall-clock] measured op wall time, reported not fingerprinted
            value = payload()
            return {"value": value, "seconds": perf_counter() - t0}  # repro-lint: allow[wall-clock] measured op wall time, reported not fingerprinted
        raise ValueError(f"unknown rank op {op!r}")

    def _recv(self, src: int, dst: int):
        try:
            return self._chan[(src, dst)].get(timeout=self.timeout)
        except queue.Empty:
            raise RankError(
                f"rank {dst} timed out waiting for a message from rank "
                f"{src} after {self.timeout}s") from None

    def _halo_local(self, rank: int, d: np.ndarray):
        """One rank's leg of the halo exchange of ``d``: send owned
        entries the neighbours reference, receive this rank's halo into
        ``d_buf``.  Shared by the load-bearing spmv and the probe-grade
        :meth:`halo_exchange` re-enactment (same values either way, so
        the probe is bitwise neutral)."""
        st = self._states[rank]
        samples: List[Tuple[float, float]] = []
        bytes_sent = 0
        t0 = perf_counter()  # repro-lint: allow[wall-clock] measured halo window, reported not fingerprinted
        # Post all sends first (non-blocking puts), then drain receives:
        # the MPI_Isend/Irecv shape, deadlock-free on unbounded queues.
        for dst, idx in st.send_plan.items():
            self._chan[(rank, dst)].put(d[idx])
            bytes_sent += 8 * idx.size
        for src, idx in st.recv_plan.items():
            w0 = perf_counter()  # repro-lint: allow[wall-clock] measured halo window, reported not fingerprinted
            values = self._recv(src, rank)
            samples.append((8.0 * idx.size, perf_counter() - w0))  # repro-lint: allow[wall-clock] measured halo window, reported not fingerprinted
            st.d_buf[idx] = values
        window = perf_counter() - t0  # repro-lint: allow[wall-clock] measured halo window, reported not fingerprinted
        # Own strip is local memory, copied outside the exchange window.
        st.d_buf[st.start:st.stop] = d[st.start:st.stop]
        return {"window": window, "bytes_sent": bytes_sent,
                "samples": samples}

    def _spmv_local(self, rank: int, d: np.ndarray, out: np.ndarray):
        st = self._states[rank]
        result = self._halo_local(rank, d)
        out[st.start:st.stop] = st.slab_matvec(st.d_buf)
        return result

    def _dot_local(self, rank: int, u: np.ndarray, v: np.ndarray,
                   skip_pages: frozenset):
        st = self._states[rank]
        parts = page_partials(u[st.start:st.stop], v[st.start:st.stop],
                              self.page_size)
        entries: List[Tuple[int, np.ndarray]] = [(rank, parts)]
        comm = 0.0
        bytes_sent = 0
        children = [c for c in (2 * rank + 1, 2 * rank + 2)
                    if c < self.ranks]
        parent = (rank - 1) // 2
        # Gather per-page partials up the binary rank tree.  The waits
        # measured here include subtree compute and barrier skew, so —
        # unlike the halo waits — they are *not* reported as calibration
        # samples: fitting latency from them would charge reduction
        # compute to the interconnect.
        for child in children:
            w0 = perf_counter()  # repro-lint: allow[wall-clock] measured allreduce comm time, reported not fingerprinted
            received = self._recv(child, rank)
            comm += perf_counter() - w0  # repro-lint: allow[wall-clock] measured allreduce comm time, reported not fingerprinted
            entries.extend(received)
        if rank != 0:
            payload_bytes = 8 * sum(p.size for _, p in entries)
            self._chan[(rank, parent)].put(entries)
            bytes_sent += payload_bytes
            w0 = perf_counter()  # repro-lint: allow[wall-clock] measured allreduce comm time, reported not fingerprinted
            value = self._recv(parent, rank)
            comm += perf_counter() - w0  # repro-lint: allow[wall-clock] measured allreduce comm time, reported not fingerprinted
        else:
            # Fixed page order: concatenating rank-contiguous partials in
            # rank order *is* the global page order, and the reduction is
            # the same one paged_dot applies — bitwise reproducible.
            entries.sort(key=lambda e: e[0])
            full = np.concatenate([p for _, p in entries])
            value = reduce_partials(full, skip_pages)
        # Broadcast the scalar back down the same tree.
        for child in children:
            self._chan[(rank, child)].put(value)
            bytes_sent += 8
        return {"value": value, "comm": comm, "bytes_sent": bytes_sent}
