"""Partition invariants over random sparse and stencil matrices, plus
the cost model's communication edge cases and their calibration
(satellites of the rank runtime)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distributed.comm import fit_communication_model
from repro.distributed.partition import StripPartition
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.random_spd import random_sparse_spd
from repro.matrices.stencil import poisson_3d_27pt
from repro.runtime.cost_model import DEFAULT_COST_MODEL

MATRICES = {
    "poisson3d": lambda: poisson_3d_27pt(8),
    "poisson2d": lambda: laplacian_2d(20),
    "random_sparse": lambda: random_sparse_spd(400, density=0.02, seed=11),
}


@pytest.fixture(params=sorted(MATRICES), scope="module")
def matrix(request):
    return sp.csr_matrix(MATRICES[request.param]())


@pytest.mark.parametrize("num_ranks", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("align", [1, 64])
class TestPartitionInvariants:
    def test_rows_partition_range_exactly(self, matrix, num_ranks, align):
        part = StripPartition(matrix, num_ranks, align=align)
        rows = []
        for p in part.partitions:
            rows.extend(range(p.row_start, p.row_stop))
        assert rows == list(range(matrix.shape[0]))

    def test_halo_is_exactly_out_of_strip_columns(self, matrix, num_ranks,
                                                  align):
        part = StripPartition(matrix, num_ranks, align=align)
        for p in part.partitions:
            sub = matrix[p.row_start:p.row_stop, :]
            cols = np.unique(sub.indices)
            expected = set(cols[(cols < p.row_start)
                                | (cols >= p.row_stop)].tolist())
            received = set()
            halo = part.halo_indices(p.rank)
            for src, idx in halo.items():
                owner = part.partition(src)
                assert owner.row_start <= idx.min()
                assert idx.max() < owner.row_stop
                received.update(idx.tolist())
            assert received == expected
            assert p.halo_size == len(expected)
            assert sum(p.halo_sizes()) == p.halo_size

    def test_neighbour_relation_symmetric(self, matrix, num_ranks, align):
        # All suite matrices are structurally symmetric, so "I read from
        # you" must imply "you read from me".
        part = StripPartition(matrix, num_ranks, align=align)
        for p in part.partitions:
            for other in p.neighbours:
                assert p.rank in part.partition(other).neighbours

    def test_send_plans_mirror_halo_indices(self, matrix, num_ranks, align):
        part = StripPartition(matrix, num_ranks, align=align)
        for p in part.partitions:
            for dst, idx in part.send_plan(p.rank).items():
                expected = part.halo_indices(dst)[p.rank]
                assert np.array_equal(idx, expected)

    def test_local_nnz_sums_to_total(self, matrix, num_ranks, align):
        part = StripPartition(matrix, num_ranks, align=align)
        assert sum(p.local_nnz for p in part.partitions) == matrix.nnz


class TestPartitionValidation:
    def test_empty_aligned_strip_is_loud(self):
        A = poisson_3d_27pt(4)          # n = 64
        with pytest.raises(ValueError, match="aligned"):
            StripPartition(A, num_ranks=3, align=32)   # only 2 units

    def test_alignment_snaps_bounds(self):
        A = poisson_3d_27pt(8)          # n = 512
        part = StripPartition(A, num_ranks=4, align=128)
        assert all(b % 128 == 0 for b in part.bounds[:-1])

    def test_bad_align_rejected(self):
        A = poisson_3d_27pt(4)
        with pytest.raises(ValueError, match="align"):
            StripPartition(A, num_ranks=2, align=0)

    def test_owner_of_row(self):
        A = poisson_3d_27pt(8)
        part = StripPartition(A, num_ranks=4)
        for p in part.partitions:
            assert part.owner_of_row(p.row_start) == p.rank
            assert part.owner_of_row(p.row_stop - 1) == p.rank
        with pytest.raises(IndexError):
            part.owner_of_row(A.shape[0])


class TestCommunicationEdgeCases:
    @pytest.fixture(scope="class")
    def cm(self):
        return DEFAULT_COST_MODEL

    def test_allreduce_edges(self, cm):
        assert cm.allreduce(8.0, 0) == 0.0
        assert cm.allreduce(8.0, 1) == 0.0
        assert cm.allreduce(0.0, 2) == pytest.approx(cm.network_latency)
        with pytest.raises(ValueError):
            cm.allreduce(-8.0, 4)

    def test_allreduce_payload_scales(self, cm):
        assert cm.allreduce(8.0 * 1000, 4) > cm.allreduce(8.0, 4)

    def test_halo_per_neighbour_sizes(self, cm):
        # Documented semantics: one latency plus the largest share.
        expected = cm.network_latency + 8.0 * 300 / cm.network_bandwidth
        assert cm.halo_exchange([100, 300, 200]) == expected
        # Zero-size neighbours contribute nothing.
        assert cm.halo_exchange([0, 300]) == cm.halo_exchange([300])
        assert cm.halo_exchange([]) == 0.0
        assert cm.halo_exchange([0, 0]) == 0.0
        with pytest.raises(ValueError):
            cm.halo_exchange([-1, 5])


class TestCommCalibration:
    def test_fit_recovers_synthetic_constants(self):
        latency, bandwidth = 40e-6, 2e8
        samples = [(b, latency + b / bandwidth)
                   for b in (1e3, 1e4, 1e5, 1e6)]
        model = fit_communication_model(samples)
        assert model.network_latency == pytest.approx(latency, rel=1e-6)
        assert model.network_bandwidth == pytest.approx(bandwidth, rel=1e-6)
        # Only the interconnect constants are fitted.
        assert model.scaled(network_latency=DEFAULT_COST_MODEL.network_latency,
                            network_bandwidth=DEFAULT_COST_MODEL
                            .network_bandwidth) == DEFAULT_COST_MODEL

    def test_fit_degenerate_single_size(self):
        samples = [(4096.0, 50e-6), (4096.0, 52e-6)]
        model = fit_communication_model(samples)
        assert model.network_bandwidth == DEFAULT_COST_MODEL.network_bandwidth
        assert model.network_latency > 0

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_communication_model([])
