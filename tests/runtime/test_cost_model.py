"""Tests for the analytic cost model."""

import math

import pytest

from repro.config import PAGE_DOUBLES
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


class TestKernelTimes:
    def test_kernel_time_is_roofline_max(self):
        cm = CostModel(flop_rate=10.0, mem_bandwidth=5.0)
        assert cm.kernel_time(20.0, 5.0) == pytest.approx(2.0)   # flop bound
        assert cm.kernel_time(5.0, 20.0) == pytest.approx(4.0)   # memory bound

    def test_kernel_time_rejects_negative(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.kernel_time(-1.0, 0.0)

    def test_spmv_scales_with_nnz(self):
        cm = DEFAULT_COST_MODEL
        assert cm.spmv_block(10_000) > cm.spmv_block(1_000)

    def test_axpy_positive(self):
        assert DEFAULT_COST_MODEL.axpy_block() > 0

    def test_block_solve_factorized_is_cheaper(self):
        cm = DEFAULT_COST_MODEL
        assert cm.block_solve(PAGE_DOUBLES, factorized=True) < \
            cm.block_solve(PAGE_DOUBLES, factorized=False)

    def test_block_solve_uses_dense_rate(self):
        slow = CostModel(dense_flop_rate=1e9)
        fast = CostModel(dense_flop_rate=100e9)
        assert slow.block_solve(512) > fast.block_solve(512)

    def test_recovery_check_is_small(self):
        cm = DEFAULT_COST_MODEL
        assert cm.recovery_check() < cm.block_solve(PAGE_DOUBLES)


class TestIOAndCommunication:
    def test_checkpoint_cost_increases_with_volume(self):
        cm = DEFAULT_COST_MODEL
        assert cm.checkpoint_write(1e8) > cm.checkpoint_write(1e6)
        assert cm.checkpoint_read(1e6) > 0

    def test_message_latency_floor(self):
        cm = DEFAULT_COST_MODEL
        assert cm.message(0.0) == pytest.approx(cm.network_latency)

    def test_allreduce_grows_logarithmically(self):
        cm = DEFAULT_COST_MODEL
        t2 = cm.allreduce(8.0, 2)
        t16 = cm.allreduce(8.0, 16)
        assert t16 == pytest.approx(t2 * math.log2(16))

    def test_allreduce_single_rank_is_free(self):
        assert DEFAULT_COST_MODEL.allreduce(8.0, 1) == 0.0

    def test_scaled_returns_modified_copy(self):
        cm = DEFAULT_COST_MODEL
        faster = cm.scaled(flop_rate=cm.flop_rate * 2)
        assert faster.flop_rate == cm.flop_rate * 2
        assert faster is not cm
        assert cm.flop_rate == DEFAULT_COST_MODEL.flop_rate
