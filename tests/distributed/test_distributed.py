"""Tests for the simulated distributed layer and the scaling model."""


import pytest

from repro.campaign.store import CampaignCache
from repro.distributed.cluster import ClusterModel
from repro.distributed.partition import StripPartition
from repro.experiments.fig5 import calibrate
from repro.matrices.stencil import poisson_3d_27pt
from repro.runtime.cost_model import DEFAULT_COST_MODEL


class TestStripPartition:
    @pytest.fixture(scope="class")
    def partition(self):
        return StripPartition(poisson_3d_27pt(8), num_ranks=4)

    def test_rows_are_covered_exactly_once(self, partition):
        rows = []
        for p in partition.partitions:
            rows.extend(range(p.row_start, p.row_stop))
        assert rows == list(range(partition.n))

    def test_local_nnz_sums_to_total(self, partition):
        assert sum(p.local_nnz for p in partition.partitions) == partition.A.nnz

    def test_interior_ranks_have_two_neighbours(self, partition):
        interior = partition.partition(1)
        assert len(interior.neighbours) >= 2

    def test_halo_positive_for_stencil(self, partition):
        assert max(p.halo_size for p in partition.partitions) > 0

    def test_validation(self):
        A = poisson_3d_27pt(4)
        with pytest.raises(ValueError):
            StripPartition(A, 0)
        with pytest.raises(ValueError):
            StripPartition(A, A.shape[0] + 1)
        with pytest.raises(IndexError):
            StripPartition(A, 2).partition(5)


class TestCostModelCommunication:
    def test_halo_exchange_zero_cases(self):
        cm = DEFAULT_COST_MODEL
        assert cm.halo_exchange([0, 0]) == 0.0
        assert cm.halo_exchange([]) == 0.0

    def test_halo_exchange_grows_with_volume(self):
        cm = DEFAULT_COST_MODEL
        assert cm.halo_exchange([5000, 5000]) > cm.halo_exchange([50, 50])

    def test_halo_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.halo_exchange([-1])

    def test_allreduce_log_scaling(self):
        cm = DEFAULT_COST_MODEL
        assert cm.allreduce(8.0, 1) == 0.0
        assert cm.allreduce(8.0, 16) == pytest.approx(
            cm.allreduce(8.0, 2) * 4)


class TestClusterModel:
    @pytest.fixture(scope="class")
    def model(self):
        # Tiny calibration problem so the test stays fast.
        return ClusterModel(target_points=256, calibration_points=12,
                            checkpoint_interval=20)

    @pytest.fixture(scope="class")
    def cache(self):
        return CampaignCache()

    @pytest.fixture(scope="class")
    def calibration(self, model, cache):
        """The iteration counts the model is handed, measured once."""
        return calibrate(model, cache)

    def test_iteration_time_decreases_with_ranks(self, model):
        assert model.iteration_time(64) < model.iteration_time(8)

    def test_method_overheads_ordering(self, model):
        ideal = model.iteration_time(16, "ideal")
        assert model.iteration_time(16, "AFEIR") >= ideal
        assert model.iteration_time(16, "FEIR") >= model.iteration_time(16, "AFEIR")
        assert model.iteration_time(16, "ckpt") > ideal

    def test_parallel_efficiency_reasonable(self, model):
        eff = model.ideal_parallel_efficiency(1024)
        assert 0.4 < eff <= 1.0

    def test_run_produces_full_grid(self, model, calibration):
        results = model.run(calibration, core_counts=(64, 128),
                            error_counts=(1,))
        methods = {r.method for r in results}
        assert "Ideal" in methods and "FEIR" in methods
        cores = {r.cores for r in results}
        assert cores == {64, 128}

    def test_speedups_relative_to_64_core_ideal(self, model, calibration):
        results = model.run(calibration, core_counts=(64, 128),
                            error_counts=(1,))
        ideal64 = [r for r in results
                   if r.method == "Ideal" and r.cores == 64][0]
        assert ideal64.speedup == pytest.approx(1.0)
        ideal128 = [r for r in results
                    if r.method == "Ideal" and r.cores == 128][0]
        assert 1.0 < ideal128.speedup <= 2.0

    def test_exact_recovery_scales_better_than_checkpoint(self, model,
                                                          calibration):
        results = model.run(calibration, core_counts=(64, 512),
                            error_counts=(1,))
        def speedup(method, cores):
            return [r for r in results
                    if r.method == method and r.cores == cores][0].speedup
        assert speedup("FEIR", 512) > speedup("ckpt", 512)
        assert speedup("AFEIR", 512) > speedup("ckpt", 512)

    def test_a_second_calibration_on_the_same_cache_executes_nothing(
            self, model, cache, calibration, monkeypatch):
        from repro.solvers.resilient_cg import ResilientCG
        monkeypatch.setattr(ResilientCG, "solve", None)  # any solve raises
        misses = dict(cache.misses)
        assert calibrate(model, cache) == calibration
        assert cache.misses == misses

    def test_the_model_solves_nothing_and_holds_no_state(self, model):
        """``distributed/cluster.py`` is a pure model: no solver, fault or
        campaign import at any depth, no module-level container, no memo
        field on the instance."""
        import ast
        import dataclasses
        import inspect

        from repro.distributed import cluster
        tree = ast.parse(inspect.getsource(cluster))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names}
        assert not [name for name in imported if name.startswith(
            ("repro.solvers", "repro.faults", "repro.campaign"))]
        assert not [name for name, value in vars(cluster).items()
                    if isinstance(value, (dict, list, set))
                    and not name.startswith("__")]
        assert {f.name for f in dataclasses.fields(model)} == {
            "target_points", "calibration_points", "workers_per_rank",
            "cost_model", "tolerance", "checkpoint_interval"}


class TestClusterModelFixes:
    """Regressions for the halo accounting and degenerate-config bugs."""

    def test_single_rank_charges_no_communication(self):
        """num_ranks == 1 must not pay the old phantom one-neighbour halo:
        the iteration time is then independent of the network constants."""
        base = ClusterModel(target_points=256, calibration_points=12)
        crippled_net = ClusterModel(
            target_points=256, calibration_points=12,
            cost_model=DEFAULT_COST_MODEL.scaled(network_bandwidth=1e3,
                                                 network_latency=1.0))
        assert base.iteration_time(1) == crippled_net.iteration_time(1)
        # Sanity: with more than one rank the network very much matters.
        assert crippled_net.iteration_time(4) > 10 * base.iteration_time(4)

    def test_two_ranks_charge_one_neighbour_plane(self):
        model = ClusterModel(target_points=256, calibration_points=12)
        cm = model.cost_model
        plane = 256 ** 2
        two = model.iteration_time(2)
        one = model.iteration_time(1)
        # t(2) has half the compute of t(1) plus one plane of halo and
        # the rank-2 allreduces; the halo share matches the comm model.
        halo_and_reduce = cm.halo_exchange([plane]) + 2 * cm.allreduce(8.0, 2)
        compute_1 = one - 6.0 * model.cost_model.task_overhead
        expected = (compute_1 / 2 + halo_and_reduce
                    + 6.0 * model.cost_model.task_overhead)
        assert two == pytest.approx(expected, rel=1e-12)

    def test_degenerate_core_counts_are_loud(self):
        model = ClusterModel(target_points=256, calibration_points=12)
        with pytest.raises(ValueError, match="clamp"):
            model.run({}, core_counts=(4, 64))
        with pytest.raises(ValueError, match="clamp"):
            model.ideal_parallel_efficiency(4)
        with pytest.raises(ValueError, match="empty"):
            model.run({}, core_counts=())
        with pytest.raises(ValueError, match="num_ranks"):
            model.iteration_time(0)

    def test_interconnect_constants_are_injectable(self):
        slow = DEFAULT_COST_MODEL.scaled(network_bandwidth=1e6)
        base = ClusterModel(target_points=256, calibration_points=12)
        calibrated = ClusterModel(target_points=256, calibration_points=12,
                                  cost_model=slow)
        assert calibrated.iteration_time(8) > base.iteration_time(8)
        assert calibrated.iteration_time(1) == base.iteration_time(1)
