"""Integration tests for the experiment drivers (scaled-down configurations)."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.campaign.engine import solve_trial
from repro.campaign.spec import SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore
from repro.distributed.cluster import ClusterModel
from repro.experiments import fig5
from repro.experiments.common import ExperimentConfig, ideal_runs, solve_cell
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import (format_fig5, format_fig5_measured,
                                    run_fig5, run_fig5_measured)
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3

FIXTURES = Path(__file__).with_name("fixtures")


def load_generator(name):
    """The generator's own ``quick_config``/``observed``: the test
    measures exactly what the fixture recorded."""
    spec = importlib.util.spec_from_file_location(name,
                                                  FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_generator("generate_drivers_oracle")
fig5_oracle = load_generator("generate_fig5_oracle")

#: A small but representative subset so the driver tests stay quick.
SMALL_MATRICES = ("qa8fm", "Dubcova3")


def quick_config(**knobs):
    defaults = dict(tolerance=1e-8, max_iterations=8000)
    defaults.update(knobs)
    return ExperimentConfig(matrices=SMALL_MATRICES, repetitions=1,
                            knobs=SolverKnobs(**defaults))


class TestCommon:
    def test_cell_builds_the_suite_problem(self):
        cell = quick_config().cell("qa8fm", None)
        A, b = cell.matrix.build()
        assert A.shape[0] == b.shape[0]
        assert cell.matrix.rhs_seed == quick_config().seed

    def test_ideal_cell_converges(self):
        result = solve_trial(quick_config().cell("qa8fm", None),
                             CampaignCache())
        assert result.converged
        assert result.solve_time > 0

    def test_the_held_ideal_run_is_the_baseline(self):
        """``solve_cell`` seeds the cache with the ideal run the driver
        holds: no cell solves the baseline a second time."""
        config, cache = quick_config(), CampaignCache()
        ideal = ideal_runs(config, cache, ("qa8fm",))["qa8fm"]
        run = solve_cell(config.cell("qa8fm", "FEIR"), ideal, cache)
        ckpt = solve_cell(config.cell("qa8fm", "ckpt", checkpoint_interval=7),
                          ideal, cache)
        assert run.ideal_time == ckpt.ideal_time == ideal.solve_time
        assert cache.misses["baselines"] == 0
        assert cache.misses["matrices"] == 1

    def test_config_and_knobs_share_no_field(self):
        import dataclasses
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert names == {"matrices", "methods", "repetitions", "seed",
                         "knobs"}
        assert not names & {f.name for f in dataclasses.fields(SolverKnobs)}


class TestDriversOracle:
    """Table 2, Table 3 and Fig. 3 through ``solve_trial`` reproduce, bit
    for bit, what the drivers' own solver stack produced at the parent
    commit (``fixtures/drivers_oracle.json``)."""

    @pytest.fixture(scope="class")
    def recorded(self):
        payload = json.loads((FIXTURES / "drivers_oracle.json").read_text())
        if payload["numerics_stack"] != oracle.numerics_stack():
            pytest.skip(f"oracle recorded on {payload['numerics_stack']}")
        return payload["observed"]

    def test_drivers_reproduce_the_parent_commit(self, recorded):
        assert oracle.observed(oracle.quick_config()) == recorded

    def test_a_store_changes_no_number(self, recorded, tmp_path):
        store = CampaignStore(tmp_path / "store")
        for _ in ("cold", "warm"):
            config = oracle.quick_config()
            fig3 = run_fig3(config, store=store, **oracle.FIG3)
            assert {m: t.hex() for m, t in fig3.final_times.items()} \
                == recorded["fig3"]["final_times"]
            table2 = run_table2(config, store=store)
            assert {m: v.hex() for m, v in table2.overheads.items()} \
                == recorded["table2"]
        # the store was used (a baseline per Table 2 matrix, and Fig. 3's)
        # and holds outcomes only: every matrix was rebuilt
        assert store.entry_count()["baselines"] > len(SMALL_MATRICES)
        assert not (store.root / "matrices").exists()

    @pytest.mark.parametrize("mutation,moved", [
        (dict(seed=7), ("table2", "table3", "fig3")),
        # The fault-free tables do not depend on the page size; the
        # single-page loss of Fig. 3 does.
        (dict(page_size=96), ("fig3",)),
    ], ids=["rhs_seed", "page_size"])
    def test_the_oracle_can_fail(self, recorded, mutation, moved):
        mutated = oracle.observed(oracle.quick_config(**mutation))
        for section in moved:
            assert mutated[section] != recorded[section]


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(quick_config())

    def test_all_methods_reported(self, result):
        assert set(result.overheads) == {"Lossy", "Trivial", "AFEIR", "FEIR",
                                         "ckpt-1000", "ckpt-200"}

    def test_paper_ordering_holds(self, result):
        ov = result.overheads
        assert ov["Lossy"] == pytest.approx(0.0, abs=1e-6)
        assert ov["Trivial"] == pytest.approx(0.0, abs=1e-6)
        assert ov["AFEIR"] < ov["FEIR"]
        assert ov["FEIR"] < ov["ckpt-1000"] < ov["ckpt-200"]

    def test_formatting(self, result):
        text = format_table2(result)
        assert "Table 2" in text and "AFEIR" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(quick_config())

    def test_feir_has_more_imbalance_than_afeir(self, result):
        assert result.increases["FEIR"]["imbalance"] > \
            result.increases["AFEIR"]["imbalance"]

    def test_runtime_share_increases(self, result):
        assert result.increases["FEIR"]["runtime"] > 0
        assert result.increases["AFEIR"]["runtime"] > 0

    def test_formatting(self, result):
        assert "Table 3" in format_table3(result)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(quick_config(), matrix="Dubcova3", page=2)

    def test_all_curves_present(self, result):
        assert set(result.histories) == {"Ideal", "AFEIR", "FEIR", "Lossy",
                                         "ckpt"}

    def test_exact_recoveries_close_to_ideal(self, result):
        ideal = result.final_times["Ideal"]
        assert result.final_times["FEIR"] <= 1.2 * ideal
        assert result.final_times["AFEIR"] <= 1.2 * ideal

    def test_ckpt_and_lossy_slower_than_exact(self, result):
        assert result.final_times["Lossy"] > result.final_times["AFEIR"]
        assert result.final_times["ckpt"] > result.final_times["AFEIR"]

    def test_injection_fraction_validation(self):
        with pytest.raises(ValueError):
            run_fig3(quick_config(), inject_fraction=1.5)

    def test_formatting(self, result):
        assert "Figure 3" in format_fig3(result)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(quick_config(), rates=(1.0, 10.0),
                        matrices=("qa8fm",),
                        methods=("AFEIR", "FEIR", "Lossy", "ckpt"))

    def test_summary_grid_complete(self, result):
        assert set(result.summary) == {(m, r) for m in
                                       ("AFEIR", "FEIR", "Lossy", "ckpt")
                                       for r in (1.0, 10.0)}

    def test_exact_methods_beat_checkpoint(self, result):
        # At rate 10 every trial sees faults, so the paper's ordering is
        # deterministic; at rate 1 a single repetition may legitimately
        # draw zero in-solve faults (zero overhead for restart/rollback
        # methods), so there we only pin the exact methods' small cost.
        assert result.summary[("FEIR", 10.0)] < result.summary[("ckpt", 10.0)]
        assert result.summary[("AFEIR", 10.0)] < result.summary[("ckpt", 10.0)]
        assert result.summary[("FEIR", 1.0)] < 25.0
        assert result.summary[("AFEIR", 1.0)] < 25.0

    def test_cells_have_statistics(self, result):
        for cell in result.cells:
            assert cell.mean_slowdown >= 0.0 or math.isnan(cell.mean_slowdown)
            assert cell.std_slowdown >= 0.0
            assert len(cell.runs) == 1

    def test_formatting(self, result):
        text = format_fig4(result)
        assert "Figure 4" in text and "rate 10" in text

    def test_the_table_rows_are_the_summary(self, result):
        """``format_fig4`` prints the campaign's rows: one per method,
        one column per rate, each the summary's value."""
        rows = result.campaign.summary_rows()
        assert [row[0] for row in rows] == ["AFEIR", "FEIR", "Lossy", "ckpt"]
        assert {(row[0], rate): value for row in rows
                for rate, value in zip((1.0, 10.0), row[1:], strict=True)} \
            == result.summary


#: The 11 runtime cells of tests/runtime/test_runtime_matrix.py.
RUNTIME_CELLS = [
    ("list", "local", "simulated", 1), ("list", "local", "wall", 1),
    ("list", "ranks", "simulated", 2), ("list", "ranks", "simulated", 3),
    ("list", "ranks", "wall", 4), ("list", "ranks", "wall", 1),
    ("threaded", "local", "simulated", 1), ("threaded", "local", "wall", 1),
    ("threaded", "ranks", "simulated", 2), ("threaded", "ranks", "wall", 2),
    ("threaded", "ranks", "wall", 4),
]


class TestFig4CarriesTheRuntimeCell:
    """``campaign_spec`` used to forward a hand-kept field list that
    silently dropped scheduler/placement/clock/ranks, so fig4 always ran
    list/local/simulated whatever the flags said.  The configuration now
    holds the knobs themselves, and every driver cell carries them."""

    @pytest.mark.parametrize("cell", RUNTIME_CELLS,
                             ids=lambda c: "-".join(map(str, c)))
    def test_campaign_runs_the_configured_cell(self, cell):
        from repro.experiments.fig4 import campaign_spec
        from repro.runtime.cost_model import CostModel
        from repro.runtime.runtime import resolve_runtime_spec
        scheduler, placement, clock, ranks = cell
        knobs = SolverKnobs(
            num_workers=3, page_size=48, work_scale=17.0,
            checkpoint_interval=9, pace=0.0,
            cost_model=CostModel(task_overhead=1e-5), scheduler=scheduler,
            placement=placement, clock=clock, ranks=ranks)
        config = ExperimentConfig(matrices=("qa8fm",), knobs=knobs)
        assert campaign_spec(config).knobs is knobs
        assert knobs.runtime_spec() == resolve_runtime_spec(*cell)
        assert config.cell("qa8fm", "FEIR").knobs == knobs
        history = config.cell("qa8fm", "FEIR", record_history=True).knobs
        assert history.record_history and not knobs.record_history
        assert history.runtime_spec() == knobs.runtime_spec()


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(core_counts=(64, 256), error_counts=(1,),
                        calibration_points=12, target_points=256)

    def test_speedup_reference_is_one(self, result):
        assert result.speedup("Ideal", 64, 0) == pytest.approx(1.0)

    def test_exact_methods_scale_best(self, result):
        assert result.speedup("FEIR", 256, 1) > result.speedup("ckpt", 256, 1)

    def test_formatting(self, result):
        text = format_fig5(result)
        assert "Figure 5" in text and "parallel efficiency" in text


class TestFig5Oracle:
    """Figure 5's calibration grid and measured rows as ``TrialSpec``s
    through the trial pipeline reproduce, bit for bit, what
    ``distributed.cluster``'s own solver stack produced at the parent
    commit (``fixtures/fig5_oracle.json``)."""

    @pytest.fixture(scope="class")
    def recorded(self):
        payload = json.loads((FIXTURES / "fig5_oracle.json").read_text())
        if payload["numerics_stack"] != fig5_oracle.numerics_stack():
            pytest.skip(f"oracle recorded on {payload['numerics_stack']}")
        return payload["observed"]

    @pytest.mark.ranks
    def test_the_driver_reproduces_the_parent_commit(self, recorded):
        assert fig5_oracle.observed() == recorded

    def test_a_store_changes_no_number_and_a_warm_run_solves_nothing(
            self, recorded, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with fig5_oracle.counted_solves() as solves:
            assert fig5_oracle.modeled(store) == recorded["modeled"]
        assert len(solves) == 16 and store.hits == 0
        cold_misses = store.misses
        with fig5_oracle.counted_solves() as solves:
            assert fig5_oracle.modeled(store) == recorded["modeled"]
            assert fig5_oracle.calibration_table(16, store) \
                == recorded["calibration"]["16"]
        assert solves == [] and store.misses == cold_misses
        assert store.hits == 32

    def test_every_store_gets_its_own_artifacts(self, tmp_path):
        """No module-level problem cache stands between two stores."""
        for name in ("first", "second"):
            store = CampaignStore(tmp_path / name)
            fig5.run_fig5(calibration_points=12, store=store)
            counts = store.entry_count()
            assert (counts["baselines"], counts["trials"]) == (1, 16)
            assert store.verify().ok

    def test_the_cells_carry_the_models_five_values(self):
        from repro.runtime.cost_model import DEFAULT_COST_MODEL
        model = ClusterModel(
            calibration_points=12, workers_per_rank=4, tolerance=1e-7,
            checkpoint_interval=9,
            cost_model=DEFAULT_COST_MODEL.scaled(task_overhead=1e-5))
        for method in (None, "ckpt"):
            knobs = fig5.calibration_cell(model, method).knobs
            assert (knobs.num_workers, knobs.page_size, knobs.tolerance,
                    knobs.checkpoint_interval, knobs.cost_model) == (
                4, 128, 1e-7, 9, model.cost_model)

    @pytest.mark.parametrize("mutate", [
        lambda cell: dataclasses.replace(cell, matrix=dataclasses.replace(
            cell.matrix, rhs_seed=7)),
        lambda cell: dataclasses.replace(cell, knobs=dataclasses.replace(
            cell.knobs, page_size=96)),
    ], ids=["rhs_seed", "page_size"])
    def test_the_oracle_can_fail(self, recorded, mutate, monkeypatch):
        cell = fig5.calibration_cell
        monkeypatch.setattr(fig5, "calibration_cell",
                            lambda *args: mutate(cell(*args)))
        assert fig5_oracle.calibration_table(16) \
            != recorded["calibration"]["16"]


@pytest.mark.ranks
class TestFig5Measured:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5_measured(ranks=(1, 2), points=8,
                                 methods=("ideal", "AFEIR"))

    def test_grid_complete(self, result):
        assert {(r.ranks, r.method) for r in result.rows} == \
            {(1, "ideal"), (1, "AFEIR"), (2, "ideal"), (2, "AFEIR")}

    def test_single_rank_moves_no_halo(self, result):
        for row in result.rows:
            if row.ranks == 1:
                assert row.measured_halo_ms == 0.0
                assert row.model_halo_ms == 0.0
                assert row.halo_bytes == 0

    def test_multi_rank_measures_real_communication(self, result):
        for row in result.rows:
            if row.ranks > 1:
                assert row.halo_exchanges >= row.iterations
                assert row.measured_halo_ms > 0.0
                assert row.model_halo_ms > 0.0
                assert row.halo_bytes > 0

    def test_recovery_lands_on_a_rank(self, result):
        afeir_multi = [r for r in result.rows
                       if r.method == "AFEIR" and r.ranks > 1]
        assert any(r.recoveries_by_rank for r in afeir_multi)

    def test_calibration_produced(self, result):
        assert result.calibrated.network_latency > 0
        assert result.calibrated.network_bandwidth > 0
        assert result.calibrated_comm_per_iter_1024 > 0
        assert result.default_comm_per_iter_1024 > 0

    def test_formatting(self, result):
        text = format_fig5_measured(result)
        assert "Figure 5, measured" in text
        assert "halo us/ex (meas)" in text
        assert "fitted" in text
