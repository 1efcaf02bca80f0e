"""Self-tests of the benchmark (``python -m pytest bench -q``).

Outside tier-1's ``testpaths`` on purpose: these run every workload once
at a reduced repeat count, which takes about a minute.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import DEFAULT_SEED, ROOT, harness, layers
from bench.compare import compare_sets, judge
from bench.harness import Repeat, run_workload
from bench.trace import (Span, Target, Tracer, aggregate, child_counts,
                         union_busy)
from bench.workloads import WORKLOADS, ServiceJobs, SolveLarge

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture
def quick(monkeypatch):
    """One set-up and the minimum of repeats: a smoke-sized run."""
    monkeypatch.setattr(harness, "SETUPS", 1)


# ----------------------------------------------------------------------
# BENCHMARK.json against the code and the contract
# ----------------------------------------------------------------------
def test_benchmark_json_keeps_to_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
            == [(name, unit) for name, unit, _ in layers.PER_LAYER])


# ----------------------------------------------------------------------
# every workload emits every metric, with its unit, and passes its checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_named_metric(name, trace, quick, tmp_path):
    result = run_workload(WORKLOADS[name], seed=7, seconds=0.0, trace=trace,
                          out=tmp_path)
    line = result["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, result["problems"]
    assert line["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        assert result["trace_missing"] == []
        assert line["metrics"]["trace.missing"]["value"] == 0
    document = json.loads((tmp_path / f"{name}-seed7-trace{int(trace)}.json")
                          .read_text())
    assert document["host"]["cpus"] >= 1 and "blas" in document["host"]
    assert document["seed"] == 7 and document["repeats"] >= harness.MIN_REPEATS
    assert len(document["raw"]["work_s"]) == document["repeats"]
    assert list((tmp_path / "tmp").iterdir()) == []


def test_traced_runs_reproduce_the_predicted_shape(quick, tmp_path):
    cold = run_workload(WORKLOADS["campaign_cold"], seed=7, seconds=0.0,
                        trace=True, out=tmp_path)
    shares = cold["layer_shares"]
    assert shares["timeline"] == max(v for k, v in shares.items()
                                     if k != "solver_self")
    warm = run_workload(WORKLOADS["campaign_warm"], seed=7, seconds=0.0,
                        trace=True, out=tmp_path)
    assert warm["metrics"]["solvers.solve_s"]["value"] == 0
    assert warm["metrics"]["campaign.store.get_trial_hits"]["value"] == 60
    spans = [json.loads(line) for line in
             (tmp_path / "campaign_warm-seed7.spans.jsonl").read_text()
             .splitlines()]
    assert spans and {s["op"] for s in spans} == {"t0"}


# ----------------------------------------------------------------------
# part-by-part time estimates at the reference host speed
# ----------------------------------------------------------------------
def test_a_part_takes_its_low_quantile_over_the_repeats():
    # interference hits another part in every repeat: none of it is kept
    repeats = [Repeat(work_s=work, ops=[10, 20, 10], latency_s=work[:2],
                      attempted=1, failed=0, fingerprint="f")
               for work in ([1.0, 2.0, 9.0], [1.0, 8.0, 3.0], [7.0, 2.0, 3.0])]
    assert harness.part_times(repeats, "work_s") == [1.0, 2.0, 3.0]
    metrics = harness._end_to_end(repeats, [0.5, 0.1, 0.3], scale=1.0,
                                  setup_scale=1.0)
    # every part weighs the same: mean of 0.1, 0.1 and 0.3 s per unit
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.5)
    assert metrics["op_p50_ms"]["value"] == 1500.0
    assert metrics["setup_s"]["value"] == 0.3
    with pytest.raises(ValueError):  # repeats must do the same parts
        harness.part_times([repeats[0], _repeat()], "work_s")
    # below ten repeats the low quantile is the minimum, then the tenth
    assert harness.low_quantile([3.0, 1.0, 2.0]) == 1.0
    assert harness.low_quantile([float(v) for v in range(100, 0, -1)]) == 11.0


def test_times_are_scaled_to_the_reference_host_speed():
    slow_host = [2 * harness.CALIBRATION_REFERENCE_S] * 20 + [1.0]
    assert harness.host_scale(slow_host) == 0.5
    assert harness.host_scale([]) == 1.0
    # a set-up is a median, so it goes by the median calibration time
    disturbed = [harness.CALIBRATION_REFERENCE_S] * 2 + [
        4 * harness.CALIBRATION_REFERENCE_S] * 9
    assert harness.host_scale(disturbed) == 1.0
    assert harness.host_scale(disturbed, harness.statistics.median) == 0.25
    metrics = harness._end_to_end([_repeat(), _repeat()], [0.4], scale=0.5,
                                  setup_scale=0.25)
    assert metrics["setup_s"]["value"] == 0.1
    assert metrics["ops_per_s"]["value"] == 20.0
    assert metrics["op_p50_ms"]["value"] == 500.0


def test_calibration_samples_are_kept_out_of_the_repeat_wall(monkeypatch,
                                                             tmp_path):
    import time

    class Ticking(harness.Workload):
        def repeat(self):
            time.sleep(0.01)
            self.tick()
            return _repeat()

    def slow_sample():
        time.sleep(0.05)
        return 5.0

    assert 0 < harness.calibration_sample() < 1
    monkeypatch.setattr(harness, "calibration_sample", slow_sample)
    workload = Ticking(7, tmp_path)
    repeats = harness._measure(workload, deadline=0.0)
    assert workload.calibration == [5.0] * harness.MIN_REPEATS
    assert all(0.01 <= r.wall < 0.05 for r in repeats)


def test_a_run_keeps_to_one_cpu_and_gives_the_others_back():
    import os
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    with harness.pinned_to_one_cpu():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == before
    with harness.pinned_to_one_cpu(False):
        assert os.sched_getaffinity(0) == before


# ----------------------------------------------------------------------
# span arithmetic on synthetic nested spans
# ----------------------------------------------------------------------
SYNTHETIC = [
    Span(0, "outer", 0.0, 10.0, None, "main", "t0"),
    Span(1, "inner", 1.0, 4.0, 0, "main", "t0"),
    Span(2, "leaf", 2.0, 3.0, 1, "main", "t0"),
    Span(3, "inner", 5.0, 7.0, 0, "main", "t0"),
    Span(4, "leaf", 20.0, 21.5, None, "worker", "t0"),
]


def test_self_time_is_duration_minus_direct_children():
    stats = aggregate(SYNTHETIC)
    assert (stats["outer"].calls, stats["outer"].busy) == (1, 10.0)
    assert stats["outer"].self_time == 10.0 - (3.0 + 2.0)
    assert (stats["inner"].calls, stats["inner"].busy) == (2, 5.0)
    assert stats["inner"].self_time == 5.0 - 1.0
    assert stats["leaf"].busy == stats["leaf"].self_time == 2.5
    assert sum(s.self_time for s in stats.values()) == 10.0 + 1.5


def test_union_busy_counts_nested_group_members_once():
    assert union_busy(SYNTHETIC, ["inner", "leaf"]) == 5.0 + 1.5
    assert union_busy(SYNTHETIC, ["outer", "leaf"]) == 10.0 + 1.5
    assert union_busy(SYNTHETIC, ["absent"]) == 0.0
    assert child_counts(SYNTHETIC)[("inner", "outer")] == 2
    assert child_counts(SYNTHETIC)[("leaf", None)] == 1


# ----------------------------------------------------------------------
# the tracer puts everything back, and survives a vanished target
# ----------------------------------------------------------------------
def _resolve(where):
    module_name, _, qualname = where.partition(":")
    owner = __import__(module_name, fromlist=["_"])
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_wrappers_are_installed_and_fully_restored():
    import repro.campaign
    import repro.service.server
    from repro.campaign.engine import run_trial
    from bench.trace import TARGETS
    before = [_resolve(t.where) for t in TARGETS]
    tracer = Tracer()
    with tracer:
        during = [_resolve(t.where) for t in TARGETS]
        assert all(d is not b for d, b in zip(during, before, strict=True))
        # a function imported by name is replaced where it was imported
        assert repro.service.server.run_trial is not run_trial
        assert repro.campaign.run_trial is not run_trial
    assert tracer.missing == []
    after = [_resolve(t.where) for t in TARGETS]
    assert all(a is b for a, b in zip(after, before, strict=True))
    assert repro.service.server.run_trial is run_trial
    assert repro.campaign.run_trial is run_trial


def test_a_vanished_target_is_reported_not_raised():
    gone = (Target("x.module", "repro.no_such_module:f"),
            Target("x.attr", "repro.runtime.graph:TaskGraph.no_such_method"),
            Target("x.inherited", "repro.core.afeir:AFEIRStrategy.handle_lost_pages"),
            Target("runtime.graph.validate", "repro.runtime.graph:TaskGraph.validate"))
    from repro.runtime.graph import TaskGraph
    tracer = Tracer(gone)
    with tracer:
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.validate()
    assert tracer.missing == [t.where for t in gone[:3]]
    assert [s.name for s in tracer.spans()] == ["runtime.graph.validate"]
    data = layers.TraceData(spans=tracer.spans(), counts={}, repeats=1,
                            values={"trace.missing": len(tracer.missing)})
    table = layers.layer_table(data)
    assert table["trace.missing"]["value"] == 3
    assert table["runtime.kernels.spmv_s"]["value"] == 0


def test_a_boundary_counter_that_cannot_be_read_is_reported():
    def after(count, args, kwargs, result):
        count("x", result.no_such_attribute)

    from repro.runtime.graph import TaskGraph
    tracer = Tracer((Target("runtime.graph.validate",
                            "repro.runtime.graph:TaskGraph.validate", after),))
    with tracer:
        TaskGraph().validate()
    assert tracer.missing == ["runtime.graph.validate"]


# ----------------------------------------------------------------------
# every check can fail, and a failure raises the failed share
# ----------------------------------------------------------------------
def _repeat(fingerprint="f" * 64, failed=0):
    return Repeat(work_s=[1.0], ops=[10], latency_s=[1.0], attempted=10,
                  failed=failed, fingerprint=fingerprint)


def test_a_corrupted_fingerprint_fails_the_repeat():
    clean = harness._judge([_repeat(), _repeat()], golden=None)
    assert (clean["correct"], clean["failed"]) == (True, 0)
    drift = harness._judge([_repeat(), _repeat("e" * 64)], golden=None)
    assert (drift["correct"], drift["failed"], drift["attempted"]) == (False, 10, 20)
    golden = harness._judge([_repeat(), _repeat()], golden="0" * 64)
    assert golden["failed"] == golden["attempted"] == 20


def test_the_golden_is_enforced_at_its_seed_and_stack_only(monkeypatch):
    host = harness.host_description()
    recorded = {"seed": 5, "stack": harness.numerics_stack(host),
                "fingerprints": {"solve_cells": "abc"}}
    monkeypatch.setattr(harness, "load_golden", lambda: recorded)
    assert harness.golden_for("solve_cells", 5, host) == "abc"
    assert harness.golden_for("solve_cells", 6, host) is None
    assert harness.golden_for("solve_cells", 5, {**host, "numpy": "0"}) is None


def test_golden_records_what_golden_for_then_enforces(monkeypatch, quick,
                                                      tmp_path):
    from bench import __main__ as cli
    from bench import workloads
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "GOLDEN_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(workloads, "WORKLOADS", {"solve_large": _SmallSolve})
    assert cli.main(["golden"]) == 0
    recorded = harness.golden_for("solve_large", DEFAULT_SEED,
                                  harness.host_description())
    again = run_workload(_SmallSolve, seed=DEFAULT_SEED, seconds=0.0,
                         out=tmp_path)
    assert again["golden"] == recorded == again["fingerprint"]
    assert again["failed"] == 0


def test_a_golden_mismatch_raises_failed_frac(monkeypatch, quick, tmp_path):
    monkeypatch.setattr(harness, "golden_for", lambda *a: "0" * 64)
    result = run_workload(WORKLOADS["solve_cells"], seed=7, seconds=0.0,
                          out=tmp_path)
    assert result["line"]["correct"] is False
    assert result["failed"] == result["attempted"] > 0


class _SmallSolve(SolveLarge):
    POINTS = 8
    PAGE_SIZE = 64


def test_a_perturbed_iteration_count_fails_the_solves(quick, tmp_path):
    class Perturbed(_SmallSolve):
        def setup(self, variant):
            super().setup(variant)
            self.ideal_iterations += 1

    clean = run_workload(_SmallSolve, seed=7, seconds=0.0, out=tmp_path)
    assert clean["failed"] == 0, clean["problems"]
    result = run_workload(Perturbed, seed=7, seconds=0.0, out=tmp_path)
    assert result["line"]["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "iterations" in result["problems"][0]


def test_a_failed_job_raises_failed_frac(quick, tmp_path):
    class WrongReference(ServiceJobs):
        RESUBMITS = 2

        def setup(self, variant):
            super().setup(variant)
            self.offline_fingerprint = "not-the-offline-fingerprint"

    result = run_workload(WrongReference, seed=7, seconds=0.0, out=tmp_path)
    assert result["line"]["correct"] is False
    assert result["failed"] == result["attempted"]
    job = ServiceJobs(7, tmp_path)
    job.offline_fingerprint = "x"
    assert job._check_job("job", {"event": "failed", "error": "boom"}, 0)
    assert job._check_job("job", {"event": "done", "fingerprint": "x",
                                  "executed": 3}, 0)
    assert not job._check_job("job", {"event": "done", "fingerprint": "x",
                                      "executed": 0}, 0)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_judge_tells_within_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(steady, [v * 0.98 for v in steady], "higher", 0.1)[0] == "within"
    assert judge(steady, [v * 0.80 for v in steady], "higher", 0.1)[0] == "worse"
    assert judge(steady, [v * 1.30 for v in steady], "lower", 0.1)[0] == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert judge(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    # wide spread, but every run of B beats every run of A
    assert judge(noisy, [v + 100 for v in noisy], "higher", 0.1)[0] == "within"


def _write_set(directory, scale=1.0, fingerprint="f" * 64, failed=0):
    directory.mkdir()
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            metrics = {m["name"]: {"unit": m["unit"], "value":
                                   (100.0 + seed) * (scale if m["better"] == "higher"
                                                     else 1.0)}
                       for m in BENCHMARK["end_to_end"]}
            (directory / f"{workload}-seed{seed}-trace0.json").write_text(
                json.dumps({"workload": workload, "seed": seed,
                            "metrics": metrics, "fingerprint": fingerprint,
                            "attempted": 10, "failed": failed}))
    return directory


def test_compare_exit_status(tmp_path, capsys):
    base = _write_set(tmp_path / "a")
    assert compare_sets(base, _write_set(tmp_path / "same"), BENCHMARK) == 0
    assert compare_sets(base, _write_set(tmp_path / "slow", scale=0.5),
                        BENCHMARK) == 1
    assert "worse" in capsys.readouterr().out
    assert compare_sets(base, _write_set(tmp_path / "moved",
                                         fingerprint="e" * 64), BENCHMARK) == 1
    assert "CHANGED" in capsys.readouterr().out
    assert compare_sets(base, _write_set(tmp_path / "failing", failed=1),
                        BENCHMARK) == 1
