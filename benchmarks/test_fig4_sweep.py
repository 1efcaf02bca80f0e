"""Benchmark regenerating Figure 4: slowdown versus normalised error rate."""

from repro.experiments.fig4 import format_fig4, run_fig4


def test_fig4_error_rate_sweep(benchmark, bench_config, bench_rates):
    result = benchmark.pedantic(
        run_fig4, kwargs=dict(config=bench_config, rates=bench_rates),
        rounds=1, iterations=1)
    print()
    print(format_fig4(result))

    lowest = min(bench_rates)
    highest = max(bench_rates)
    summary = result.summary

    # Paper shape at the lowest rate: exact forward recovery is the cheapest,
    # AFEIR below FEIR, both far below checkpointing.
    assert summary[("AFEIR", lowest)] <= summary[("FEIR", lowest)] + 1.0
    assert summary[("FEIR", lowest)] < summary[("ckpt", lowest)]
    assert summary[("FEIR", lowest)] < 25.0

    # At every rate the exact recoveries beat checkpointing.  They beat
    # the trivial method wherever one of its trials detected a DUE; where
    # none did, its solves are the fault-free ones (0 %), below FEIR's
    # recovery-task overhead.  The trivial method blows up at high rates.
    for rate in bench_rates:
        assert summary[("FEIR", rate)] < summary[("ckpt", rate)]
        assert summary[("AFEIR", rate)] < summary[("ckpt", rate)]
        if any(trial.method == "Trivial" and trial.rate == rate
               and trial.faults_detected for trial in result.campaign.trials):
            assert summary[("FEIR", rate)] < summary[("Trivial", rate)]
        else:
            assert summary[("Trivial", rate)] == 0.0
    assert summary[("Trivial", highest)] > 100.0

    # Slowdowns grow (weakly) with the error rate for the exact recoveries.
    assert summary[("FEIR", highest)] >= summary[("FEIR", lowest)] - 1.0
