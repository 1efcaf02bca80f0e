"""Tests for the analysis helpers (stats, overheads, histories, tables)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import ConvergenceRecord, ResidualHistory
from repro.analysis.overheads import (overhead_percent, parallel_efficiency,
                                      slowdown_percent, speedup)
from repro.analysis.report import format_table
from repro.analysis.stats import (harmonic_mean, harmonic_mean_overhead,
                                  mean_and_std)


class TestStats:
    def test_harmonic_mean_basic(self):
        assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_mean([2.0, 6.0]) == pytest.approx(3.0)

    def test_harmonic_mean_validation(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    def test_harmonic_mean_overhead_handles_zeros(self):
        assert harmonic_mean_overhead([0.0, 0.0]) == pytest.approx(0.0)
        assert harmonic_mean_overhead([10.0, 10.0]) == pytest.approx(10.0)

    def test_mean_and_std(self):
        mean, std = mean_and_std([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_mean_and_std_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_std([])

    def test_harmonic_mean_overhead_averages_factors(self):
        # factors 1 and 2 -> harmonic mean 4/3 -> 33.3 % overhead
        assert harmonic_mean_overhead([0.0, 100.0]) == pytest.approx(100 / 3)

    def test_harmonic_mean_overhead_validation(self):
        with pytest.raises(ValueError):
            harmonic_mean_overhead([])
        with pytest.raises(ValueError):
            harmonic_mean_overhead([10.0, -100.0])

    @given(values=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_harmonic_leq_geometric_leq_arithmetic(self, values):
        hm = harmonic_mean(values)
        gm = float(np.exp(np.mean(np.log(values))))
        am = float(np.mean(values))
        assert hm <= gm * (1 + 1e-9)
        assert gm <= am * (1 + 1e-9)


class TestOverheads:
    def test_overhead_percent(self):
        assert overhead_percent(1.1, 1.0) == pytest.approx(10.0)
        assert slowdown_percent(1.0, 1.0) == pytest.approx(0.0)

    def test_overhead_validation(self):
        with pytest.raises(ValueError):
            overhead_percent(1.0, 0.0)
        with pytest.raises(ValueError):
            overhead_percent(-1.0, 1.0)

    def test_speedup_and_efficiency(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert parallel_efficiency(8.0, 16.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0.0)

    def test_measured_overhead_allows_negative_noise(self):
        from repro.analysis.overheads import measured_overhead_percent
        assert measured_overhead_percent(1.1, 1.0) == pytest.approx(10.0)
        # Real executions are noisy: faster-than-ideal is a valid reading.
        assert measured_overhead_percent(0.9, 1.0) == pytest.approx(-10.0)
        with pytest.raises(ValueError):
            measured_overhead_percent(1.0, 0.0)
        with pytest.raises(ValueError):
            measured_overhead_percent(-0.1, 1.0)


class TestResidualHistory:
    def test_append_and_final_values(self):
        h = ResidualHistory()
        h.append(0, 0.0, 1.0)
        h.append(1, 0.5, 0.1)
        assert len(h) == 2
        assert h.final_residual == 0.1
        assert h.final_iteration == 1

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            ResidualHistory().append(0, 0.0, -1.0)

    def test_log_residuals(self):
        h = ResidualHistory()
        h.append(0, 0.0, 1.0)
        h.append(1, 1.0, 1e-5)
        np.testing.assert_allclose(h.log_residuals(), [0.0, -5.0])

    def test_empty_history_defaults(self):
        h = ResidualHistory()
        assert h.final_residual == float("inf")
        assert h.final_iteration == 0

    def test_log_residuals_of_an_exact_zero_is_finite(self):
        h = ResidualHistory()
        h.append(0, 0.0, 0.0)
        logs = h.log_residuals()
        assert np.isfinite(logs).all()
        assert logs[0] == pytest.approx(np.log10(np.finfo(np.float64).tiny))


class TestConvergenceRecord:
    def test_slowdown_vs(self):
        base = ConvergenceRecord(True, 10, 1.0, 1e-10)
        other = ConvergenceRecord(True, 12, 1.5, 1e-10)
        assert other.slowdown_vs(base) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            other.slowdown_vs(ConvergenceRecord(True, 1, 0.0, 0.0))

    def test_summary_mentions_status(self):
        rec = ConvergenceRecord(False, 3, 0.5, 1e-2, method="CG-FEIR",
                                matrix="thermal2")
        text = rec.summary()
        assert "NOT converged" in text and "CG-FEIR" in text

    def test_summary_counts_faults(self):
        rec = ConvergenceRecord(True, 40, 2.0, 1e-11, faults_injected=3,
                                faults_detected=2)
        text = rec.summary()
        assert text.startswith("solver on matrix: converged in 40 iterations")
        assert "faults=2/3" in text


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_column_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
