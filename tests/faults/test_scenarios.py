"""Tests for error scenarios (rate-driven, single-error, multi-error)."""

import pytest

from repro.faults.injector import Injection
from repro.faults.scenarios import (PAPER_ERROR_RATES, ErrorScenario,
                                    multi_error_scenario,
                                    single_error_scenario)


class TestScenarioConstruction:
    def test_paper_rates_constant(self):
        assert PAPER_ERROR_RATES == (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

    def test_fault_free(self):
        scen = ErrorScenario(name="fault-free", normalized_rate=0.0)
        assert scen.is_fault_free
        assert scen.queue(1.0, 10.0, [("x", 0)]).drain() == []

    def test_single_error_scenario(self):
        scen = single_error_scenario("x", 3, 1.5)
        schedule = scen.queue(1.0, 10.0, [("x", 0)]).drain()
        assert schedule == [Injection(time=1.5, vector="x", page=3)]
        assert not scen.is_fault_free

    def test_single_error_negative_time(self):
        with pytest.raises(ValueError):
            single_error_scenario("x", 0, -1.0)

    def test_multi_error_scenario_sorted(self):
        scen = multi_error_scenario([Injection(2.0, "g", 1),
                                     Injection(1.0, "x", 0)])
        schedule = scen.queue(1.0, 10.0, []).drain()
        assert [inj.time for inj in schedule] == [1.0, 2.0]


class TestScenarioInjector:
    def test_rate_scenario_schedule_scales_with_rate(self):
        pages = [("x", p) for p in range(16)]
        low = ErrorScenario(normalized_rate=1.0, seed=5)
        high = ErrorScenario(normalized_rate=20.0, seed=5)
        n_low = len(low.queue(1.0, 50.0, pages))
        n_high = len(high.queue(1.0, 50.0, pages))
        assert n_high > 5 * max(n_low, 1)

    def test_zero_rate_queues_nothing(self):
        scen = ErrorScenario(normalized_rate=0.0)
        assert len(scen.queue(1.0, 100.0, [("x", 0)])) == 0

    def test_fixed_injections_take_priority(self):
        scen = ErrorScenario(normalized_rate=10.0,
                             fixed_injections=[Injection(0.5, "x", 0)])
        assert len(scen.queue(1.0, 100.0, [("x", 0)])) == 1
