"""Seeding-hygiene tests: one Generator per trial, no shared state."""

import numpy as np

from repro.faults.injector import ExponentialInjector, derive_rng
from repro.faults.scenarios import ErrorScenario


class TestDeriveRng:
    def test_int_seed(self):
        a = derive_rng(7).integers(0, 2**31)
        b = derive_rng(7).integers(0, 2**31)
        assert a == b

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(42)
        a = derive_rng(seq).integers(0, 2**31)
        b = derive_rng(np.random.SeedSequence(42)).integers(0, 2**31)
        assert a == b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert derive_rng(gen) is gen

    def test_none_uses_default_seed_not_global_state(self):
        np.random.seed(0)  # repro-lint: allow[unseeded-rng] deliberate global perturbation; proves derive_rng ignores it
        a = derive_rng(None).integers(0, 2**31)
        np.random.seed(12345)  # repro-lint: allow[unseeded-rng] deliberate global perturbation; proves derive_rng ignores it
        b = derive_rng(None).integers(0, 2**31)
        assert a == b


class TestInjectorSeeding:
    def test_injector_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(11)
        a = ExponentialInjector(mtbe=1.0, rng=seq).sample_times(30.0)
        b = ExponentialInjector(
            mtbe=1.0, rng=np.random.SeedSequence(11)).sample_times(30.0)
        assert a == b

    def test_spawned_children_are_independent(self):
        children = np.random.SeedSequence(2015).spawn(2)
        a = ExponentialInjector(mtbe=1.0, rng=children[0]).sample_times(50.0)
        b = ExponentialInjector(mtbe=1.0, rng=children[1]).sample_times(50.0)
        assert a != b

    def test_shared_generator_advances(self):
        gen = np.random.default_rng(9)
        first = ExponentialInjector(mtbe=1.0, rng=gen).sample_times(20.0)
        second = ExponentialInjector(mtbe=1.0, rng=gen).sample_times(20.0)
        assert first != second


class TestScenarioSeeding:
    def test_scenario_with_seed_sequence_is_reproducible(self):
        pages = [("x", p) for p in range(6)]
        scen = ErrorScenario(name="s", normalized_rate=5.0,
                             seed=np.random.SeedSequence(77))
        a = scen.queue(1.0, 20.0, pages).drain()
        scen2 = ErrorScenario(name="s", normalized_rate=5.0,
                              seed=np.random.SeedSequence(77))
        b = scen2.queue(1.0, 20.0, pages).drain()
        assert a == b
        assert len(a) > 0

    def test_reseeded_copy(self):
        scen = ErrorScenario(name="s", normalized_rate=5.0, seed=1)
        pages = [("x", p) for p in range(6)]
        clone = scen.reseeded(np.random.SeedSequence(2), name="s2")
        assert clone.name == "s2"
        assert clone.normalized_rate == scen.normalized_rate
        assert scen.queue(1.0, 20.0, pages).drain() \
            != clone.queue(1.0, 20.0, pages).drain()

    def test_resilient_solver_runs_with_spawned_scenario(self):
        """End-to-end: a SeedSequence-seeded scenario drives a real solve."""
        from repro.core.manager import make_strategy
        from repro.matrices.laplacian import laplacian_2d
        from repro.matrices.stencil import stencil_rhs
        from repro.solvers.resilient_cg import ResilientCG, SolverConfig

        A = laplacian_2d(10)
        b = stencil_rhs(A)
        cfg = SolverConfig(num_workers=4, page_size=20, tolerance=1e-8)
        ideal = ResilientCG(A, b, config=cfg).solve()
        child = np.random.SeedSequence(31415).spawn(1)[0]
        scen = ErrorScenario(name="spawned", normalized_rate=10.0,
                             seed=child)
        solver = ResilientCG(A, b, strategy=make_strategy("FEIR"),
                             scenario=scen, config=cfg)
        result = solver.solve(ideal_time=ideal.record.solve_time)
        assert result.record.converged
        assert result.record.faults_injected > 0
