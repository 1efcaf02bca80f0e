"""Tests for the declarative campaign spec and its expansion."""

import pickle
import re

import numpy as np
import pytest

from repro.campaign.spec import (CampaignSpec, MatrixSpec, SolverKnobs,
                                 TrialSpec)


class TestMatrixSpec:
    def test_parse_suite_name(self):
        spec = MatrixSpec.parse("qa8fm")
        assert spec.family == "suite"
        assert spec.label == "qa8fm"

    def test_parse_parametric(self):
        spec = MatrixSpec.parse("laplacian2d:12x9")
        assert spec.family == "laplacian2d"
        assert dict(spec.params) == {"nx": 12, "ny": 9}

    def test_parse_square_default(self):
        spec = MatrixSpec.parse("laplacian2d:12")
        assert dict(spec.params) == {"nx": 12, "ny": 12}

    def test_parse_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            MatrixSpec.parse("hilbert:12")

    def test_parse_rejects_missing_dims(self):
        with pytest.raises(ValueError):
            MatrixSpec.parse("laplacian2d:")

    @pytest.mark.parametrize("text, takes", [
        ("poisson3d27:6x5x4", "1 dimension,"),
        ("laplacian2d:10x12x99", "2 dimensions,"),
        ("laplacian1d:5x7", "1 dimension,"),
    ])
    def test_parse_rejects_extra_dimensions(self, text, takes):
        """A dimension the family would not read is an error, not a
        silently smaller grid."""
        with pytest.raises(ValueError, match=f"takes at most {takes} got"):
            MatrixSpec.parse(text)

    def test_unknown_family_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MatrixSpec(family="dense")

    def test_unknown_suite_name_rejected_at_construction(self):
        """Not only ``parse``: a suite name that reaches the constructor
        another way (the wire) is refused before any build."""
        with pytest.raises(ValueError, match="unknown suite matrix"):
            MatrixSpec.suite("nosuch")

    @pytest.mark.parametrize("family, params", [
        ("laplacian2d", (("zz", 3),)),
        ("laplacian1d", (("nx", 3),)),
        ("poisson3d27", ()),
        ("laplacian2d", (("nx", 0),)),
        ("poisson2d", (("nx", 4), ("ny", -1))),
        # a name build() would ignore would still move the store key
        ("laplacian2d", (("nx", 8), ("zz", 3))),
        ("laplacian1d", (("n", 8), ("nx", 3))),
        ("poisson3d27", (("nx", 4), ("ny", 4))),
    ])
    def test_parametric_family_needs_a_positive_size(self, family, params):
        with pytest.raises(ValueError, match="parameter"):
            MatrixSpec(family=family, params=params)

    def test_build_sparse_operator_backend(self):
        from repro.matrices.sparse import SparseOperator
        A, b = MatrixSpec.parse("laplacian2d:8").build()
        assert isinstance(A, SparseOperator)
        assert A.shape == (64, 64)
        assert b.shape == (64,)

    def test_build_suite_scipy_backend(self):
        import scipy.sparse as sp
        A, b = MatrixSpec.suite("qa8fm").build()
        assert sp.issparse(A)
        assert A.shape[0] == b.shape[0]

    def test_build_is_deterministic(self):
        spec = MatrixSpec.parse("laplacian2d:8")
        A1, b1 = spec.build()
        A2, b2 = spec.build()
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(b1, b2)

    def test_no_rhs_seed_is_the_seedless_right_hand_side(self):
        """``rhs_seed=None`` is ``b = A·1``: a token no integer seed
        renders, while every integer-seeded token stays as it was."""
        seeded = MatrixSpec.parametric("poisson3d27", sparse=False, nx=4)
        seedless = MatrixSpec.parametric("poisson3d27", sparse=False,
                                         rhs_seed=None, nx=4)
        assert seeded.content_token() == \
            "matrix/poisson3d27//[nx=4]/sparse=0/rhs_seed=20150715"
        assert seedless.content_token() == \
            "matrix/poisson3d27//[nx=4]/sparse=0/rhs_seed=None"
        A, b = seedless.build()
        assert np.array_equal(b, A @ np.ones(A.shape[0]))
        assert not np.array_equal(b, seeded.build()[1])


class TestCampaignSpec:
    def make_spec(self, **overrides):
        defaults = dict(matrices=["laplacian2d:8"],
                        methods=("FEIR", "AFEIR"), rates=(1.0, 10.0),
                        repetitions=3, seed=7)
        defaults.update(overrides)
        return CampaignSpec(**defaults)

    def test_num_trials(self):
        assert self.make_spec().num_trials == 1 * 2 * 2 * 3

    def test_expand_indices_are_dense(self):
        trials = self.make_spec().expand()
        assert [t.index for t in trials] == list(range(len(trials)))

    def test_expand_derives_independent_seeds(self):
        trials = self.make_spec().expand()
        entropies = {tuple(t.seed.entropy) for t in trials}
        assert len(entropies) == len(trials)
        # ... and the campaign seed is the leading entropy word, so two
        # campaigns differing only in seed share no trial seed material.
        assert all(tuple(t.seed.entropy)[0] == 7 for t in trials)

    def test_trial_seeds_are_content_keyed(self):
        """Growing the grid must not disturb pre-existing trials' seeds
        (the property that makes the campaign store incremental)."""
        base = self.make_spec().expand()
        grown = self.make_spec(rates=(1.0, 5.0, 10.0)).expand()
        base_by_cell = {(t.matrix.label, t.method, t.rate, t.repetition):
                        tuple(t.seed.entropy) for t in base}
        grown_by_cell = {(t.matrix.label, t.method, t.rate, t.repetition):
                         tuple(t.seed.entropy) for t in grown}
        for cell, entropy in base_by_cell.items():
            assert grown_by_cell[cell] == entropy
        # store keys follow suit: the old trials are a strict subset
        base_keys = {t.store_key() for t in base}
        grown_keys = {t.store_key() for t in grown}
        assert base_keys < grown_keys

    def test_expand_is_deterministic(self):
        a = self.make_spec().expand()
        b = self.make_spec().expand()
        for ta, tb in zip(a, b, strict=True):
            assert ta.index == tb.index
            assert ta.method == tb.method
            assert ta.rate == tb.rate
            rng_a = np.random.default_rng(ta.seed)
            rng_b = np.random.default_rng(tb.seed)
            assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_trials_are_picklable(self):
        trial = self.make_spec().expand()[0]
        clone = pickle.loads(pickle.dumps(trial))
        assert isinstance(clone, TrialSpec)
        assert clone.index == trial.index
        a = np.random.default_rng(trial.seed).integers(0, 2**31)
        b = np.random.default_rng(clone.seed).integers(0, 2**31)
        assert a == b

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            self.make_spec(matrices=[])
        with pytest.raises(ValueError):
            self.make_spec(methods=())
        with pytest.raises(ValueError):
            self.make_spec(repetitions=0)

    def test_rejects_an_unknown_method(self):
        with pytest.raises(ValueError, match="unknown recovery strategy"):
            self.make_spec(methods=("FEIR", "NOPE"))

    def test_method_spelling_is_kept_verbatim(self):
        """Validation goes through ``make_strategy``; it does not
        normalise, so no content token moves."""
        spec = self.make_spec(methods=("feir", "lossy"))
        assert spec.methods == ("feir", "lossy")
        assert "methods=[feir,lossy]" in spec.content_token()

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="error rates"):
            self.make_spec(rates=(1.0, rate))

    @pytest.mark.parametrize("axis, values, named", [
        ("matrices", ["laplacian2d:8", "laplacian1d:20", "laplacian2d:8x8"],
         "laplacian2d(nx=8,ny=8)"),
        ("methods", ("FEIR", "Lossy", "FEIR"), "FEIR"),
        ("rates", (1, 10.0, 1.0), "1"),
    ])
    def test_rejects_a_repeated_grid_value(self, axis, values, named):
        """A repeated value would run each of its trials twice under one
        seed and count both copies as repetitions of the cell."""
        with pytest.raises(ValueError,
                           match=rf"{axis} list {re.escape(named)} more "):
            self.make_spec(**{axis: values})

    def test_distinct_values_keep_their_keys(self):
        """Values that only look alike are distinct, and a valid grid's
        keys are those of the grid without the check."""
        spec = self.make_spec(matrices=["laplacian2d:8", "laplacian2d:8x9"],
                              methods=("FEIR", "feir"), rates=(0.0, 1e-3))
        assert spec.num_trials == 2 * 2 * 2 * 3
        keys = [t.store_key() for t in spec.expand()]
        assert len(set(keys)) == len(keys)
        assert [k for _, k in spec.trial_keys()] == keys

    @pytest.mark.parametrize("seed", [-1, -5, 1.5, 7.0, True, "7", None,
                                      np.int64(7)])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="non-negative integer"):
            self.make_spec(seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**70])
    def test_accepts_any_non_negative_int_seed(self, seed):
        trial = self.make_spec(seed=seed).expand()[0]
        assert trial.seed.entropy[0] == seed

    def test_make_scenario_threads_trial_seed(self):
        trial = self.make_spec().expand()[0]
        scenario = trial.make_scenario()
        assert scenario.normalized_rate == trial.rate
        assert scenario.seed is trial.seed

    def test_fault_free_rate_gives_fault_free_scenario(self):
        spec = self.make_spec(rates=(0.0,))
        scenario = spec.expand()[0].make_scenario()
        assert scenario.is_fault_free

    def test_describe_is_json_friendly(self):
        import json
        text = json.dumps(self.make_spec().describe())
        assert "laplacian2d" in text

    def test_knobs_flow_into_trials(self):
        knobs = SolverKnobs(tolerance=1e-6, page_size=32)
        trials = self.make_spec(knobs=knobs).expand()
        assert all(t.knobs.tolerance == 1e-6 for t in trials)


class TestStoreAddressesArePinned:
    """Literals recorded at commit dc5a72c, the last one that accepted the
    ``backend=`` alias: the runtime portion of the knob token is a token
    *format*, so removing the alias must not move one store address."""

    DEFAULT_TOKEN = (
        "knobs/tol=1e-10/maxit=20000/workers=8/page=128/scale=200.0/"
        "precond=0/ckpt=None/history=0/backend=simulated/pace=1.0/ranks=1/"
        "cost[flop_rate=2000000000.0,dense_flop_rate=16000000000.0,"
        "mem_bandwidth=8000000000.0,task_overhead=8e-06,"
        "reduction_latency=2e-06,disk_bandwidth=200000000.0,"
        "disk_latency=0.005,network_latency=1.5e-06,"
        "network_bandwidth=5000000000.0]")

    @pytest.mark.parametrize("axes, runtime_token", [
        (dict(), "backend=simulated/pace=1.0/ranks=1"),
        (dict(scheduler="threaded", clock="wall"),
         "backend=threaded/pace=1.0/ranks=1"),
        (dict(scheduler="threaded"),
         "backend=threaded+simulated/pace=1.0/ranks=1"),
        (dict(clock="wall"), "backend=list+wall/pace=1.0/ranks=1"),
        (dict(placement="ranks", ranks=1),
         "backend=simulated/pace=1.0/placement=ranks/ranks=1"),
        (dict(ranks=2), "backend=simulated/pace=1.0/ranks=2"),
        (dict(scheduler="threaded", clock="wall", ranks=3),
         "backend=threaded/pace=1.0/ranks=3"),
    ])
    def test_runtime_portion_of_the_knob_token(self, axes, runtime_token):
        token = SolverKnobs(**axes).content_token()
        assert token[token.index("backend="):token.index("/cost[")] == \
            runtime_token

    def test_full_default_knob_token(self):
        assert SolverKnobs().content_token() == self.DEFAULT_TOKEN

    def test_trial_and_campaign_store_keys(self):
        spec = CampaignSpec(
            matrices=["laplacian2d:10"], methods=("FEIR",), rates=(2.0,),
            repetitions=1, seed=42, name="pin",
            knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                              num_workers=4, page_size=20))
        assert spec.expand()[0].store_key() == \
            "478ceba8ad33d8112e219a4071b193b90670d704f938cab17c223174811ac5ee"
        assert spec.store_key() == \
            "f7d722a348b704907d12ad49723ac4e9dc05f887c9ee87c984daaa5a0398c3d3"


class TestRuntimeFlags:
    """The four axis flags are declared once (``add_runtime_arguments``);
    the removed ``--backend`` alias is an argparse error on every CLI."""

    @pytest.mark.parametrize("module, argv", [
        ("repro.campaign.__main__", ["--backend", "threaded"]),
        ("repro.experiments.__main__", ["fig4", "--backend", "threaded"]),
        ("repro.service.__main__", ["submit", "--backend", "threaded"]),
    ])
    def test_backend_flag_exits_2(self, module, argv, capsys):
        import importlib
        with pytest.raises(SystemExit) as exit_info:
            importlib.import_module(module).main(argv)
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_axis_flags_reach_the_knobs(self):
        import argparse
        from repro.runtime.runtime import (add_runtime_arguments,
                                           runtime_axes)
        parser = argparse.ArgumentParser()
        add_runtime_arguments(parser)
        assert SolverKnobs(**runtime_axes(parser.parse_args([]))) == \
            SolverKnobs()
        args = parser.parse_args(["--scheduler", "threaded", "--clock",
                                  "wall", "--ranks", "2"])
        spec = SolverKnobs(**runtime_axes(args)).runtime_spec()
        assert (spec.scheduler, spec.placement, spec.clock, spec.ranks) == \
            ("threaded", "ranks", "wall", 2)
