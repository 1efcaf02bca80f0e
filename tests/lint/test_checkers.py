"""Fixture-driven checker tests: violation, clean, and pragma-suppressed
snippets for each rule."""

import pytest

from repro.lint.engine import lint_source

LIB = "src/repro/somemodule.py"           # generic library path
STORE = "src/repro/campaign/store.py"     # fingerprint-critical module
SOLVER = "src/repro/solvers/resilient_cg.py"  # paged-reduction module
PLANNER = "src/repro/solvers/cg_plan.py"  # paged-reduction module (re-enactment probes)


def active_codes(src, path):
    return [f.code for f in lint_source(src, path).active]


def run(src, path):
    return lint_source(src, path)


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_violation_time_time(self):
        assert active_codes("import time\nt = time.time()\n", LIB) == ["wall-clock"]

    def test_violation_from_import_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert active_codes(src, LIB) == ["wall-clock"]

    def test_violation_datetime_now(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert active_codes(src, LIB) == ["wall-clock"]

    def test_clean_sleep_and_simulated_clock(self):
        src = "import time\ntime.sleep(0.1)\nt = clock.now()\n"
        assert active_codes(src, LIB) == []

    def test_pragma_suppressed(self):
        src = "import time\nt = time.time()  # repro-lint: allow[wall-clock] measured span only\n"
        result = run(src, LIB)
        assert not result.active and len(result.suppressed) == 1

    def test_service_modules_are_allowlisted(self):
        src = "import time\nt = time.time()\n"
        assert active_codes(src, "src/repro/service/server.py") == []

    def test_tests_are_exempt(self):
        src = "import time\nt = time.time()\n"
        assert active_codes(src, "tests/test_something.py") == []

    def test_arbitrary_tempfile_is_not_exempt(self):
        # the CLI canary writes a violation to a temp dir; the rule must
        # still fire outside the repo layout
        src = "import time\nt = time.time()\n"
        assert active_codes(src, "/tmp/tmpabc123/canary.py") == ["wall-clock"]


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
class TestRng:
    def test_violation_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert active_codes(src, LIB) == ["unseeded-rng"]

    def test_violation_seeded_default_rng_in_library(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert active_codes(src, LIB) == ["unseeded-rng"]

    def test_seeded_default_rng_ok_in_tests(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert active_codes(src, "tests/test_x.py") == []

    def test_violation_legacy_global_call(self):
        src = "import numpy as np\nnp.random.seed(0)\nv = np.random.normal()\n"
        assert active_codes(src, LIB) == ["unseeded-rng", "unseeded-rng"]

    def test_violation_stdlib_random(self):
        assert active_codes("import random\n", LIB) == ["unseeded-rng"]
        assert active_codes("from random import shuffle\n", LIB) == ["unseeded-rng"]

    def test_clean_derive_rng(self):
        src = ("from repro.faults.injector import derive_rng\n"
               "rng = derive_rng(1234)\n")
        assert active_codes(src, LIB) == []

    def test_factory_module_may_call_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert active_codes(src, "src/repro/faults/injector.py") == []

    def test_pragma_suppressed(self):
        src = ("import numpy as np\n"
               "# repro-lint: allow[unseeded-rng] deliberate perturbation\n"
               "np.random.seed(0)\n")
        result = run(src, "tests/test_x.py")
        assert not result.active and len(result.suppressed) == 1


# ----------------------------------------------------------------------
# unordered-iter
# ----------------------------------------------------------------------
class TestOrdering:
    def test_violation_set_iteration(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert active_codes(src, STORE) == ["unordered-iter"]

    def test_violation_unsorted_glob(self):
        src = "import glob\nfor p in glob.glob('*.json'):\n    print(p)\n"
        assert active_codes(src, STORE) == ["unordered-iter"]

    def test_violation_pathlib_glob_method(self):
        src = "paths = [p for p in root.glob('*/*')]\n"
        assert active_codes(src, STORE) == ["unordered-iter"]

    def test_violation_keys_iteration(self):
        src = "for k in d.keys():\n    print(k)\n"
        assert active_codes(src, STORE) == ["unordered-iter"]

    def test_violation_dumps_without_sort_keys(self):
        src = "import json\ns = json.dumps({'a': 1})\n"
        assert active_codes(src, STORE) == ["unordered-iter"]

    def test_clean_sorted_listing_and_sorted_dumps(self):
        src = ("import glob, json\n"
               "for p in sorted(glob.glob('*.json')):\n"
               "    print(p)\n"
               "s = json.dumps({'a': 1}, sort_keys=True)\n"
               "for k in sorted(d):\n"
               "    print(k)\n")
        assert active_codes(src, STORE) == []

    def test_rule_only_fires_in_fingerprint_modules(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert active_codes(src, LIB) == []

    def test_pragma_suppressed(self):
        src = ("import glob\n"
               "# repro-lint: allow[unordered-iter] files are deleted, order never hashed\n"
               "for p in glob.glob('*.tmp'):\n"
               "    print(p)\n")
        result = run(src, STORE)
        assert not result.active and len(result.suppressed) == 1


# ----------------------------------------------------------------------
# paged-reduction
# ----------------------------------------------------------------------
class TestReductions:
    def test_violation_np_dot(self):
        src = "import numpy as np\nv = np.dot(u, w)\n"
        assert active_codes(src, SOLVER) == ["paged-reduction"]

    def test_violation_np_sum(self):
        src = "import numpy as np\nv = np.sum(u)\n"
        assert active_codes(src, SOLVER) == ["paged-reduction"]

    def test_violation_ndarray_method(self):
        assert active_codes("v = u.dot(w)\n", SOLVER) == ["paged-reduction"]
        assert active_codes("v = u.sum()\n", SOLVER) == ["paged-reduction"]

    def test_violation_slice_matmul(self):
        src = "v = float(u[sl] @ w[sl])\n"
        assert active_codes(src, SOLVER) == ["paged-reduction"]

    def test_clean_paged_dot_and_matvec(self):
        src = ("from repro.runtime.kernels import paged_dot\n"
               "v = paged_dot(u, w, 64)\n"
               "y = A @ x\n"
               "s = engine.dot(u, w, skip)\n")
        assert active_codes(src, SOLVER) == []

    def test_rule_only_fires_in_paged_modules(self):
        src = "import numpy as np\nv = np.dot(u, w)\n"
        assert active_codes(src, LIB) == []

    def test_rule_follows_the_reenactment_probes_into_the_plan_owner(self):
        """Seeded canary: the per-chunk probe dots moved to cg_plan.py
        with the re-enactment, and the rule moved with them."""
        src = "import numpy as np\nv = np.dot(u, w)\n"
        assert active_codes(src, PLANNER) == ["paged-reduction"]
        assert active_codes("v = float(u[sl] @ w[sl])\n", PLANNER) == \
            ["paged-reduction"]

    def test_pragma_suppressed(self):
        src = ("import numpy as np\n"
               "v = np.sum(u[sl])  # repro-lint: allow[paged-reduction] single chunk, order fixed\n")
        result = run(src, SOLVER)
        assert not result.active and len(result.suppressed) == 1


# ----------------------------------------------------------------------
# lock-discipline (bare acquire; lock order is the sanitizer's)
# ----------------------------------------------------------------------
class TestBareAcquire:
    def test_violation_bare_acquire(self):
        src = ("from repro.sanitize import make_lock\n"
               "lock = make_lock()\n"
               "def f():\n"
               "    lock.acquire()\n"
               "    work()\n"
               "    lock.release()\n")
        assert active_codes(src, LIB) == ["lock-discipline"]

    def test_clean_with_statement(self):
        src = ("from repro.sanitize import make_lock\n"
               "lock = make_lock()\n"
               "def f():\n"
               "    with lock:\n"
               "        work()\n")
        assert active_codes(src, LIB) == []

    def test_clean_try_finally(self):
        src = ("from repro.sanitize import make_lock\n"
               "lock = make_lock()\n"
               "def f():\n"
               "    lock.acquire()\n"
               "    try:\n"
               "        work()\n"
               "    finally:\n"
               "        lock.release()\n")
        assert active_codes(src, LIB) == []

    def test_clean_acquire_inside_try(self):
        src = ("from repro.sanitize import make_lock\n"
               "lock = make_lock()\n"
               "def f():\n"
               "    try:\n"
               "        lock.acquire()\n"
               "        work()\n"
               "    finally:\n"
               "        lock.release()\n")
        assert active_codes(src, LIB) == []

    def test_pragma_suppressed(self):
        src = ("from repro.sanitize import make_lock\n"
               "baton = make_lock()\n"
               "def f():\n"
               "    baton.acquire()  # repro-lint: allow[lock-discipline] released by the taker thread\n")
        result = run(src, LIB)
        assert not result.active and len(result.suppressed) == 1


# ----------------------------------------------------------------------
# framework-level behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_syntax_error_reported_as_parse_error(self):
        result = run("def broken(:\n", LIB)
        assert [f.code for f in result.active] == ["parse-error"]
        assert result.parse_errors == 1

    @pytest.mark.parametrize("code", [
        "wall-clock", "unseeded-rng", "unordered-iter",
        "paged-reduction", "lock-discipline", "sanitizer-factory"])
    def test_every_rule_has_explanation(self, code):
        from repro.lint.report import render_explanation
        text = render_explanation(code)
        assert code in text and len(text) > 100

    def test_findings_sorted_by_position(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        result = run(src, LIB)
        assert [f.line for f in result.active] == [2, 3]
