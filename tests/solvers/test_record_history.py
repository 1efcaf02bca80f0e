"""``record_history`` is honoured on every path an iteration can end by.

The iteration-0 entry is always recorded; every later entry only under
``record_history=True``.  Before the solver had one "close this
iteration" routine the early-convergence break, the recursive-residual
resync and the ``d.q <= 0`` breakdown appended unconditionally, so what a
``record_history=False`` solve recorded depended on which path its
faults took.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest
import scipy

from repro.core.manager import make_strategy
from repro.faults.scenarios import ErrorScenario
from repro.matrices.stencil import poisson_2d_5pt, stencil_rhs
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

#: (method, scenario seed) -> entries and sha256 of the
#: ``iteration,time.hex(),residual.hex()`` sequence of the
#: ``record_history=True`` solve, recorded at commit dc5a72c.  The
#: Trivial solve takes the breakdown path, which that commit recorded
#: even with ``record_history=False`` (3 entries instead of 1).
RECORDED = {
    ("Lossy", 1): (75, "693a172a2f72f73e5c6c509912ca6513"
                       "e34194a4cbb67b8be7ba7338564232e1"),
    ("Trivial", 7): (68, "334b3d3b58158fc7a4d7f52aca4c66b1"
                         "609ba775ff024d446b7c31503a4e178b"),
}
#: Residuals are bit-exact only on the numerics stack that recorded them
#: (the same one as ``fixtures/solve_oracle.json``).
RECORDED_STACK = json.loads(
    (Path(__file__).parent / "fixtures" / "solve_oracle.json").read_text()
)["stack"]
IDEAL_TIME = float.fromhex("0x1.1a6d698fe6926p-7")


def solve(method, seed, record_history):
    A = poisson_2d_5pt(12)
    b = stencil_rhs(A, kind="random", seed=11)
    config = SolverConfig(page_size=16, tolerance=1e-8, num_workers=4,
                          record_history=record_history)
    scenario = ErrorScenario(name="history", normalized_rate=20.0, seed=seed)
    with ResilientCG(A, b, strategy=make_strategy(method), scenario=scenario,
                     config=config) as solver:
        return solver.solve(ideal_time=IDEAL_TIME)


@pytest.mark.parametrize("method, seed", list(RECORDED))
def test_history_off_records_only_the_initial_entry(method, seed):
    off = solve(method, seed, record_history=False)
    history = off.record.history
    assert off.record.faults_detected > 0 and off.record.iterations > 1
    assert (history.iterations, history.times) == ([0], [0.0])
    # history is an observation: nothing a TrialResult or a fingerprint
    # is built from moves with it
    on = solve(method, seed, record_history=True)
    assert off.x.tobytes() == on.x.tobytes()
    assert (off.record.iterations, off.record.solve_time,
            off.record.final_residual, off.record.restarts,
            off.stats.pages_recovered) == \
        (on.record.iterations, on.record.solve_time,
         on.record.final_residual, on.record.restarts,
         on.stats.pages_recovered)


@pytest.mark.parametrize("method, seed", list(RECORDED))
def test_history_on_matches_the_parent_commit(method, seed):
    stack = (f"{platform.machine()}|numpy {numpy.__version__}|"
             f"scipy {scipy.__version__}")
    if stack != RECORDED_STACK:
        pytest.skip(f"residuals were recorded on {RECORDED_STACK}")
    history = solve(method, seed, record_history=True).record.history
    entries, digest = RECORDED[(method, seed)]
    assert len(history) == entries
    text = ";".join(f"{i},{t.hex()},{r.hex()}" for i, t, r in
                    zip(history.iterations, history.times,
                        history.residuals, strict=True))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
