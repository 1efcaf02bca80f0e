"""Seeded canaries: every oracle that guards the exact recovery must be
shown able to fail.

Each row of ``MUTANTS`` is an edit to a file under ``src/repro/`` (``old``
text becomes ``new``) and the oracles that must go red under it.  Tier-1
checks that each row fits the tree: ``old`` occurs exactly once and each
oracle node exists.  The ``slow`` bite check runs each oracle against a
copy of ``src/`` with the edit applied and ``OPENBLAS_NUM_THREADS``
unset, as the oracles were recorded (they skip under another setting).
Exit 1 is a bite, exit 0 a surviving mutant, any other a broken oracle:
``PYTHONPATH=src python -m pytest -q -m slow tests/test_canaries.py``,
one row with ``-k <row name>``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/repro/
    old: str
    new: str
    oracles: Tuple[str, ...]  # pytest node ids, from the repository root


EXACTNESS = "tests/core/test_exactness_rule.py"
SOLVE = "tests/solvers/test_plan_timing.py"
SCHEDULE = "tests/runtime/test_plan_exactness.py"
GRID = "tests/campaign/test_grid_oracle.py"
LEDGER = "tests/solvers/test_ledger.py"
TRANSPARENCY = "tests/campaign/test_plan_tier.py::TestTransparency"
KEPT_ALIVE = "tests/service/test_service.py::TestKeptAliveConnection::"

MUTANTS = (
    # Table 1 is written once, in core/relations.py.  A relative 1e-3 in
    # any of its formulas makes a FEIR/AFEIR trial that lost nothing
    # miss the fault-free iteration count: the exactness rule goes red.
    # The inverted relation (_solve_inverted, every exact repair's path):
    Mutant("inverted_relation", "core/relations.py",
           "rhs = [lhs[sl] - blocked.block_row_product(page, masked)",
           "rhs = [lhs[sl] * (1 + 1e-3) - blocked.block_row_product(page, masked)", (EXACTNESS,)),
    # q = A d (MatVecRelation.recover_lhs_page):
    Mutant("matvec_row", "core/relations.py",
           "return self.blocked.block_row_product(page, p)\n",
           "return self.blocked.block_row_product(page, p) * (1 + 1e-3)\n", (EXACTNESS,)),
    # g = b - A x (ResidualRelation.recover_residual_page):
    Mutant("residual_row", "core/relations.py",
           "return self.b[sl] - self.blocked.block_row_product(page, x)",
           "return (self.b[sl] - self.blocked.block_row_product(page, x)) * (1 + 1e-3)",
           (EXACTNESS,)),
    # point B's d = z + beta d_prev (LinearCombinationRelation.recover_lhs_page):
    Mutant("point_b_row", "core/relations.py",
           "return self.alpha * v_page + self.beta * w_page",
           "return (self.alpha * v_page + self.beta * w_page) * (1 + 1e-3)", (EXACTNESS,)),
    # Every simulated time is priced once, in runtime/cost_model.py; a
    # relative 1e-3 in a price turns the solve oracle red.  The
    # full-range spmv prices every compute chunk and FEIR's fallback:
    Mutant("spmv_price", "runtime/cost_model.py",
           "return self.kernel_time(2.0 * nnz, 12.0 * nnz + 8.0 * rows)\n",
           "return self.kernel_time(2.0 * nnz, 12.0 * nnz + 8.0 * rows) * (1 + 1e-3)\n", (SOLVE,)),
    # the diagonal-block solve prices FEIR's and Lossy's recoveries:
    Mutant("block_solve_price", "runtime/cost_model.py",
           "return max((solve_flops + factor_flops)",
           "return (1 + 1e-3) * max((solve_flops + factor_flops)", (SOLVE,)),
    # the checkpoint read prices ckpt's rollback:
    Mutant("checkpoint_read_price", "runtime/cost_model.py",
           'back from local disk."""\n'
           "        return self.disk_latency + num_bytes / self.disk_bandwidth",
           'back from local disk."""\n'
           "        return (self.disk_latency + num_bytes / self.disk_bandwidth)"
           " * (1 + 1e-3)", (SOLVE,)),
    # A schedule's breakdown sums in launch order; in plan order the
    # schedule oracle goes red.  (The solve oracle cannot see it: a CG
    # iteration leaves plan order only among equal-duration chunks.)
    Mutant("breakdown_in_plan_order", "runtime/scheduler.py",
           "    runtime = busy = 0.0\n    for i in order:\n",
           "    runtime = busy = 0.0\n    for i in range(len(states)):\n", (SCHEDULE,)),
    # A solve's breakdown sums in iteration order; reversed, the solve
    # oracle goes red.
    Mutant("breakdown_in_reversed_iterations", "solvers/cg_types.py",
           "for entry in self.ledger:",
           "for entry in reversed(self.ledger):", (SOLVE,)),
    # An iteration no injection reaches skips the fault machinery and
    # steps the clock by the shared fault-free ledger entry.  Leaving
    # that entry out of the ledger turns the solve and grid oracles red,
    # and the clock no longer folds from the ledger ...
    Mutant("undisturbed_timeline_dropped", "solvers/resilient_cg.py",
           "        run.ledger.append(entry)\n",
           "        if disturbed:  # undisturbed entry dropped\n"
           "            run.ledger.append(entry)\n", (SOLVE, GRID, LEDGER)),
    # ... and lengthening its clock step by a relative 2**-52 turns the
    # solve and grid oracles red.
    Mutant("undisturbed_clock_lengthened", "solvers/cg_plan.py",
           "LedgerEntry(self.schedule.timeline, self.makespan, 0.0, 0.0, 0)",
           "LedgerEntry(self.schedule.timeline, self.makespan * (1 + 2**-52),"
           " 0.0, 0.0, 0)", (SOLVE, GRID)),
    # A disturbed FEIR/AFEIR iteration charges its DUEs' page-fault
    # service after the re-timed schedule.  An entry built with service
    # 0.0 turns the solve and grid oracles red.
    Mutant("fault_service_dropped", "solvers/resilient_cg.py",
           "entry = LedgerEntry(sched.timeline, sched.makespan, 0.0,\n"
           "                                it.fault_service,",
           "entry = LedgerEntry(sched.timeline, sched.makespan, 0.0,\n"
           "                                0.0,", (SOLVE, GRID)),
    # A campaign trial resumes from the latest prefix-tape snapshot
    # before its first injection.  Resuming from the first one at or
    # after it turns transparency and the grid oracle red ...
    Mutant("resume_after_first_injection", "solvers/resilient_cg.py",
           "before = [s for s in self.snapshots if s.clock < first_fault]",
           "before = [s for s in self.snapshots if s.clock >= first_fault][:1]",
           (TRANSPARENCY, GRID)),
    # ... and so does not restoring the snapshot's restart_next.
    Mutant("restart_next_not_restored", "solvers/resilient_cg.py",
           "run.restart_next = snapshot.restart_next\n",
           "pass  # restart_next not restored\n", (TRANSPARENCY, GRID)),
    # Every graph the planner can build is race-free.  An spmv chunk
    # that reads the exchanged halo without waiting for the exchange
    # turns the exhaustive shape check red.
    Mutant("dropped_halo_edge", "solvers/cg_plan.py",
           'q_deps, q_reads = [*d_parts, f"halo{t}"], d_segments | {"halo:d"}',
           'q_deps, q_reads = d_parts, d_segments | {"halo:d"}',
           ("tests/runtime/test_verify_graph.py::"
            "test_every_planner_graph_is_race_free",)),
    # A solve's measured side is one fold of its runs, each counting the
    # recovery tasks it executed.  A fold that counts none turns the
    # threaded backend's measurement red.
    Mutant("recovery_scans_uncounted", "runtime/backend.py",
           "self.recovery_scans += len(\n"
           "            result.plan.by_kind.get(TaskKind.RECOVERY, ()))",
           "self.recovery_scans += 0 * len(\n"
           "            result.plan.by_kind.get(TaskKind.RECOVERY, ()))",
           ("tests/solvers/test_backend_equivalence.py::"
            "TestFaultFreeEquivalence::"
            "test_threaded_backend_measures_what_simulation_cannot",)),
    # A detected DUE blanks its page (the OS re-maps it); Trivial, and
    # the pages Lossy and FEIR do not rebuild, keep that blank.  A DUE
    # that leaves its page intact turns Trivial's recorded history and
    # its iteration penalty red.
    Mutant("due_keeps_its_page", "memory/manager.py",
           "self.vector(name).zero_page(page)\n",
           "self.vector(name).page_slice(page)  # the page is kept\n",
           ("tests/solvers/test_record_history.py::"
            "test_history_on_matches_the_parent_commit",
            "tests/solvers/test_resilient_faults.py::TestSingleError::"
            "test_trivial_is_worst_in_iterations")),
    # A journal line journal_append has returned survives a SIGKILL of
    # its process.  A line never handed to os.write turns the kill test
    # red.
    Mutant("journal_line_unwritten", "campaign/store.py",
           "line = line[os.write(fd, line):]",
           'line = b""',
           ("tests/campaign/test_kill_durability.py::"
            "test_a_killed_writer_leaves_its_entries_and_journal_line",)),
    # A client pools a connection only once its response is read to the
    # end.  Pooling the one a watch's consumer left early (the watch's
    # finally releases it) turns the next request on that client red ...
    Mutant("half_read_watch_pooled", "service/client.py",
           "if response.isclosed() and not response.will_close:",
           "if not response.will_close:  # pooled half read",
           (KEPT_ALIVE + "test_a_half_read_watch_is_not_reused",)),
    # ... and a kept-alive connection answers without waiting out Nagle's
    # algorithm: with it on, each answer's body waits for a delayed ACK.
    Mutant("nagle_on", "service/server.py",
           "disable_nagle_algorithm = True\n",
           "disable_nagle_algorithm = False\n",
           (KEPT_ALIVE + "test_no_nagle_stall",)),
    # A pool that lost a child resubmits what the break took with it.  A
    # pool that skips the resubmission turns the daemon's struck-worker
    # test red (the job never records the lost trials).
    Mutant("resubmission_skipped", "campaign/executors.py",
           "items = [flights[future] for future in flights if future in broken]",
           "items = []",
           ("tests/service/test_service.py::TestWorkerDeath::"
            "test_a_struck_worker_is_absorbed",)),
)


def _node_exists(node: str) -> bool:
    path, *names = node.split("::")
    if not (REPO / path).is_file():
        return False
    scope = ast.parse((REPO / path).read_text()).body
    for name in names:
        found = [n for n in scope if getattr(n, "name", None) == name]
        if not found:
            return False
        scope = found[0].body
    return True


def problems(mutant: Mutant, src: Path = SRC) -> list:
    """Why ``mutant`` does not fit the tree under ``src`` (empty if it does)."""
    target = src / "repro" / mutant.file
    count = target.read_text().count(mutant.old) if target.is_file() else 0
    found = [] if count == 1 else [
        f"{mutant.name}: its old text occurs {count} times in "
        f"{mutant.file}, not once"]
    return found + [f"{mutant.name}: no oracle {node}"
                    for node in mutant.oracles if not _node_exists(node)]


def bite(mutant: Mutant, workdir: Path) -> list:
    """Run each oracle against a copy of ``src/`` with ``mutant`` applied;
    return what went wrong with each oracle that did not exit 1."""
    assert not problems(mutant), problems(mutant)
    copy = workdir / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "repro" / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(copy)
    module = "repro." + mutant.file.removesuffix(".py").replace("/", ".")
    imported = subprocess.run(
        [sys.executable, "-c", f"import {module} as m; print(m.__file__)"],
        env=env, cwd=REPO, capture_output=True, text=True, check=True)
    assert Path(imported.stdout.strip()).resolve() == target.resolve(), (
        f"{mutant.name}: {module} is imported from {imported.stdout}")
    found = []
    for oracle in mutant.oracles:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             oracle], env=env, cwd=REPO, capture_output=True, text=True)
        if run.returncode != 1:
            verdict = ("the mutant survived" if run.returncode == 0 else
                       f"the oracle is broken (exit {run.returncode})")
            tail = (run.stdout + run.stderr).splitlines()[-8:]
            found.append(f"{mutant.name}: {oracle}: {verdict}\n  "
                         + "\n  ".join(tail))
    return found


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_row_fits_the_tree(mutant):
    assert not problems(mutant)


@pytest.mark.parametrize("text, count", [("y = 2\n", 0), ("x = 1\n", 2)])
def test_a_row_that_does_not_fit_is_refused(tmp_path, text, count):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "mod.py").write_text("x = 1\nx = 1\n")
    row = Mutant("misfit", "mod.py", text, "z = 3\n", (EXACTNESS,))
    assert problems(row, src=tmp_path) == [
        f"misfit: its old text occurs {count} times in mod.py, not once"]


def test_a_missing_oracle_is_refused():
    row = MUTANTS[0]._replace(oracles=(EXACTNESS + "::test_gone",))
    assert problems(row) == [
        f"inverted_relation: no oracle {EXACTNESS}::test_gone"]


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_oracles_bite(mutant, tmp_path):
    found = bite(mutant, tmp_path)
    assert not found, "\n".join(found)


@pytest.mark.slow
def test_a_harmless_edit_survives(tmp_path):
    row = MUTANTS[0]._replace(name="harmless_comment",
                              new=MUTANTS[0].old + "  # harmless")
    [found] = bite(row, tmp_path)
    assert found.startswith(f"harmless_comment: {EXACTNESS}: the mutant survived")
