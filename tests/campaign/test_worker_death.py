"""A lost pool child is the executor's problem, offline as in the daemon.

A child that exits hard breaks the stdlib pool as a whole.  The pool
executor reopens itself — once per break, spawning when the process
has other threads — and resubmits what was in flight, and the runner in
the child reads the store before it runs anything, so a campaign that
lost a worker ends with the serial fingerprint, exactly its own
artifacts and no manual resume.  A pool that only ever dies gives up
with :class:`WorkerLost` instead of looping.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import engine
from repro.campaign.engine import TrialRunner, run_campaign
from repro.campaign.executors import (MAX_RESUBMITS, ProcessPoolExecutor,
                                      SerialExecutor, WorkerLost)
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignCache, CampaignStore


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def die(_item):
    """What a struck submission runs: the child exits hard, as under an
    OOM kill or a segfault."""
    os._exit(1)


class Struck:
    """Mixin over a pool executor: the ``strike``-th submission (every
    one for ``strike=0``) kills the child that receives it.  A
    resubmission passes through ``submit`` again and is a fresh draw."""

    strike = 2

    def submit(self, fn, item):
        self.submissions = getattr(self, "submissions", 0) + 1
        if self.strike in (0, self.submissions):
            fn = die
        return super().submit(fn, item)


class StruckPool(Struck, ProcessPoolExecutor):
    pass


def struck_executors():
    return [StruckPool(max_workers=2)]


@pytest.fixture(scope="module")
def serial_fingerprint():
    return run_campaign(tiny_spec(), executor=SerialExecutor()).fingerprint()


class TestOfflineCampaignSurvivesAChild:
    @pytest.mark.parametrize("executor", struck_executors(),
                             ids=["process"])
    def test_storeless_run_ends_with_the_serial_fingerprint(
            self, executor, serial_fingerprint):
        result = run_campaign(tiny_spec(), executor=executor)
        assert result.fingerprint() == serial_fingerprint
        assert result.executed == len(result) == tiny_spec().num_trials
        assert executor.deaths == 1
        assert executor.resubmitted >= 1
        assert executor.pids() == []

    @pytest.mark.parametrize("executor", struck_executors(),
                             ids=["process"])
    def test_stored_run_leaves_exactly_its_artifacts(
            self, executor, serial_fingerprint, tmp_path):
        spec = tiny_spec()
        store = CampaignStore(tmp_path / "store")
        result = run_campaign(spec, executor=executor, store=store)
        assert result.fingerprint() == serial_fingerprint
        assert result.executed == spec.num_trials
        assert executor.deaths == 1
        # Exactly the campaign's artifacts, each recorded once (the pool
        # terminates the dead child's siblings too, so a torn ``*.tmp``
        # beside them is fair and is not an entry).
        stored = {path.stem for path in
                  (tmp_path / "store" / "trials").glob("*/*.json")}
        assert stored == {trial.store_key() for trial in spec.expand()}
        assert store.entry_count()["trials"] == spec.num_trials
        assert store.verify().ok
        events = list(store.journal_events(spec.store_key()))
        assert sorted(e["index"] for e in events if e["event"] == "trial") \
            == list(range(spec.num_trials))
        assert events[-1]["event"] == "done"
        assert events[-1]["fingerprint"] == serial_fingerprint
        # ... and nothing is left to resume
        again = run_campaign(spec, store=CampaignStore(tmp_path / "store"))
        assert again.executed == 0

    @pytest.mark.parametrize("executor", struck_executors(),
                             ids=["process"])
    def test_a_pool_that_only_dies_gives_up(self, executor):
        executor.strike = 0
        with pytest.raises(WorkerLost, match="lost its worker") as info:
            run_campaign(tiny_spec(), executor=executor)
        assert "trial 0 (" in str(info.value)
        assert info.value.losses == MAX_RESUBMITS + 1
        assert executor.deaths == MAX_RESUBMITS + 1
        assert executor.pids() == []

    def test_the_cli_says_so(self, monkeypatch, capsys):
        from repro.campaign import __main__ as cli
        args = ["--matrix", "laplacian2d:10", "--methods", "FEIR", "Lossy",
                "--rates", "2", "--trials", "2", "--no-store", "--quiet",
                "--executor", "process", "--workers", "2"]
        assert cli.main(args) == 0
        assert "worker-deaths" not in capsys.readouterr().out
        monkeypatch.setattr(cli, "make_executor",
                            lambda *a, **k: StruckPool(max_workers=2))
        assert cli.main(args) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("worker-deaths: ")]
        deaths, resubmitted = (int(word) for word in line.split()[1::2])
        assert deaths == 1 and resubmitted >= 1


def slow_or_die_once(item):
    """``(marker, seconds)``: the first child to see a missing marker
    creates it and dies; everyone else sleeps and reports its pid."""
    marker, seconds = item
    if marker is not None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            time.sleep(seconds)
            os._exit(1)
    time.sleep(seconds)
    return os.getpid()


class TestOneBreakOneReopen:
    def test_a_reopen_beside_a_live_thread_does_not_fork(self, tmp_path,
                                                         monkeypatch):
        """The executor-level twin of the daemon's
        ``test_children_are_forked_from_a_quiet_process``: a process
        with other threads gets *spawned* replacements."""
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork",
                            lambda: forks.append(1) or real_fork())
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        with ProcessPoolExecutor(max_workers=2) as executor:
            opened = len(forks)
            if multiprocessing.get_start_method() == "fork":
                assert opened == 2
            bystander.start()
            try:
                items = [(str(tmp_path / "died"), 0.0), (None, 0.0)]
                pids = list(executor.run(slow_or_die_once, items))
            finally:
                release.set()
                bystander.join(timeout=60)
            assert executor.deaths == 1
            assert len(forks) == opened
            # whole again, and the struck item ran on a replacement
            assert len(executor.pids()) == 2
            assert len(pids) == 2 and set(pids) & set(executor.pids())

    def test_close_wins_over_a_late_break(self):
        """A break reported against a pool that has been closed since
        reopens nothing."""
        executor = ProcessPoolExecutor(max_workers=2).open()
        future = executor.submit(die, None)
        with pytest.raises(Exception, match="terminated abruptly"):
            future.result(timeout=60)
        executor.close()
        executor._reopen()
        assert executor.deaths == 0
        assert executor.pids() == []
        with pytest.raises(RuntimeError, match="not open"):
            executor.submit(die, None)


#: A pool owner that is about to be killed: it opens a two-child pool
#: (``reopen``: then replaces it with a spawned one, as after a lost
#: child beside a live thread), prints the children's pids and waits.
OWNER = """
import sys, threading, time
from repro.campaign.executors import ProcessPoolExecutor
pool = ProcessPoolExecutor(max_workers=2).open()
if sys.argv[1] == "reopen":
    threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
    pool._reopen()
print(*pool.pids(), flush=True)
time.sleep(60)
"""


def running(pid: int) -> bool:
    """``pid`` is a live process; a zombie nobody reaps is not one."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestOwnerKilled:
    @pytest.mark.parametrize("pool", ["open", "reopen"])
    def test_the_children_of_a_sigkilled_owner_exit(self, pool):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        owner = subprocess.Popen([sys.executable, "-c", OWNER, pool],
                                 stdout=subprocess.PIPE, text=True, env=env)
        try:
            children = [int(pid) for pid in owner.stdout.readline().split()]
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait()
            owner.stdout.close()
        assert len(children) == 2
        deadline = time.monotonic() + 5.0
        while (any(running(pid) for pid in children)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        orphans = [pid for pid in children if running(pid)]
        for pid in orphans:  # leave nothing behind for the next test
            os.kill(pid, signal.SIGKILL)
        assert orphans == []


class TestReadThroughRunner:
    def test_a_warm_key_is_a_hit_not_an_execution(self, monkeypatch):
        trial = tiny_spec().expand()[3]
        cache = CampaignCache()
        first = TrialRunner(cache)(trial)
        monkeypatch.setattr(engine, "run_trial", lambda *a: pytest.fail(
            "a trial the cache holds was executed again"))
        assert TrialRunner(cache)(trial) is first

    def test_a_persisted_trial_is_read_back_by_another_process_cache(
            self, tmp_path, monkeypatch):
        """What a lost child wrote is what its replacement returns."""
        trial = tiny_spec().expand()[3]
        first = TrialRunner(CampaignCache(CampaignStore(tmp_path / "s")))(trial)
        monkeypatch.setattr(engine, "run_trial", lambda *a: pytest.fail(
            "a trial the store holds was executed again"))
        again = TrialRunner(CampaignCache(CampaignStore(tmp_path / "s")))(trial)
        assert again == first

    def test_a_hit_answers_for_the_trial_that_asked(self):
        """The index is a grid position, not content: a result persisted
        under another enumeration comes back with the asker's index."""
        import dataclasses
        trial = tiny_spec().expand()[3]
        cache = CampaignCache()
        first = TrialRunner(cache)(trial)
        moved = dataclasses.replace(trial, index=17)
        assert moved.store_key() == trial.store_key()
        assert TrialRunner(cache)(moved) == dataclasses.replace(first,
                                                                index=17)
