"""What a SIGKILL leaves in the store.

Nothing the store writes is fsynced.  A process killed outright loses
nothing it has handed to ``os.write``: the kernel holds it.  So every
entry ``put_trial``/``put_baseline`` committed and every line
``journal_append`` returned is there for the next process to read, and
a campaign killed mid-run resumes to the fingerprint of a cold run.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.campaign.__main__ import main
from repro.campaign.results import TrialResult
from repro.campaign.store import CampaignStore

KEY = "ab" + "c" * 62

#: A trial outcome whose floats have no short decimal representation.
TRIAL = TrialResult(
    index=3, matrix="laplacian2d:10", method="FEIR", rate=2.0,
    repetition=1, converged=True, iterations=57, solve_time=0.1 + 0.2,
    ideal_time=0.25, final_residual=1e-9 / 3, faults_injected=2,
    faults_detected=2, pages_recovered=3, wall_time=0.01)
BASELINE = 0.1 + 0.7

ARGS = ["--matrix", "laplacian2d:10", "--methods", "FEIR", "--rates", "1",
        "--trials", "4", "--quiet"]

WRITE_THEN_DIE = """
import json, os, signal, sys
from repro.campaign.results import TrialResult
from repro.campaign.store import CampaignStore
root, key, trial, baseline = sys.argv[1:]
store = CampaignStore(root)
store.put_trial(key, TrialResult(**json.loads(trial)))
store.put_baseline(key, float.fromhex(baseline))
store.journal_append(key, {"event": "trial", "key": key, "index": 3})
os.kill(os.getpid(), signal.SIGKILL)
"""

RUN_THEN_DIE = """
import json, os, signal, sys
from repro.campaign.__main__ import build_parser
from repro.campaign.engine import run_campaign
from repro.campaign.spec import spec_from_args
from repro.campaign.store import CampaignStore

def die_after_two(result, completed, total):
    if completed == 2:
        os.kill(os.getpid(), signal.SIGKILL)

spec = spec_from_args(build_parser().parse_args(json.loads(sys.argv[2])),
                      name="cli")
run_campaign(spec, store=CampaignStore(sys.argv[1]), progress=die_after_two)
"""


def killed_child(source, *argv):
    """Run ``source`` in a fresh interpreter importing this ``repro``;
    it must die of SIGKILL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", source, *map(str, argv)],
                           env=env, capture_output=True, text=True,
                           timeout=300)
    assert child.returncode == -signal.SIGKILL, child.stderr


def cli(argv, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    [executed] = [line for line in lines if line.startswith("executed: ")]
    [fingerprint] = [line for line in lines
                     if line.startswith("fingerprint:")]
    return executed, fingerprint


def test_a_killed_writer_leaves_its_entries_and_journal_line(tmp_path):
    root = tmp_path / "store"
    killed_child(WRITE_THEN_DIE, root, KEY,
                 json.dumps(dataclasses.asdict(TRIAL)), BASELINE.hex())
    store = CampaignStore(root)
    assert store.get_trial(KEY) == TRIAL
    assert store.get_baseline(KEY).hex() == BASELINE.hex()
    assert list(store.journal_events(KEY)) == [
        {"event": "trial", "key": KEY, "index": 3}]
    assert store.verify().ok


def test_a_killed_campaign_resumes_to_the_cold_fingerprint(tmp_path,
                                                           capsys):
    root = tmp_path / "store"
    killed_child(RUN_THEN_DIE, root, json.dumps(ARGS))
    executed, resumed = cli([*ARGS, "--store", str(root)], capsys)
    assert executed.startswith("executed: 2 ")
    executed, cold = cli([*ARGS, "--store", str(tmp_path / "clean")],
                         capsys)
    assert executed.startswith("executed: 4 ")
    assert resumed == cold
