"""``src/`` is what the entry points run: a definition that only tests
reach belongs in the tests.

Every non-dunder function, class and method under ``src/`` must be
named, as a whole word, by some line of ``src/`` or ``examples/``
outside its own body (its decorators included).  A comment, a docstring
or a package ``__init__``'s re-export counts as naming it, so the scan
is blunt: a dead name that collides with any other word goes unseen.
What it does flag, nothing in the library or its examples names.

Both directories are found through ``repro.__file__``: with
``PYTHONPATH`` at a copy of ``src/`` that has a copy of ``examples/``
beside it, the scan reads the copy (CI's seeded unreached-definition
canary does this).
"""

from __future__ import annotations

import ast
import collections
import re
import shutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"

#: Definitions that nothing in ``src/`` or ``examples/`` names, kept on
#: purpose, by ``<path under src/>::<qualified name>``.  An entry must
#: stay unreached: one that is gone, or that something now names, is
#: stale and fails the scan.
ALLOWED = {
    "repro/service/server.py::_Handler.do_GET":
        "BaseHTTPRequestHandler callback: http.server calls it by name",
    "repro/service/server.py::_Handler.do_POST":
        "BaseHTTPRequestHandler callback: http.server calls it by name",
    "repro/service/server.py::_Handler.log_message":
        "BaseHTTPRequestHandler callback: silences the per-request log",
    "repro/campaign/executors.py::ProcessPoolExecutor.pids":
        "test probe: the pool tests watch and kill its children",
    "repro/sanitize/instrument.py::held_locks":
        "test probe: the sanitizer tests read a thread's lockset",
    "repro/matrices/properties.py::is_spd":
        "test oracle: the matrix tests check their systems are SPD",
    "repro/matrices/random_spd.py::random_sparse_spd":
        "test oracle: random SPD systems for the property tests",
    "repro/solvers/reference.py::conjugate_gradient":
        "test oracle: textbook CG, the reference of the solver tests",
    "repro/runtime/trace.py::ExecutionTrace.from_schedule":
        "bench/trace.py wraps it as a tracing target; goes with it",
    "repro/service/client.py::ServiceClient.wait_until_up":
        "bench/workloads.py waits for the daemon with it; goes with it",
}

_WORD = re.compile(r"\w+")


def _definitions(tree: ast.AST):
    """``(qualified name, bare name, first line, last line)`` of every
    function, class and method of ``tree``, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                yield (prefix + child.name, child.name, first,
                       child.end_lineno)
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def unreached(src: Path, examples: Path) -> list:
    """Every ``<path>::<qualified name>`` under ``src`` that no line of
    ``src`` or ``examples`` outside its own body names."""
    # word -> the (file, line number) pairs that name it
    where = collections.defaultdict(list)
    texts = {}
    for path in sorted([*src.rglob("*.py"), *examples.rglob("*.py")]):
        texts[path] = path.read_text()
        for lineno, line in enumerate(texts[path].splitlines(), 1):
            for word in _WORD.findall(line):
                where[word].append((path, lineno))
    found = []
    for path in sorted(src.rglob("*.py")):
        for qual, name, first, last in _definitions(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(at == path and first <= lineno <= last
                   for at, lineno in where[name]):
                found.append(f"{path.relative_to(src).as_posix()}::{qual}")
    return found


def stale(found) -> list:
    """The allowlist entries not among ``found``: gone, or now named."""
    return [entry for entry in ALLOWED if entry not in found]


def test_every_definition_is_reached():
    extra = [entry for entry in unreached(SRC, EXAMPLES)
             if entry not in ALLOWED]
    assert not extra, (
        "defined under src/ but named by nothing in src/ or examples/ "
        "outside its own body: delete it, or move it into the tests "
        "that use it:\n  " + "\n  ".join(extra))


def test_every_allowlist_entry_is_still_needed():
    entries = stale(set(unreached(SRC, EXAMPLES)))
    assert not entries, (
        "allowlisted, but gone or now named by src/ or examples/: "
        "drop the entry:\n  " + "\n  ".join(entries))


def test_the_allowlist_is_short_and_every_entry_says_why():
    assert len(ALLOWED) <= 10
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_sees_a_definition_only_its_own_body_names(tmp_path):
    src, examples = tmp_path / "src", tmp_path / "examples"
    (src / "pkg").mkdir(parents=True)
    examples.mkdir()
    (src / "pkg" / "mod.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "\n"
        "class Kept:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def unused(self):\n"
        "        def inner():\n"
        "            return 2\n"
        "        return inner()\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Kept'\n")
    (examples / "demo.py").write_text(
        "from pkg.mod import Kept\nprint(Kept().used())\n")
    assert unreached(src, examples) == ["pkg/mod.py::recursive",
                                        "pkg/mod.py::Kept.unused"]


@pytest.fixture
def copy(tmp_path):
    """A copy of ``src/`` with a copy of ``examples/`` beside it."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC, tmp_path / "src", ignore=ignore)
    shutil.copytree(EXAMPLES, tmp_path / "examples", ignore=ignore)
    return tmp_path / "src", tmp_path / "examples"


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} is not in {path}"
    path.write_text(text.replace(old, new))


def test_a_seeded_unreached_definition_fails_the_scan(copy):
    src, examples = copy
    module = src / "repro" / "core" / "relations.py"
    module.write_text(module.read_text()
                      + "\n\ndef _seeded_unreached():\n    return 0\n")
    assert "repro/core/relations.py::_seeded_unreached" in [
        entry for entry in unreached(src, examples) if entry not in ALLOWED]


def test_an_allowlisted_definition_something_names_is_stale(copy):
    src, examples = copy
    server = src / "repro" / "service" / "server.py"
    server.write_text(server.read_text()
                      + "# see ServiceClient.wait_until_up\n")
    assert stale(set(unreached(src, examples))) == [
        "repro/service/client.py::ServiceClient.wait_until_up"]


def test_an_allowlisted_definition_that_is_gone_is_stale(copy):
    src, examples = copy
    _edit(src / "repro" / "matrices" / "properties.py",
          "def is_spd(", "def is_spd_gone(")
    assert stale(set(unreached(src, examples))) == [
        "repro/matrices/properties.py::is_spd"]
