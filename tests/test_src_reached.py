"""``src/`` is what the entry points run: a definition that only tests
reach belongs in the tests.

Every non-dunder function, class and method under ``src/`` must be
referenced by the code of ``src/`` or ``examples/`` outside its own body
(its decorators included): as a name, an attribute, an imported name or
a string of a module's ``__all__``.  Comments and docstrings do not
count, so a definition only prose mentions is flagged.  The scan matches
bare names, so a dead name that collides with a live one (any
``x.touch`` keeps every ``touch`` method) still goes unseen: any
reference with the same name counts, as other objects' ``.wait(`` calls
hid a ``ServiceClient.wait`` and a ``scheduled`` parameter hid a
``ScheduleResult.scheduled`` that only tests called.

Both directories are found through ``repro.__file__``: with
``PYTHONPATH`` at a copy of ``src/`` that has a copy of ``examples/``
beside it, the scan reads the copy.
"""

from __future__ import annotations

import ast
import collections
import shutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"

#: Definitions that nothing in ``src/`` or ``examples/`` references,
#: kept on purpose, by ``<path under src/>::<qualified name>``.  An entry
#: must stay unreached: one that is gone, or that something now
#: references, is stale and fails the scan.
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
    "repro/runtime/kernels.py::paged_dot":
        "test oracle: the allocating reduction the engine's dot is "
        "compared against",
    "repro/runtime/graph.py::verify_graph":
        "test oracle: the race check run on every graph the planner "
        "can build",
    "repro/runtime/trace.py::ExecutionTrace.from_schedule":
        "bench/trace.py wraps it as a tracing target; goes with it",
    "repro/campaign/spec.py::CampaignSpec.expand":
        "bench/trace.py wraps it as a tracing target; goes with it",
    "repro/service/client.py::ServiceClient.wait_until_up":
        "bench/workloads.py waits for the daemon with it; goes with it",
    "repro/memory/manager.py::MemoryManager.touch":
        "bench/trace.py wraps it as a tracing target; goes with it",
    "repro/memory/manager.py::MemoryManager.poison":
        "makes the latent DUE MemoryManager.touch detects; goes with it",
}


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


def _references(tree: ast.AST):
    """``(name, line)`` of every reference in ``tree``'s code: each name,
    attribute, imported name (every dotted part) and string of an
    ``__all__`` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if node.value is not None and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in targets):
                for item in ast.walk(node.value):
                    if (isinstance(item, ast.Constant)
                            and isinstance(item.value, str)):
                        yield item.value, item.lineno


def unreached(src: Path, examples: Path) -> list:
    """Every ``<path>::<qualified name>`` under ``src`` that no code of
    ``src`` or ``examples`` outside its own body references."""
    # name -> the (file, line number) pairs that reference it
    where = collections.defaultdict(list)
    trees = {}
    for path in sorted([*src.rglob("*.py"), *examples.rglob("*.py")]):
        trees[path] = ast.parse(path.read_text())
        for name, lineno in _references(trees[path]):
            where[name].append((path, lineno))
    found = []
    for path in sorted(src.rglob("*.py")):
        for qual, name, first, last in _definitions(trees[path]):
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
        "defined under src/ but referenced by no code in src/ or "
        "examples/ outside its own body: delete it, or move it into the tests "
        "that use it:\n  " + "\n  ".join(extra))


def test_every_allowlist_entry_is_still_needed():
    entries = stale(set(unreached(SRC, EXAMPLES)))
    assert not entries, (
        "allowlisted, but gone or now referenced by src/ or examples/: "
        "drop the entry:\n  " + "\n  ".join(entries))


def test_the_allowlist_is_short_and_every_entry_says_why():
    assert len(ALLOWED) <= 15
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
        "        return 'Kept'\n"
        "\n"
        "\n"
        "def listed():\n"
        "    \"\"\"Unlike Kept.unused, exported.\"\"\"\n"
        "\n"
        "\n"
        "__all__ = ['listed']  # recursive is not\n")
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


def test_an_allowlisted_definition_something_references_is_stale(copy):
    src, examples = copy
    server = src / "repro" / "service" / "server.py"
    server.write_text(server.read_text()
                      + "\nseeded = (lambda client: client.wait_until_up)\n")
    assert stale(set(unreached(src, examples))) == [
        "repro/service/client.py::ServiceClient.wait_until_up"]


def test_a_comment_or_a_docstring_is_no_reference(copy):
    src, examples = copy
    server = src / "repro" / "service" / "server.py"
    server.write_text(server.read_text()
                      + "# see ServiceClient.wait_until_up\n"
                      + '"""ServiceClient.wait_until_up, in prose."""\n')
    assert stale(set(unreached(src, examples))) == []


def test_an_allowlisted_definition_that_is_gone_is_stale(copy):
    src, examples = copy
    _edit(src / "repro" / "matrices" / "properties.py",
          "def is_spd(", "def is_spd_gone(")
    assert stale(set(unreached(src, examples))) == [
        "repro/matrices/properties.py::is_spd"]
