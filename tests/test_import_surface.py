"""Every ``repro`` package imports on its own, and exports only names that
resolve.

The package ``__init__``s re-export only what something reads through
them, so importing one does not load every submodule first.  A circular
import that an import-everything ``__init__`` would mask surfaces only
in whichever process imports that package first — a spawned pool
child, a CLI.  Each package is therefore imported in a fresh
interpreter here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(".".join(init.parent.relative_to(SRC).parts)
                  for init in SRC.glob("repro/**/__init__.py"))

CHECK = """
import importlib, sys
module = importlib.import_module(sys.argv[1])
dangling = [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]
if dangling:
    sys.exit(f"{sys.argv[1]}.__all__ names what it does not define: {dangling}")
"""


def test_every_package_is_listed():
    assert {"repro", "repro.campaign", "repro.lint.checkers",
            "repro.sanitize", "repro.service"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_alone_and_its_exports_resolve(package):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.run([sys.executable, "-c", CHECK, package], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
