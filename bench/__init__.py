"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

``python -m bench run`` measures, ``python -m bench compare A B`` judges
two result sets against the bounds in ``BENCHMARK.json``.  See
``bench/README.md`` for the metric and workload definitions.

The benchmark drives ``repro`` only through its non-deprecated public
surface and never edits anything under ``src/``; the traced run wraps
that surface from here (``bench/trace.py``).
"""

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

# The driver runs ``python3 -m bench run`` from the root of a bare checkout
# with no PYTHONPATH, so the package under test is put on the path here.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Seed used when ``--seed`` is not given; the golden fingerprints in
#: ``bench/golden.json`` are recorded for it.
DEFAULT_SEED = 20150715
