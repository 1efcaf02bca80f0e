"""paged-reduction: raw NumPy reductions bypass the page-ordered path."""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding

#: Solver / kernel modules where every dot product and sum over solver
#: vectors must be page-ordered to keep N-rank solves bit-identical.
PAGED_MODULES = (
    "repro/solvers/resilient_cg.py",
    "repro/solvers/cg_plan.py",
    "repro/runtime/kernels.py",
    "repro/distributed/ranks.py",
)

RAW_REDUCTIONS = frozenset(
    {
        "numpy.dot",
        "numpy.vdot",
        "numpy.inner",
        "numpy.sum",
        "numpy.nansum",
        "numpy.einsum",
        "numpy.add.reduce",
        "numpy.matmul",
    }
)

#: ndarray method spellings of the same reductions.
RAW_REDUCTION_METHODS = frozenset({"dot", "sum"})


class ReductionChecker(Checker):
    code = "paged-reduction"
    title = "solver/kernel reductions must use the page-ordered paged_dot path"
    rationale = """\
Floating-point addition is not associative: `np.dot(u, v)` over a whole
vector and a per-page partial sum of the same vector differ in the last
ulps, and *which* order runs depends on how many ranks own the vector.
The repo's bit-identical N-rank guarantee therefore requires every
reduction over solver vectors in the solver/kernel modules
(solvers/resilient_cg.py, solvers/cg_plan.py, runtime/kernels.py,
distributed/ranks.py) to go through repro.runtime.kernels.paged_dot / page_partials /
reduce_partials, which fix one page order and one combination tree.

Flagged: np.dot / np.sum / np.inner / np.vdot / np.einsum / np.matmul /
np.add.reduce and the `.dot()` / `.sum()` ndarray methods.  The paged
primitives themselves are implemented *with* np.add.reduce — those
definition sites carry pragmas, e.g.:

    return float(np.add.reduce(partials))  # repro-lint: allow[paged-reduction] this is the page-order primitive"""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_is(*PAGED_MODULES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.resolve_call(node)
            if qualified in RAW_REDUCTIONS:
                yield ctx.finding(
                    node,
                    self.code,
                    f"raw reduction `{qualified}` in a paged-reduction module; use "
                    "`paged_dot`/`page_partials`/`reduce_partials` so the combination "
                    "order is rank-count independent",
                )
            elif (
                qualified is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RAW_REDUCTION_METHODS
                and len(node.args) <= 1
                and not node.keywords
            ):
                # <=1 positional arg is the ndarray spelling (u.dot(v),
                # a.sum()); the sanctioned engine.dot(u, v, skip_pages)
                # takes more and is not flagged.
                yield ctx.finding(
                    node,
                    self.code,
                    f"ndarray `.{node.func.attr}()` reduction in a paged-reduction "
                    "module; use the paged_dot path so the combination order is "
                    "rank-count independent",
                )

        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and isinstance(node.left, ast.Subscript)
                and isinstance(node.right, ast.Subscript)
            ):
                # slice @ slice is the per-page probe-dot pattern; plain
                # `A @ x` matvecs keep a fixed per-row order and are fine.
                yield ctx.finding(
                    node,
                    self.code,
                    "`slice @ slice` dot in a paged-reduction module; per-page probe "
                    "dots must use paged_dot or justify why a single-page dot's "
                    "order is already fixed",
                )
