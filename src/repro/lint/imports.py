"""Import-alias resolution for qualified-name matching.

Checkers match fully-qualified dotted names (``numpy.random.default_rng``,
``time.perf_counter``) regardless of how the module was imported::

    import numpy as np              ->  np.random.default_rng
    from time import perf_counter   ->  perf_counter()
    from numpy import random as rnd ->  rnd.seed()
"""

from __future__ import annotations

import ast
from typing import Dict, Optional


class ImportMap:
    """Maps local names to the qualified names they were imported as."""

    def __init__(self) -> None:
        self._aliases: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    qualified = alias.name if alias.asname else alias.name.split(".")[0]
                    imports._aliases[local] = qualified
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative import: module-local, never stdlib/numpy
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports._aliases[local] = f"{node.module}.{alias.name}"
        return imports

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a qualified dotted name."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve(call.func)
