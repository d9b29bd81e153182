"""The runtime code depends on the standard library and numpy alone.

networkx and scipy may be installed as test oracles, so an accidental
import of either would pass every other test; this one reads the sources.
"""

import ast
import sys
from pathlib import Path

import cmhide

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_runtime_imports_only_stdlib_and_numpy():
    sources = sorted(Path(cmhide.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []
