"""The runtime code depends on the standard library and numpy alone.

networkx and scipy may be installed as test oracles, so an accidental
import of either would pass every other test; this one reads the sources.
"""

import ast
import sys
from pathlib import Path

import cmhide

ALLOWED = sys.stdlib_module_names | {"numpy"}


def _imports_and_calls() -> list[tuple[str, str]]:
    """(file, name) for each absolute import and each call of a bare name, as `name()`."""
    sources = sorted(Path(cmhide.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [(path.name, n) for n in names]
    return found


def test_runtime_imports_only_stdlib_and_numpy():
    outside = [
        f"{file}: {n}" for file, n in _imports_and_calls()
        if not n.endswith("()") and n.split(".")[0] not in ALLOWED
    ]
    assert outside == []


def test_only_the_cli_reads_and_writes_files():
    # bundled fixtures are read through importlib.resources, in fixtures.py
    found = [(file, n) for file, n in _imports_and_calls() if n in ("json", "csv", "open()")]
    assert {file for file, _ in found} == {"cli.py"}
    assert {n for _, n in found} == {"json", "csv", "open()"}
