"""The package imports only the standard library and itself, as README's
"pure standard-library" and pyproject.toml's empty ``dependencies`` say.
An installed third-party package would otherwise let a stray import pass."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torvoa"


def _imported(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_are_stdlib_or_torvoa():
    allowed = set(sys.stdlib_module_names) | {"torvoa"}
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in _imported(path)}
    assert ("cli.py", "argparse") in found
    assert sorted(pair for pair in found if pair[1] not in allowed) == []
