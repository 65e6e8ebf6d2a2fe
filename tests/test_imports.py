"""The package imports only the standard library and itself, as README's
"pure standard-library" and pyproject.toml's empty ``dependencies`` say.
An installed third-party package would otherwise let a stray import pass.
Every name a module imports is also used there."""

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


# names a module imports without using them itself
UNUSED_ON_PURPOSE = {
    # perfbench/tracer.py wraps these names in toroidal_realization too
    ("toroidal_realization.py", "_exp_term"),
    ("toroidal_realization.py", "heis_act_gen"),
    ("toroidal_realization.py", "hyp_virasoro_mode"),
}


def _unused_imports(path):
    """Names bound by the imports of one source file and never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_imported_name_is_used():
    # __init__.py imports only to re-export
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" for name in _unused_imports(path)}
    assert sorted(found - UNUSED_ON_PURPOSE) == []
    assert sorted(UNUSED_ON_PURPOSE - found) == []
