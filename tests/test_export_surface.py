"""Every name the package exports has a use outside the tests.

A name counts as used where it is read, as a Name or an Attribute node, in a package module
other than ``__init__.py``, a demo or a benchmark file.  Its definition, an ``__all__`` string
and an import line do not count, so an exported helper that only tests call fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lindlyap"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def read_names() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_export_is_used_outside_tests():
    exported = exported_names()
    assert len(exported) > 50  # the parse found the package's import lines
    assert sorted(exported - read_names()) == []
