"""Every module in ``src/granary`` uses each name it imports.

Built on the stdlib ``ast`` module alone: a name counts as used when it
appears as an identifier (the base of ``x.y`` included) anywhere in the
module outside its import. Quoted annotations are not read; with
``from __future__ import annotations`` no module needs them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "granary"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_what_it_should():
    source = (
        "import re\n"
        "import os.path\n"
        "from dataclasses import dataclass, fields\n"
        "from .backend import ChatMessage as Msg, ChatRequest\n"
        "x: list[ChatRequest] = os.path.join(*fields(y), 'Msg')\n"
    )
    assert unused_imports(source) == ["line 1: re", "line 3: dataclass", "line 4: Msg"]
