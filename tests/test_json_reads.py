"""Only ``jsonl`` parses JSON in ``src/granary``.

Every JSON input the package reads comes through ``jsonl``'s readers, so
each one is checked, and its errors worded, in one place. A module other
than ``jsonl.py`` that reads ``json.loads`` or ``json.load`` as an
attribute, or imports either from ``json``, is flagged. Files are read with
the stdlib ``ast`` module alone, never imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "granary"
PARSERS = {"load", "loads"}


def json_parses(package: dict[str, str]) -> list[str]:
    """``module:line`` of each use of ``json.load`` or ``json.loads`` in
    ``package`` (module name -> source) outside the ``jsonl`` module."""
    found = []
    for module, source in package.items():
        if module == "jsonl":
            continue
        for node in ast.walk(ast.parse(source)):
            attribute = (
                isinstance(node, ast.Attribute)
                and node.attr in PARSERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and any(alias.name in PARSERS for alias in node.names)
            )
            if attribute or imported:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_only_jsonl_parses_json():
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert json_parses(package) == []


def test_checker_flags_what_it_should():
    package = {
        "jsonl": "import json\nx = json.loads('1')\n",
        "a": "import json\ny = json.loads(s)\nz = json.dumps(y)\n",
        "b": "from json import dumps, load as read\n",
        "c": "import json\nwith open(p) as fh:\n    v = json.load(fh)\n",
        "d": "from .jsonl import read_json\nloads = 1\nobj.loads(s)\nread_json(p)\n",
    }
    assert json_parses(package) == ["a:2", "b:1", "c:3"]
