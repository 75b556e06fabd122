"""No module of ``src/granary`` rebinds a module name with ``global``.

The training shard threads and greedy decode share the library's module
state, so what lives there stays constant after import. Files are read
with the stdlib ``ast`` module alone, never imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "granary"


def global_statements(source: str) -> list[str]:
    """Each ``global`` statement of ``source`` as ``line: names``."""
    return [
        f"{node.lineno}: {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


def test_no_module_has_a_global_statement():
    offenders = {
        path.stem: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := global_statements(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_checker_flags_what_it_should():
    source = (
        "CACHE = {}\n"
        "def grow():\n"
        "    global CACHE, SIZE\n"
        "    CACHE = {}\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        global CACHE\n"
        "def closure():\n"
        "    count = 0\n"
        "    def bump():\n"
        "        nonlocal count\n"
        "    CACHE['key'] = 1\n"
    )
    assert global_statements(source) == ["3: CACHE, SIZE", "7: CACHE"]
