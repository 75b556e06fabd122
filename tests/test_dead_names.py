"""Every top-level name in ``src/granary`` has a caller outside the tests.

A ``def``, ``class`` or module-level constant counts as used when another
top-level statement of the package, or any file under ``perfbench/`` or
``scripts/``, loads it as a name, reads it as an attribute, imports it,
or spells it as a string constant (the benchmark's tracer wraps
functions by name, some of them listed in a tuple). Uses inside the definition itself do not count,
and neither do the tests: oracles that only tests use live under
``tests/``. Files are read with the stdlib ``ast`` module alone, never
imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "granary"
USERS = ("perfbench", "scripts")


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used(node: ast.AST) -> set[str]:
    """Names ``node`` loads, reads as attributes, imports or spells as strings."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def dead_names(package: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` of each top-level definition in ``package`` (module
    name -> source) that nothing in ``users`` (sources) and no other
    top-level statement of ``package`` uses."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    outside = set().union(*(_used(ast.parse(source)) for source in users))
    uses = {(module, i): _used(stmt) for module, tree in trees.items() for i, stmt in enumerate(tree.body)}
    dead = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for name in _defined(stmt):
                if name not in outside and not any(
                    name in used for where, used in uses.items() if where != (module, i)
                ):
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def test_every_top_level_name_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8") for user in USERS for path in sorted((ROOT / user).glob("*.py"))]
    assert dead_names(package, users) == []


def test_checker_flags_what_it_should():
    package = {
        "a": (
            "LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def helper(n):\n"
            "    return helper(n - 1) if n else LIMIT\n"
            "def orphan():\n"
            "    return orphan()\n"
            "class Shape:\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def stored():\n"
            "    pass\n"
        ),
        "b": "from .a import helper\ny = helper(2)\nobj.stored = 1\n",
    }
    users = ["import granary.a\ngranary.a.Shape()\nOPS = ('traced', 'x')\n"]
    assert dead_names(package, users) == ["a._UNUSED", "a.orphan", "a.stored", "b.y"]
