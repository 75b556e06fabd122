"""Every exception class in ``errors.py`` is caught by name in ``src/granary``.

A class earns its place only when some caller reacts to it apart from
the others: an ``except`` clause of the package names it, or names a
class derived from it. Any other bad input is a plain ``ValueError``.
Files are read with the stdlib ``ast`` module alone, never imported or
run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "granary"


def _caught(tree: ast.AST) -> set[str]:
    """Names the ``except`` clauses of ``tree`` catch, alone or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, ast.Name):
                    names.add(t.id)
                elif isinstance(t, ast.Attribute):
                    names.add(t.attr)
    return names


def uncaught_classes(errors_source: str, package: list[str]) -> list[str]:
    """Classes defined in ``errors_source`` that no ``except`` clause in
    ``package`` (sources) names, directly or through a class derived from it."""
    bases = {
        stmt.name: {base.id for base in stmt.bases if isinstance(base, ast.Name)}
        for stmt in ast.parse(errors_source).body
        if isinstance(stmt, ast.ClassDef)
    }
    caught = set().union(*(_caught(ast.parse(source)) for source in package))
    while True:
        inherited = set().union(*(bases.get(name, set()) for name in caught)) - caught
        if not inherited:
            break
        caught |= inherited
    return sorted(set(bases) - caught)


def test_every_error_class_is_caught_by_name():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert uncaught_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_checker_flags_what_it_should():
    errors = (
        "class Base(Exception):\n    pass\n"
        "class Middle(Base):\n    pass\n"
        "class Caught(Middle):\n    pass\n"
        "class InTuple(ValueError):\n    pass\n"
        "class ByAttribute(Exception):\n    pass\n"
        "class OnlyRaised(Exception):\n    pass\n"
        "class Sibling(Base):\n    pass\n"
    )
    package = [
        "try:\n    f()\nexcept Caught:\n    pass\n",
        "try:\n    f()\nexcept (OSError, InTuple) as exc:\n    raise OnlyRaised('x') from exc\n",
        "from . import errors\ntry:\n    f()\nexcept errors.ByAttribute:\n    pass\n",
    ]
    assert uncaught_classes(errors, package) == ["OnlyRaised", "Sibling"]
