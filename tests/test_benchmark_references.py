"""Every program name the benchmark under ``perfbench/`` uses still exists.

The benchmark drives the program through its public functions and wraps
some of them by name (``tracer.wrap(tinylm, "forward", ...)``), so
renaming or deleting one breaks the benchmark without failing any other
test. Its files are read with ``ast`` only, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from granary import tape

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _granary_modules(tree: ast.Module) -> dict:
    """Name bound to a ``granary`` module in the file -> that module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "granary" and alias.asname is None:
                    bound["granary"] = importlib.import_module("granary")
        elif isinstance(node, ast.ImportFrom) and node.module == "granary":
            for alias in node.names:
                bound[alias.asname or alias.name] = importlib.import_module(f"granary.{alias.name}")
    return bound


def missing_references(source: str) -> list[str]:
    """``module.attr`` references of a benchmark file that do not resolve.

    Counted are attribute reads on a bound ``granary`` module, a name
    imported ``from granary.<module>``, and a call argument naming a
    module followed by a string constant (``wrap(module, "attr")``).
    """
    tree = ast.parse(source)
    modules = _granary_modules(tree)
    refs: list[tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("granary."):
            modules.setdefault(node.module, importlib.import_module(node.module))
            refs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.append((node.value.id, node.attr))
        elif isinstance(node, ast.Call):
            for owner, attr in zip(node.args, node.args[1:]):
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in modules
                    and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str)
                ):
                    refs.append((owner.id, attr.value))
    return sorted({f"{owner}.{attr}" for owner, attr in refs if not hasattr(modules[owner], attr)})


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_references_resolve(path):
    assert missing_references(path.read_text(encoding="utf-8")) == []


def test_traced_tape_ops_exist():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    [ops] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TAPE_OPS" for t in node.targets)
    ]
    assert ops and [op for op in ops if not callable(getattr(tape, op, None))] == []


def test_checker_flags_what_it_should():
    source = (
        "import granary\n"
        "from granary import tinylm, tape as t\n"
        "from granary.backend import MockLlmBackend, NoSuchBackend\n"
        "granary.__file__, granary.no_such_module\n"
        "tinylm.forward(t.layer_norm, tinylm.no_such_name)\n"
        "tracer.wrap(tinylm, 'batched_logprobs', 'name')\n"
        "patched(t, 'no_such_op', make)\n"
    )
    assert missing_references(source) == [
        "granary.backend.NoSuchBackend",
        "granary.no_such_module",
        "t.no_such_op",
        "tinylm.no_such_name",
    ]
