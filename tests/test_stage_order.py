"""``cli._run_stage`` is the one place that spells the stage order.

A recorded stage checks upstream, reads and checks its inputs, drops its
manifest entries with ``config.start_stage``, writes, and records itself
with ``config.record_stage``. Every workdir command, ``eval`` included, is
such a stage, and only the runner calls ``check_upstream``,
``start_stage`` and ``record_stage``, so a new command cannot spell that
order by hand. Files are read with the stdlib ``ast`` module alone, never
imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "granary"
GUARDED = ("start_stage", "record_stage", "check_upstream")


def callers(sources: dict[str, str]) -> dict[str, list[str]]:
    """For each guarded name, the ``module.function`` of every call to it in
    ``sources`` (module name -> source), as a plain name or an attribute."""
    found: dict[str, list[str]] = {name: [] for name in GUARDED}

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in found:
                    found[name].append(where)
            visit(child, where)

    for module, source in sorted(sources.items()):
        visit(ast.parse(source), module)
    return found


def test_only_the_runner_starts_and_records_a_stage():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert callers(sources) == {
        "start_stage": ["cli._run_stage"],
        "record_stage": ["cli._run_stage"],
        "check_upstream": ["cli._run_stage"],
    }


def test_checker_flags_what_it_should():
    sources = {
        "a": (
            "from .config import record_stage\n"
            "def cmd(cfg):\n"
            "    cfgmod.start_stage(w, 's', cfg)\n"
            "    record_stage(w, 's', cfg)\n"
            "    helper = lambda: cfgmod.check_upstream(w, 's', cfg)\n"
            "class Runner:\n"
            "    def run(self):\n"
            "        def inner():\n"
            "            return start_stage\n"
            "        return self.record_stage(w)\n"
        ),
        "b": "check_upstream(w, 's', cfg)\n",
    }
    assert callers(sources) == {
        "start_stage": ["a.cmd"],
        "record_stage": ["a.cmd", "a.Runner.run"],
        "check_upstream": ["a.cmd", "b"],
    }
