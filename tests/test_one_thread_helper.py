"""``backend.fan_out`` is the one worker-thread helper of ``src/granary``.

No other module constructs a ``threading.Thread`` or imports
``concurrent.futures`` or ``queue``, so every worker thread the library
starts runs through ``fan_out`` and keeps its contract (the caller's
context, every thread joined). Files are read with the stdlib ``ast``
module alone, never imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "granary"
HELPER = "backend"
BANNED_MODULES = ("concurrent", "queue")


def thread_uses(source: str) -> list[str]:
    """What ``source`` does that only the thread helper may: ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "threading" and any(alias.name == "Thread" for alias in node.names):
                found.append(f"{node.lineno}: imports threading.Thread")
        else:
            modules = []
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "Thread"
                and isinstance(node.value, ast.Name)
                and node.value.id == "threading"
            ):
                found.append(f"{node.lineno}: uses threading.Thread")
        found += [
            f"{node.lineno}: imports {module}"
            for module in modules
            if module.partition(".")[0] in BANNED_MODULES
        ]
    return found


def test_only_the_backend_starts_threads():
    offenders = {
        path.stem: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != HELPER and (uses := thread_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_checker_flags_what_it_should():
    source = (
        "import threading\n"
        "import queue\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "import concurrent.futures as cf\n"
        "from threading import Lock, Thread\n"
        "lock = threading.Lock()\n"
        "worker = threading.Thread(target=print)\n"
        "from collections import deque\n"
    )
    assert thread_uses(source) == [
        "2: imports queue",
        "3: imports concurrent.futures",
        "4: imports concurrent",
        "5: imports concurrent.futures",
        "6: imports threading.Thread",
        "8: uses threading.Thread",
    ]
