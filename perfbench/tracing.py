"""Span recording around the program's public functions, from outside it.

A ``Tracer`` replaces module or class attributes with timing wrappers at
the places the program's own callers look them up (``tape.add`` is what
``Tensor.__add__`` resolves, ``evalharness.greedy_decode`` is the name
``TinyLmResponder`` calls), keeps every span in memory, and puts the
originals back on ``restore``. Tape ops also get their returned tensor's
VJP wrapped, so backward time is attributed to the op that built it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TAPE_OPS = (
    "matmul",
    "add",
    "sub",
    "mul",
    "exp",
    "tanh",
    "power",
    "sumdim",
    "logsumexp",
    "gather_rows",
    "take_along_last",
    "slice_rows",
    "reshape",
    "swapaxes",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent span, thread id, unit]``.

    Spans are plain lists appended to one list (atomic under the GIL, so
    worker threads need no lock); a span's parent is the parent span
    itself, or None at the top.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.unit = 0  # index of the operation unit (pass, step or token) in progress
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[list] = []
        self._adopters: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, adopt: bool = False) -> list:
        """Start a span; ``adopt`` makes it the parent of worker-thread spans."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), self.unit]
        self.spans.append(span)
        stack.append(span)
        if adopt:
            self._adopters.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        if self._adopters and self._adopters[-1] is span:
            self._adopters.pop()

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None = None, name_of=None,
             before=None, after=None, adopt=False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name_of(*args)`` picks the span name per call; ``before(*args)``
        and ``after(result, *args)`` run outside the span to record counts;
        ``adopt`` makes the span the parent of spans opened by worker
        threads meanwhile.
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            span = self.open(name_of(*args) if name_of else name, adopt)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, wrapper)

    def wrap_tape_ops(self, tape) -> None:
        """Time every tape op forward, and its VJP when backward runs."""
        for op in TAPE_OPS:
            self._wrap_op(tape, op)

    def _wrap_op(self, tape, op: str) -> None:
        original = getattr(tape, op)
        self._saved.append((tape, op, original))
        fwd_name, bwd_name = f"tape.{op}", f"tape.{op}.bwd"

        def wrapper(*args, **kwargs):
            span = self.open(fwd_name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(span)
            vjp = out._vjp
            if vjp is not None:

                def timed_vjp(g):
                    inner = self.open(bwd_name)
                    try:
                        return vjp(g)
                    finally:
                        self.close(inner)

                out._vjp = timed_vjp
            return out

        setattr(tape, op, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def totals(self, min_unit: int = 0) -> dict[str, tuple[int, float]]:
        """Per span name: (count, summed duration in seconds) from ``min_unit`` on."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _, unit in self.spans:
            if unit < min_unit:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_times(self, min_unit: int = 0) -> dict[str, float]:
        """Per span name: summed duration minus the union of each span's children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, *_rest in self.spans:
            if parent is not None:
                children[id(parent)].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name, start, end, _, _, unit = span
            if unit < min_unit:
                continue
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(id(span), ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path: Path) -> None:
        """Dump spans as compact JSON: a name table plus one row per span."""
        names: dict[str, int] = {}
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for name, start, end, parent, tid, unit in self.spans:
            parent_index = -1 if parent is None else index[id(parent)]
            rows.append([names.setdefault(name, len(names)), start, end, parent_index, tid, unit])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"names": list(names), "fields": ["name", "start", "end", "parent", "thread", "unit"], "spans": rows}),
            encoding="utf-8",
        )


@contextmanager
def patched(owner, attr: str, make):
    """Temporarily replace ``owner.attr`` with ``make(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def graph_size(root) -> int:
    """Number of tape tensors reachable from ``root`` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
