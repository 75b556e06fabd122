"""Multi-agent distillation of learning nodes into Q/T/S/A records.

Three agents cooperate per (node, sample) task: a question writer, an
answerer that reasons inside ``<think>`` tags and wraps the final answer
in ``<answer>`` tags, and a postprocessor that rejects malformed output
and rewrites dangling references ("Eq. (4.1)", "this section", ...) so
each record stands alone. Each finished task's record is appended to
the journal, an ordinary JSONL file, as it completes, so interrupted runs
resume without re-querying the backend. The text formats the agents exchange, and
``RawAnswer``, ``render_assistant`` and ``parse_answer_spans`` with them,
are defined in ``prompts``.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import prompts
from .backend import ChatRequest, LlmBackend, fan_out
from .corpus import LearningNode
from .errors import BackendError
from .jsonl import LINE_ENCODER, from_json, read_jsonl
from .prompts import RawAnswer, parse_answer_spans, render_assistant

STATUS_KEPT = "kept"
STATUS_REJECTED = "rejected"

QUESTION_TEMPERATURE = 0.7
ANSWER_TEMPERATURE = 0.7
REWRITE_TEMPERATURE = 0.0


@dataclass(frozen=True)
class QtsaEntry:
    """One distilled question/thinking/solution/answer record."""

    entry_id: str
    node_id: str
    sample_idx: int
    question: str
    thinking: str
    solution: str
    answer: str
    status: str
    reject_reason: str | None = None

    @property
    def kept(self) -> bool:
        return self.status == STATUS_KEPT


QTSA_KEYS = tuple(f.name for f in fields(QtsaEntry))


@dataclass(frozen=True)
class DistillConfig:
    """Sampling and execution knobs for a distillation run.

    ``stage_hash`` names the configuration the run distills under (the
    CLI passes the distill stage hash): each journal line records it, null
    when none is given, and a journal written under another one is refused.
    """

    n_samples: int = 5
    parallelism: int = 1
    journal_path: Path | None = None
    stage_hash: str | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def entry_id_for(node_id: str, sample_idx: int) -> str:
    return hashlib.sha256(f"{node_id}:{sample_idx}".encode("utf-8")).hexdigest()[:16]


def sample_seed(*parts: object) -> int:
    """Distinct deterministic backend seed, e.g. per (node, sample) task."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


DANGLING_PATTERNS = tuple(pattern for pattern, _ in prompts.DANGLING_REFERENCES)
# Every pattern starts with one of these letters, so the lookahead skips the
# other positions before any alternative is tried.
DANGLING_FIRST_LETTERS = "aefit"
_DANGLING_RE = re.compile(f"(?=[{DANGLING_FIRST_LETTERS}])(?:{'|'.join(p.pattern for p in DANGLING_PATTERNS)})", re.I)


def find_dangling(text: str) -> str | None:
    """Return the leftmost match of any of ``DANGLING_PATTERNS`` in ``text``, if any."""
    match = _DANGLING_RE.search(text)
    return match.group(0) if match else None


def generate_question(node: LearningNode, sample_idx: int, backend: LlmBackend) -> str:
    """Ask the question agent for one question grounded in ``node.text``; a blank one is ``""``."""
    if not node.text:
        raise ValueError("node text must be nonempty")
    request = ChatRequest.of(
        prompts.QUESTION_PROMPT,
        prompts.QUESTION_USER_TEMPLATE.format(
            node_id=node.node_id, sample_idx=sample_idx, node_text=node.text
        ),
        temperature=QUESTION_TEMPERATURE,
        seed=sample_seed(node.node_id, sample_idx),
    )
    return backend.complete(request).strip()


def answer_question(node: LearningNode, question: str, backend: LlmBackend) -> RawAnswer:
    """Ask the answering agent and split its response into T/S/A spans."""
    if not question:
        raise ValueError("question must be nonempty")
    request = ChatRequest.of(
        prompts.ANSWER_PROMPT,
        prompts.ANSWER_USER_TEMPLATE.format(node_text=node.text, question=question),
        temperature=ANSWER_TEMPERATURE,
        seed=sample_seed(node.node_id, question),
        max_tokens=2048,
    )
    return parse_answer_spans(backend.complete(request))


def _request_rewrite(
    question: str, solution: str, node: LearningNode, backend: LlmBackend
) -> tuple[str, str]:
    exchange = prompts.render_rewrite(question, solution)
    request = ChatRequest.of(
        prompts.REWRITE_PROMPT,
        prompts.REWRITE_USER_TEMPLATE.format(exchange=exchange, node_text=node.text),
        temperature=REWRITE_TEMPERATURE,
        seed=sample_seed(node.node_id, 0),
    )
    return prompts.parse_rewrite(backend.complete(request))


_NO_ANSWER = RawAnswer(thinking="", solution="", answer="")


def _entry(
    node: LearningNode, sample_idx: int, reason: str | None, question: str = "", raw: RawAnswer = _NO_ANSWER
) -> QtsaEntry:
    """The task's record, with its question stripped: kept when ``reason`` is
    None, else rejected for it and holding the agents' output as produced."""
    return QtsaEntry(
        entry_id=entry_id_for(node.node_id, sample_idx),
        node_id=node.node_id,
        sample_idx=sample_idx,
        question=question.strip(),
        thinking=raw.thinking,
        solution=raw.solution,
        answer=raw.answer,
        status=STATUS_KEPT if reason is None else STATUS_REJECTED,
        reject_reason=reason,
    )


def postprocess(
    raw: RawAnswer,
    question: str,
    node: LearningNode,
    sample_idx: int,
    backend: LlmBackend,
) -> QtsaEntry:
    """Screen one raw record: reject empties, rewrite dangling references.

    A record whose question or solution cites unavailable material gets one
    rewrite attempt through the backend; if any field still matches a
    dangling pattern afterwards the record is rejected rather than retried.
    Kept records are guaranteed to round-trip through the assistant
    template and ``parse_answer_spans`` unchanged.
    """

    q = question.strip()
    t = raw.thinking.strip()
    s = raw.solution.strip()
    a = raw.answer.strip()
    for value, reason in (
        (q, "missing_question"),
        (t, "missing_thinking"),
        (s, "missing_solution"),
        (a, "missing_answer"),
    ):
        if not value:
            return _entry(node, sample_idx, reason, question, raw)

    # q and s screened clean need no second look unless a rewrite replaced them.
    # One search screens fields joined on NUL: no pattern matches a NUL, and
    # \b sees one as it sees a string end.
    screen = (t, a)
    if find_dangling("\0".join((q, s))):
        try:
            q, s = _request_rewrite(q, s, node, backend)
        except BackendError:
            return _entry(node, sample_idx, "backend_failure", question, raw)
        if not q or not s:
            return _entry(node, sample_idx, "rewrite_failed", question, raw)
        screen = (q, t, s, a)
    if find_dangling("\0".join(screen)):
        return _entry(node, sample_idx, "dangling_reference", question, raw)

    reparsed = parse_answer_spans(render_assistant(t, s, a))
    if (reparsed.thinking, reparsed.solution, reparsed.answer) != (t, s, a):
        return _entry(node, sample_idx, "malformed_tags", question, raw)

    return _entry(node, sample_idx, None, q, RawAnswer(thinking=t, solution=s, answer=a))


JOURNAL_KEYS = (*QTSA_KEYS, "timestamp", "stage_hash")


class DistillJournal:
    """Append-only log of finished tasks, one ``JOURNAL_KEYS`` line each: the
    task's record, when it ran and under which stage hash (null if none).

    A task counts as completed once its line, newline included, is on
    disk: a crash mid-append leaves a torn final line, which the next load
    cuts off, so that task simply runs again. ``read_jsonl`` and ``from_json``
    refuse a line with other keys or types; one written under another stage
    hash raises ValueError, since its result came from another configuration.
    Passing ``path=None`` keeps everything in memory.
    """

    def __init__(self, path: Path | None, stage_hash: str | None = None):
        self.path = Path(path) if path is not None else None
        self.stage_hash = stage_hash
        self.results: dict[tuple[str, int], QtsaEntry] = {}
        self._fh = None
        if self.path is None:
            return
        if self.path.exists():
            os.truncate(self.path, self.path.read_bytes().rfind(b"\n") + 1)
            for rec in read_jsonl(self.path, schema=JOURNAL_KEYS):
                written = rec.pop("stage_hash")
                if written != stage_hash:
                    raise ValueError(
                        f"{self.path}: distilled under stage hash {written}, this run's is {stage_hash};"
                        " delete the journal to distill from scratch"
                    )
                del rec["timestamp"]
                entry = from_json(QtsaEntry, rec, f"{self.path}: journal record", key="entry_id")
                self.results[(entry.node_id, entry.sample_idx)] = entry
        self._fh = self.path.open("a", encoding="utf-8")

    def commit(self, entry: QtsaEntry) -> None:
        self.results[(entry.node_id, entry.sample_idx)] = entry
        if self._fh is None:
            return
        record = {**entry_to_record(entry), "timestamp": time.time(), "stage_hash": self.stage_hash}
        self._fh.write(LINE_ENCODER.encode(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _run_task(
    node: LearningNode, sample_idx: int, backend: LlmBackend
) -> QtsaEntry:
    try:
        question = generate_question(node, sample_idx, backend)
        if not question:
            return _entry(node, sample_idx, "empty_generation")
        raw = answer_question(node, question, backend)
    except BackendError:
        return _entry(node, sample_idx, "backend_failure")
    return postprocess(raw, question, node, sample_idx, backend)


def distill_corpus(
    nodes: list[LearningNode], cfg: DistillConfig, backend: LlmBackend
) -> list[QtsaEntry]:
    """Distill every (node, sample) pair, resuming from the journal.

    Exactly ``len(nodes) * cfg.n_samples`` entries come back (kept plus
    rejected), sorted by node order then sample index. Each task is
    journaled from this thread as soon as it finishes, so above
    ``parallelism`` 1 the journal is in completion order. Tasks already
    committed in the journal are never re-queried. Backend failures reject
    the affected task and the run continues; only journal I/O is fatal.
    """
    journal = DistillJournal(cfg.journal_path, cfg.stage_hash)
    try:
        pending = [
            (node, k)
            for node in nodes
            for k in range(cfg.n_samples)
            if (node.node_id, k) not in journal.results
        ]
        for _, entry in fan_out(lambda task: _run_task(*task, backend), pending, cfg.parallelism):
            journal.commit(entry)
        return [
            journal.results[(node.node_id, k)]
            for node in nodes
            for k in range(cfg.n_samples)
        ]
    finally:
        journal.close()


def entry_to_record(entry: QtsaEntry) -> dict:
    return dict(vars(entry))


def entry_from_record(rec: dict) -> QtsaEntry:
    """The QtsaEntry of a qtsa.jsonl record; a field of the wrong type is a SchemaViolation naming it."""
    return from_json(QtsaEntry, rec, "qtsa record", key="entry_id")
