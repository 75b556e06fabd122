"""Multi-agent distillation of learning nodes into Q/T/S/A records.

Three agents cooperate per (node, sample) task: a question writer, an
answerer that reasons inside ``<think>`` tags and wraps the final answer
in ``<answer>`` tags, and a postprocessor that rejects malformed output
and rewrites dangling references ("Eq. (4.1)", "this section", ...) so
each record stands alone. Each finished task's record is appended to a
one-file journal as it completes, so interrupted runs resume without
re-querying the backend. The text formats the agents exchange, and
``RawAnswer``, ``render_assistant`` and ``parse_answer_spans`` with them,
are defined in ``prompts``.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path
from threading import Lock

from . import prompts
from .backend import ChatRequest, LlmBackend, fan_out
from .corpus import LearningNode
from .errors import BackendError, EmptyGeneration, SchemaViolation, StaleArtifact
from .jsonl import check_keys
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

    ``stage_hash``, when given, names the configuration the run distills
    under (the CLI passes the distill stage hash): each journal line
    records it, and a journal written under another one is refused.
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
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


DANGLING_PATTERNS = tuple(pattern for pattern, _ in prompts.DANGLING_REFERENCES)
_DANGLING_RE = re.compile("|".join(f"(?:{p.pattern})" for p in DANGLING_PATTERNS), re.I)


def find_dangling(text: str) -> str | None:
    """Return the leftmost match of any of ``DANGLING_PATTERNS`` in ``text``, if any."""
    match = _DANGLING_RE.search(text)
    return match.group(0) if match else None


def generate_question(node: LearningNode, sample_idx: int, backend: LlmBackend) -> str:
    """Ask the question agent for one question grounded in ``node.text``."""
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
    content = backend.complete(request).content.strip()
    if not content:
        raise EmptyGeneration(
            f"question agent returned blank content for node {node.node_id[:12]}"
        )
    return content


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
    return parse_answer_spans(backend.complete(request).content)


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
    return prompts.parse_rewrite(backend.complete(request).content)


_NO_ANSWER = RawAnswer(thinking="", solution="", answer="")


def _rejected_entry(
    node: LearningNode,
    sample_idx: int,
    reason: str,
    question: str = "",
    raw: RawAnswer = _NO_ANSWER,
) -> QtsaEntry:
    """A rejected record holding the agents' output as produced (question stripped)."""
    return QtsaEntry(
        entry_id=entry_id_for(node.node_id, sample_idx),
        node_id=node.node_id,
        sample_idx=sample_idx,
        question=question.strip(),
        thinking=raw.thinking,
        solution=raw.solution,
        answer=raw.answer,
        status=STATUS_REJECTED,
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
            return _rejected_entry(node, sample_idx, reason, question, raw)

    # q and s screened clean need no second look unless a rewrite replaced them.
    screen = (t, a)
    if find_dangling(q) or find_dangling(s):
        try:
            q, s = _request_rewrite(q, s, node, backend)
        except BackendError:
            return _rejected_entry(node, sample_idx, "backend_failure", question, raw)
        if not q or not s:
            return _rejected_entry(node, sample_idx, "rewrite_failed", question, raw)
        screen = (q, t, s, a)
    if any(find_dangling(part) for part in screen):
        return _rejected_entry(node, sample_idx, "dangling_reference", question, raw)

    reparsed = parse_answer_spans(render_assistant(t, s, a))
    if (reparsed.thinking, reparsed.solution, reparsed.answer) != (t, s, a):
        return _rejected_entry(node, sample_idx, "malformed_tags", question, raw)

    return QtsaEntry(
        entry_id=entry_id_for(node.node_id, sample_idx),
        node_id=node.node_id,
        sample_idx=sample_idx,
        question=q,
        thinking=t,
        solution=s,
        answer=a,
        status=STATUS_KEPT,
        reject_reason=None,
    )


def _read_records(path: Path) -> list[dict]:
    """The JSON lines of an append-only file, minus a torn final line.

    A final line without its newline is what a crash mid-append leaves;
    it is cut off the file, so the next append starts on a fresh line.
    A malformed line anywhere else raises SchemaViolation naming the file
    and the line.
    """
    if not path.exists():
        return []
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with path.open("r+b") as fh:
            fh.truncate(end)
    records = []
    for line_no, line in enumerate(data[:end].split(b"\n"), 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise SchemaViolation(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    return records


class DistillJournal:
    """Append-only log of finished tasks, one Q/T/S/A record per line.

    Each line is the task's ``entry_to_record`` dict plus a ``timestamp``,
    and the ``stage_hash`` it ran under when one is given. A task counts
    as completed once its line, newline included, is on disk: a crash
    mid-append leaves a torn final line, which the next load cuts off, so
    that task simply runs again. A line written under another stage hash
    (or with one where none is given, or without one where one is)
    raises StaleArtifact: its results came from another configuration.
    Passing ``path=None`` keeps everything in memory.
    """

    def __init__(self, path: Path | None, stage_hash: str | None = None):
        self.path = Path(path) if path is not None else None
        self.stage_hash = stage_hash
        self.results: dict[tuple[str, int], QtsaEntry] = {}
        self._lock = Lock()
        self._fh = None
        if self.path is not None:
            for line_no, rec in enumerate(_read_records(self.path), 1):
                written = rec.pop("stage_hash", None) if isinstance(rec, dict) else None
                # A two-file journal's lines hold only node_id, sample_idx,
                # status and timestamp; its records are not recoverable here.
                if not isinstance(rec, dict) or set(rec) != {*QTSA_KEYS, "timestamp"}:
                    raise SchemaViolation(
                        f"{self.path}: line {line_no} is not a Q/T/S/A record with a"
                        " timestamp; delete the journal to distill from scratch"
                    )
                if written != stage_hash:
                    raise StaleArtifact(
                        f"{self.path}: line {line_no} was distilled under stage hash {written},"
                        f" this run's is {stage_hash}; delete the journal to distill from scratch"
                    )
                del rec["timestamp"]
                entry = QtsaEntry(**rec)
                self.results[(entry.node_id, entry.sample_idx)] = entry
            self._fh = self.path.open("a", encoding="utf-8")

    def completed(self) -> set[tuple[str, int]]:
        return set(self.results)

    def commit(self, entry: QtsaEntry) -> None:
        with self._lock:
            self.results[(entry.node_id, entry.sample_idx)] = entry
            if self._fh is None:
                return
            record = entry_to_record(entry)
            record["timestamp"] = time.time()
            if self.stage_hash is not None:
                record["stage_hash"] = self.stage_hash
            self._fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _run_task(
    node: LearningNode, sample_idx: int, backend: LlmBackend
) -> QtsaEntry:
    try:
        question = generate_question(node, sample_idx, backend)
        raw = answer_question(node, question, backend)
    except EmptyGeneration:
        return _rejected_entry(node, sample_idx, "empty_generation")
    except BackendError:
        return _rejected_entry(node, sample_idx, "backend_failure")
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
        done = journal.completed()
        pending = [
            (node, k)
            for node in nodes
            for k in range(cfg.n_samples)
            if (node.node_id, k) not in done
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
    check_keys(rec, QTSA_KEYS, "qtsa record")
    return QtsaEntry(**rec)
