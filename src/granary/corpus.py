"""Markdown corpus ingestion: section trees and learning-node decomposition.

Cleaned books arrive as one UTF-8 Markdown file per volume plus a JSON
manifest mapping each file name to a ``ManifestEntry``, whose keys are
exactly ``doc_id``, ``title`` and ``learning_stage``. ATX headings (``#``
through ``######``) carry the chapter hierarchy; each leaf subsection
becomes one learning node, the unit that the distiller later samples from.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .errors import SchemaViolation
from .jsonl import from_json, read_json


class LearningStage(str, Enum):
    """Position of a book in the four-stage study progression."""

    CIRCUIT_THEORY = "circuit_theory"
    ANALOG_BASIS = "analog_basis"
    ANALOG_IC = "analog_ic"
    ADVANCED = "advanced"


@dataclass(frozen=True)
class ManifestEntry:
    """A book's entry in the corpus manifest."""

    doc_id: str
    title: str
    learning_stage: LearningStage


@dataclass(frozen=True)
class SourceDocument(ManifestEntry):
    """One cleaned Markdown book."""

    markdown: str

    def __post_init__(self):
        if not self.markdown:
            raise ValueError(f"document {self.doc_id!r} has empty markdown")


@dataclass
class SectionNode:
    """A heading-delimited span of a document.

    ``body`` is the raw text between this node's heading line and the next
    heading, line endings preserved, so that re-serializing the tree
    reproduces the source exactly. ``heading_line`` keeps the original
    heading text (including its ``#`` run and trailing newline); it is empty
    for the document root. No pipeline stage reads it: it is there so the
    tests can re-serialize a tree (``oracles.serialize_tree``) and check
    that parsing loses nothing.
    """

    heading_path: list[str]
    depth: int
    body: str
    children: list["SectionNode"] = field(default_factory=list)
    heading_line: str = ""

    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class LearningNode:
    """An indivisible subsection ready for distillation."""

    node_id: str
    doc_id: str
    heading_path: list[str]
    text: str
    token_estimate: int


@dataclass(frozen=True)
class DecomposeConfig:
    """Filtering knobs for learning-node extraction."""

    min_node_tokens: int = 64
    stop_headings: tuple[str, ...] = ("introduction", "summary")

    def __post_init__(self):
        if self.min_node_tokens < 1:
            raise ValueError("min_node_tokens must be >= 1")


@dataclass(frozen=True)
class CorpusStats:
    node_count: int
    total_tokens: int
    mean_tokens: float


NODE_KEYS = tuple(f.name for f in fields(LearningNode))

_HEADING_RE = re.compile(r"^(#{1,6})[ \t]+(.+?)[ \t]*$")


def _normalize_endings(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_markdown_tree(doc: SourceDocument) -> SectionNode:
    """Parse a document into its heading tree.

    ATX heading runs define nesting; a heading deeper than its predecessor
    becomes a child regardless of how many levels it skips, so node depth
    always equals the length of its heading path. Text before the first
    heading attaches to the root body. Headings inside fenced code blocks
    are treated as body text.
    """
    text = _normalize_endings(doc.markdown)
    root = SectionNode(heading_path=[], depth=0, body="")
    # Stack entries hold each open node with the ATX level that created it
    # (the root sits at level 0) and its body lines so far.
    stack: list[tuple[int, SectionNode, list[str]]] = [(0, root, [])]
    in_fence = False

    for line in text.splitlines(keepends=True):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
        match = None if in_fence else _HEADING_RE.match(line)
        if match is None:
            stack[-1][2].append(line)
            continue
        level = len(match.group(1))
        title = match.group(2)
        while stack[-1][0] >= level:
            _, closed, lines = stack.pop()
            closed.body = "".join(lines)
        parent = stack[-1][1]
        node = SectionNode(
            heading_path=parent.heading_path + [title],
            depth=parent.depth + 1,
            body="",
            heading_line=line,
        )
        parent.children.append(node)
        stack.append((level, node, []))

    for _, node, lines in stack:
        node.body = "".join(lines)
    return root


def iter_sections(root: SectionNode):
    """Yield every section in document order (root excluded)."""
    for child in root.children:
        yield child
        yield from iter_sections(child)


def estimate_tokens(text: str) -> int:
    """Cheap deterministic token estimate: ceil(utf-8 bytes / 4)."""
    return math.ceil(len(text.encode("utf-8")) / 4)


def node_id_for(doc_id: str, heading_path: list[str], text: str) -> str:
    """Content hash identifying a learning node; stable across runs."""
    payload = "\x1f".join([doc_id, *heading_path, text])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _breadcrumbs(heading_path: list[str]) -> str:
    return " > ".join(heading_path)


def decompose_to_nodes(
    root: SectionNode, doc_id: str, cfg: DecomposeConfig
) -> list[LearningNode]:
    """Extract learning nodes from a parsed document.

    Leaf subsections (depth >= 2) are the canonical granularity; a chapter
    with no subsection structure is itself a leaf at depth 1 and falls back
    to being one node. Nodes with blank bodies, headings on the stop list,
    or too few estimated tokens are dropped. Order follows the document.
    """
    stop = {h.casefold() for h in cfg.stop_headings}
    nodes: list[LearningNode] = []
    for section in iter_sections(root):
        if not section.is_leaf():
            continue
        body = section.body.strip()
        if not body:
            continue
        if section.heading_path[-1].casefold() in stop:
            continue
        text = f"{_breadcrumbs(section.heading_path)}\n\n{body}"
        tokens = estimate_tokens(text)
        if tokens < cfg.min_node_tokens:
            continue
        nodes.append(
            LearningNode(
                node_id=node_id_for(doc_id, section.heading_path, text),
                doc_id=doc_id,
                heading_path=list(section.heading_path),
                text=text,
                token_estimate=tokens,
            )
        )
    return nodes


def corpus_stats(nodes: list[LearningNode]) -> CorpusStats:
    """Exact count/sum/mean of node token estimates (mean 0 when empty)."""
    total = sum(n.token_estimate for n in nodes)
    count = len(nodes)
    return CorpusStats(
        node_count=count,
        total_tokens=total,
        mean_tokens=total / count if count else 0.0,
    )


def load_corpus(corpus_dir: str | Path, manifest_path: str | Path) -> list[SourceDocument]:
    """Load documents listed in a manifest.

    The manifest maps filename -> ``ManifestEntry``; files are read from
    ``corpus_dir`` in manifest order and must be valid UTF-8.
    """
    corpus_dir = Path(corpus_dir)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise SchemaViolation(f"manifest {manifest_path} must be a JSON object")

    docs: list[SourceDocument] = []
    seen_ids: set[str] = set()
    for filename, meta in manifest.items():
        entry = from_json(ManifestEntry, meta, f"manifest entry {filename!r}")
        if entry.doc_id in seen_ids:
            raise SchemaViolation(f"duplicate doc_id {entry.doc_id!r} in manifest")
        seen_ids.add(entry.doc_id)
        path = corpus_dir / filename
        raw = path.read_bytes()
        try:
            markdown = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not valid UTF-8: {exc}") from exc
        docs.append(SourceDocument(**vars(entry), markdown=markdown))
    return docs


def node_to_record(node: LearningNode) -> dict:
    return dict(vars(node))


def node_from_record(rec: dict) -> LearningNode:
    """The LearningNode of a nodes.jsonl record; a field of the wrong type is a SchemaViolation naming it."""
    return from_json(LearningNode, rec, "node record", key="node_id")
