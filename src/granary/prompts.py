"""Versioned prompts and the message formats the agents exchange.

Each prompt file starts with a bracketed tag line; backends (notably the
deterministic mock) classify requests by that tag. This module owns every
format the distiller, the eval harness and the mock exchange, each with one
renderer and one parser: the question header, the answer response, its
answer span, the rewrite and the eval option lines. It also holds the
dangling references the distiller screens for and the mock rewrites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

QUESTION_TAG = "[granary-agent question v1]"
ANSWER_TAG = "[granary-agent answer v1]"
REWRITE_TAG = "[granary-agent rewrite v1]"
EVAL_TAG = "[granary-agent eval v1]"


def _load(name: str) -> str:
    return resources.files("granary").joinpath(f"assets/prompts/{name}").read_text(
        encoding="utf-8"
    )


QUESTION_PROMPT = _load("question_v1.txt")
ANSWER_PROMPT = _load("answer_v1.txt")
REWRITE_PROMPT = _load("rewrite_v1.txt")
EVAL_PROMPT = _load("eval_v1.txt")

QUESTION_USER_TEMPLATE = "Passage id: {node_id}\nVariation: {sample_idx}\n\n{node_text}\n"
# The header ``QUESTION_USER_TEMPLATE`` writes; groups: node_id, sample_idx.
QUESTION_HEADER_RE = re.compile(r"^Passage id: (\S+)\nVariation: (\d+)$", re.M)
ANSWER_USER_TEMPLATE = "{node_text}\n\nQuestion: {question}\n"
REWRITE_USER_TEMPLATE = "{exchange}\n\nPassage:\n{node_text}\n"
# One line per option of an eval question; the regex finds each line's letter.
EVAL_OPTION_LINE = "{letter}) {text}"
EVAL_OPTION_RE = re.compile(r"^([A-Z])\) ", re.M)

# Citations a standalone record cannot carry, which the distiller screens for,
# each with the wording the mock rewrite agent puts in its place.
DANGLING_REFERENCES = (
    (re.compile(r"\bEq(?:uation)?\.?\s*\(?\s*\d+(?:\.\d+)*\s*\)?", re.I), "the governing relation"),
    (re.compile(r"\bTable\s+\d+(?:\.\d+)*", re.I), "the tabulated component values"),
    (re.compile(r"\bFig(?:ure)?\.?\s*\d+(?:\.\d+)*", re.I), "the described circuit diagram"),
    (re.compile(r"\bas shown (?:above|below)\b", re.I), "as derived here"),
    (re.compile(r"\b(?:in\s+)?this (?:section|chapter)\b", re.I), "in this material"),
)

_THINK_RE = re.compile(r"<think>(.*?)</think>", re.S)
ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.S)
_QUESTION_RE = re.compile(r"<question>(.*?)</question>", re.S)
_SOLUTION_RE = re.compile(r"<solution>(.*?)</solution>", re.S)


@dataclass(frozen=True)
class RawAnswer:
    thinking: str
    solution: str
    answer: str


def render_answer_span(answer: str) -> str:
    """The span holding a final answer, which ``ANSWER_RE`` finds."""
    return f"<answer>{answer}</answer>"


def render_assistant(thinking: str, solution: str, answer: str) -> str:
    """Canonical serialized form of a Q/T/S/A record's response side."""
    return f"<think>\n{thinking}\n</think>\n\n{solution}\n\n{render_answer_span(answer)}"


def parse_answer_spans(text: str) -> RawAnswer:
    """Split a raw model response into thinking / solution / answer.

    Thinking is the content of the first well-formed ``<think>`` span,
    solution the text between ``</think>`` and the first ``<answer>``,
    answer the content of the first well-formed ``<answer>`` span. Absent
    spans yield empty fields; whitespace is trimmed.
    """
    think_match = _THINK_RE.search(text)
    thinking = think_match.group(1).strip() if think_match else ""
    rest = text[think_match.end():] if think_match else text
    answer_match = ANSWER_RE.search(rest)
    answer = answer_match.group(1).strip() if answer_match else ""
    solution = (rest[: answer_match.start()] if answer_match else rest).strip()
    return RawAnswer(thinking=thinking, solution=solution, answer=answer)


def render_rewrite(question: str, solution: str) -> str:
    """A question and solution as the rewrite agent reads and returns them."""
    return f"<question>{question}</question>\n<solution>{solution}</solution>"


def parse_rewrite(text: str) -> tuple[str, str]:
    """The first question and solution spans of ``text``, trimmed; "" when absent."""
    spans = (_QUESTION_RE.search(text), _SOLUTION_RE.search(text))
    return tuple(m.group(1).strip() if m else "" for m in spans)
