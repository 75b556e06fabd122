"""Multiple-choice evaluation: prompt rendering, answer extraction, grading.

Items are graded at temperature 0. The extractor prefers the last
well-formed ``<answer>X</answer>`` span and falls back to phrasing like
"Answer: C"; responses yielding neither count as unparsable and score
as incorrect. A tiny-model checkpoint answers through
``TinyLmResponder``, which renders each request with
``dataset.chat_prompt_ids``, the template the model was trained on.
Quiz items and the report's per-item rows are written and read field
for field from ``McqItem`` and ``EvalItemResult``. The answer span the
extractor reads is defined, with its renderer, in ``prompts``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

from . import prompts
from .backend import ChatRequest, ChatResponse, LlmBackend, fan_out
from .dataset import chat_prompt_ids
from .errors import BackendError, SchemaViolation
from .jsonl import read_jsonl
from .tinylm import ByteTokenizer, Parameters, greedy_decode


@dataclass(frozen=True)
class McqItem:
    item_id: str
    stem: str
    options: dict[str, str]
    correct: str

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError(f"item {self.item_id}: need at least 2 options")
        if self.correct not in self.options:
            raise ValueError(f"item {self.item_id}: correct letter not among options")


QUIZ_KEYS = tuple(f.name for f in fields(McqItem))


@dataclass(frozen=True)
class EvalItemResult:
    item_id: str
    extracted: str | None
    correct_flag: bool
    response: str | None  # the raw response text; None when the backend failed


@dataclass(frozen=True)
class EvalReport:
    per_item: list[EvalItemResult]
    accuracy: float
    answered: int
    unparsable: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "counts": {"answered": self.answered, "unparsable": self.unparsable},
            "per_item": [dict(vars(r)) for r in self.per_item],
        }


def render_eval_prompt(item: McqItem, max_tokens: int = 512) -> ChatRequest:
    """Deterministic grading request: options in letter order, temperature 0."""
    lines = [item.stem, ""]
    for letter in sorted(item.options):
        lines.append(prompts.EVAL_OPTION_LINE.format(letter=letter, text=item.options[letter]))
    return ChatRequest.of(prompts.EVAL_PROMPT, "\n".join(lines), max_tokens=max_tokens)


# Only the keywords ignore case; the option letter must be a capital.
_FALLBACK_RE = re.compile(r"\b(?i:answer|choice|option)\s*(?i:is|:)?\s*\(?([A-Z])\)?(?![A-Za-z])")


def extract_answer(text: str) -> str | None:
    """Pull the chosen option letter out of a model response.

    First choice: the single letter inside the last well-formed answer
    span (whitespace-trimmed, case preserved). Fallback: the last capital
    letter in an "Answer: C"-style phrase. None when neither matches.
    """
    spans = prompts.ANSWER_RE.findall(text)
    if spans:
        candidate = spans[-1].strip()
        if re.fullmatch(r"[A-Za-z]", candidate):
            return candidate
    matches = _FALLBACK_RE.findall(text)
    if matches:
        return matches[-1]
    return None


def grade(items: list[McqItem], backend: LlmBackend, parallelism: int = 1) -> EvalReport:
    """Evaluate each item once; unparsable or failed items count as wrong."""
    if not items:
        raise ValueError("no items to grade")

    def run(item: McqItem) -> EvalItemResult:
        try:
            response = backend.complete(render_eval_prompt(item))
        except BackendError:
            return EvalItemResult(item.item_id, extracted=None, correct_flag=False, response=None)
        extracted = extract_answer(response.content)
        correct = extracted is not None and extracted.upper() == item.correct.upper()
        return EvalItemResult(item.item_id, extracted, correct, response=response.content)

    results = list(fan_out(run, items, parallelism))

    correct_count = sum(r.correct_flag for r in results)
    unparsable = sum(r.extracted is None for r in results)
    return EvalReport(
        per_item=results,
        accuracy=correct_count / len(items),
        answered=len(items) - unparsable,
        unparsable=unparsable,
    )


class TinyLmResponder:
    """Adapter letting the tiny model answer chat requests by greedy decode.

    A request is an optional system message and one user message, rendered
    by ``chat_prompt_ids`` exactly as training renders them. Prompts longer
    than the model context are left-truncated; output stops at EOS or the
    new-token budget. Purely deterministic.
    """

    def __init__(self, params: Parameters, max_new_tokens: int = 48):
        self.params = params
        self.max_new_tokens = max_new_tokens
        self._tokenizer = ByteTokenizer()

    def complete(self, request: ChatRequest) -> ChatResponse:
        roles = [m.role for m in request.messages]
        if roles not in (["system", "user"], ["user"]):
            raise ValueError(f"expected an optional system message, then a user message; got {roles}")
        content = {m.role: m.content for m in request.messages}
        ids = chat_prompt_ids(content.get("system", ""), content["user"], self._tokenizer)
        generated = greedy_decode(self.params, ids, self.max_new_tokens)
        return ChatResponse(content=self._tokenizer.decode(generated, errors="replace"))


def read_quiz(path: str | Path) -> list[McqItem]:
    items = []
    for rec in read_jsonl(path, schema=QUIZ_KEYS):
        if not isinstance(rec["options"], dict):
            raise SchemaViolation(f"quiz item {rec['item_id']}: options must be an object")
        items.append(McqItem(**rec))
    return items


def default_quiz_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("granary").joinpath("assets/quiz.jsonl")))
