"""Dataset construction: chat rendering, masked tokenization, packing, mixing.

Kept distillation records become chat examples whose assistant side is
the canonical ``<think>/solution/<answer>`` rendering. Tokenization is
byte-level with a loss mask that is true exactly on assistant-content
tokens plus the final EOS; short sequences are packed greedily in order
up to a length bound. ``chat_prompt_ids`` is the one chat template up to
the assistant's turn: training examples and the tiny model's eval
prompts (``evalharness.TinyLmResponder``) are both built on it.

``pack_cpt_texts`` packs raw text for continued pre-training at the
model's context window; ``train`` calls it on ``cpt_dataset.jsonl``.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .distiller import QtsaEntry, parse_answer_spans, render_assistant
from .errors import OversizedExample, RejectedEntry
from .tinylm import BOS_ID, EOS_ID, ByteTokenizer

ORIGIN_DOMAIN = "domain"
ORIGIN_GENERAL = "general"

SYSTEM_DELIM = "\n<|system|>\n"
USER_DELIM = "\n<|user|>\n"
ASSISTANT_DELIM = "\n<|assistant|>\n"

SFT_KEYS = ("id", "origin", "system", "user", "assistant")
CPT_KEYS = ("node_id", "text")


@dataclass(frozen=True)
class ChatExample:
    system: str
    user: str
    assistant: str
    origin: str = ORIGIN_DOMAIN


@dataclass
class TokenizedExample:
    """Token ids with a per-position supervision mask."""

    input_ids: list[int]
    loss_mask: list[bool]

    def __post_init__(self):
        if len(self.input_ids) != len(self.loss_mask):
            raise ValueError("input_ids and loss_mask must have the same length")
        if not any(self.loss_mask):
            raise ValueError("loss mask needs at least one true position")
        if self.input_ids and not 0 <= min(self.input_ids) <= max(self.input_ids) < ByteTokenizer.vocab_size:
            raise ValueError("token id out of vocabulary range")

    @property
    def length(self) -> int:
        return len(self.input_ids)


@dataclass(frozen=True)
class Segment:
    offset: int
    length: int
    loss_mask: tuple[bool, ...]


@dataclass
class PackedSequence:
    ids: list[int]
    segments: list[Segment] = field(default_factory=list)

    def __post_init__(self):
        cursor = 0
        for seg in self.segments:
            if seg.offset != cursor or len(seg.loss_mask) != seg.length:
                raise ValueError("segments must be contiguous and cover ids exactly")
            cursor += seg.length
        if cursor != len(self.ids):
            raise ValueError("segments must cover ids exactly")

    @property
    def total_length(self) -> int:
        return len(self.ids)


def render_chat_template(entry: QtsaEntry, system_prompt: str = "") -> ChatExample:
    """Fixed rendering of a kept record; rejects anything else."""
    if not entry.kept:
        raise RejectedEntry(f"entry {entry.entry_id} has status {entry.status!r}")
    return ChatExample(
        system=system_prompt,
        user=entry.question,
        assistant=render_assistant(entry.thinking, entry.solution, entry.answer),
        origin=ORIGIN_DOMAIN,
    )


def chat_prompt_ids(system: str, user: str, tokenizer: ByteTokenizer) -> list[int]:
    """The chat template up to the assistant's first token.

    BOS, the system block (omitted entirely when ``system`` is empty), the
    user block and the assistant delimiter.
    """
    system_block = SYSTEM_DELIM + system if system else ""
    return [BOS_ID] + tokenizer.encode(system_block + USER_DELIM + user + ASSISTANT_DELIM)


def tokenize_and_mask(example: ChatExample, tokenizer: ByteTokenizer) -> TokenizedExample:
    """``chat_prompt_ids`` + assistant text + EOS; mask true on assistant text and EOS."""
    prompt = chat_prompt_ids(example.system, example.user, tokenizer)
    reply = tokenizer.encode(example.assistant) + [EOS_ID]
    return TokenizedExample(input_ids=prompt + reply, loss_mask=[False] * len(prompt) + [True] * len(reply))


def tokenize_cpt(text: str, tokenizer: ByteTokenizer) -> TokenizedExample:
    """Raw text for continued pre-training: no template, all-true mask."""
    ids = [BOS_ID] + tokenizer.encode(text) + [EOS_ID]
    return TokenizedExample(input_ids=ids, loss_mask=[True] * len(ids))


def _shrink_to_bytes(text: str, max_bytes: int) -> str:
    if max_bytes <= 0:
        return ""
    return text.encode("utf-8")[:max_bytes].decode("utf-8", errors="ignore")


def truncate_chat_example(
    example: ChatExample, tokenizer: ByteTokenizer, max_len: int
) -> TokenizedExample:
    """Tokenize, trimming over-long examples before they reach packing.

    Solution text loses bytes from its end first, then thinking from its
    end; the question and the answer span are never touched. Raises
    OversizedExample when even an empty solution and thinking cannot fit.
    General-origin assistants without the tagged structure are trimmed
    from the tail instead.
    """
    tokenized = tokenize_and_mask(example, tokenizer)
    if tokenized.length <= max_len:
        return tokenized

    excess = tokenized.length - max_len
    spans = parse_answer_spans(example.assistant)
    if not spans.answer:
        # No tagged structure to preserve; trim the assistant tail.
        tail_budget = len(example.assistant.encode("utf-8")) - excess
        if tail_budget <= 0:
            raise OversizedExample(f"example of length {tokenized.length} cannot fit {max_len}")
        trimmed = ChatExample(
            system=example.system,
            user=example.user,
            assistant=_shrink_to_bytes(example.assistant, tail_budget),
            origin=example.origin,
        )
        return tokenize_and_mask(trimmed, tokenizer)

    solution_bytes = len(spans.solution.encode("utf-8"))
    thinking_bytes = len(spans.thinking.encode("utf-8"))
    new_solution = spans.solution
    new_thinking = spans.thinking
    if excess <= solution_bytes:
        new_solution = _shrink_to_bytes(spans.solution, solution_bytes - excess)
    else:
        new_solution = ""
        remaining = excess - solution_bytes
        if remaining > thinking_bytes:
            raise OversizedExample(
                f"example of length {tokenized.length} cannot fit {max_len}"
            )
        new_thinking = _shrink_to_bytes(spans.thinking, thinking_bytes - remaining)

    trimmed = ChatExample(
        system=example.system,
        user=example.user,
        assistant=render_assistant(new_thinking, new_solution, spans.answer),
        origin=example.origin,
    )
    result = tokenize_and_mask(trimmed, tokenizer)
    if result.length > max_len:
        raise OversizedExample(f"example of length {result.length} cannot fit {max_len}")
    return result


def chunk_tokenized(example: TokenizedExample, max_len: int) -> list[TokenizedExample]:
    """Split one long example into consecutive windows of at most max_len.

    Used for raw-text pre-training records, whose node texts routinely
    exceed a small model's context; every token survives, in order.
    """
    if example.length <= max_len:
        return [example]
    pieces = []
    for start in range(0, example.length, max_len):
        ids = example.input_ids[start : start + max_len]
        mask = example.loss_mask[start : start + max_len]
        pieces.append(TokenizedExample(input_ids=ids, loss_mask=mask))
    return pieces


def pack_sequences(examples: list[TokenizedExample], max_len: int) -> list[PackedSequence]:
    """Greedy in-order fill: append to the open pack if it fits, else start anew.

    The (id, mask) multiset is preserved exactly and relative order is kept
    within and across packs. Examples longer than ``max_len`` must have
    been truncated upstream; they raise OversizedExample here.
    """
    packs: list[PackedSequence] = []
    ids: list[int] = []
    segments: list[Segment] = []

    def flush() -> None:
        nonlocal ids, segments
        if segments:
            packs.append(PackedSequence(ids=ids, segments=segments))
            ids, segments = [], []

    for ex in examples:
        if ex.length > max_len:
            raise OversizedExample(
                f"example of length {ex.length} exceeds pack size {max_len}"
            )
        if len(ids) + ex.length > max_len:
            flush()
        segments.append(
            Segment(offset=len(ids), length=ex.length, loss_mask=tuple(ex.loss_mask))
        )
        ids.extend(ex.input_ids)
    flush()
    return packs


def pack_cpt_texts(texts: Iterable[str], max_len: int) -> list[PackedSequence]:
    """Raw texts tokenized, cut into ``max_len`` windows and packed in order."""
    tokenizer = ByteTokenizer()
    pieces = [p for t in texts for p in chunk_tokenized(tokenize_cpt(t, tokenizer), max_len)]
    return pack_sequences(pieces, max_len)


def mix_datasets(domain: list, general: list, ratio: float, seed: int) -> list:
    """All domain examples plus a seeded sample of general ones, shuffled.

    The general share targets ``round(ratio * len(domain))`` items, capped
    by availability. Deterministic for a given seed.
    """
    if ratio <= 0:
        raise ValueError("ratio must be > 0")
    rng = random.Random(seed)
    take = min(len(general), int(round(ratio * len(domain))))
    chosen = rng.sample(general, take) if take < len(general) else list(general)
    mixed = list(domain) + chosen
    rng.shuffle(mixed)
    return mixed


# No stage writes packed.bin: save_packed stays for the benchmark's prep_synth, which calls it by name.
PACKED_FORMAT_VERSION = 1


def save_packed(path: str | Path, packs: list[PackedSequence], max_len: int | None = None) -> None:
    """Binary id/mask payload plus a JSON sidecar describing offsets."""
    path = Path(path)
    all_ids = np.concatenate(
        [np.asarray(p.ids, dtype="<i4") for p in packs]
    ) if packs else np.zeros(0, dtype="<i4")
    masks = chain.from_iterable(s.loss_mask for p in packs for s in p.segments)
    all_masks = np.fromiter(masks, np.uint8, count=all_ids.size)
    with path.open("wb") as fh:
        fh.write(all_ids.tobytes())
        fh.write(all_masks.tobytes())
    sidecar = {
        "format_version": PACKED_FORMAT_VERSION,
        "max_len": max_len,
        "total_tokens": int(all_ids.size),
        "packs": [
            {
                "offset": offset,
                "length": p.total_length,
                "segments": [{"offset": s.offset, "length": s.length} for s in p.segments],
            }
            for offset, p in zip(_pack_offsets(packs), packs)
        ],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2), encoding="utf-8")


def _pack_offsets(packs: list[PackedSequence]) -> list[int]:
    offsets, cursor = [], 0
    for p in packs:
        offsets.append(cursor)
        cursor += p.total_length
    return offsets


def chat_example_to_record(example: ChatExample, example_id: str) -> dict:
    return {
        "id": example_id,
        "origin": example.origin,
        "system": example.system,
        "user": example.user,
        "assistant": example.assistant,
    }


def chat_example_from_record(rec: dict) -> ChatExample:
    return ChatExample(
        system=rec["system"],
        user=rec["user"],
        assistant=rec["assistant"],
        origin=rec["origin"],
    )
