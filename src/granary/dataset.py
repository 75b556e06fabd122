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

Token sequences are numpy arrays: ids are ``uint16`` (the smallest
dtype that holds the vocabulary), masks ``bool``. ``chunk_tokenized``
returns views of its example, and each pack holds one id array and one
mask array, of which its segments' masks are views.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .distiller import QtsaEntry, parse_answer_spans, render_assistant
from .jsonl import from_json
from .tinylm import BOS_ID, EOS_ID, ByteTokenizer

ORIGIN_DOMAIN = "domain"
ORIGIN_GENERAL = "general"

SYSTEM_DELIM = "\n<|system|>\n"
USER_DELIM = "\n<|user|>\n"
ASSISTANT_DELIM = "\n<|assistant|>\n"


@dataclass(frozen=True)
class ChatExample:
    system: str
    user: str
    assistant: str
    origin: str = ORIGIN_DOMAIN


# One line of sft_dataset.jsonl, and of cpt_dataset.jsonl; each lives only while its line is read or written.
@dataclass
class SftRecord:
    id: str
    origin: str
    system: str
    user: str
    assistant: str


@dataclass
class CptRecord:
    node_id: str
    text: str


SFT_KEYS = tuple(f.name for f in fields(SftRecord))
CPT_KEYS = tuple(f.name for f in fields(CptRecord))


@dataclass
class TokenizedExample:
    """Token ids with a per-position supervision mask.

    Either field may be given as a list or an array; both are stored as
    1-D arrays, ids as ``uint16`` and the mask as ``bool``. An array of
    those dtypes is kept as is, not copied.
    """

    input_ids: np.ndarray
    loss_mask: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.input_ids)
        mask = np.asarray(self.loss_mask, dtype=bool)
        if ids.ndim != 1 or ids.shape != mask.shape:
            raise ValueError("input_ids and loss_mask must have the same length")
        if not mask.any():
            raise ValueError("loss mask needs at least one true position")
        # Checked before the narrowing cast, which would wrap an id out of range.
        if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= ByteTokenizer.vocab_size:
            raise ValueError("token id out of vocabulary range")
        self.input_ids = ids.astype(np.uint16, copy=False)
        self.loss_mask = mask

    @property
    def length(self) -> int:
        return len(self.input_ids)


@dataclass(frozen=True)
class Segment:
    offset: int
    length: int
    loss_mask: np.ndarray


@dataclass
class PackedSequence:
    ids: np.ndarray
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
        raise ValueError(f"entry {entry.entry_id} has status {entry.status!r}")
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
    """Raw text for continued pre-training: no template, all-true mask.

    The ids are ``tokenizer``'s byte ids, read straight from the UTF-8
    bytes into the array.
    """
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    ids = np.empty(raw.size + 2, np.uint16)
    ids[0], ids[1:-1], ids[-1] = BOS_ID, raw, EOS_ID
    return TokenizedExample(input_ids=ids, loss_mask=np.ones(ids.size, bool))


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
    ValueError when even an empty solution and thinking cannot fit.
    General-origin assistants without the tagged structure are trimmed
    from the tail instead.
    """
    tokenized = tokenize_and_mask(example, tokenizer)
    if tokenized.length <= max_len:
        return tokenized

    spans = parse_answer_spans(example.assistant)
    if not spans.answer:
        # No tagged structure to preserve; trim the assistant tail.
        tail_budget = len(example.assistant.encode("utf-8")) - (tokenized.length - max_len)
        if tail_budget <= 0:
            raise ValueError(f"example of length {tokenized.length} cannot fit {max_len}")
        trimmed = replace(example, assistant=_shrink_to_bytes(example.assistant, tail_budget))
        return tokenize_and_mask(trimmed, tokenizer)

    def rendered(thinking: str, solution: str) -> TokenizedExample:
        assistant = render_assistant(thinking, solution, spans.answer)
        return tokenize_and_mask(replace(example, assistant=assistant), tokenizer)

    # The trimmed reply is re-rendered in the canonical template, which can be
    # longer than a tagged reply in another layout, so the excess is measured there.
    excess = rendered(spans.thinking, spans.solution).length - max_len
    solution_bytes = len(spans.solution.encode("utf-8"))
    thinking_bytes = len(spans.thinking.encode("utf-8"))
    solution_cut = min(excess, solution_bytes)
    thinking_cut = excess - solution_cut
    if thinking_cut > thinking_bytes:
        raise ValueError(f"example of length {tokenized.length} cannot fit {max_len}")
    result = rendered(
        _shrink_to_bytes(spans.thinking, thinking_bytes - thinking_cut),
        _shrink_to_bytes(spans.solution, solution_bytes - solution_cut),
    )
    if result.length > max_len:
        raise ValueError(f"example of length {result.length} cannot fit {max_len}")
    return result


def chunk_tokenized(example: TokenizedExample, max_len: int) -> list[TokenizedExample]:
    """Split one long example into consecutive windows of at most max_len.

    Used for raw-text pre-training records, whose node texts routinely
    exceed a small model's context; every token survives, in order. The
    windows are views of the example's arrays, not copies.
    """
    if example.length <= max_len:
        return [example]
    return [
        TokenizedExample(
            input_ids=example.input_ids[start : start + max_len],
            loss_mask=example.loss_mask[start : start + max_len],
        )
        for start in range(0, example.length, max_len)
    ]


def pack_sequences(examples: Iterable[TokenizedExample], max_len: int) -> list[PackedSequence]:
    """Greedy in-order fill: append to the open pack if it fits, else start anew.

    The (id, mask) multiset is preserved exactly and relative order is kept
    within and across packs. Examples longer than ``max_len`` must have
    been truncated upstream; they raise ValueError here. Each pack's
    ids and masks are concatenated once, when it is closed, so an example
    is held only until its pack closes.
    """
    packs: list[PackedSequence] = []
    open_pack: list[TokenizedExample] = []
    filled = 0

    def flush() -> None:
        if open_pack:
            mask = np.concatenate([ex.loss_mask for ex in open_pack])
            segments, offset = [], 0
            for ex in open_pack:
                segments.append(Segment(offset, ex.length, mask[offset : offset + ex.length]))
                offset += ex.length
            ids = np.concatenate([ex.input_ids for ex in open_pack])
            packs.append(PackedSequence(ids=ids, segments=segments))
            open_pack.clear()

    for ex in examples:
        if ex.length > max_len:
            raise ValueError(f"example of length {ex.length} exceeds pack size {max_len}")
        if filled + ex.length > max_len:
            flush()
            filled = 0
        open_pack.append(ex)
        filled += ex.length
    flush()
    return packs


def pack_cpt_texts(texts: Iterable[str], max_len: int) -> list[PackedSequence]:
    """Raw texts tokenized, cut into ``max_len`` windows and packed in order.

    The windows stream into the packer, so no more than the open pack's
    and the current text's tokens are held besides the finished packs.
    """
    tokenizer = ByteTokenizer()
    pieces = (p for t in texts for p in chunk_tokenized(tokenize_cpt(t, tokenizer), max_len))
    return pack_sequences(pieces, max_len)


def mix_datasets(domain: list, general: list, ratio: float, seed: int) -> list:
    """All domain examples plus a seeded sample of general ones, shuffled.

    The general share targets ``round(ratio * len(domain))`` items, capped
    by availability. Deterministic for a given seed.
    """
    if not ratio > 0:
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
    all_ids = np.concatenate([np.zeros(0, np.uint16)] + [p.ids for p in packs])
    all_masks = np.concatenate([np.zeros(0, bool)] + [s.loss_mask for p in packs for s in p.segments])
    with path.open("wb") as fh:
        fh.write(all_ids.astype("<i4").tobytes())
        fh.write(all_masks.astype(np.uint8).tobytes())
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
            for offset, p in zip(itertools.accumulate((q.total_length for q in packs), initial=0), packs)
        ],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2), encoding="utf-8")


def chat_example_to_record(example: ChatExample, example_id: str) -> dict:
    return vars(SftRecord(example_id, example.origin, example.system, example.user, example.assistant))


def cpt_text_from_record(rec: dict) -> str:
    """The text of a CPT record; a field that is not a string is a SchemaViolation naming it."""
    return from_json(CptRecord, rec, "CPT record", key="node_id").text


def chat_example_from_record(rec: dict) -> ChatExample:
    """The ChatExample of an SFT record; a field that is not a string is a SchemaViolation naming it."""
    record = from_json(SftRecord, rec, "SFT record", key="id")
    return ChatExample(record.system, record.user, record.assistant, record.origin)
