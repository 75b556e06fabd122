"""Chat rendering, masked tokenization, packing, mixing, and persistence."""

import hashlib
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from granary.dataset import (
    ASSISTANT_DELIM,
    ChatExample,
    PackedSequence,
    SFT_KEYS,
    Segment,
    TokenizedExample,
    USER_DELIM,
    chat_example_from_record,
    chat_example_to_record,
    chunk_tokenized,
    mix_datasets,
    pack_cpt_texts,
    pack_sequences,
    render_chat_template,
    save_packed,
    tokenize_and_mask,
    tokenize_cpt,
    truncate_chat_example,
)
from granary.distiller import QtsaEntry, parse_answer_spans, render_assistant
from granary.evalharness import extract_answer
from granary.jsonl import read_jsonl, write_jsonl
from granary.tinylm import BOS_ID, EOS_ID, ByteTokenizer

TOK = ByteTokenizer()


def kept_entry(q="Why?", t="t", s="s", a="a"):
    return QtsaEntry(
        entry_id="e0",
        node_id="n0",
        sample_idx=0,
        question=q,
        thinking=t,
        solution=s,
        answer=a,
        status="kept",
    )


class TestRenderTemplate:
    def test_exact_assistant_string(self):
        example = render_chat_template(kept_entry())
        assert example.assistant == "<think>\nt\n</think>\n\ns\n\n<answer>a</answer>"
        assert example.user == "Why?"
        assert example.origin == "domain"

    def test_rejected_entry_refused(self):
        bad = QtsaEntry(
            entry_id="e1", node_id="n", sample_idx=0, question="q",
            thinking="", solution="", answer="", status="rejected",
            reject_reason="missing_answer",
        )
        with pytest.raises(ValueError):
            render_chat_template(bad)

    def test_answer_extraction_roundtrip(self):
        example = render_chat_template(kept_entry())
        assert extract_answer(example.assistant) == "a"


class TestTokenizeAndMask:
    def test_structure_without_system(self):
        example = ChatExample(system="", user="u", assistant="A")
        tokenized = tokenize_and_mask(example, TOK)
        expected = (
            [BOS_ID]
            + TOK.encode(USER_DELIM + "u" + ASSISTANT_DELIM)
            + TOK.encode("A")
            + [EOS_ID]
        )
        assert tokenized.input_ids.tolist() == expected
        assert "<|system|>" not in TOK.decode(tokenized.input_ids)

    def test_system_block_included_when_set(self):
        tokenized = tokenize_and_mask(ChatExample(system="sys", user="u", assistant="A"), TOK)
        assert "<|system|>\nsys" in TOK.decode(tokenized.input_ids)

    def test_length_is_read_only(self):
        tokenized = tokenize_and_mask(ChatExample(system="", user="u", assistant="A"), TOK)
        assert tokenized.length == len(tokenized.input_ids)
        with pytest.raises(AttributeError):
            tokenized.length = 3
        with pytest.raises(TypeError):
            TokenizedExample(input_ids=[1], loss_mask=[True], length=1)

    def test_mask_false_on_prompt_tokens(self):
        example = ChatExample(system="sys", user="user text", assistant="reply")
        tokenized = tokenize_and_mask(example, TOK)
        boundary = tokenized.length - len(TOK.encode("reply")) - 1
        assert not any(tokenized.loss_mask[:boundary])
        assert all(tokenized.loss_mask[boundary:])

    def test_mask_count_matches_assistant_bytes_plus_eos(self):
        example = render_chat_template(kept_entry(s="solution body", a="answer!"))
        tokenized = tokenize_and_mask(example, TOK)
        # Oracle: re-tokenize the assistant string alone.
        assert sum(tokenized.loss_mask) == len(example.assistant.encode("utf-8")) + 1

    def test_mask_decodes_to_assistant_plus_eos(self):
        example = render_chat_template(kept_entry(t="deep thought", a="42"))
        tokenized = tokenize_and_mask(example, TOK)
        masked = [i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m]
        assert masked[-1] == EOS_ID
        assert TOK.decode(masked[:-1]) == example.assistant

    @given(st.text(max_size=30), st.text(min_size=1, max_size=30), st.text(min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_mask_soundness_property(self, system, user, assistant):
        tokenized = tokenize_and_mask(ChatExample(system, user, assistant), TOK)
        masked = [i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m]
        assert TOK.decode(masked[:-1]) == assistant and masked[-1] == EOS_ID

    def test_cpt_tokenization_all_true(self):
        tokenized = tokenize_cpt("raw body", TOK)
        assert tokenized.input_ids[0] == BOS_ID and tokenized.input_ids[-1] == EOS_ID
        assert all(tokenized.loss_mask)

    def test_cpt_ids_are_the_tokenizers_byte_ids(self):
        text = "Ω gain, 3 dB\n"
        assert tokenize_cpt(text, TOK).input_ids.tolist() == [BOS_ID] + TOK.encode(text) + [EOS_ID]

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    @pytest.mark.parametrize(
        "ids, mask",
        [([65, -1], [True, True]), ([65, 259], [True, True]), ([65, 66], [False, False])],
        ids=["id -1", "id 259", "all-false mask"],
    )
    def test_rejects_ids_outside_the_vocabulary_and_an_all_false_mask(self, ids, mask, as_array):
        # A uint8 cast before the range check would turn 259 into 3 and accept it.
        if as_array:
            ids, mask = np.array(ids), np.array(mask)
        with pytest.raises(ValueError):
            TokenizedExample(input_ids=ids, loss_mask=mask)

    def test_stores_uint16_ids_and_a_bool_mask(self):
        tokenized = TokenizedExample(input_ids=[0, 258], loss_mask=[0, 1])
        assert tokenized.input_ids.dtype == np.uint16 and tokenized.loss_mask.dtype == bool
        assert tokenized.input_ids.tolist() == [0, 258] and tokenized.loss_mask.tolist() == [False, True]


class TestTruncation:
    def test_solution_trimmed_from_end(self):
        entry = kept_entry(s="S" * 400, a="keep me")
        example = render_chat_template(entry)
        tokenized = truncate_chat_example(example, TOK, max_len=200)
        assert tokenized.length <= 200
        spans = parse_answer_spans(TOK.decode([i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m][:-1]))
        assert spans.answer == "keep me"
        assert spans.thinking == "t"
        assert spans.solution == "S" * len(spans.solution)

    def test_thinking_trimmed_after_solution_exhausted(self):
        entry = kept_entry(t="T" * 300, s="small", a="A")
        tokenized = truncate_chat_example(render_chat_template(entry), TOK, max_len=150)
        assert tokenized.length <= 150
        masked_text = TOK.decode(
            [i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m][:-1]
        )
        spans = parse_answer_spans(masked_text)
        assert spans.answer == "A"
        assert spans.solution == ""
        assert set(spans.thinking) <= {"T"}

    def test_answer_never_trimmed(self):
        # Nothing left to trim once T and S are gone; the answer must
        # survive untouched or the example must fail loudly.
        with pytest.raises(ValueError):
            truncate_chat_example(render_chat_template(kept_entry(a="A" * 400)), TOK, max_len=100)

    def test_untagged_general_example_trims_tail(self):
        example = ChatExample(system="", user="u", assistant="x" * 300, origin="general")
        tokenized = truncate_chat_example(example, TOK, max_len=120)
        assert tokenized.length <= 120

    @pytest.mark.parametrize("cut", [1, 20, 100])
    def test_tagged_reply_outside_the_template_is_trimmed(self, cut):
        # Trimming re-renders the canonical template, which here adds a
        # <think> scaffold, so the excess is taken from the re-rendered text.
        reply = "Reasoning: " + "the divider halves the input, " * 10 + "so the answer is <answer>B</answer>"
        example = ChatExample(system="", user="Which option?", assistant=reply, origin="general")
        max_len = tokenize_and_mask(example, TOK).length - cut
        tokenized = truncate_chat_example(example, TOK, max_len)
        assert tokenized.length == max_len
        spans = parse_answer_spans(TOK.decode([i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m][:-1]))
        assert spans.answer == "B" and reply.startswith(spans.solution)

    @pytest.mark.parametrize(
        "cut, thinking, solution",
        [
            (19, "T" * 30, "S"),  # one byte short of the solution's length
            (20, "T" * 30, ""),  # exactly the solution's bytes
            (21, "T" * 29, ""),  # one byte past them, taken off the thinking
            (50, "", ""),  # exactly solution plus thinking
        ],
    )
    def test_cut_takes_the_solution_then_the_thinking(self, cut, thinking, solution):
        example = render_chat_template(kept_entry(t="T" * 30, s="S" * 20, a="A"))
        max_len = tokenize_and_mask(example, TOK).length - cut
        got = truncate_chat_example(example, TOK, max_len)
        want = tokenize_and_mask(replace(example, assistant=render_assistant(thinking, solution, "A")), TOK)
        assert got.length == max_len
        assert got.input_ids.tolist() == want.input_ids.tolist()
        assert got.loss_mask.tolist() == want.loss_mask.tolist()

    def test_one_byte_past_solution_and_thinking_is_oversized(self):
        example = render_chat_template(kept_entry(t="T" * 30, s="S" * 20, a="A"))
        with pytest.raises(ValueError):
            truncate_chat_example(example, TOK, tokenize_and_mask(example, TOK).length - 51)

    @pytest.mark.parametrize("slack", [0, 5])
    def test_a_longer_layout_whose_canonical_form_fits_is_only_re_rendered(self, slack):
        # Text after the answer span is dropped by the re-render, so the
        # canonical reply fits and no byte of the thinking or solution goes.
        canonical = render_assistant("T" * 30, "S" * 20, "A")
        example = ChatExample(system="", user="u", assistant=canonical + " and more" * 20, origin="general")
        want = tokenize_and_mask(replace(example, assistant=canonical), TOK)
        got = truncate_chat_example(example, TOK, want.length + slack)
        assert got.input_ids.tolist() == want.input_ids.tolist()
        assert got.loss_mask.tolist() == want.loss_mask.tolist()

    def test_short_example_untouched(self):
        example = render_chat_template(kept_entry())
        got, want = truncate_chat_example(example, TOK, 8192), tokenize_and_mask(example, TOK)
        assert got.input_ids.tolist() == want.input_ids.tolist()
        assert got.loss_mask.tolist() == want.loss_mask.tolist()


def dummy_example(length, fill=65):
    return TokenizedExample(input_ids=[fill] * length, loss_mask=[True] * length)


class TestPacking:
    def test_hand_simulated_greedy_fill(self):
        packs = pack_sequences([dummy_example(3000), dummy_example(4000), dummy_example(2000)], 8192)
        assert [p.total_length for p in packs] == [7000, 2000]
        assert [len(p.segments) for p in packs] == [2, 1]

    def test_single_full_length_example(self):
        packs = pack_sequences([dummy_example(8192)], 8192)
        assert len(packs) == 1 and len(packs[0].segments) == 1
        assert packs[0].total_length == 8192

    def test_empty_input(self):
        assert pack_sequences([], 8192) == []

    def test_oversized_raises(self):
        with pytest.raises(ValueError):
            pack_sequences([dummy_example(10)], max_len=5)

    @given(st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=60))
    @settings(max_examples=80)
    def test_conservation_and_bounds(self, lengths):
        examples = [
            TokenizedExample(
                input_ids=[(i * 7 + j) % 259 for j in range(n)],
                loss_mask=[(j % 3 == 0) or j == 0 for j in range(n)],
            )
            for i, n in enumerate(lengths)
        ]
        packs = pack_sequences(examples, max_len=600)
        before = Counter(
            (i, m) for ex in examples for i, m in zip(ex.input_ids, ex.loss_mask)
        )
        after = Counter(
            (pack.ids[seg.offset + j], seg.loss_mask[j])
            for pack in packs
            for seg in pack.segments
            for j in range(seg.length)
        )
        assert before == after
        assert all(p.total_length <= 600 for p in packs)
        # In-order: flattened segment streams reproduce the input streams.
        flat = [
            pack.ids[seg.offset : seg.offset + seg.length].tolist()
            for pack in packs
            for seg in pack.segments
        ]
        assert flat == [ex.input_ids.tolist() for ex in examples]

    def test_chunk_tokenized_splits_preserving_tokens(self):
        example = dummy_example(1000)
        pieces = chunk_tokenized(example, 300)
        assert [p.length for p in pieces] == [300, 300, 300, 100]
        assert sum((p.input_ids.tolist() for p in pieces), []) == example.input_ids.tolist()
        assert all(p.input_ids.base is example.input_ids for p in pieces)
        assert all(p.loss_mask.base is example.loss_mask for p in pieces)

    def test_segment_masks_are_views_of_one_pack_mask(self):
        [pack] = pack_sequences([dummy_example(3), dummy_example(4)], 8)
        first, second = (s.loss_mask for s in pack.segments)
        assert first.base is not None and first.base is second.base

    def test_accepts_any_iterable(self):
        examples = [dummy_example(n, fill=60 + n) for n in (5, 2, 7, 1, 8)]
        packs = pack_sequences(iter(examples), 8)
        assert oracles.pack_lists(packs) == oracles.pack_lists(pack_sequences(examples, 8))

    def test_cpt_packing_holds_a_few_bytes_per_token(self):
        rng = random.Random(0)
        words = ["node", "bias", "gain", "Ω", "op-amp", "mirror", "the", "of"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randrange(20, 400))) for _ in range(150)]
        tokens = sum(len(t.encode("utf-8")) + 2 for t in texts)
        assert tokens >= 100_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            packs = pack_cpt_texts(texts, 256)
            retained, peak = (b - base for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert sum(p.total_length for p in packs) == tokens
        # uint16 ids and bool masks are 3 bytes a token; the rest is per pack
        # (~5.9 in all). Holding every window before packing peaks at ~10.5.
        assert retained / tokens < 8
        assert peak / tokens < 8


class TestMix:
    def test_ratio_one_keeps_everything(self):
        mixed = mix_datasets(list(range(10)), list(range(100, 110)), 1.0, seed=0)
        assert len(mixed) == 20
        assert set(mixed) >= set(range(10))

    def test_ratio_half(self):
        mixed = mix_datasets(list(range(10)), list(range(100, 110)), 0.5, seed=0)
        assert len(mixed) == 15
        assert sum(1 for x in mixed if x >= 100) == 5

    def test_seed_determinism(self):
        a = mix_datasets(list(range(10)), list(range(100, 120)), 0.8, seed=3)
        b = mix_datasets(list(range(10)), list(range(100, 120)), 0.8, seed=3)
        assert a == b

    def test_general_capped_by_availability(self):
        mixed = mix_datasets(list(range(10)), [100, 101], 2.0, seed=0)
        assert len(mixed) == 12

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30),
           st.floats(min_value=0.1, max_value=3.0), st.integers())
    @settings(max_examples=60)
    def test_every_domain_example_present_once(self, n_domain, n_general, ratio, seed):
        domain = [("d", i) for i in range(n_domain)]
        general = [("g", i) for i in range(n_general)]
        mixed = mix_datasets(domain, general, ratio, seed)
        assert Counter(x for x in mixed if x[0] == "d") == Counter(domain)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            mix_datasets([1], [2], 0.0, seed=0)

    def test_nan_ratio_rejected(self):
        with pytest.raises(ValueError, match=r"^ratio must be > 0$"):
            mix_datasets([1], [2], float("nan"), seed=0)


class TestPersistence:
    def test_sft_records_roundtrip(self, tmp_path):
        example = render_chat_template(kept_entry())
        records = [chat_example_to_record(example, "id-0")]
        path = tmp_path / "sft.jsonl"
        write_jsonl(path, records, schema=SFT_KEYS)
        loaded = read_jsonl(path, schema=SFT_KEYS)
        assert loaded == records
        assert chat_example_from_record(loaded[0]) == example

    @pytest.mark.parametrize("field", ["system", "user", "assistant", "origin"])
    def test_a_non_string_field_is_refused_by_name(self, field):
        record = {**chat_example_to_record(render_chat_template(kept_entry()), "id-0"), field: ["x"]}
        with pytest.raises(ValueError, match=rf"^SFT record 'id-0'\.{field}: expected str, got \[\"x\"\]$"):
            chat_example_from_record(record)

    def test_packed_binary_roundtrip(self, tmp_path):
        examples = [
            TokenizedExample(input_ids=[1, 2, 3], loss_mask=[True, False, True]),
            TokenizedExample(input_ids=[7] * 5, loss_mask=[True] * 5),
            TokenizedExample(input_ids=[250, 251], loss_mask=[False, True]),
        ]
        packs = pack_sequences(examples, max_len=6)
        path = tmp_path / "packed.bin"
        save_packed(path, packs)
        assert oracles.pack_lists(oracles.load_packed(path)) == oracles.pack_lists(packs)

    def test_packed_bytes_match_reference_gather(self, tmp_path):
        rng = random.Random(0)
        examples = [
            TokenizedExample(
                input_ids=[rng.randrange(256) for _ in range(n)],
                loss_mask=[True] + [rng.random() < 0.5 for _ in range(n - 1)],
            )
            for n in (rng.randrange(1, 40) for _ in range(60))
        ]
        sidecar_sha256 = {
            23: "3b5ba7e5084bb5389e484cf12aa345e4b0514cdf7651bbbac7e5be04088e1862",
            0: "3d1e63d2a33f732dea208c21179275ab813b62b29e2d8caa06eab42bc876728f",
        }
        for packs in (pack_sequences(examples, max_len=64), []):
            path = tmp_path / "packed.bin"
            save_packed(path, packs, max_len=64)
            assert path.read_bytes() == oracles.packed_bytes_reference(packs)
            sidecar = Path(str(path) + ".json").read_bytes()
            assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha256[len(packs)]
            assert oracles.pack_lists(oracles.load_packed(path)) == oracles.pack_lists(packs)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PackedSequence(ids=[1, 2, 3], segments=[Segment(0, 2, (True, False))])
