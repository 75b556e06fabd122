"""Losses, the KL term, the schedule, and the training loop."""

import ctypes
import dataclasses
import json
import math
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import TRAIN_MODEL_CFG
from oracles import loss_cpt, loss_sft
from granary import tape, tinylm, trainer
from granary.dataset import PackedSequence, TokenizedExample, chunk_tokenized, pack_cpt_texts, pack_sequences, tokenize_cpt
from granary.errors import NonFiniteLoss
from granary.tinylm import BOS_ID, EOS_ID, ByteTokenizer, ModelConfig, freeze_reference, init
from granary.trainer import (
    LossBreakdown,
    TrainConfig,
    kl_term,
    loss_nsc_sft,
    lr_at,
    train,
    write_report,
)

TOK = ByteTokenizer()
LN_V = math.log(259)


def sft_example(text="supervise these bytes", prompt_len=6):
    ids = [BOS_ID] + TOK.encode(text) + [EOS_ID]
    mask = [False] * prompt_len + [True] * (len(ids) - prompt_len)
    return TokenizedExample(input_ids=ids, loss_mask=mask)


def uniform_params(**kwargs):
    return init(ModelConfig(init_std=0.0, **kwargs))


# Records as (step, lr, ce, kl, total, grad_norm, fd_max_rel_err) plus the
# final parameter fingerprint of three short runs (see ``pinned_run``). A
# change to how a training step is computed shows up here as a changed bit.
# Re-captured when the last layer and the head began to run only the
# batch's weighted span, which sums over fewer rows inside BLAS; the cpt
# fingerprint again when each shard's ids were cut to its weighted columns,
# and the cpt run (11 rows, so more than one shard) again when shards went
# from 8 rows to 4; the nsc_sft run again when the loss began to take the
# logits and to form their gradient in its forward; all three again when
# shards went from 4 rows to 3 and attention blocks from 32 rows to 48.
PINNED_RUNS = {
    "sft": (
        [
            (0, 0.01, 9.712312903211927, 0.0, 9.712312903211927, 13.230892119745416, 1.5399489647399046e-08),
            (1, 0.0075, 8.409817594292374, 0.0, 8.409817594292374, 7.867065398252831, None),
            (2, 0.0025000000000000014, 7.973362290635901, 0.0, 7.973362290635901, 7.0292893361593665, 9.808565630268358e-09),
        ],
        "e6a9996a73ca113242fd380edb2e4ae88113a535c3821e0760580eef3e112d7b",
    ),
    "nsc_sft": (
        [
            (0, 0.01, 9.712312903211927, 7.768917724935982, 10.489204675705526, 14.372835299098682, None),
            (1, 0.0075, 8.361004740042535, 6.520190055950949, 9.01302374563763, 8.017742829986599, None),
            (2, 0.0025000000000000014, 7.931615354052422, 6.278791847775516, 8.559494538829973, 7.163954113624007, None),
        ],
        "432d659907fee24ed202ceb050aa38993a1304a0b528997ab844bcd706f8a96b",
    ),
    "cpt": (
        [
            (0, 0.01, 5.556714934157407, 0.0, 5.556714934157407, 0.02600060147463264, None),
            (1, 0.0075, 5.556708173441558, 0.0, 5.556708173441558, 0.026003758566521904, None),
            (2, 0.0025000000000000014, 5.5567031017325705, 0.0, 5.5567031017325705, 0.026006282740503286, None),
        ],
        "6079ded933a53f19bff89112d1aeb413499ac4e1b075a6712237655e4d08ab3b",
    ),
}


def pinned_run(mode, fixture_examples, minibook_nodes):
    """Three steps at lr 1e-2: sft with a gradient check every other step,
    nsc_sft against a differently seeded reference, cpt on mini-book packs."""
    if mode == "cpt":
        pieces = []
        for node in minibook_nodes[:2]:
            pieces.extend(chunk_tokenized(tokenize_cpt(node.text, TOK), 96))
        cfg = TrainConfig(mode="cpt", total_steps=3, lr_max=1e-2)
        return train(cfg, pack_sequences(pieces, 96), init(ModelConfig(seed=0, context_window=96)))
    cfg = TrainConfig(
        mode=mode, total_steps=3, lr_max=1e-2, kl_weight=0.1, seed=2,
        grad_check_every=2 if mode == "sft" else None,
    )
    ref = freeze_reference(init(dataclasses.replace(TRAIN_MODEL_CFG, seed=1)))
    return train(cfg, fixture_examples[:3], init(TRAIN_MODEL_CFG), ref_params=ref if mode == "nsc_sft" else None)


class TestLossSft:
    def test_uniform_model_gives_log_vocab(self):
        assert loss_sft(uniform_params(), sft_example()) == pytest.approx(LN_V, abs=1e-12)

    def test_uniform_value_independent_of_mask_pattern(self):
        params = uniform_params()
        a = loss_sft(params, sft_example(prompt_len=3))
        b = loss_sft(params, sft_example(prompt_len=10))
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_masked_oracle(self):
        params = init(ModelConfig(seed=3))
        ex = sft_example("oracle comparison text")
        logprobs = tinylm.forward(params, ex.input_ids)
        # Independent per-position recomputation with a plain loop.
        contributions = []
        for i, masked in enumerate(ex.loss_mask):
            if masked and i >= 1:
                contributions.append(-logprobs[i - 1, ex.input_ids[i]])
        assert loss_sft(params, ex) == pytest.approx(np.mean(contributions), abs=1e-10)

    def test_only_masked_positions_contribute(self):
        params = init(ModelConfig(seed=3))
        ex = sft_example("oracle comparison text", prompt_len=12)
        logprobs = tinylm.forward(params, ex.input_ids)
        oracle = np.mean(
            [-logprobs[i - 1, ex.input_ids[i]] for i in range(12, len(ex.input_ids))]
        )
        assert loss_sft(params, ex) == pytest.approx(oracle, abs=1e-10)

    def test_empty_mask_rejected(self):
        ex = TokenizedExample(input_ids=[BOS_ID, 65, 66], loss_mask=[True, False, False])
        with pytest.raises(ValueError):
            loss_sft(uniform_params(), ex)


class TestLossCpt:
    def _pack(self, texts, max_len=64):
        examples = [
            TokenizedExample(
                input_ids=[BOS_ID] + TOK.encode(t) + [EOS_ID],
                loss_mask=[True] * (len(t.encode()) + 2),
            )
            for t in texts
        ]
        return pack_sequences(examples, max_len)

    def test_uniform_model_gives_log_vocab(self):
        pack = self._pack(["any text at all"])[0]
        assert loss_cpt(uniform_params(), pack) == pytest.approx(LN_V, abs=1e-12)

    def test_single_token_segment_contributes_nothing(self):
        single = TokenizedExample(input_ids=[65], loss_mask=[True])
        other = TokenizedExample(input_ids=[BOS_ID, 66, 67], loss_mask=[True] * 3)
        pack = pack_sequences([single, other], 16)[0]
        params = init(ModelConfig(seed=1))
        lp = tinylm.forward(params, [BOS_ID, 66, 67])
        oracle = -(lp[0, 66] + lp[1, 67]) / 2
        assert loss_cpt(params, pack) == pytest.approx(oracle, abs=1e-10)

    def test_matches_per_position_oracle(self):
        params = init(ModelConfig(seed=7))
        pack = self._pack(["first segment", "second one"], max_len=24)[0]
        total, count = 0.0, 0
        for seg in pack.segments:
            ids = pack.ids[seg.offset : seg.offset + seg.length]
            lp = tinylm.forward(params, ids)
            for i in range(1, len(ids)):
                total += -lp[i - 1, ids[i]]
                count += 1
        assert loss_cpt(params, pack) == pytest.approx(total / count, abs=1e-10)


def random_logprob_rows(rng, rows, vocab=259):
    logits = rng.normal(0, 2, size=(rows, vocab))
    return logits - np.logaddexp.reduce(logits, axis=-1, keepdims=True)


class TestKlTerm:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        lp = random_logprob_rows(rng, 5)
        assert kl_term(lp, lp, np.ones(5, dtype=bool)) == 0.0

    def test_one_hot_versus_uniform_over_two(self):
        cur = np.array([[0.0, -np.inf]])
        ref = np.array([[math.log(0.5), math.log(0.5)]])
        assert kl_term(cur, ref, np.ones(1, dtype=bool)) == pytest.approx(math.log(2), abs=1e-12)

    def test_hundred_random_pairs_match_direct_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            cur = random_logprob_rows(rng, 1)[0]
            ref = random_logprob_rows(rng, 1)[0]
            # Brute-force oracle in probability space.
            p, q = np.exp(cur), np.exp(ref)
            direct = float(np.sum(p * np.log(p / q)))
            ours = kl_term(cur[None], ref[None], np.ones(1, dtype=bool))
            assert ours == pytest.approx(direct, abs=1e-10)
            assert ours > 1e-12  # distinct distributions diverge strictly

    def test_mask_selects_positions(self):
        rng = np.random.default_rng(3)
        cur, ref = random_logprob_rows(rng, 4), random_logprob_rows(rng, 4)
        mask = np.array([True, False, True, False])
        expected = np.mean(
            [np.sum(np.exp(cur[i]) * (cur[i] - ref[i])) for i in (0, 2)]
        )
        assert kl_term(cur, ref, mask) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_term(np.zeros((2, 3)), np.zeros((2, 4)), np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            kl_term(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            kl_term(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2, dtype=bool))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_nonnegative(self, seed, rows):
        rng = np.random.default_rng(seed)
        cur, ref = random_logprob_rows(rng, rows), random_logprob_rows(rng, rows)
        assert kl_term(cur, ref, np.ones(rows, dtype=bool)) >= 0.0


class TestLossNscSft:
    def test_zero_weight_reduces_to_sft_bitwise(self):
        params, ref = init(ModelConfig(seed=1)), init(ModelConfig(seed=2))
        ex = sft_example()
        breakdown = loss_nsc_sft(params, ref, ex, 0.0)
        assert breakdown.total == loss_sft(params, ex)

    def test_identical_params_have_zero_kl(self):
        params = init(ModelConfig(seed=1))
        ex = sft_example()
        breakdown = loss_nsc_sft(params, freeze_reference(params), ex, 0.1)
        assert breakdown.kl == 0.0
        assert breakdown.total == breakdown.ce

    def test_components_match_independent_oracles(self):
        params, ref = init(ModelConfig(seed=4)), init(ModelConfig(seed=5))
        ex = sft_example("fixture example for the weighted sum")
        breakdown = loss_nsc_sft(params, ref, ex, 0.1)

        ce_oracle = loss_sft(params, ex)
        ids = np.asarray(ex.input_ids)
        targets = np.nonzero(np.asarray(ex.loss_mask, bool)[1:])[0] + 1
        cur = tinylm.forward(params, ids)
        rlp = tinylm.forward(ref, ids)
        mask = np.zeros(ids.size, dtype=bool)
        mask[targets - 1] = True
        kl_oracle = kl_term(cur, rlp, mask)

        assert breakdown.ce == pytest.approx(ce_oracle, abs=1e-12)
        assert breakdown.kl == pytest.approx(kl_oracle, abs=1e-12)
        assert breakdown.total == pytest.approx(ce_oracle + 0.1 * kl_oracle, abs=1e-12)


SPAN_CFG = ModelConfig(context_window=48, seed=3, init_std=0.2)


def span_batch_items(kind):
    """Items of the span gate batches: ragged prompts, CPT packs, or 1-token segments."""
    if kind == "ragged":
        # Rows of 11 to 25 ids with prompts of 9, 3 and 11 ids: the span
        # starts at the shortest prompt's last id and ends at the longest
        # row's last target.
        texts = [("short row", 9), ("a longer supervised row", 3), ("middle row here!", 11)]
        return [sft_example(text, prompt_len) for text, prompt_len in texts]
    if kind == "cpt":
        return pack_cpt_texts(["packed pre-training text, cut at the window", "second text"], 24)
    ones = [TokenizedExample(input_ids=[i], loss_mask=[True]) for i in (65, BOS_ID, 66)]
    return pack_sequences(ones, 4)


class TestWeightedSpan:
    """The span path against oracles' full-position forward, sliced to the span."""

    @pytest.mark.parametrize("kind", ["ragged", "cpt", "one_token_segments"])
    def test_matches_full_position_oracle(self, kind):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(span_batch_items(kind), ref)
        (shard,) = batch  # a few rows: one shard
        lo, hi = shard.span
        b = shard.ids.shape[0]
        assert shard.ids.shape[1] == max(hi, 1)
        assert shard.targets.shape == shard.weights.shape == (b, hi - lo)
        assert oracles.ref_logprobs(shard).shape == (b, hi - lo, 259)

        leaves = tinylm.build_leaves(params)
        full = oracles.batched_logprobs(leaves, SPAN_CFG, shard.ids)
        ref_full = oracles.batched_logprobs(tinylm.build_leaves(ref), SPAN_CFG, shard.ids).data
        total, ce, kl = oracles.ce_kl_loss(
            tape.slice_rows(full, lo, hi), shard.targets, shard.weights, ref_full[:, lo:hi], 0.1
        )
        tape.backward(total)
        want_grad = tinylm.collect_flat_grad(params, leaves)

        got = tinylm.batched_logprobs(tinylm.build_leaves(params), SPAN_CFG, shard.ids, span=shard.span).data
        assert np.max(np.abs(got - full.data[:, lo:hi]), initial=0.0) <= 1e-12
        assert np.max(np.abs(oracles.ref_logprobs(shard) - ref_full[:, lo:hi]), initial=0.0) <= 1e-12
        losses, grad = trainer.loss_and_grad(params, batch, 0.1)
        assert abs(losses.total - float(total.data)) <= 1e-12
        assert abs(losses.ce - float(ce.data)) <= 1e-12
        assert abs(losses.kl - float(kl.data)) <= 1e-12
        assert np.max(np.abs(grad - want_grad)) <= 1e-12

        if kind == "one_token_segments":
            # Nothing to score: the span is empty, the loss 0 and the gradient zero.
            assert shard.span == (0, 0)
            assert losses == trainer.LossBreakdown(ce=0.0, kl=0.0, total=0.0)
            assert not grad.any()
        else:
            # The span is tight and drops no weight: each item weighs 1/n.
            assert lo > 0 if kind == "ragged" else lo == 0
            assert shard.weights[:, 0].any() and shard.weights[:, -1].any()
            assert shard.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_finite_differences_agree_on_a_ragged_batch(self):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(span_batch_items("ragged"), ref)
        _, analytic = trainer.loss_and_grad(params, batch, 0.1)
        coords = np.random.default_rng(0).choice(params.count, size=60, replace=False)
        fd = oracles.central_differences(lambda: trainer.loss_value(params, batch, 0.1), params.flat, coords)
        assert oracles.max_rel_err(fd, analytic[coords]) <= 1e-4

    @pytest.mark.parametrize("span", [(-1, 2), (3, 2), (0, 9)])
    def test_span_outside_the_columns_is_refused(self, span):
        ids = np.full((1, 8), BOS_ID)
        with pytest.raises(ValueError, match="span"):
            tinylm.batched_logprobs(tinylm.build_leaves(init(SPAN_CFG)), SPAN_CFG, ids, span=span)


ROWS = trainer._SHARD_ROWS
# Two full shards and a ragged third of about half a shard's rows.
RAGGED_ROWS = 2 * ROWS + (ROWS + 1) // 2


def shard_batch_items(kind):
    """Items of the shard gate batches, each more than one shard of rows."""
    if kind == "ragged":
        # RAGGED_ROWS rows of 9 to 46 bytes.
        words = "the loop law sums every drop of voltage around a closed path".split()
        texts = [" ".join(words[k % 5 : k % 5 + 2 + k % 7]) for k in range(RAGGED_ROWS)]
        return [sft_example(text, prompt_len=2 + k % 9) for k, text in enumerate(texts)]
    if kind == "cpt_straddle":
        # Packs of one 24-token segment fill rows 0 to ROWS - 2; the next
        # pack's three segments are rows ROWS - 1, ROWS and ROWS + 1, so
        # that pack spans two shards.
        texts = [f"pre-training window {k:02d}" for k in range(ROWS - 1)]
        return pack_cpt_texts(texts + ["six", "seventh", "eight", "a last text after them"], 24)
    # Packs of 1-token segments fill the first shard with rows that weigh 0.
    ones = [TokenizedExample(input_ids=[i], loss_mask=[True]) for i in [65, BOS_ID, *range(66, 64 + ROWS)]]
    return pack_sequences(ones, max(ROWS // 2, 1)) + pack_cpt_texts(["text after the empty shard", "and more"], 24)


def full_batch(items):
    """``items`` as one padded [rows, T] matrix over every column, with the
    targets and weights of each position, built without ``make_batch``."""
    n = len(items)
    rows = []  # (ids, weight of each next-token position)
    for item in items:
        if isinstance(item, PackedSequence):
            segments = [list(item.ids[s.offset : s.offset + s.length]) for s in item.segments]
            count = sum(len(seg) - 1 for seg in segments)
            rows += [(seg, [1.0 / (count * n) for _ in seg[1:]]) for seg in segments]
        else:
            count = sum(item.loss_mask[1:])
            rows.append((list(item.input_ids), [1.0 / (count * n) if m else 0.0 for m in item.loss_mask[1:]]))
    ids = np.full((len(rows), max(len(row) for row, _ in rows)), tinylm.PAD_ID)
    weights = np.zeros(ids.shape)
    for b, (row, row_weights) in enumerate(rows):
        ids[b, : len(row)] = row
        weights[b, : len(row_weights)] = row_weights
    targets = np.zeros_like(ids)
    targets[:, :-1] = ids[:, 1:]
    return ids, targets, weights


class TestShards:
    """Sharded batches against oracles' forward of the whole batch at once."""

    @pytest.mark.parametrize("kind", ["ragged", "cpt_straddle", "zero_weight_shard"])
    def test_matches_full_batch_oracle(self, kind):
        items = shard_batch_items(kind)
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(items, ref)
        ids, targets, weights = full_batch(items)
        sizes = [shard.ids.shape[0] for shard in batch]
        assert sizes == [ROWS] * (len(ids) // ROWS) + ([len(ids) % ROWS] if len(ids) % ROWS else [])
        assert len(batch) >= 2

        leaves = tinylm.build_leaves(params)
        full = oracles.batched_logprobs(leaves, SPAN_CFG, ids)
        ref_full = oracles.batched_logprobs(tinylm.build_leaves(ref), SPAN_CFG, ids).data
        total, ce, kl = oracles.ce_kl_loss(full, targets, weights, ref_full, 0.1)
        tape.backward(total)
        want_grad = tinylm.collect_flat_grad(params, leaves)

        # Each shard holds its rows' weighted columns, in the items' order,
        # and drops no weight; its forward matches the whole batch's there.
        for k, shard in enumerate(batch):
            rows = slice(ROWS * k, ROWS * k + shard.ids.shape[0])
            lo, hi = shard.span
            assert np.array_equal(shard.ids, ids[rows, : max(hi, 1)])
            assert np.array_equal(shard.weights, weights[rows, lo:hi])
            outside = weights[rows].copy()
            outside[:, lo:hi] = 0.0
            assert not outside.any()
            assert np.array_equal(shard.targets[shard.weights > 0], targets[rows, lo:hi][shard.weights > 0])
            got = tinylm.batched_logprobs(tinylm.build_leaves(params), SPAN_CFG, shard.ids, span=shard.span).data
            assert np.max(np.abs(got - full.data[rows, lo:hi]), initial=0.0) <= 1e-12
            assert np.max(np.abs(oracles.ref_logprobs(shard) - ref_full[rows, lo:hi]), initial=0.0) <= 1e-12

        losses, grad = trainer.loss_and_grad(params, batch, 0.1)
        assert abs(losses.ce - float(ce.data)) <= 1e-12
        assert abs(losses.kl - float(kl.data)) <= 1e-12
        assert abs(losses.total - float(total.data)) <= 1e-12
        assert np.max(np.abs(grad - want_grad)) <= 1e-12
        assert trainer.loss_value(params, batch, 0.1) == losses.total

        if kind == "ragged":
            assert sizes == [ROWS, ROWS, RAGGED_ROWS - 2 * ROWS] and 0 < sizes[-1] < ROWS
        if kind == "cpt_straddle":
            segments = [len(p.segments) for p in items]
            assert segments[ROWS - 1] == 3 and sum(segments[: ROWS - 1]) == ROWS - 1
        if kind == "zero_weight_shard":
            first = batch[0]
            assert first.span == (0, 0) and first.ids.shape == (ROWS, 1) and not weights[:ROWS].any()
            assert batch[1].span != (0, 0)

    def test_finite_differences_agree_on_a_multi_shard_batch(self):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        assert len(batch) == 3
        _, analytic = trainer.loss_and_grad(params, batch, 0.1)
        coords = np.random.default_rng(1).choice(params.count, size=60, replace=False)
        fd = oracles.central_differences(lambda: trainer.loss_value(params, batch, 0.1), params.flat, coords)
        assert oracles.max_rel_err(fd, analytic[coords]) <= 1e-4

    def test_gradient_is_the_shard_order_sum_of_each_shards_gradient(self):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        assert len(batch) == 3
        losses, grad = trainer.loss_and_grad(params, batch, 0.1)
        want_total, want_grad = 0.0, np.zeros(params.count)
        for shard in batch:
            part, part_grad = trainer.loss_and_grad(params, (shard,), 0.1)
            want_total += part.total
            want_grad += part_grad
        assert losses.total == want_total
        assert grad.tobytes() == want_grad.tobytes()

    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        # Up to three workers on the ragged batch's 3 shards, with thread switches forced often.
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        items = shard_batch_items("ragged")
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(trainer, "_workers", lambda workers=workers: workers)
                batch = trainer.make_batch(items, ref)
                losses, grad = trainer.loss_and_grad(params, batch, 0.1)
                results.append((losses, grad.tobytes(), [oracles.ref_logprobs(s).tobytes() for s in batch]))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    def test_bytes_do_not_depend_on_the_finishing_order(self, monkeypatch):
        # Shards are folded in shard order whatever order they finish in: on
        # one worker, on two, and with every result held back and handed
        # over in reverse.
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        fan_out = trainer.fan_out

        def reversed_fan_out(fn, items, parallelism):
            return reversed(list(fan_out(fn, items, parallelism)))

        results = []
        for workers, runner in ((1, fan_out), (2, fan_out), (1, reversed_fan_out)):
            monkeypatch.setattr(trainer, "_workers", lambda workers=workers: workers)
            monkeypatch.setattr(trainer, "fan_out", runner)
            losses, grad = trainer.loss_and_grad(params, batch, 0.1)
            results.append((losses, grad.tobytes()))
        assert len(batch) == 3 and results[0] == results[1] == results[2]

    def test_a_step_holds_one_folded_gradient_however_many_shards(self, monkeypatch):
        # On one worker the shards run one after another, and each shard's
        # gradient is folded in and dropped as it finishes: ten equal shards
        # peak less than two flat gradients above one shard, where holding
        # every shard's gradient until the step ends would add nine.
        monkeypatch.setattr(trainer, "_workers", lambda: 1)
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        example = sft_example("a row that every shard repeats", prompt_len=4)
        peaks = []
        for shards in (1, 10):
            batch = trainer.make_batch([example] * (shards * trainer._SHARD_ROWS), ref)
            assert len(batch) == shards
            tracemalloc.start()
            try:
                trainer.loss_and_grad(params, batch, 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 8 * params.count, (peaks, params.count)

    def test_a_reference_shard_stores_hidden_states_not_vocabulary_rows(self):
        # Per weighted position a shard keeps its id, target, weight, the
        # reference's d hidden values and one log normaliser, which is far
        # less than the 259 log-probabilities it reads.
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        d = SPAN_CFG.d_model
        for shard in batch:
            b, hi = shard.ids.shape
            fields = [getattr(shard, f.name) for f in dataclasses.fields(shard)]
            stored = sum(
                a.nbytes for a in fields if isinstance(a, np.ndarray) and not np.shares_memory(a, ref.flat)
            )
            assert stored <= 8 * b * hi * (d + 8) < 8 * b * (hi - shard.span[0]) * SPAN_CFG.vocab_size
            assert np.shares_memory(shard.ref_head, ref.flat)
            # Each read rebuilds the log-probabilities as a new array, bit for bit the same.
            first, second = oracles.ref_logprobs(shard), oracles.ref_logprobs(shard)
            assert first is not second and first.tobytes() == second.tobytes()
        assert oracles.ref_logprobs(trainer.make_batch(shard_batch_items("ragged"))[0]) is None

    def _non_finite_case(self, monkeypatch, spoil):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        batch = tuple(spoil(params, k, shard) for k, shard in enumerate(batch))
        backward = tape.backward
        backward_calls = []

        def counted(loss):
            backward_calls.append(float(loss.data))
            backward(loss)

        monkeypatch.setattr(tape, "backward", counted)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            trainer.loss_and_grad(params, batch, 0.1)
        return backward_calls

    @staticmethod
    def _spoil_shard_1(params, k, shard):
        """An infinite reference log normaliser in shard 1: its first position's
        reference log-probabilities are all -inf, which makes its KL infinite."""
        if k != 1:
            return shard
        ref_lse = shard.ref_lse.copy()
        ref_lse[0, 0, 0] = np.inf
        return dataclasses.replace(shard, ref_lse=ref_lse)

    def test_a_non_finite_shard_runs_no_backward(self, monkeypatch):
        backward_calls = self._non_finite_case(monkeypatch, self._spoil_shard_1)
        assert len(backward_calls) == 2 and all(math.isfinite(v) for v in backward_calls)

    def test_loss_value_runs_no_backward_and_returns_a_non_finite_sum(self, monkeypatch):
        params, ref = init(SPAN_CFG), freeze_reference(init(dataclasses.replace(SPAN_CFG, seed=4)))
        batch = trainer.make_batch(shard_batch_items("ragged"), ref)
        want = trainer.loss_and_grad(params, batch, 0.1)[0].total
        spoiled = tuple(self._spoil_shard_1(params, k, shard) for k, shard in enumerate(batch))
        backward_calls = []
        monkeypatch.setattr(tape, "backward", backward_calls.append)
        assert len(batch) == 3 and trainer.loss_value(params, batch, 0.1) == want
        with np.errstate(all="ignore"):
            assert not math.isfinite(trainer.loss_value(params, spoiled, 0.1))
        assert backward_calls == []

    def test_finite_shards_whose_sum_overflows_raise(self, monkeypatch):
        # Weights scaled so that each shard's loss is 1e308: finite, while their sum is not.
        def spoil(params, k, shard):
            alone = trainer.loss_value(params, (shard,), 0.1)
            return dataclasses.replace(shard, weights=shard.weights * (1e308 / alone))

        backward_calls = self._non_finite_case(monkeypatch, spoil)
        assert len(backward_calls) == 3 and all(math.isfinite(v) for v in backward_calls)


class TestSchedule:
    def cfg(self, total=200, lr=1e-3):
        return TrainConfig(mode="sft", total_steps=total, lr_max=lr)

    def test_warmup_end_hits_lr_max_exactly(self):
        cfg = self.cfg()
        warmup = round(0.10 * cfg.total_steps)
        assert lr_at(warmup - 1, cfg) == cfg.lr_max

    def test_warmup_is_linear(self):
        cfg = self.cfg()
        assert lr_at(0, cfg) == pytest.approx(cfg.lr_max / 20)
        assert lr_at(9, cfg) == pytest.approx(cfg.lr_max / 2)

    def test_cosine_midpoint_is_half(self):
        cfg = self.cfg()
        warmup = 20
        midpoint = warmup + (cfg.total_steps - warmup) // 2
        assert lr_at(midpoint, cfg) == pytest.approx(cfg.lr_max / 2, abs=1e-12 * cfg.lr_max)

    def test_final_step_matches_closed_form(self):
        cfg = self.cfg()
        warmup, span = 20, 180
        expected = cfg.lr_max * 0.5 * (1 + math.cos(math.pi * (cfg.total_steps - 1 - warmup) / span))
        assert lr_at(cfg.total_steps - 1, cfg) == expected

    def test_a_warmup_over_every_step_ends_at_lr_max(self):
        # round(0.9 * 1) == 1: the one step is all warmup, and no cosine span is left.
        cfg = TrainConfig(mode="sft", total_steps=1, lr_max=1e-3, warmup_frac=0.9)
        assert lr_at(0, cfg) == cfg.lr_max

    def test_bounds_checked(self):
        cfg = self.cfg(total=10)
        with pytest.raises(ValueError):
            lr_at(10, cfg)
        with pytest.raises(ValueError):
            lr_at(-1, cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("every", [0, -2])
    def test_grad_check_every_below_1_is_refused(self, every):
        with pytest.raises(ValueError, match="grad_check_every"):
            TrainConfig(mode="sft", total_steps=4, grad_check_every=every)
        # None turns the check off; 1 checks every step.
        for every in (None, 1):
            assert TrainConfig(mode="sft", total_steps=4, grad_check_every=every).grad_check_every == every


class TestTrainLoop:
    def test_record_count_and_sft_identity(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        cfg = TrainConfig(mode="sft", total_steps=7, lr_max=1e-3, seed=0)
        report = train(cfg, fixture_examples, params)
        assert len(report.records) == 7
        for record in report.records:
            assert record.kl == 0.0
            assert record.total == record.ce

    def test_total_identity_with_kl(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        ref = freeze_reference(init(TRAIN_MODEL_CFG))
        cfg = TrainConfig(mode="nsc_sft", total_steps=5, lr_max=1e-3, kl_weight=0.1, seed=0)
        report = train(cfg, fixture_examples, params, ref_params=ref)
        for record in report.records:
            assert record.total == pytest.approx(record.ce + 0.1 * record.kl, abs=1e-12)

    def test_input_params_not_mutated(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        before = params.fingerprint()
        train(TrainConfig(mode="sft", total_steps=3, lr_max=1e-2), fixture_examples, params)
        assert params.fingerprint() == before

    def test_zero_lambda_nsc_equals_sft_bitwise(self, fixture_examples, tmp_path):
        init_params = init(TRAIN_MODEL_CFG)
        ref = freeze_reference(init_params)
        kwargs = dict(total_steps=10, lr_max=1e-2, seed=0)
        report_nsc = train(
            TrainConfig(mode="nsc_sft", kl_weight=0.0, **kwargs),
            fixture_examples, init_params, ref_params=ref,
        )
        report_sft = train(
            TrainConfig(mode="sft", kl_weight=0.0, **kwargs),
            fixture_examples, init_params, ref_params=ref,
        )
        assert report_nsc.records == report_sft.records
        assert np.array_equal(report_nsc.final_params.flat, report_sft.final_params.flat)
        write_report(report_nsc, tmp_path / "a.jsonl", tmp_path / "a.json")
        write_report(report_sft, tmp_path / "b.jsonl", tmp_path / "b.json")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_reference_never_mutated(self, fixture_examples):
        init_params = init(TRAIN_MODEL_CFG)
        ref = freeze_reference(init_params)
        before = ref.fingerprint()
        report = train(
            TrainConfig(mode="nsc_sft", total_steps=10, lr_max=1e-2, kl_weight=0.1),
            fixture_examples, init_params, ref_params=ref,
        )
        assert ref.fingerprint() == before
        assert report.ref_fingerprint_before == report.ref_fingerprint_after == before

    def test_reference_logprobs_equal_a_recorded_forward(self, fixture_examples):
        # make_batch runs the reference over const leaves at the weighted
        # span; its values are a graph-recording forward's over that span,
        # bit for bit, and the full forward's columns lo..hi-1 to 1e-12.
        ref = freeze_reference(init(dataclasses.replace(TRAIN_MODEL_CFG, seed=1)))
        batch = trainer.make_batch(fixture_examples, ref)
        leaves = tinylm.build_leaves(ref)
        assert len(batch) == math.ceil(len(fixture_examples) / trainer._SHARD_ROWS) >= 2
        for shard in batch:
            lo, hi = shard.span
            recorded = tinylm.batched_logprobs(leaves, ref.config, shard.ids, span=shard.span)
            assert recorded._parents != () and shard.ids.shape[1] > tape._ATTENTION_BLOCK and 0 < lo < hi
            assert np.array_equal(oracles.ref_logprobs(shard), recorded.data)
            full = tinylm.batched_logprobs(leaves, ref.config, shard.ids).data
            assert np.max(np.abs(oracles.ref_logprobs(shard) - full[:, lo:hi])) <= 1e-12

    def test_first_step_ce_matches_single_example_losses(self, fixture_examples):
        # The batched graph must agree with the per-example op.
        params = init(TRAIN_MODEL_CFG)
        report = train(TrainConfig(mode="sft", total_steps=1, lr_max=1e-3), fixture_examples, params)
        oracle = np.mean([loss_sft(params, ex) for ex in fixture_examples])
        assert report.records[0].ce == pytest.approx(oracle, abs=1e-10)

    def test_cpt_mode_first_step_matches_op(self, minibook_nodes):
        from granary.dataset import chunk_tokenized, tokenize_cpt

        pieces = []
        for node in minibook_nodes[:2]:
            pieces.extend(chunk_tokenized(tokenize_cpt(node.text, TOK), 96))
        packs = pack_sequences(pieces, 96)
        params = init(ModelConfig(seed=0, context_window=96))
        report = train(TrainConfig(mode="cpt", total_steps=1, lr_max=1e-3), packs, params)
        oracle = np.mean([loss_cpt(params, pack) for pack in packs])
        assert report.records[0].ce == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("mode", sorted(PINNED_RUNS))
    def test_short_runs_reproduce_pinned_records(self, mode, fixture_examples, minibook_nodes):
        report = pinned_run(mode, fixture_examples, minibook_nodes)
        records, fingerprint = PINNED_RUNS[mode]
        assert [tuple(vars(r).values()) for r in report.records] == records
        assert report.final_params.fingerprint() == fingerprint

    def test_cpt_lone_one_token_pack_weighs_nothing_but_counts(self):
        # A 49-token text chunked at 24 leaves a 1-token tail that packs alone.
        text = tokenize_cpt("a lone tail token ends up in its own pack here!", TOK)
        assert text.length == 49
        packs = pack_sequences(chunk_tokenized(text, 24), 24)
        assert [p.total_length for p in packs] == [24, 24, 1]
        params = init(ModelConfig(seed=0, context_window=24, init_std=0.2))
        report = train(TrainConfig(mode="cpt", total_steps=1, lr_max=1e-3), packs, params)
        oracle = np.mean([loss_cpt(params, pack) for pack in packs])
        assert loss_cpt(params, packs[-1]) == 0.0
        assert report.records[0].ce == pytest.approx(oracle, abs=1e-10)

    def test_nsc_requires_reference(self, fixture_examples):
        with pytest.raises(ValueError):
            train(TrainConfig(mode="nsc_sft", total_steps=1), fixture_examples, init(TRAIN_MODEL_CFG))

    def test_grad_check_records_small_errors(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        cfg = TrainConfig(mode="sft", total_steps=4, lr_max=1e-3, grad_check_every=2)
        report = train(cfg, fixture_examples[:3], params)
        checked = [r.fd_max_rel_err for r in report.records if r.fd_max_rel_err is not None]
        assert len(checked) == 2
        assert all(err <= 1e-4 for err in checked)

    def test_grad_check_equals_inline_difference_loop(self, fixture_examples, monkeypatch):
        # fd_max_rel_err must stay byte-identical to the tests' oracle: three
        # coordinates drawn with seed [cfg.seed, step], h = 1e-4, and the
        # denominator floored at 1e-6.
        seen = []
        collect = tinylm.collect_flat_grad

        def capture(params, leaves):
            gradient = collect(params, leaves)
            seen.append((params.copy(), gradient))
            return gradient

        monkeypatch.setattr(tinylm, "collect_flat_grad", capture)
        examples = fixture_examples[:3]
        init_params = init(TRAIN_MODEL_CFG)
        ref = freeze_reference(init_params)
        cfg = TrainConfig(
            mode="nsc_sft", total_steps=3, lr_max=1e-2, kl_weight=0.1, seed=7, grad_check_every=1
        )
        report = train(cfg, examples, init_params, ref_params=ref)

        batch = trainer.make_batch(examples, ref)
        assert len(seen) == len(report.records) == 3
        for record, (params, gradient) in zip(report.records, seen):
            coords = np.random.default_rng([cfg.seed, record.step]).choice(params.count, size=3, replace=False)
            fd = oracles.central_differences(
                lambda: trainer.loss_value(params, batch, cfg.kl_weight), params.flat, coords
            )
            assert record.fd_max_rel_err == oracles.max_rel_err(fd, gradient[coords])

    def test_a_multi_shard_step_collects_one_gradient_and_descends_along_it(self, fixture_examples, monkeypatch):
        # One collect_flat_grad call per step, whatever the shard count, on
        # the one set of leaves every shard's gradient was folded into, and
        # the step moves params by exactly lr times what that call returned.
        seen = []
        collect = tinylm.collect_flat_grad

        def capture(params, leaves):
            gradient = collect(params, leaves)
            seen.append((params.flat.copy(), leaves, gradient))
            return gradient

        monkeypatch.setattr(tinylm, "collect_flat_grad", capture)
        examples = fixture_examples[: 2 * trainer._SHARD_ROWS + 1]
        init_params = init(TRAIN_MODEL_CFG)
        ref = freeze_reference(init_params)
        cfg = TrainConfig(mode="nsc_sft", total_steps=3, lr_max=1e-2, kl_weight=0.1, seed=7)
        report = train(cfg, examples, init_params, ref_params=ref)

        assert len(seen) == len(report.records) == cfg.total_steps
        after = [flat for flat, _, _ in seen[1:]] + [report.final_params.flat]
        for record, (before, leaves, gradient), moved in zip(report.records, seen, after):
            assert isinstance(leaves, dict) and list(leaves) == init_params.names()
            assert all(leaf.grad is not None for leaf in leaves.values())
            assert np.array_equal(moved, before - record.lr * gradient)

    def test_non_finite_aborts_with_partial_report(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        params.flat[:] = 1e200  # guarantees overflow in the first forward
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as exc_info:
            train(TrainConfig(mode="sft", total_steps=5, lr_max=1e-3), fixture_examples[:2], params)
        assert exc_info.value.report is not None
        assert exc_info.value.report.records == []

    def test_grad_norms_square_summable_series_reported(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        report = train(TrainConfig(mode="sft", total_steps=20, lr_max=1e-2), fixture_examples, params)
        summary = report.summary()
        assert math.isfinite(summary["grad_norm_sq_sum"])
        assert summary["grad_norm_sq_sum"] > 0


# Runs in a fresh process: trains 16 rows of 200 tokens (several shards) for two
# steps, then prints the minor page faults of two more loss_and_grad steps.
FAULTS_SCRIPT = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from granary import tinylm, trainer
from granary.dataset import TokenizedExample

examples = [
    TokenizedExample([(7 * r + 3 * i) % 256 + 3 for i in range(200)], [False] * 40 + [True] * 160)
    for r in range(16)
]
params = tinylm.init(tinylm.ModelConfig(context_window=256, init_std=0.2))
ref = tinylm.freeze_reference(params)
trainer.train(trainer.TrainConfig(mode="nsc_sft", total_steps=2, lr_max=1e-2), examples, params, ref)
batch = trainer.make_batch(examples, ref)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.loss_and_grad(params, batch, 0.1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


# Runs in a fresh process: decodes 48 tokens after a prompt that fits the
# 256-id window and after one that slides it, then prints the minor page
# faults per token of the same two decodes repeated.
DECODE_FAULTS_SCRIPT = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from granary import tinylm

params = tinylm.init(tinylm.ModelConfig(context_window=256, init_std=0.2))
prompts = [[tinylm.BOS_ID] + [(7 * i) % 256 for i in range(n)] for n in (239, 299)]
for prompt in prompts:
    tinylm.greedy_decode(params, prompt, 48, stop_at_eos=False)
per_token = []
for prompt in prompts:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tinylm.greedy_decode(params, prompt, 48, stop_at_eos=False)
    per_token.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 48)
print(json.dumps(per_token))
"""


class TestKeepFreedMemory:
    @pytest.mark.parametrize("failure", [OSError, AttributeError])
    def test_train_runs_unchanged_when_mallopt_cannot_be_found(
        self, failure, fixture_examples, minibook_nodes, monkeypatch
    ):
        looked_up = []

        def missing(name, *args, **kwargs):
            looked_up.append(name)
            raise failure(f"{name}: no mallopt here")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        report = pinned_run("nsc_sft", fixture_examples, minibook_nodes)
        assert looked_up == ["libc.so.6"]
        records, fingerprint = PINNED_RUNS["nsc_sft"]
        assert [tuple(vars(r).values()) for r in report.records] == records
        assert report.final_params.fingerprint() == fingerprint
        # Decoding sets the allocator too, and decodes the same tokens without it.
        params = init(ModelConfig(seed=3, context_window=24))
        prompt = [BOS_ID] + TOK.encode("decode past the window")
        assert tinylm.greedy_decode(params, prompt, 6) == oracles.greedy_decode_reference(params, prompt, 6)
        assert looked_up == ["libc.so.6"] * 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_steps_after_train_fault_in_no_pages(self):
        # Without the setting each step faults ~17k pages back in at this shape.
        src = Path(trainer.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", FAULTS_SCRIPT, str(src)], capture_output=True, text=True, check=True, timeout=120
        )
        faults = json.loads(done.stdout)
        assert len(faults) == 2 and max(faults) < 1000, faults

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_decoded_tokens_fault_in_no_pages(self):
        # Without the setting a token faults ~160-250 pages back in at this shape.
        src = Path(tinylm.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", DECODE_FAULTS_SCRIPT, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        per_token = json.loads(done.stdout)
        assert len(per_token) == 2 and max(per_token) < 10, per_token
