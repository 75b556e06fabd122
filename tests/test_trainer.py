"""Losses, the KL term, the schedule, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRAIN_MODEL_CFG
from granary import tinylm, trainer
from granary.dataset import TokenizedExample, pack_sequences
from granary.errors import EmptyMask, NonFiniteLoss, ShapeMismatch
from granary.tinylm import BOS_ID, EOS_ID, ByteTokenizer, ModelConfig, freeze_reference, init
from granary.trainer import (
    LossBreakdown,
    TrainConfig,
    kl_term,
    loss_cpt,
    loss_nsc_sft,
    loss_sft,
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
        logprobs = tinylm.forward(params, ex.input_ids).logprobs
        # Independent per-position recomputation with a plain loop.
        contributions = []
        for i, masked in enumerate(ex.loss_mask):
            if masked and i >= 1:
                contributions.append(-logprobs[i - 1, ex.input_ids[i]])
        assert loss_sft(params, ex) == pytest.approx(np.mean(contributions), abs=1e-10)

    def test_only_masked_positions_contribute(self):
        params = init(ModelConfig(seed=3))
        ex = sft_example("oracle comparison text", prompt_len=12)
        logprobs = tinylm.forward(params, ex.input_ids).logprobs
        oracle = np.mean(
            [-logprobs[i - 1, ex.input_ids[i]] for i in range(12, len(ex.input_ids))]
        )
        assert loss_sft(params, ex) == pytest.approx(oracle, abs=1e-10)

    def test_empty_mask_rejected(self):
        ex = TokenizedExample(input_ids=[BOS_ID, 65, 66], loss_mask=[True, False, False])
        with pytest.raises(EmptyMask):
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
        lp = tinylm.forward(params, [BOS_ID, 66, 67]).logprobs
        oracle = -(lp[0, 66] + lp[1, 67]) / 2
        assert loss_cpt(params, pack) == pytest.approx(oracle, abs=1e-10)

    def test_matches_per_position_oracle(self):
        params = init(ModelConfig(seed=7))
        pack = self._pack(["first segment", "second one"], max_len=24)[0]
        total, count = 0.0, 0
        for seg in pack.segments:
            ids = pack.ids[seg.offset : seg.offset + seg.length]
            lp = tinylm.forward(params, ids).logprobs
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
        with pytest.raises(ShapeMismatch):
            kl_term(np.zeros((2, 3)), np.zeros((2, 4)), np.ones(2, dtype=bool))
        with pytest.raises(ShapeMismatch):
            kl_term(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
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
        cur = tinylm.forward(params, ids).logprobs
        rlp = tinylm.forward(ref, ids).logprobs
        mask = np.zeros(ids.size, dtype=bool)
        mask[targets - 1] = True
        kl_oracle = kl_term(cur, rlp, mask)

        assert breakdown.ce == pytest.approx(ce_oracle, abs=1e-12)
        assert breakdown.kl == pytest.approx(kl_oracle, abs=1e-12)
        assert breakdown.total == pytest.approx(ce_oracle + 0.1 * kl_oracle, abs=1e-12)


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

    def test_bounds_checked(self):
        cfg = self.cfg(total=10)
        with pytest.raises(ValueError):
            lr_at(10, cfg)
        with pytest.raises(ValueError):
            lr_at(-1, cfg)


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
        # fd_max_rel_err must stay byte-identical to this loop: three
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

        batch = trainer._batch_from_examples(examples)
        ref_lp = tinylm.batched_logprobs(tinylm.build_leaves(ref), ref.config, batch.ids).data
        assert len(seen) == len(report.records) == 3
        for record, (params, gradient) in zip(report.records, seen):
            rng = np.random.default_rng([cfg.seed, record.step])
            want = 0.0
            for idx in rng.choice(params.count, size=3, replace=False):
                idx = int(idx)
                plus, minus = params.copy(), params.copy()
                plus.flat[idx] += 1e-4
                minus.flat[idx] -= 1e-4
                fd = (
                    trainer._batch_loss_value(plus, batch, ref_lp, cfg.kl_weight)
                    - trainer._batch_loss_value(minus, batch, ref_lp, cfg.kl_weight)
                ) / 2e-4
                denom = max(abs(fd), abs(gradient[idx]), 1e-6)
                want = max(want, abs(fd - gradient[idx]) / denom)
            assert record.fd_max_rel_err == want

    def test_non_finite_aborts_with_partial_report(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        params.flat[:] = 1e200  # guarantees overflow in the first forward
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as exc_info:
            train(TrainConfig(mode="sft", total_steps=5, lr_max=1e-3), fixture_examples[:2], params)
        assert exc_info.value.report is not None
        assert exc_info.value.report.records == []

    def test_adam_flag_runs(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        report = train(
            TrainConfig(mode="sft", total_steps=3, lr_max=1e-3, optimizer="adam"),
            fixture_examples[:2], params,
        )
        assert len(report.records) == 3

    def test_batch_indices_subset_schedule(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        cfg = TrainConfig(
            mode="sft", total_steps=4, lr_max=1e-3,
            batch_indices=((0, 1), (2, 3)),
        )
        report = train(cfg, fixture_examples[:4], params)
        oracle = np.mean([loss_sft(params, ex) for ex in fixture_examples[:2]])
        assert report.records[0].ce == pytest.approx(oracle, abs=1e-10)

    def test_grad_norms_square_summable_series_reported(self, fixture_examples):
        params = init(TRAIN_MODEL_CFG)
        report = train(TrainConfig(mode="sft", total_steps=20, lr_max=1e-2), fixture_examples, params)
        summary = report.summary()
        assert math.isfinite(summary["grad_norm_sq_sum"])
        assert summary["grad_norm_sq_sum"] > 0
