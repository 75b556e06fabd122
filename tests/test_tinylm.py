"""Tiny model: tokenizer, init, forward contracts, gradients, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from granary import tape, tinylm, trainer
from granary.dataset import TokenizedExample
from granary.errors import ContextOverflow, NonFiniteLoss
from granary.tinylm import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ByteTokenizer,
    ModelConfig,
    forward,
    freeze_reference,
    grad,
    greedy_decode,
    init,
    load_checkpoint,
    parameter_count,
    parameter_layout,
    save_checkpoint,
    value_and_grad,
)

TOK = ByteTokenizer()


class TestTokenizer:
    @given(st.text(max_size=200))
    def test_encode_decode_identity(self, text):
        assert TOK.decode(TOK.encode(text)) == text

    @given(st.text(min_size=1, max_size=100))
    def test_specials_never_produced(self, text):
        assert max(TOK.encode(text)) < 256

    def test_decode_skips_specials(self):
        assert TOK.decode([BOS_ID] + TOK.encode("hi") + [EOS_ID, PAD_ID]) == "hi"

    def test_vocab_constants(self):
        assert (TOK.vocab_size, BOS_ID, EOS_ID, PAD_ID) == (259, 256, 257, 258)


class TestInit:
    def test_deterministic_per_seed(self):
        cfg = ModelConfig(seed=4)
        assert np.array_equal(init(cfg).flat, init(cfg).flat)
        assert not np.array_equal(init(cfg).flat, init(ModelConfig(seed=5)).flat)

    def test_zero_std_zeroes_non_norm_params(self):
        params = init(ModelConfig(init_std=0.0))
        for name in params.names():
            view = params.view(name)
            if name.endswith("_scale"):
                assert np.all(view == 1.0)
            elif name.endswith("_bias"):
                assert np.all(view == 0.0)
            else:
                assert np.all(view == 0.0)

    def test_parameter_count_matches_shape_sum(self):
        cfg = ModelConfig()
        # Independent closed-form recomputation from the declared shapes.
        d, v, w, layers = cfg.d_model, cfg.vocab_size, cfg.context_window, cfg.n_layers
        per_layer = 4 * d * d + d * 4 * d + 4 * d * d + 4 * d
        expected = v * d + w * d + layers * per_layer + d * v
        assert parameter_count(cfg) == expected
        assert init(cfg).count == expected

    def test_views_cover_flat_vector_exactly(self):
        params = init(ModelConfig())
        total = sum(params.view(name).size for name in params.names())
        assert total == params.count

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ValueError):
            ModelConfig(context_window=1)


class TestForward:
    def test_distributions_normalized(self):
        out = forward(init(ModelConfig(seed=1)), TOK.encode("normalize me please"))
        sums = np.exp(out.logprobs).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)

    def test_zero_init_is_exactly_uniform(self):
        out = forward(init(ModelConfig(init_std=0.0)), [1, 2, 3, 4])
        assert np.all(out.logprobs == -math.log(259))

    def test_causality_bit_exact(self):
        params = init(ModelConfig(seed=2))
        ids = TOK.encode("causality check string")
        j = 9
        perturbed = list(ids)
        perturbed[j] = (perturbed[j] + 1) % 256
        base = forward(params, ids).logprobs
        changed = forward(params, perturbed).logprobs
        assert np.array_equal(base[:j], changed[:j])
        assert not np.array_equal(base[j:], changed[j:])

    def test_context_overflow(self):
        cfg = ModelConfig(context_window=8)
        with pytest.raises(ContextOverflow):
            forward(init(cfg), list(range(9)))

    def test_forward_deterministic(self):
        params = init(ModelConfig(seed=3))
        ids = TOK.encode("twice")
        assert np.array_equal(forward(params, ids).logprobs, forward(params, ids).logprobs)


class TestGrad:
    def test_finite_differences_agree(self, fd_oracle):
        cfg = ModelConfig(seed=0)
        params = init(cfg)
        ref = init(ModelConfig(seed=50))
        ids = [BOS_ID] + TOK.encode("check the gradient of this loss") + [EOS_ID]
        mask = [False] * 8 + [True] * (len(ids) - 8)
        ex = TokenizedExample(input_ids=ids, loss_mask=mask)

        batch = trainer._batch_from_examples([ex])
        ref_lp = tinylm.batched_logprobs(tinylm.build_leaves(ref), cfg, batch.ids).data
        leaves, _, _, total = trainer._graph_losses(params, batch, ref_lp, 0.1)
        tape.backward(total)
        analytic = tinylm.collect_flat_grad(params, leaves)

        def value_fn(p):
            return trainer._batch_loss_value(p, batch, ref_lp, 0.1)

        rng = np.random.default_rng(0)
        worst = 0.0
        for idx in rng.choice(params.count, size=200, replace=False):
            fd = fd_oracle(value_fn, params, int(idx))
            worst = max(worst, abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), 1e-6))
        assert worst <= 1e-4

    def test_unused_pad_embedding_gets_zero_gradient(self):
        params = init(ModelConfig(seed=1))
        ids = np.asarray(TOK.encode("no pad here"))

        def closure(fwd):
            lp = tape.reshape(fwd(ids), (1, ids.size, params.config.vocab_size))
            picked = tape.take_along_last(lp, ids[None, :])
            return -tape.sumdim(picked) * (1.0 / ids.size)

        gradient = grad(params, closure)
        offset = 0
        for name, shape in parameter_layout(params.config):
            size = int(np.prod(shape))
            if name == "tok_emb":
                d = params.config.d_model
                pad_slice = gradient[offset + PAD_ID * d : offset + (PAD_ID + 1) * d]
                assert np.all(pad_slice == 0.0)
                assert np.any(gradient[offset : offset + size] != 0.0)
            offset += size

    def test_kl_gradient_vanishes_at_reference(self, fd_oracle):
        cfg = ModelConfig(seed=6)
        params = init(cfg)
        ref = freeze_reference(params)
        ids = np.asarray([BOS_ID] + TOK.encode("at the reference point") + [EOS_ID])
        ref_lp = forward(ref, ids).logprobs

        def closure(fwd):
            lp = fwd(ids)
            diff = lp - tape.Tensor(ref_lp)
            per_pos = tape.sumdim(tape.exp(lp) * diff, axis=-1)
            return tape.sumdim(per_pos) * (0.1 / ids.size)

        analytic = grad(params, closure)
        assert np.max(np.abs(analytic)) <= 1e-10

        def value_fn(p):
            cur = forward(p, ids).logprobs
            p_arr = np.exp(cur)
            return float(0.1 * np.sum(p_arr * (cur - ref_lp)) / ids.size)

        rng = np.random.default_rng(1)
        for idx in rng.choice(params.count, size=20, replace=False):
            assert abs(fd_oracle(value_fn, params, int(idx))) <= 1e-6

    def test_backward_keeps_gradients_on_leaves_only(self):
        a = tape.Tensor(np.array([1.0, 2.0]))
        b = tape.Tensor(np.array([3.0, -1.0]))
        hidden = a * b
        loss = tape.sumdim(hidden * hidden)
        tape.backward(loss)
        assert np.array_equal(a.grad, 2.0 * hidden.data * b.data)
        assert np.array_equal(b.grad, 2.0 * hidden.data * a.data)
        assert hidden.grad is None and loss.grad is None

    def test_non_finite_loss_raises(self):
        params = init(ModelConfig(seed=0))

        def closure(fwd):
            lp = fwd([1, 2, 3])
            return tape.sumdim(tape.log(lp))  # log of negative values -> nan

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
            value_and_grad(params, closure)


def _fd_max_rel_err(build, inputs, n_coords=40, h=1e-4, seed=0):
    """Worst relative error of ``build``'s VJP against central differences.

    ``build(*inputs)`` returns a tensor; a fixed random projection turns
    it into a scalar. Up to ``n_coords`` entries of every input are
    perturbed by +/- h (error floored at 1e-6 like tinylm.gradient_check).
    """
    rng = np.random.default_rng(seed)
    out = build(*inputs)
    weights = rng.normal(size=out.data.shape)
    tape.backward(tape.sumdim(out * weights))

    def value() -> float:
        return float(np.sum(build(*inputs).data * weights))

    worst = 0.0
    for tensor in inputs:
        assert tensor.grad is not None
        flat = tensor.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            saved = flat[idx]
            flat[idx] = saved + h
            up = value()
            flat[idx] = saved - h
            down = value()
            flat[idx] = saved
            fd = (up - down) / (2.0 * h)
            analytic = tensor.grad.reshape(-1)[idx]
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6))
    return worst


def _attention_scores(rng):
    return tape.Tensor(rng.normal(0.0, 2.0, size=(2, 3, 7, 7)))


def _loss_inputs(rng, b=3, t=5, v=11):
    logits = rng.normal(0.0, 1.5, size=(b, t, v))
    logprobs = logits - np.logaddexp.reduce(logits, axis=-1, keepdims=True)
    ref = rng.normal(0.0, 1.5, size=(b, t, v))
    ref -= np.logaddexp.reduce(ref, axis=-1, keepdims=True)
    targets = rng.integers(0, v, size=(b, t))
    weights = rng.random((b, t)) * (rng.random((b, t)) < 0.7)
    return logprobs, targets, weights, ref


class TestFusedOps:
    """Each fused tape op against central differences and its primitive composition."""

    def test_causal_softmax_vjp(self):
        x = _attention_scores(np.random.default_rng(1))
        assert _fd_max_rel_err(lambda s: tape.causal_softmax(s, 0.35), [x]) <= 1e-4

    def test_log_softmax_vjp(self):
        x = tape.Tensor(np.random.default_rng(2).normal(0.0, 2.0, size=(3, 4, 13)))
        assert _fd_max_rel_err(tape.log_softmax, [x]) <= 1e-4

    def test_layer_norm_vjp(self):
        rng = np.random.default_rng(3)
        x = tape.Tensor(rng.normal(0.5, 2.0, size=(3, 4, 6)))
        scale = tape.Tensor(rng.normal(1.0, 0.3, size=6))
        bias = tape.Tensor(rng.normal(0.0, 0.3, size=6))
        err = _fd_max_rel_err(lambda a, s, b: tape.layer_norm(a, s, b, 1e-5), [x, scale, bias])
        assert err <= 1e-4

    def test_gelu_vjp(self):
        x = tape.Tensor(np.random.default_rng(4).normal(0.0, 2.0, size=(3, 4, 8)))
        assert _fd_max_rel_err(tape.gelu, [x]) <= 1e-4

    @pytest.mark.parametrize("kl_weight", [0.0, 0.3])
    def test_ce_kl_loss_vjp(self, kl_weight):
        logprobs, targets, weights, ref = _loss_inputs(np.random.default_rng(5))

        def build(lp):
            return tape.ce_kl_loss(lp, targets, weights, ref, kl_weight)[0]

        assert _fd_max_rel_err(build, [tape.Tensor(logprobs)]) <= 1e-4

    def test_forwards_match_compositions(self):
        rng = np.random.default_rng(6)
        x = _attention_scores(rng)
        assert np.max(np.abs(
            tape.causal_softmax(x, 0.35).data - oracles.causal_softmax(x, 0.35).data
        )) <= 1e-12
        logits = tape.Tensor(rng.normal(0.0, 2.0, size=(3, 4, 13)))
        assert np.max(np.abs(
            tape.log_softmax(logits).data - oracles.log_softmax(logits).data
        )) <= 1e-12
        h = tape.Tensor(rng.normal(0.5, 2.0, size=(3, 4, 6)))
        scale = tape.Tensor(rng.normal(1.0, 0.3, size=6))
        bias = tape.Tensor(rng.normal(0.0, 0.3, size=6))
        assert np.max(np.abs(
            tape.layer_norm(h, scale, bias, 1e-5).data
            - oracles.layer_norm(h, scale, bias, 1e-5).data
        )) <= 1e-12
        assert np.max(np.abs(tape.gelu(h).data - oracles.gelu(h).data)) <= 1e-12

    @pytest.mark.parametrize("kl_weight", [0.0, 0.3])
    def test_loss_matches_composition(self, kl_weight):
        logprobs, targets, weights, ref = _loss_inputs(np.random.default_rng(7))
        lp = tape.Tensor(logprobs)
        total, ce, kl = tape.ce_kl_loss(lp, targets, weights, ref, kl_weight)
        want_total, want_ce, want_kl = oracles.ce_kl_loss(lp, targets, weights, ref, kl_weight)
        assert abs(float(total.data) - float(want_total.data)) <= 1e-12
        assert abs(ce - float(want_ce.data)) <= 1e-12
        if kl_weight == 0:
            assert want_kl is None and kl == 0.0
            assert float(total.data) == ce
        else:
            assert abs(kl - float(want_kl.data)) <= 1e-12

    def test_loss_without_reference_is_ce_only(self):
        logprobs, targets, weights, _ = _loss_inputs(np.random.default_rng(8))
        total, ce, kl = tape.ce_kl_loss(tape.Tensor(logprobs), targets, weights, None, 0.5)
        assert kl == 0.0 and float(total.data) == ce

    @pytest.mark.parametrize("init_std", [0.0, 0.2])
    def test_model_forward_matches_composition(self, init_std):
        cfg = ModelConfig(seed=5, init_std=init_std)
        leaves = tinylm.build_leaves(init(cfg))
        ids = np.asarray([[BOS_ID] + TOK.encode("fused forward check"),
                          [BOS_ID] + TOK.encode("second row, padded!")])
        fused = tinylm.batched_logprobs(leaves, cfg, ids).data
        composed = oracles.batched_logprobs(leaves, cfg, ids).data
        assert np.max(np.abs(fused - composed)) <= 1e-12
        if init_std == 0.0:
            assert np.all(fused == -math.log(259))
            assert np.all(composed == -math.log(259))

    def test_attention_keeps_two_square_tensors_per_layer(self):
        # Only the scores and the softmax are [B, H, T, T]; the masked,
        # shifted and exponentiated copies of the primitive composition
        # are gone.
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, context_window=16, seed=1)
        b, t = 3, 5
        ids = np.arange(b * t).reshape(b, t) % 256
        out = tinylm.batched_logprobs(tinylm.build_leaves(init(cfg)), cfg, ids)
        seen, stack, square = {id(out)}, [out], 0
        while stack:
            node = stack.pop()
            square += node.data.shape == (b, cfg.n_heads, t, t)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert square <= 2 * cfg.n_layers


class TestFreeze:
    def test_copy_is_bit_identical(self):
        params = init(ModelConfig(seed=9))
        frozen = freeze_reference(params)
        assert np.array_equal(frozen.flat, params.flat)
        assert frozen.fingerprint() == params.fingerprint()

    def test_frozen_copy_is_immutable(self):
        frozen = freeze_reference(init(ModelConfig(seed=9)))
        with pytest.raises(ValueError):
            frozen.flat[0] = 1.0
        with pytest.raises(ValueError):
            frozen.view("tok_emb")[0, 0] = 1.0

    def test_kl_of_identical_distributions_is_zero(self):
        params = init(ModelConfig(seed=9))
        frozen = freeze_reference(params)
        ids = TOK.encode("same model twice")
        cur = forward(params, ids).logprobs
        ref = forward(frozen, ids).logprobs
        assert trainer.kl_term(cur, ref, np.ones(len(ids), dtype=bool)) == 0.0


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init(ModelConfig(seed=11, d_model=16, n_heads=2, n_layers=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.fingerprint() == params.fingerprint()

    def test_greedy_decode_deterministic(self):
        params = init(ModelConfig(seed=2, context_window=32))
        prompt = [BOS_ID] + TOK.encode("ab")
        first = greedy_decode(params, prompt, max_new_tokens=8)
        second = greedy_decode(params, prompt, max_new_tokens=8)
        assert first == second and len(first) <= 8

    def test_greedy_decode_slides_past_context(self):
        params = init(ModelConfig(seed=2, context_window=16))
        prompt = [BOS_ID] + TOK.encode("x" * 40)
        out = greedy_decode(params, prompt, max_new_tokens=4, stop_at_eos=False)
        assert len(out) == 4
