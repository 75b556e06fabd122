"""Tiny model: tokenizer, init, forward contracts, gradients, checkpoints."""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from granary import tape, tinylm, trainer
from granary.dataset import TokenizedExample, pack_cpt_texts
from granary.errors import NonFiniteLoss
from granary.tinylm import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ByteTokenizer,
    ModelConfig,
    forward,
    freeze_reference,
    greedy_decode,
    init,
    load_checkpoint,
    parameter_count,
    parameter_layout,
    save_checkpoint,
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
        views = params.views()
        assert list(views) == params.names()
        for name, view in views.items():
            assert np.shares_memory(view, params.flat)
            assert np.array_equal(view, params.view(name))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ValueError):
            ModelConfig(context_window=1)


class TestForward:
    def test_distributions_normalized(self):
        out = forward(init(ModelConfig(seed=1)), TOK.encode("normalize me please"))
        sums = np.exp(out).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)

    def test_zero_init_is_exactly_uniform(self):
        out = forward(init(ModelConfig(init_std=0.0)), [1, 2, 3, 4])
        assert np.all(out == -math.log(259))

    def test_causality_bit_exact(self):
        params = init(ModelConfig(seed=2))
        ids = TOK.encode("causality check string")
        j = 9
        perturbed = list(ids)
        perturbed[j] = (perturbed[j] + 1) % 256
        base = forward(params, ids)
        changed = forward(params, perturbed)
        assert np.array_equal(base[:j], changed[:j])
        assert not np.array_equal(base[j:], changed[j:])

    def test_context_overflow(self):
        cfg = ModelConfig(context_window=8)
        with pytest.raises(ValueError):
            forward(init(cfg), list(range(9)))

    def test_empty_ids_raise_value_error(self):
        cfg = ModelConfig(context_window=8)
        leaves = tinylm.build_leaves(init(cfg))
        with pytest.raises(ValueError, match="no token ids"):
            tinylm.batched_logprobs(leaves, cfg, np.zeros((1, 0), dtype=np.int64))
        with pytest.raises(ValueError, match="no token ids"):
            forward(init(cfg), [])

    def test_forward_deterministic(self):
        params = init(ModelConfig(seed=3))
        ids = TOK.encode("twice")
        assert np.array_equal(forward(params, ids), forward(params, ids))


class TestGrad:
    def test_finite_differences_agree(self):
        cfg = ModelConfig(seed=0)
        params = init(cfg)
        ref = init(ModelConfig(seed=50))
        ids = [BOS_ID] + TOK.encode("check the gradient of this loss") + [EOS_ID]
        mask = [False] * 8 + [True] * (len(ids) - 8)
        batch = trainer.make_batch([TokenizedExample(input_ids=ids, loss_mask=mask)], ref)
        _, analytic = trainer.loss_and_grad(params, batch, 0.1)
        coords = np.random.default_rng(0).choice(params.count, size=200, replace=False)
        fd = oracles.central_differences(lambda: trainer.loss_value(params, batch, 0.1), params.flat, coords)
        assert oracles.max_rel_err(fd, analytic[coords]) <= 1e-4

    def test_unused_pad_embedding_gets_zero_gradient(self):
        params = init(ModelConfig(seed=1))
        ids = TOK.encode("no pad here")
        example = TokenizedExample(input_ids=ids, loss_mask=[True] * len(ids))
        _, gradient = trainer.loss_and_grad(params, trainer.make_batch([example]), 0.0)
        offset = 0
        for name, shape in parameter_layout(params.config):
            size = int(np.prod(shape))
            if name == "tok_emb":
                d = params.config.d_model
                pad_slice = gradient[offset + PAD_ID * d : offset + (PAD_ID + 1) * d]
                assert np.all(pad_slice == 0.0)
                assert np.any(gradient[offset : offset + size] != 0.0)
            offset += size

    def test_kl_gradient_vanishes_at_reference(self):
        cfg = ModelConfig(seed=6)
        params = init(cfg)
        ref = freeze_reference(params)
        ids = [BOS_ID] + TOK.encode("at the reference point") + [EOS_ID]
        batch = trainer.make_batch([TokenizedExample(input_ids=ids, loss_mask=[True] * len(ids))], ref)
        with_kl = trainer.loss_and_grad(params, batch, 0.1)[1]
        without_kl = trainer.loss_and_grad(params, batch, 0.0)[1]
        assert np.max(np.abs(with_kl - without_kl)) <= 1e-10

        ref_lp = forward(ref, ids)

        def value():
            cur = forward(params, ids)
            return float(0.1 * np.sum(np.exp(cur) * (cur - ref_lp)) / len(ids))

        coords = np.random.default_rng(1).choice(params.count, size=20, replace=False)
        assert np.all(np.abs(oracles.central_differences(value, params.flat, coords)) <= 1e-6)

    def test_backward_keeps_gradients_on_leaves_only(self):
        a = tape.Tensor(np.array([1.0, 2.0]))
        b = tape.Tensor(np.array([3.0, -1.0]))
        hidden = tape.mul(a, b)
        loss = tape.sumdim(tape.mul(hidden, hidden))
        tape.backward(loss)
        assert np.array_equal(a.grad, 2.0 * hidden.data * b.data)
        assert np.array_equal(b.grad, 2.0 * hidden.data * a.data)
        assert hidden.grad is None and loss.grad is None

    def test_backward_frees_each_node_once_its_vjp_has_run(self):
        saved_refs = []

        def scaled(x):  # its VJP closure alone holds ``saved``
            saved = np.arange(1.0, 4.0)
            saved_refs.append(weakref.ref(saved))
            return tape.Tensor(x.data * saved, (x,), lambda g: (g * saved,))

        def checked(x):  # its VJP runs after scaled's, in the same backward
            def vjp(g):
                assert saved_refs[0]() is None, "a node's saved array outlived its VJP"
                return (g,)

            return tape.Tensor(x.data.copy(), (x,), vjp)

        leaf = tape.Tensor(np.ones(3))
        loss = tape.sumdim(scaled(checked(leaf)))
        tape.backward(loss)
        assert np.array_equal(leaf.grad, np.arange(1.0, 4.0))
        assert loss._vjp is None and loss._parents == ()

    def test_non_finite_loss_raises(self, monkeypatch):
        params = init(ModelConfig(seed=0))
        params.flat[:] = 1e200  # overflows in the forward
        ids = [1, 2, 3]
        batch = trainer.make_batch([TokenizedExample(input_ids=ids, loss_mask=[True] * 3)])
        backward_calls = []
        monkeypatch.setattr(tape, "backward", backward_calls.append)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            trainer.loss_and_grad(params, batch, 0.0)
        assert backward_calls == []


def _vjp_max_rel_err(build, inputs, n_coords=40, seed=0, reference=None):
    """Worst relative error of ``build``'s VJP against ``oracles.central_differences``.

    ``build(*inputs)`` returns a tensor; a fixed random projection turns
    it into a scalar. Up to ``n_coords`` entries of every input are checked.
    The differences are taken of ``reference``, which defaults to ``build``.
    """
    rng = np.random.default_rng(seed)
    out = build(*inputs)
    weights = rng.normal(size=out.data.shape)
    tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
    worst = 0.0
    for tensor in inputs:
        assert tensor.grad is not None
        flat = tensor.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        fd = oracles.central_differences(
            lambda: float(np.sum((reference or build)(*inputs).data * weights)), flat, coords
        )
        worst = max(worst, oracles.max_rel_err(fd, tensor.grad.reshape(-1)[coords]))
    return worst


# (leading dims, query rows, offset) of causal_attention's cases: the
# square mask of one sequence; four new rows against nine keys, the first
# five cached; 70 rows, whose last block of 48 is ragged; 40 new rows, one
# block, against 75 keys, the first 35 cached; and 60 new rows, two
# blocks, against 95 keys, the first 35 cached.
ATTENTION_CASES = [
    ((2, 3), 7, 0), ((2, 3), 4, 5), ((1, 2), 70, 0), ((1, 2), 40, 35), ((1, 2), 60, 35),
]
ATTENTION_IDS = ["square", "cached", "ragged_blocks", "cached_block", "cached_blocks"]


def _attention_inputs(rng, lead, rows, offset, head_dim=4):
    """q with ``rows`` rows; k and v with ``offset + rows`` rows."""
    return [
        tape.Tensor(rng.normal(0.0, 1.0, size=(*lead, n, head_dim)))
        for n in (rows, offset + rows, offset + rows)
    ]


def _loss_inputs(rng, b=3, t=5, d=4, v=11):
    """Hidden states, a head (their product: raw, unnormalised logits), targets,
    weights and a reference as its parts: hidden states, head and log normalisers."""
    hidden = rng.normal(0.0, 1.0, size=(b, t, d))
    out_proj = rng.normal(0.0, 0.75, size=(d, v))
    ref_hidden = rng.normal(0.0, 1.0, size=(b, t, d))
    ref_head = rng.normal(0.0, 0.75, size=(d, v))
    ref = (ref_hidden, ref_head, np.logaddexp.reduce(ref_hidden @ ref_head, axis=-1, keepdims=True))
    targets = rng.integers(0, v, size=(b, t))
    weights = rng.random((b, t)) * (rng.random((b, t)) < 0.7)
    return hidden, out_proj, targets, weights, ref


def _mlp_inputs(rng, b=3, t=4, d=6):
    """The residual x, then h, w_in and w_out of an MLP of width 4 d."""
    return [
        tape.Tensor(rng.normal(0.0, scale, size=shape))
        for scale, shape in ((1.0, (b, t, d)), (1.0, (b, t, d)), (0.5, (d, 4 * d)), (0.5, (4 * d, d)))
    ]


def _composed_mlp(x, h, w_in, w_out):
    return x + oracles.gelu(h @ w_in) @ w_out


def _add_matmul_inputs(rng, b=3, t=4, k=5, d=6):
    """The residual x, then a and w of the product a @ w."""
    return [tape.Tensor(rng.normal(0.0, 1.0, size=shape)) for shape in ((b, t, d), (b, t, k), (k, d))]


def _composed_loss(hidden, out_proj, targets, weights, ref, kl_weight):
    ref_logprobs = None if ref is None else ref[0] @ ref[1] - ref[2]
    return oracles.ce_kl_loss(oracles.log_softmax(hidden @ out_proj), targets, weights, ref_logprobs, kl_weight)


class TestFusedOps:
    """Each fused tape op against central differences and its primitive composition."""

    @pytest.mark.parametrize("lead, rows, offset", ATTENTION_CASES, ids=ATTENTION_IDS)
    def test_causal_attention_vjp(self, lead, rows, offset):
        q, k, v = _attention_inputs(np.random.default_rng(rows + offset), lead, rows, offset)
        err = _vjp_max_rel_err(lambda a, b, c: tape.causal_attention(a, b, c, 0.35, offset), [q, k, v])
        assert err <= 1e-4

    @pytest.mark.parametrize("rows, offset", [(20, 0), (64, 0), (96, 0), (246, 0), (40, 35)])
    def test_causal_attention_matches_composition(self, rows, offset):
        # One block, two blocks the last ragged, a whole number of blocks,
        # the demo length (ragged), and a decode-shaped block of new rows
        # against cached keys.
        inputs = _attention_inputs(np.random.default_rng(rows), (2, 2), rows, offset, head_dim=8)
        weights = np.random.default_rng(0).normal(size=(2, 2, rows, 8))
        grads = []
        for attend in (tape.causal_attention, oracles.causal_attention):
            leaves = [tape.Tensor(x.data) for x in inputs]
            out = attend(*leaves, 0.35, offset)
            tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
            grads.append([out.data] + [x.grad for x in leaves])
        for fused, composed in zip(*grads):
            assert np.max(np.abs(fused - composed)) <= 1e-12

    def test_causal_attention_mask_is_one_read_only_block_triangle(self):
        # Every block slices this one constant, so no call may change it.
        assert np.array_equal(tape._FUTURE, ~np.tri(tape._ATTENTION_BLOCK, dtype=bool))
        assert not tape._FUTURE.flags.writeable

    @pytest.mark.parametrize("key", ["inf", "-inf", "nan", "huge"])
    @pytest.mark.parametrize("rows, offset, position", [(70, 0, 30), (70, 0, 60), (60, 35, 60), (60, 35, 90)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_causal_attention_masks_a_later_key_before_the_row_max(self, dtype, rows, offset, position, key):
        # An infinite, NaN or huge key at one position reaches no earlier
        # query's row, neither through its max nor through its exponentials:
        # those rows' outputs match the run with an ordinary key byte for
        # byte, and for a finite key so do their query gradients and the
        # value gradient taken from them. Positions fall in the diagonal
        # square of the first and of the second block of 48 rows.
        rng = np.random.default_rng(position)
        q, k, v = (x.data.astype(dtype) for x in _attention_inputs(rng, (1, 2), rows, offset))
        odd = k.copy()
        odd[..., position, :] = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan, "huge": 1e4 * k[..., position, :]}[key]
        before = position - offset  # query rows at key positions before the odd key
        weights = np.zeros(q.shape, dtype)
        weights[..., :before, :] = rng.normal(size=weights[..., :before, :].shape)
        runs = []
        for keys in (k, odd):
            leaves = [tape.Tensor(x) for x in (q, keys, v)]
            with np.errstate(invalid="ignore"):  # the odd key's own and later rows
                out = tape.causal_attention(*leaves, 0.35, offset)
                tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
            runs.append((out.data[..., :before, :], leaves[0].grad[..., :before, :], leaves[2].grad))
        (out, gq, gv), (odd_out, odd_gq, odd_gv) = runs
        assert np.isfinite(out).all() and out.tobytes() == odd_out.tobytes()
        if key == "huge":
            assert gq.tobytes() == odd_gq.tobytes() and gv.tobytes() == odd_gv.tobytes()

    def test_slice_rows_vjp(self):
        x = tape.Tensor(np.random.default_rng(10).normal(size=(2, 3, 7, 4)))
        assert _vjp_max_rel_err(lambda a: tape.slice_rows(a, 2, 5), [x]) <= 1e-4

    def test_log_softmax_vjp(self):
        x = tape.Tensor(np.random.default_rng(2).normal(0.0, 2.0, size=(3, 4, 13)))
        assert _vjp_max_rel_err(tape.log_softmax, [x]) <= 1e-4

    def test_layer_norm_vjp(self):
        rng = np.random.default_rng(3)
        x = tape.Tensor(rng.normal(0.5, 2.0, size=(3, 4, 6)))
        scale = tape.Tensor(rng.normal(1.0, 0.3, size=6))
        bias = tape.Tensor(rng.normal(0.0, 0.3, size=6))
        err = _vjp_max_rel_err(lambda a, s, b: tape.layer_norm(a, s, b, 1e-5), [x, scale, bias])
        assert err <= 1e-4

    def test_mlp_vjp(self):
        inputs = _mlp_inputs(np.random.default_rng(4))
        assert _vjp_max_rel_err(tape.mlp, inputs, reference=_composed_mlp) <= 1e-4

    def test_add_matmul_vjp(self):
        inputs = _add_matmul_inputs(np.random.default_rng(4))
        assert _vjp_max_rel_err(tape.add_matmul, inputs) <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", ["add_matmul", "mlp"])
    def test_residual_fused_ops_equal_their_two_nodes_byte_for_byte(self, name, dtype):
        # The residual added in place in the branch's output buffer gives the
        # bytes of a separate add node, forward and backward.
        inputs = {"add_matmul": _add_matmul_inputs, "mlp": _mlp_inputs}[name](np.random.default_rng(11))
        weights = np.random.default_rng(12).normal(size=inputs[0].shape).astype(dtype)
        runs = []
        for op in (getattr(tape, name), getattr(oracles, name)):
            leaves = [tape.Tensor(x.data.astype(dtype)) for x in inputs]
            out = op(*leaves)
            tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
            runs.append([a.tobytes() for a in [out.data] + [x.grad for x in leaves]])
        assert runs[0] == runs[1]

    def test_mlp_keeps_the_activation_and_the_slope_only(self):
        # The composition kept the pre-activation, tanh and the activation;
        # over const inputs the fused op forms no slope and keeps no graph.
        x, h, w_in, w_out = _mlp_inputs(np.random.default_rng(4))
        out = tape.mlp(x, h, w_in, w_out)
        wide = [a for a in _graph_arrays(out, closures=True) if a.shape == (3, 4, 24)]
        assert len(wide) == 2
        const = tape.mlp(*(tape.Tensor(a.data, const=True) for a in (x, h, w_in, w_out)))
        assert const.const and const._vjp is None and np.array_equal(const.data, out.data)

    @pytest.mark.parametrize("kl_weight", [0.0, 0.3])
    def test_ce_kl_loss_vjp(self, kl_weight):
        hidden, out_proj, targets, weights, ref = _loss_inputs(np.random.default_rng(5))

        def build(h, w):
            return tape.ce_kl_loss(h, w, targets, weights, *ref, kl_weight)[0]

        def composed(h, w):
            return _composed_loss(h, w, targets, weights, ref, kl_weight)[0]

        inputs = [tape.Tensor(hidden), tape.Tensor(out_proj)]
        assert _vjp_max_rel_err(build, inputs, reference=composed) <= 1e-4

    def test_forwards_match_compositions(self):
        rng = np.random.default_rng(6)
        for lead, rows, offset in ATTENTION_CASES:
            q, k, v = _attention_inputs(rng, lead, rows, offset)
            assert np.max(np.abs(
                tape.causal_attention(q, k, v, 0.35, offset).data
                - oracles.causal_attention(q, k, v, 0.35, offset).data
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
        inputs = _mlp_inputs(rng)
        assert np.max(np.abs(tape.mlp(*inputs).data - _composed_mlp(*inputs).data)) <= 1e-12

    @pytest.mark.parametrize("kl_weight", [0.0, 0.3])
    def test_loss_matches_composition(self, kl_weight):
        hidden, out_proj, targets, weights, ref = _loss_inputs(np.random.default_rng(7))
        fused, composed = ([tape.Tensor(hidden), tape.Tensor(out_proj)] for _ in range(2))
        total, ce, kl = tape.ce_kl_loss(*fused, targets, weights, *ref, kl_weight)
        want_total, want_ce, want_kl = _composed_loss(*composed, targets, weights, ref, kl_weight)
        assert abs(float(total.data) - float(want_total.data)) <= 1e-12
        assert abs(ce - float(want_ce.data)) <= 1e-12
        if kl_weight == 0:
            assert want_kl is None and kl == 0.0
            assert float(total.data) == ce
        else:
            assert abs(kl - float(want_kl.data)) <= 1e-12
        tape.backward(total)
        tape.backward(want_total)
        for x, x_composed in zip(fused, composed):
            assert np.max(np.abs(x.grad - x_composed.grad)) <= 1e-12

    def test_loss_without_reference_is_ce_only(self):
        hidden, out_proj, targets, weights, _ = _loss_inputs(np.random.default_rng(8))
        h, w = tape.Tensor(hidden), tape.Tensor(out_proj)
        total, ce, kl = tape.ce_kl_loss(h, w, targets, weights, None, None, None, 0.5)
        assert kl == 0.0 and float(total.data) == ce
        want_ce = _composed_loss(h, w, targets, weights, None, 0.5)[1]
        assert abs(ce - float(want_ce.data)) <= 1e-12

    def test_loss_keeps_one_vocab_sized_array(self):
        # One 3-row shard's head at 160 positions, with the KL on. The
        # forward allocates the saved logit gradient and two [160, V]
        # scratch rows that every batch row reuses, one for its logits,
        # which become the KL difference in place, and one for its
        # reference log-probabilities; the backward scales the saved
        # gradient in place. Whole-shard logits beside the gradient peaked
        # at 2.4 such arrays, the reference's [3, 160, V] log-probabilities
        # built whole for the call at about three, and a log_softmax node
        # followed by a loss over its output at five.
        rng = np.random.default_rng(9)
        rows, span, d, v = 3, 160, 32, 259
        hidden, out_proj = rng.normal(0.0, 1.0, size=(rows, span, d)), rng.normal(0.0, 0.3, size=(d, v))
        ref_hidden, ref_head = rng.normal(0.0, 1.0, size=(rows, span, d)), rng.normal(0.0, 0.3, size=(d, v))
        ref_lse = np.logaddexp.reduce(ref_hidden @ ref_head, axis=-1, keepdims=True)
        targets = rng.integers(0, v, size=(rows, span))
        weights = np.full((rows, span), 1.0 / (rows * span))
        h, w = tape.Tensor(hidden), tape.Tensor(out_proj)
        tracemalloc.start()
        try:
            total, _, _ = tape.ce_kl_loss(h, w, targets, weights, ref_hidden, ref_head, ref_lse, 0.1)
            tape.backward(total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.grad is not None and w.grad is not None
        vocab_array = 8 * rows * span * v
        assert peak <= 1.8 * vocab_array, peak / vocab_array

    @pytest.mark.parametrize("init_std", [0.0, 0.2])
    def test_model_forward_matches_composition(self, init_std):
        # A short batch in one attention block, then 150 positions in four.
        cfg = ModelConfig(seed=5, init_std=init_std, context_window=150)
        params = init(cfg)
        short = np.asarray([[BOS_ID] + TOK.encode("fused forward check"),
                            [BOS_ID] + TOK.encode("second row, padded!")])
        long = np.random.default_rng(5).integers(0, 259, size=(2, 150))
        for ids in (short, long):
            weights = np.random.default_rng(6).normal(size=(*ids.shape, 259)) / ids.size
            results = []
            for model in (tinylm.batched_logprobs, oracles.batched_logprobs):
                leaves = tinylm.build_leaves(params)
                out = model(leaves, cfg, ids)
                tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
                results.append((out.data, tinylm.collect_flat_grad(params, leaves)))
            (fused, fused_grad), (composed, composed_grad) = results
            assert np.max(np.abs(fused - composed)) <= 1e-12
            assert np.max(np.abs(fused_grad - composed_grad)) <= 1e-12
            if init_std == 0.0:
                assert np.all(fused == -math.log(259))
                assert np.all(composed == -math.log(259))

    def test_attention_keeps_two_square_tensors_per_layer(self):
        # At most two [B, H, T, T] arrays per layer; the masked, shifted and
        # exponentiated copies of the primitive composition are gone.
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, context_window=16, seed=1)
        b, t = 3, 5
        ids = np.arange(b * t).reshape(b, t) % 256
        out = tinylm.batched_logprobs(tinylm.build_leaves(init(cfg)), cfg, ids)
        square = sum(a.shape == (b, cfg.n_heads, t, t) for a in _graph_arrays(out, closures=False))
        assert square <= 2 * cfg.n_layers

    def test_residual_adds_are_fused_into_their_branches(self, monkeypatch):
        # Each layer's attention output projection and MLP add the residual
        # in place: two fewer [B, T, d] arrays per layer than with separate
        # add nodes, which keep the branch's output too, and the same bytes
        # forward and backward.
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, context_window=16, seed=1, init_std=0.2)
        params = init(cfg)
        b, t = 3, 5
        ids = np.arange(b * t).reshape(b, t) % 256
        weights = np.random.default_rng(3).normal(size=(b, t, cfg.vocab_size))
        runs = []
        for split in (False, True):
            if split:
                monkeypatch.setattr(tape, "add_matmul", oracles.add_matmul)
                monkeypatch.setattr(tape, "mlp", oracles.mlp)
            leaves = tinylm.build_leaves(params)
            out = tinylm.batched_logprobs(leaves, cfg, ids)
            wide = sum(a.shape == (b, t, cfg.d_model) for a in _graph_arrays(out, closures=False))
            tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
            runs.append((wide, out.data.tobytes(), tinylm.collect_flat_grad(params, leaves).tobytes()))
        (fused, *fused_bytes), (split, *split_bytes) = runs
        assert fused == split - 2 * cfg.n_layers
        assert fused_bytes == split_bytes

    @pytest.mark.parametrize("span", [None, (1, 4)])
    def test_merged_heads_are_a_view_of_the_attention_output(self, monkeypatch, span):
        # causal_attention lays its [b, heads, rows, head_dim] output out as
        # [b, rows, heads, head_dim], so hidden's swapaxes + reshape merge of
        # the heads copies nothing, on the span's last layer too.
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, context_window=16, seed=1)
        attended, merged = [], []

        def recorded(op, into):
            def wrapped(*args, **kwargs):
                into.append(op(*args, **kwargs))
                return into[-1]

            return wrapped

        monkeypatch.setattr(tape, "causal_attention", recorded(tape.causal_attention, attended))
        monkeypatch.setattr(tape, "reshape", recorded(tape.reshape, merged))
        ids = np.arange(15).reshape(3, 5)
        tinylm.hidden(tinylm.build_leaves(init(cfg)), cfg, ids, span=span)
        merged = [m for m in merged if m.data.ndim == 3]  # not _split_heads' [b, t, heads, head_dim]
        assert len(attended) == len(merged) == cfg.n_layers
        for attention, heads in zip(attended, merged):
            assert heads.shape[-1] == cfg.d_model
            assert np.shares_memory(heads.data, attention.data)

    def test_attention_keeps_under_six_tenths_of_a_square_per_layer(self):
        # At T = 256 the arrays that backward keeps with attention weights,
        # [B, H, rows, keys] in graph nodes or VJP closures, stay below 0.6
        # of one [B, H, T, T] float64 square per layer. The blocked op keeps
        # only its blocks' key prefixes; the composition kept two squares.
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, context_window=256, seed=1)
        b, t, head_dim = 2, 256, 4
        ids = np.arange(b * t).reshape(b, t) % 256
        out = tinylm.batched_logprobs(tinylm.build_leaves(init(cfg)), cfg, ids)
        owners = {}
        for a in _graph_arrays(out, closures=True):
            while a.base is not None:
                a = a.base
            owners[id(a)] = a
        kept = sum(
            a.nbytes for a in owners.values()
            if a.ndim == 4 and a.shape[:2] == (b, cfg.n_heads) and min(a.shape[2:]) > head_dim
        )
        assert kept <= 0.6 * 8 * b * cfg.n_heads * t * t * cfg.n_layers


def _ce_kl(kl_weight):
    """ce_kl_loss over [B, T, d] hidden states and a head, its other arrays in the hidden states' dtype."""
    _, _, targets, weights, ref = _loss_inputs(np.random.default_rng(5))

    def build(hidden, out_proj):
        dtype = hidden.data.dtype
        return tape.ce_kl_loss(
            hidden, out_proj, targets, weights.astype(dtype), *(r.astype(dtype) for r in ref), kl_weight
        )[0]

    return build


# name -> (op over tensors, its inputs as float64 arrays); every op and fused op of the tape.
_IDX = np.random.default_rng(0).integers(0, 5, size=(2, 3))
DTYPE_CASES = {
    "add": (tape.add, [(3, 4), (4,)]),
    "sub": (tape.sub, [(3, 4), (3, 1)]),
    "mul": (tape.mul, [(3, 4), (4,)]),
    "matmul": (tape.matmul, [(2, 3, 4), (4, 5)]),
    "exp": (tape.exp, [(3, 4)]),
    "tanh": (tape.tanh, [(3, 4)]),
    "power": (lambda x: tape.power(tape.exp(x), 1.5), [(3, 4)]),
    "sumdim": (lambda x: tape.sumdim(x, axis=1), [(3, 4, 2)]),
    "sumdim_all": (tape.sumdim, [(3, 4)]),
    "logsumexp": (tape.logsumexp, [(3, 4)]),
    "gather_rows": (lambda x: tape.gather_rows(x, _IDX), [(5, 4)]),
    "take_along_last": (lambda x: tape.take_along_last(x, _IDX), [(2, 3, 5)]),
    "slice_rows": (lambda x: tape.slice_rows(x, 1, 3), [(2, 4, 3)]),
    "reshape": (lambda x: tape.reshape(x, (4, 3)), [(3, 4)]),
    "swapaxes": (lambda x: tape.swapaxes(x, 0, 1), [(3, 4)]),
    "causal_attention": (
        lambda q, k, v: tape.causal_attention(q, k, v, 0.35, 5), [(1, 2, 60, 4), (1, 2, 65, 4), (1, 2, 65, 4)]
    ),
    "log_softmax": (tape.log_softmax, [(3, 4, 13)]),
    "layer_norm": (lambda x, s, b: tape.layer_norm(x, s, b, 1e-5), [(3, 4, 6), (6,), (6,)]),
    "add_matmul": (tape.add_matmul, [(3, 4, 6), (3, 4, 5), (5, 6)]),
    "mlp": (tape.mlp, [(3, 4, 6), (3, 4, 6), (6, 24), (24, 6)]),
    "ce_loss": (_ce_kl(0.0), [(3, 5, 4), (4, 11)]),
    "ce_kl_loss": (_ce_kl(0.3), [(3, 5, 4), (4, 11)]),
}


class TestFloat32:
    """The tape computes in its inputs' float dtype; anything else becomes float64."""

    @staticmethod
    def _run(build, arrays, dtype):
        leaves = [tape.Tensor(a.astype(dtype)) for a in arrays]
        out = build(*leaves)
        weights = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
        tape.backward(tape.sumdim(tape.mul(out, tape.Tensor(weights))))
        return [out.data] + [x.grad for x in leaves]

    @pytest.mark.parametrize("name", sorted(DTYPE_CASES))
    def test_op_and_its_vjp_keep_float32(self, name):
        build, shapes = DTYPE_CASES[name]
        rng = np.random.default_rng(2)
        arrays = [rng.normal(0.0, 0.7, size=shape) for shape in shapes]
        wide, narrow = self._run(build, arrays, np.float64), self._run(build, arrays, np.float32)
        for want, got in zip(wide, narrow):
            assert want.dtype == np.float64 and got.dtype == np.float32
            # float32 rounds at 6e-8 relative; a few dozen roundings stay below 1e-5.
            assert np.max(np.abs(got - want)) <= 1e-5 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "value", [[1, 2], np.arange(3), 3, 2.5, [1.5, 2.0], np.array([1, 0], dtype=np.uint16)],
        ids=["int-list", "int-array", "int", "float", "float-list", "uint16-array"],
    )
    def test_non_float_arrays_become_float64(self, value):
        assert tape.Tensor(value).data.dtype == np.float64

    def test_float_arrays_and_scalars_keep_their_dtype(self):
        x = np.ones(3, dtype=np.float32)
        assert tape.Tensor(x).data is x
        assert tape.Tensor(np.float32(2.0)).data.dtype == np.float32
        assert tape.Tensor(tape.sumdim(tape.Tensor(x)).data).data.dtype == np.float32


def _graph_arrays(out, closures):
    """Every node's data in the graph under ``out``, plus with ``closures``
    the arrays its VJP closes over, bare or nested in lists and tuples."""
    seen, stack = {id(out)}, [out]
    while stack:
        node = stack.pop()
        yield node.data
        held = [c.cell_contents for c in node._vjp.__closure__ or ()] if closures and node._vjp else []
        while held:
            item = held.pop()
            if isinstance(item, np.ndarray):
                yield item
            elif isinstance(item, (list, tuple)):
                held.extend(item)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)


W = 12  # context window of the decode tests


def _decode_model(n_layers, seed, window=W, d_model=16):
    cfg = ModelConfig(d_model=d_model, n_heads=2, n_layers=n_layers, context_window=window,
                      init_std=0.5, seed=seed)
    return init(cfg)


def _decoded_rows(params, prompt, max_new_tokens, monkeypatch):
    """``greedy_decode``'s tokens, the last row of each token's float32 forward, and the rows re-scored in float64."""
    float32, rescored = [], []
    scored = tinylm.batched_logprobs

    def recorded(*args, **kwargs):
        out = scored(*args, **kwargs)
        (float32 if out.data.dtype == np.float32 else rescored).append(out.data[0, -1])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tinylm, "batched_logprobs", recorded)
        generated = greedy_decode(params, prompt, max_new_tokens, stop_at_eos=False)
    return generated, float32, rescored


class TestGreedyDecode:
    """The cached decode over ``const`` leaves against one full forward per token."""

    @pytest.mark.parametrize("stop_at_eos", [True, False])
    @pytest.mark.parametrize("prompt_len", [1, W - 1, W, W + 1, 3 * W])
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_tokens_equal_reference(self, n_layers, prompt_len, stop_at_eos):
        params = _decode_model(n_layers, seed=prompt_len)
        rng = np.random.default_rng(prompt_len)
        prompt = [BOS_ID] + [int(i) for i in rng.integers(0, 256, prompt_len - 1)]
        # A random model seldom emits EOS; swap the head columns of a token
        # it emits by step W with EOS's, so the decode meets EOS and, when
        # not stopping, feeds it back in.
        emitted = oracles.greedy_decode_reference(params, prompt, W + 1, stop_at_eos=False)[W]
        out_proj = params.view("out_proj")
        out_proj[:, [emitted, EOS_ID]] = out_proj[:, [EOS_ID, emitted]]
        want = oracles.greedy_decode_reference(params, prompt, 2 * W, stop_at_eos)
        assert EOS_ID in want
        assert (want[-1] == EOS_ID and len(want) <= W + 1) if stop_at_eos else len(want) == 2 * W
        assert greedy_decode(params, prompt, 2 * W, stop_at_eos) == want

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_logits_match_batched_logprobs(self, n_layers):
        params = _decode_model(n_layers, seed=7)
        cfg = params.config
        kv, leaves = tinylm.kv_cache(cfg), tinylm.build_leaves(params)

        def cached_last_row(window, start):
            got = tinylm.batched_logprobs(leaves, cfg, np.asarray([window[start:]]), kv, start).data[0, -1]
            want = tinylm.batched_logprobs(leaves, cfg, np.asarray([window])).data[0, -1]
            assert np.max(np.abs(got - want)) <= 1e-12
            return got

        ids = [BOS_ID] + TOK.encode("prefill")
        cached = 0
        while len(ids) <= W:  # the prefill, then one cached step per token
            logprobs = cached_last_row(ids, cached)
            cached = len(ids)
            ids.append(int(np.argmax(logprobs)))
        for _ in range(3):  # sliding windows, recomputed
            ids.append(int(np.argmax(cached_last_row(ids[-W:], 0))))

    def test_cached_block_past_the_window_overflows(self):
        params = _decode_model(1, seed=0)
        cfg, ids = params.config, np.full((1, W), BOS_ID)
        leaves, kv = tinylm.build_leaves(params, const=True), tinylm.kv_cache(cfg)
        tinylm.batched_logprobs(leaves, cfg, ids[:, :-1], kv, 0)
        tinylm.batched_logprobs(leaves, cfg, ids[:, -1:], kv, W - 1)  # the last position fits
        with pytest.raises(ValueError):
            tinylm.batched_logprobs(leaves, cfg, ids[:, -2:], kv, W - 1)

    def test_forward_over_const_leaves_records_no_graph(self):
        params = _decode_model(2, seed=0)
        ids = np.asarray([[BOS_ID] + TOK.encode("no graph")])
        out = tinylm.batched_logprobs(tinylm.build_leaves(params, const=True), params.config, ids)
        assert out._parents == () and out._vjp is None and out.const
        want = tinylm.batched_logprobs(tinylm.build_leaves(params), params.config, ids)
        assert want._parents != () and np.array_equal(out.data, want.data)

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.integers(2, 10),
        prompt_len=st.integers(1, 25),
        max_new_tokens=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    )
    def test_property_equals_reference(self, window, prompt_len, max_new_tokens, seed):
        params = _decode_model(2, seed, window=window, d_model=8)
        prompt = [int(i) for i in np.random.default_rng(seed).integers(0, 259, prompt_len)]
        want = oracles.greedy_decode_reference(params, prompt, max_new_tokens)
        assert greedy_decode(params, prompt, max_new_tokens) == want

    def test_a_close_pick_is_rescored_in_float64(self, monkeypatch):
        # Token e + 1's head column becomes e's times 1 + 1e-12: float32
        # rounds the two columns to one, so their log-probabilities tie
        # (margin 0) and a float32 argmax would pick e, where float64 picks
        # e + 1 whenever e's logit is positive.
        params = _decode_model(2, seed=3)
        prompt = [BOS_ID] + TOK.encode("re-scored")
        e = next(t for t in oracles.greedy_decode_reference(params, prompt, 2 * W) if t < 250)
        out_proj = params.view("out_proj")
        out_proj[:, e + 1] = out_proj[:, e] * (1 + 1e-12)
        want = oracles.greedy_decode_reference(params, prompt, 2 * W)
        assert e + 1 in want
        generated, _, rescored = _decoded_rows(params, prompt, 2 * W, monkeypatch)
        assert generated == want
        assert 0 < len(rescored) < len(want)

    @pytest.mark.parametrize("kind", ["decode-tests", "benchmark", "minibook"])
    def test_float32_errs_by_a_hundredth_of_the_margin(self, kind, minibook_nodes, tmp_path, monkeypatch):
        # Each decoded token's float32 log-probabilities against forward's,
        # on the decode tests' models (init_std 0.5), the benchmark's shape
        # and a checkpoint trained on the minibook, in and past the window.
        rng = np.random.default_rng(0)
        if kind == "decode-tests":
            models = [_decode_model(n_layers, seed) for n_layers in (1, 2, 3) for seed in range(3)]
            models += [_decode_model(2, seed, window=6, d_model=8) for seed in range(3)]
            cases = [(params, [BOS_ID, 65], 2 * params.config.context_window) for params in models]
        elif kind == "benchmark":
            cfg = ModelConfig(d_model=32, n_heads=2, n_layers=2, context_window=256, init_std=0.2, seed=1)
            cases = [(init(cfg), [BOS_ID] + [int(i) for i in rng.integers(0, 256, 249)], 12)]
        else:
            cfg = ModelConfig(context_window=128, init_std=0.2, seed=0)
            packs = pack_cpt_texts([node.text for node in minibook_nodes], cfg.context_window)
            trained = trainer.train(trainer.TrainConfig(mode="cpt", total_steps=10, lr_max=1e-2), packs, init(cfg))
            save_checkpoint(tmp_path / "model.ckpt", trained.final_params)
            params = load_checkpoint(tmp_path / "model.ckpt")
            text = [BOS_ID] + TOK.encode(minibook_nodes[0].text)
            cases = [(params, text[:120], 16), (params, text[:300], 8)]
        for params, prompt, max_new_tokens in cases:
            generated, float32, _ = _decoded_rows(params, prompt, max_new_tokens, monkeypatch)
            ids = prompt + generated
            for j, row in enumerate(float32):
                assert row.dtype == np.float32
                want = forward(params, ids[: len(prompt) + j][-params.config.context_window :])[-1]
                assert np.max(np.abs(row - want)) <= tinylm.DECODE_MARGIN * -row.min() / 100

    def test_empty_prompt_raises_value_error(self):
        with pytest.raises(ValueError, match="no token ids"):
            greedy_decode(_decode_model(1, seed=0), [], 3)

    @pytest.mark.parametrize("bad_id", [-1, 259])
    def test_out_of_range_id_raises_value_error(self, bad_id):
        with pytest.raises(ValueError, match="token id out of range"):
            greedy_decode(_decode_model(1, seed=0), [BOS_ID, bad_id, 65], 3)


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
        cur = forward(params, ids)
        ref = forward(frozen, ids)
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

    @pytest.mark.parametrize(
        "header,problem",
        [
            ([1], "header must be a JSON object"),
            ({"format_version": 1, "model_config": {"d_model": 16, "width": 3}}, "width"),
            ({"format_version": 1, "model_config": {"d_model": 8, "n_heads": 3}}, "d_model must be divisible by n_heads"),
            ({"format_version": 1, "model_config": {"d_model": "8"}}, 'd_model: expected int, got "8"'),
        ],
        ids=["non-object-header", "unknown-model-config-key", "heads-do-not-divide", "string-d_model"],
    )
    def test_malformed_header_is_a_value_error(self, tmp_path, header, problem):
        path = tmp_path / "model.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        with pytest.raises(ValueError, match=problem) as raised:
            load_checkpoint(path)
        assert str(raised.value).startswith(f"{path}: ")

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
