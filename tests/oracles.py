"""Primitive-op compositions of the fused tape ops, kept as test oracles.

Each function builds the same value as its fused counterpart in
``granary.tape`` out of separate tape primitives, one graph node per
step, the way the model and the training loss were written before the
fused ops existed. ``batched_logprobs`` is the whole model forward built
that way. Tests compare the fused forwards against these to 1e-12.
"""

import math

import numpy as np

from granary import tape
from granary.tape import Tensor

_NEG_INF = -1e30
_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5


def causal_softmax(x: Tensor, scale: float) -> Tensor:
    t = x.data.shape[-1]
    scores = x * scale + np.triu(np.full((t, t), _NEG_INF), k=1)
    return tape.exp(scores - tape.logsumexp(scores, axis=-1))


def log_softmax(x: Tensor) -> Tensor:
    return x - tape.logsumexp(x, axis=-1)


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float) -> Tensor:
    d = x.data.shape[-1]
    mu = tape.sumdim(x, axis=-1, keepdims=True) * (1.0 / d)
    centered = x - mu
    var = tape.sumdim(centered * centered, axis=-1, keepdims=True) * (1.0 / d)
    inv = tape.power(var + eps, -0.5)
    return centered * inv * scale + bias


def gelu(x: Tensor) -> Tensor:
    inner = tape.tanh((x + 0.044715 * (x * x * x)) * _GELU_C)
    return 0.5 * (x * (1.0 + inner))


def ce_kl_loss(logprobs, targets, weights, ref_logprobs, kl_weight):
    """(total, ce, kl) as tensors; kl is None when the KL is off."""
    weights = Tensor(weights)
    picked = tape.take_along_last(logprobs, targets)
    ce = -tape.sumdim(picked * weights)
    if ref_logprobs is None or kl_weight == 0:
        return ce, ce, None
    diff = logprobs - Tensor(ref_logprobs)
    per_position = tape.sumdim(tape.exp(logprobs) * diff, axis=-1)
    kl = tape.sumdim(per_position * weights)
    return ce + kl * kl_weight, ce, kl


def batched_logprobs(leaves: dict[str, Tensor], cfg, ids: np.ndarray) -> Tensor:
    """The model forward of ``tinylm.batched_logprobs`` from primitive ops."""
    ids = np.asarray(ids)
    b, t = ids.shape
    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x: Tensor) -> Tensor:
        return tape.swapaxes(tape.reshape(x, (b, t, heads, head_dim)), 1, 2)

    x = tape.gather_rows(leaves["tok_emb"], ids) + tape.slice_rows(leaves["pos_emb"], t)
    for i in range(cfg.n_layers):
        h = layer_norm(x, leaves[f"layer{i}.norm1_scale"], leaves[f"layer{i}.norm1_bias"], _LN_EPS)
        q = split(h @ leaves[f"layer{i}.attn_q"])
        k = split(h @ leaves[f"layer{i}.attn_k"])
        v = split(h @ leaves[f"layer{i}.attn_v"])
        attn = causal_softmax(q @ tape.swapaxes(k, -1, -2), scale)
        context = tape.reshape(tape.swapaxes(attn @ v, 1, 2), (b, t, cfg.d_model))
        x = x + context @ leaves[f"layer{i}.attn_o"]
        h2 = layer_norm(x, leaves[f"layer{i}.norm2_scale"], leaves[f"layer{i}.norm2_bias"], _LN_EPS)
        x = x + gelu(h2 @ leaves[f"layer{i}.mlp_in"]) @ leaves[f"layer{i}.mlp_out"]
    return log_softmax(x @ leaves["out_proj"])
