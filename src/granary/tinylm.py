"""A tiny byte-level decoder-only language model with exact gradients.

The model exists to make the training objectives checkable on a desk: a
few pre-norm transformer blocks over a 259-symbol byte vocabulary, all
math in float64, gradients from the reverse-mode tape and verified
against central differences. Parameters live in one flat vector with
named views so a frozen reference copy is a plain immutable snapshot.

Training and greedy decoding run the same forward, ``batched_logprobs``,
whose attention is one blocked tape op, ``tape.causal_attention``.
Decoding passes ``const`` leaves, so no graph is recorded, and a key/value
cache. While the sequence fits the context window, each layer's keys and
values are cached and a step runs only the new token's row. Once the
window slides, every id moves to an earlier position; positions are
learned embeddings added at the input, so no cached key or value stays
valid and the window is recomputed. Either way, the last layer and the
head run only the final row, whose log-probability argmax is the next
token.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tape
from .errors import ContextOverflow
from .tape import Tensor

VOCAB_SIZE = 259
BOS_ID = 256
EOS_ID = 257
PAD_ID = 258

_LN_EPS = 1e-5


class ByteTokenizer:
    """UTF-8 bytes plus BOS/EOS/PAD specials."""

    vocab_size = VOCAB_SIZE
    bos_id = BOS_ID
    eos_id = EOS_ID
    pad_id = PAD_ID

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids, errors: str = "strict") -> str:
        data = bytes(i for i in ids if i < 256)
        return data.decode("utf-8", errors=errors)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    context_window: int = 64
    vocab_size: int = VOCAB_SIZE
    init_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.context_window < 2:
            raise ValueError("context_window must be >= 2")


def parameter_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Named views composing the flat parameter vector, in storage order."""
    d, v, w = cfg.d_model, cfg.vocab_size, cfg.context_window
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (v, d)),
        ("pos_emb", (w, d)),
    ]
    for i in range(cfg.n_layers):
        specs += [
            (f"layer{i}.attn_q", (d, d)),
            (f"layer{i}.attn_k", (d, d)),
            (f"layer{i}.attn_v", (d, d)),
            (f"layer{i}.attn_o", (d, d)),
            (f"layer{i}.mlp_in", (d, 4 * d)),
            (f"layer{i}.mlp_out", (4 * d, d)),
            (f"layer{i}.norm1_scale", (d,)),
            (f"layer{i}.norm1_bias", (d,)),
            (f"layer{i}.norm2_scale", (d,)),
            (f"layer{i}.norm2_bias", (d,)),
        ]
    specs.append(("out_proj", (d, v)))
    return specs


def parameter_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_layout(cfg))


class Parameters:
    """Flat float64 parameter vector with named reshaped views."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        expected = parameter_count(config)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (expected,):
            raise ValueError(f"expected flat vector of length {expected}, got {flat.shape}")
        self.config = config
        self.flat = flat
        # name -> (offset, size, shape) of each view, in storage order.
        self.offsets: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in parameter_layout(config):
            size = int(np.prod(shape))
            self.offsets[name] = (offset, size, shape)
            offset += size

    def view(self, name: str) -> np.ndarray:
        offset, size, shape = self.offsets[name]
        return self.flat[offset : offset + size].reshape(shape)

    def views(self) -> dict[str, np.ndarray]:
        return {name: self.view(name) for name in self.offsets}

    def names(self) -> list[str]:
        return list(self.offsets)

    @property
    def count(self) -> int:
        return self.flat.size

    def copy(self) -> "Parameters":
        return Parameters(self.config, self.flat.copy())

    def fingerprint(self) -> str:
        return hashlib.sha256(self.flat.astype("<f8").tobytes()).hexdigest()


def init(cfg: ModelConfig) -> Parameters:
    """Seeded gaussian init; norm scales start at 1 and norm biases at 0."""
    rng = np.random.default_rng(cfg.seed)
    flat = rng.normal(0.0, cfg.init_std, parameter_count(cfg))
    params = Parameters(cfg, flat)
    for name in params.names():
        if name.endswith("_scale"):
            params.view(name)[:] = 1.0
        elif name.endswith("_bias"):
            params.view(name)[:] = 0.0
    return params


def freeze_reference(params: Parameters) -> Parameters:
    """Value-equal deep copy with no mutable access (read-only buffer)."""
    frozen = params.copy()
    frozen.flat.setflags(write=False)
    return frozen


@dataclass(frozen=True)
class ForwardOutput:
    """Per-position next-token log-distributions, shape [T, vocab]."""

    logprobs: np.ndarray


def build_leaves(params: Parameters, const: bool = False) -> dict[str, Tensor]:
    """Wrap every named parameter view as a graph leaf (``const``: no gradient, no graph)."""
    return {name: Tensor(view, const=const) for name, view in params.views().items()}


def _check_ids(ids: np.ndarray, cfg: ModelConfig) -> None:
    if ids.size == 0:
        raise ValueError("no token ids to score")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")


def batched_logprobs(
    leaves: dict[str, Tensor], cfg: ModelConfig, ids: np.ndarray, kv: np.ndarray | None = None, start: int = 0
) -> Tensor:
    """Forward a [B, T] id matrix to [B, T, vocab] log-probabilities.

    Rows are independent sequences: positions restart at zero per row and
    attention is causal within a row, so right-padding one row never
    leaks into another row or into earlier positions.

    With ``kv`` (from ``kv_cache``) the one row of ``ids`` holds the window
    positions ``start..``: ``kv`` holds each layer's keys and values for
    the positions before ``start``, and the row's own are written after
    them. The last layer and the head then run the final position only,
    so the result is [1, 1, vocab].
    """
    ids = np.asarray(ids)
    b, t = ids.shape
    end = start + t
    if end > cfg.context_window:
        raise ContextOverflow(f"sequence length {end} exceeds context window {cfg.context_window}")
    _check_ids(ids, cfg)

    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)

    x = tape.gather_rows(leaves["tok_emb"], ids) + tape.slice_rows(leaves["pos_emb"], start, end)
    for i in range(cfg.n_layers):
        h = tape.layer_norm(
            x, leaves[f"layer{i}.norm1_scale"], leaves[f"layer{i}.norm1_bias"], _LN_EPS
        )
        q = _split_heads(h @ leaves[f"layer{i}.attn_q"], b, t, heads, head_dim)
        k = _split_heads(h @ leaves[f"layer{i}.attn_k"], b, t, heads, head_dim)
        v = _split_heads(h @ leaves[f"layer{i}.attn_v"], b, t, heads, head_dim)
        if kv is not None:
            kv[i, 0, :, start:end] = k.data
            kv[i, 1, :, start:end] = v.data
            k = Tensor(kv[i, 0, :, :end], const=True)
            v = Tensor(kv[i, 1, :, :end], const=True)
            if i == cfg.n_layers - 1:
                x, q = tape.slice_rows(x, t - 1, t), tape.slice_rows(q, t - 1, t)
        rows = x.shape[1]
        attended = tape.causal_attention(q, k, v, scale, offset=end - rows)
        context = tape.reshape(tape.swapaxes(attended, 1, 2), (b, rows, cfg.d_model))
        x = x + context @ leaves[f"layer{i}.attn_o"]

        h2 = tape.layer_norm(
            x, leaves[f"layer{i}.norm2_scale"], leaves[f"layer{i}.norm2_bias"], _LN_EPS
        )
        x = x + tape.gelu(h2 @ leaves[f"layer{i}.mlp_in"]) @ leaves[f"layer{i}.mlp_out"]

    return tape.log_softmax(x @ leaves["out_proj"])


def _split_heads(x: Tensor, b: int, t: int, heads: int, head_dim: int) -> Tensor:
    return tape.swapaxes(tape.reshape(x, (b, t, heads, head_dim)), 1, 2)


def forward(params: Parameters, ids) -> ForwardOutput:
    """Next-token log-distributions for one sequence (len <= context)."""
    ids = np.asarray(list(ids), dtype=np.int64)
    node = batched_logprobs(build_leaves(params), params.config, ids[None, :])
    return ForwardOutput(logprobs=node.data[0].copy())


def collect_flat_grad(params: Parameters, leaves: dict[str, Tensor]) -> np.ndarray:
    """Assemble per-view leaf gradients into one flat vector (zeros where unused)."""
    flat = np.zeros(params.count)
    for name, (offset, size, _) in params.offsets.items():
        leaf = leaves[name]
        if leaf.grad is not None:
            flat[offset : offset + size] = leaf.grad.reshape(-1)
    return flat


def gradient_check(
    params: Parameters,
    value_fn: Callable[[Parameters], float],
    analytic: np.ndarray,
    n_coords: int = 200,
    h: float = 1e-4,
    seed: int | Sequence[int] = 0,
) -> tuple[float, list[tuple[int, float, float]]]:
    """Central-difference spot check of an analytic gradient.

    Samples ``n_coords`` coordinates, perturbs copies of ``params`` by
    +/- h, and reports the max relative error plus per-coordinate
    (index, finite-difference, analytic) triples. The denominator floors
    at 1e-6 so near-zero gradients compare on an absolute scale.
    """
    rng = np.random.default_rng(seed)
    coords = rng.choice(params.count, size=min(n_coords, params.count), replace=False)
    worst = 0.0
    details = []
    for idx in coords:
        idx = int(idx)
        plus = params.copy()
        plus.flat[idx] += h
        minus = params.copy()
        minus.flat[idx] -= h
        fd = (value_fn(plus) - value_fn(minus)) / (2.0 * h)
        rel = abs(analytic[idx] - fd) / max(abs(fd), abs(analytic[idx]), 1e-6)
        worst = max(worst, float(rel))
        details.append((idx, float(fd), float(analytic[idx])))
    return worst, details


CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, params: Parameters) -> None:
    """One JSON header line, then the raw little-endian float64 payload."""
    header = {"format_version": CHECKPOINT_VERSION, "model_config": asdict(params.config)}
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> Parameters:
    with Path(path).open("rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header must be a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
        try:
            cfg = ModelConfig(**header["model_config"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: bad checkpoint model_config: {exc}") from None
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    return Parameters(cfg, flat)


def kv_cache(cfg: ModelConfig) -> np.ndarray:
    """Room for every layer's keys and values over one window: [layers, 2, heads, w, head_dim]."""
    head_dim = cfg.d_model // cfg.n_heads
    return np.empty((cfg.n_layers, 2, cfg.n_heads, cfg.context_window, head_dim))


def greedy_decode(
    params: Parameters,
    prompt_ids: list[int],
    max_new_tokens: int,
    stop_at_eos: bool = True,
) -> list[int]:
    """Deterministic argmax decoding with a sliding context window.

    Prompts longer than the context are left-truncated; returns only the
    newly generated ids (EOS included when it stops the decode). Each
    step's token is the argmax of ``forward`` over the last ``w`` ids,
    computed by ``batched_logprobs`` over ``const`` leaves with a key/value
    cache. An empty prompt or an id outside the vocabulary, even one the
    window drops, raises ValueError.
    """
    cfg = params.config
    w = cfg.context_window
    ids = list(prompt_ids)
    _check_ids(np.asarray(ids, dtype=np.int64), cfg)
    leaves = build_leaves(params, const=True)
    kv = kv_cache(cfg)
    cached = 0  # window positions whose keys and values are in kv
    generated: list[int] = []
    for _ in range(max_new_tokens):
        if len(ids) <= w:
            out = batched_logprobs(leaves, cfg, np.asarray([ids[cached:]]), kv, cached)
            cached = len(ids)
        else:
            # The window slides: each id moves to the previous position,
            # so every cached key and value is stale. Recompute the window.
            out = batched_logprobs(leaves, cfg, np.asarray([ids[-w:]]), kv, 0)
        next_id = int(np.argmax(out.data[0, -1]))
        ids.append(next_id)
        generated.append(next_id)
        if stop_at_eos and next_id == EOS_ID:
            break
    return generated
