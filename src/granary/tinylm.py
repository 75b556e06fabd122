"""A tiny byte-level decoder-only language model with exact gradients.

The model exists to make the training objectives checkable on a desk: a
few pre-norm transformer blocks over a 259-symbol byte vocabulary, all
math in float64, gradients from the reverse-mode tape and verified
against central differences. Parameters live in one flat vector with
named views so a frozen reference copy is a plain immutable snapshot.
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
from .errors import ContextOverflow, NonFiniteLoss
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
        self._offsets: dict[str, tuple[int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in parameter_layout(config):
            self._offsets[name] = (offset, shape)
            offset += int(np.prod(shape))

    def view(self, name: str) -> np.ndarray:
        offset, shape = self._offsets[name]
        return self.flat[offset : offset + int(np.prod(shape))].reshape(shape)

    def names(self) -> list[str]:
        return list(self._offsets)

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


def build_leaves(params: Parameters) -> dict[str, Tensor]:
    """Wrap every named parameter view as a graph leaf."""
    return {name: Tensor(params.view(name)) for name in params.names()}


def batched_logprobs(leaves: dict[str, Tensor], cfg: ModelConfig, ids: np.ndarray) -> Tensor:
    """Forward a [B, T] id matrix to [B, T, vocab] log-probabilities.

    Rows are independent sequences: positions restart at zero per row and
    attention is causal within a row, so right-padding one row never
    leaks into another row or into earlier positions.
    """
    ids = np.asarray(ids)
    b, t = ids.shape
    if t > cfg.context_window:
        raise ContextOverflow(f"sequence length {t} exceeds context window {cfg.context_window}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)

    x = tape.gather_rows(leaves["tok_emb"], ids) + tape.slice_rows(leaves["pos_emb"], t)
    for i in range(cfg.n_layers):
        h = tape.layer_norm(
            x, leaves[f"layer{i}.norm1_scale"], leaves[f"layer{i}.norm1_bias"], _LN_EPS
        )
        q = _split_heads(h @ leaves[f"layer{i}.attn_q"], b, t, heads, head_dim)
        k = _split_heads(h @ leaves[f"layer{i}.attn_k"], b, t, heads, head_dim)
        v = _split_heads(h @ leaves[f"layer{i}.attn_v"], b, t, heads, head_dim)
        attn = tape.causal_softmax(q @ tape.swapaxes(k, -1, -2), scale)
        context = tape.reshape(tape.swapaxes(attn @ v, 1, 2), (b, t, cfg.d_model))
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


def value_and_grad(
    params: Parameters, loss_closure: Callable[[Callable], Tensor]
) -> tuple[float, np.ndarray]:
    """Evaluate a scalar loss closure and its exact gradient.

    ``loss_closure`` receives a forward function mapping a token sequence
    to a [T, vocab] log-probability tensor and must return a scalar
    tensor built from tape ops. Raises NonFiniteLoss if the value is NaN
    or infinite.
    """
    leaves = build_leaves(params)

    def fwd(ids) -> Tensor:
        ids = np.asarray(list(ids), dtype=np.int64)
        node = batched_logprobs(leaves, params.config, ids[None, :])
        return tape.reshape(node, node.data.shape[1:])

    loss = loss_closure(fwd)
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteLoss(f"loss evaluated to {value}")
    tape.backward(loss)
    return value, collect_flat_grad(params, leaves)


def grad(params: Parameters, loss_closure: Callable[[Callable], Tensor]) -> np.ndarray:
    return value_and_grad(params, loss_closure)[1]


def collect_flat_grad(params: Parameters, leaves: dict[str, Tensor]) -> np.ndarray:
    """Assemble per-view leaf gradients into one flat vector (zeros where unused)."""
    flat = np.zeros(params.count)
    offset = 0
    for name, shape in parameter_layout(params.config):
        size = int(np.prod(shape))
        leaf = leaves[name]
        if leaf.grad is not None:
            flat[offset : offset + size] = leaf.grad.reshape(-1)
        offset += size
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
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
        cfg = ModelConfig(**header["model_config"])
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    return Parameters(cfg, flat)


def greedy_decode(
    params: Parameters,
    prompt_ids: list[int],
    max_new_tokens: int,
    stop_at_eos: bool = True,
) -> list[int]:
    """Deterministic argmax decoding with a sliding context window.

    Prompts longer than the context are left-truncated; returns only the
    newly generated ids (EOS included when it stops the decode).
    """
    w = params.config.context_window
    ids = list(prompt_ids)
    generated: list[int] = []
    for _ in range(max_new_tokens):
        window = ids[-w:]
        out = forward(params, window)
        next_id = int(np.argmax(out.logprobs[-1]))
        ids.append(next_id)
        generated.append(next_id)
        if stop_at_eos and next_id == EOS_ID:
            break
    return generated
