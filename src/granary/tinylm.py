"""A tiny byte-level decoder-only language model with exact gradients.

The model exists to make the training objectives checkable on a desk: a
few pre-norm transformer blocks over a 259-symbol byte vocabulary,
trained in float64 with gradients from the reverse-mode tape, verified
against central differences, and decoded greedily in float32 with each
close pick re-scored in float64. Parameters live in one flat vector with
named views so a frozen reference copy is a plain immutable snapshot.

Training and greedy decoding run the same trunk, ``hidden``, which
returns the final residual stream; its attention is one blocked tape op,
``tape.causal_attention``, and each MLP one ``tape.mlp``. Training hands
the hidden states and the head to ``tape.ce_kl_loss``, which forms and
normalises the logits itself; decoding runs ``batched_logprobs``, the
log-softmax of the head over the hidden states. The ``span`` names the
columns to score, and the last layer's queries, residual stream and MLP
run only those: training scores the columns that carry loss weight,
decoding the final column, whose log-probability argmax is the next
token.
Decoding passes ``const`` leaves, so no graph is recorded. While the
sequence fits the context window, each layer's keys and values are
cached and a step runs only the new token's row. Once the window slides,
every id moves to an earlier position; positions are learned embeddings
added at the input, so no cached key or value stays valid and each step
recomputes the window with no cache. Training and decoding both set
glibc's allocator to keep freed memory (``keep_freed_memory``).
Parameters and checkpoints stay float64 (``<f8`` on disk); only the
decode casts them, once per call, to float32 leaves.
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
from .config import ModelSettings
from .jsonl import atomic_write, from_json, parse_json
from .tape import Tensor

VOCAB_SIZE = 259
BOS_ID = 256
EOS_ID = 257
PAD_ID = 258

_LN_EPS = 1e-5


class ByteTokenizer:
    """UTF-8 bytes plus BOS/EOS/PAD specials."""

    vocab_size = VOCAB_SIZE

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids, errors: str = "strict") -> str:
        data = bytes(i for i in ids if i < 256)
        return data.decode("utf-8", errors=errors)


@dataclass(frozen=True)
class ModelConfig(ModelSettings):
    """The config section's model shape, plus the vocabulary and the init seed."""

    vocab_size: int = VOCAB_SIZE
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def build_leaves(params: Parameters, const: bool = False) -> dict[str, Tensor]:
    """Wrap every named parameter view as a graph leaf (``const``: no gradient, no graph)."""
    return {name: Tensor(view, const=const) for name, view in params.views().items()}


def _check_ids(ids: np.ndarray, cfg: ModelConfig) -> None:
    if ids.size == 0:
        raise ValueError("no token ids to score")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")


def hidden(
    leaves: dict[str, Tensor],
    cfg: ModelConfig,
    ids: np.ndarray,
    kv: np.ndarray | None = None,
    start: int = 0,
    span: tuple[int, int] | None = None,
) -> Tensor:
    """Forward a [B, T] id matrix to the [B, hi - lo, d] final residual stream, before the head.

    Rows are independent sequences: positions restart at zero per row and
    attention is causal within a row, so right-padding one row never
    leaks into another row or into earlier positions.

    ``span = (lo, hi)`` selects the columns to score, all T by default.
    Every layer but the last runs all columns, whose keys and values the
    span's queries attend to; the last layer's query projection, residual
    stream and MLP run columns ``lo..hi-1`` only.

    With ``kv`` (from ``kv_cache``) the one row of ``ids`` holds the window
    positions ``start..``: ``kv`` holds each layer's keys and values for
    the positions before ``start``, and the row's own are written after
    them. Greedy decode scores the final column alone, ``span=(t-1, t)``.
    """
    ids = np.asarray(ids)
    b, t = ids.shape
    end = start + t
    if end > cfg.context_window:
        raise ValueError(f"sequence length {end} exceeds context window {cfg.context_window}")
    _check_ids(ids, cfg)
    lo, hi = (0, t) if span is None else span
    if not 0 <= lo <= hi <= t:
        raise ValueError(f"span {span} outside the {t} columns")

    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)

    x = tape.gather_rows(leaves["tok_emb"], ids) + tape.slice_rows(leaves["pos_emb"], start, end)
    first = 0  # the column of x's first row
    for i in range(cfg.n_layers):
        h = tape.layer_norm(
            x, leaves[f"layer{i}.norm1_scale"], leaves[f"layer{i}.norm1_bias"], _LN_EPS
        )
        k = _split_heads(h @ leaves[f"layer{i}.attn_k"], b, t, heads, head_dim)
        v = _split_heads(h @ leaves[f"layer{i}.attn_v"], b, t, heads, head_dim)
        if kv is not None:
            kv[i, 0, :, start:end] = k.data
            kv[i, 1, :, start:end] = v.data
            k = Tensor(kv[i, 0, :, :end], const=True)
            v = Tensor(kv[i, 1, :, :end], const=True)
        if i == cfg.n_layers - 1 and (lo, hi) != (0, t):
            # Query row r attends keys up to start + lo + r only, so the
            # keys past start + hi are never read.
            x, h, first = tape.slice_rows(x, lo, hi), tape.slice_rows(h, lo, hi), lo
        rows = x.shape[1]
        q = _split_heads(h @ leaves[f"layer{i}.attn_q"], b, rows, heads, head_dim)
        attended = tape.causal_attention(q, k, v, scale, offset=start + first)
        # attended is laid out [b, rows, heads, head_dim] in memory, so this merge is a view.
        context = tape.reshape(tape.swapaxes(attended, 1, 2), (b, rows, cfg.d_model))
        x = x + context @ leaves[f"layer{i}.attn_o"]

        h2 = tape.layer_norm(
            x, leaves[f"layer{i}.norm2_scale"], leaves[f"layer{i}.norm2_bias"], _LN_EPS
        )
        x = x + tape.mlp(h2, leaves[f"layer{i}.mlp_in"], leaves[f"layer{i}.mlp_out"])
    return x


def batched_logprobs(
    leaves: dict[str, Tensor],
    cfg: ModelConfig,
    ids: np.ndarray,
    kv: np.ndarray | None = None,
    start: int = 0,
    span: tuple[int, int] | None = None,
) -> Tensor:
    """The log-softmax of the head over ``hidden``: [B, hi - lo, vocab] log-probabilities."""
    return tape.log_softmax(hidden(leaves, cfg, ids, kv, start, span) @ leaves["out_proj"])


def _split_heads(x: Tensor, b: int, t: int, heads: int, head_dim: int) -> Tensor:
    return tape.swapaxes(tape.reshape(x, (b, t, heads, head_dim)), 1, 2)


def forward(params: Parameters, ids) -> np.ndarray:
    """Next-token log-distributions [T, vocab] for one sequence (len <= context), with no graph."""
    ids = np.asarray(list(ids), dtype=np.int64)
    return batched_logprobs(build_leaves(params, const=True), params.config, ids[None, :]).data[0]


def collect_flat_grad(params: Parameters, shard_leaves: Sequence[dict[str, Tensor]]) -> np.ndarray:
    """Each shard's leaf gradients added, in shard order, into one flat vector (zeros where unused)."""
    flat = np.zeros(params.count)
    for leaves in shard_leaves:
        for name, (offset, size, _) in params.offsets.items():
            grad = leaves[name].grad
            if grad is not None:
                flat[offset : offset + size] += grad.reshape(-1)
    return flat


def gradient_check(
    params: Parameters,
    value_fn: Callable[[Parameters], float],
    analytic: np.ndarray,
    n_coords: int = 200,
    seed: int | Sequence[int] = 0,
) -> tuple[float, list[tuple[int, float, float]]]:
    """Central-difference spot check of an analytic gradient.

    Samples ``n_coords`` coordinates, perturbs copies of ``params`` by
    +/- 1e-4, and reports the max relative error plus per-coordinate
    (index, finite-difference, analytic) triples. The denominator floors
    at 1e-6 so near-zero gradients compare on an absolute scale.
    """
    h = 1e-4
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
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> Parameters:
    """The parameters ``save_checkpoint`` wrote; each ValueError names the file."""
    with Path(path).open("rb") as fh:
        header = parse_json(fh.readline(), f"{path}: checkpoint header is not valid JSON")
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header must be a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
        try:  # a ValueError from the field checks, or from ModelConfig's own
            cfg = from_json(ModelConfig, header.get("model_config"), "model_config")
        except ValueError as exc:
            raise ValueError(f"{path}: checkpoint {exc}") from None
        payload = fh.read()
    try:  # a partial float64, or the wrong count for the model config
        return Parameters(cfg, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint payload: {exc}") from None


def keep_freed_memory() -> None:
    """Make glibc keep freed memory in its heap, for the life of the process.

    A train step frees its shards' graphs, and a decoded token its
    forward's arrays. By default glibc hands freed blocks at the heap top,
    and every block above its mmap threshold, back to the OS, so the next
    step or token faults the same pages in again. With a 32 MiB mmap
    threshold (the demo step's largest array is ~1.3 MB), a 1 GiB trim
    threshold and one arena for every thread, the pages stay mapped and
    peak RSS is one heap's peak. The setting is process-wide; where glibc's
    ``mallopt`` cannot be found (musl, macOS) this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_arena_max, 1)


def kv_cache(cfg: ModelConfig, dtype=np.float64) -> np.ndarray:
    """Room for every layer's keys and values over one window: [layers, 2, heads, w, head_dim]."""
    head_dim = cfg.d_model // cfg.n_heads
    return np.empty((cfg.n_layers, 2, cfg.n_heads, cfg.context_window, head_dim), dtype)


# A float32 pick is re-scored in float64 when its top two log-probabilities
# differ by no more than DECODE_MARGIN times the row's range, minus its least
# log-probability, which is at least log 2. Float32's error grows with the
# logits' size; as a share of that range it measured at most 5.8e-7 on the
# benchmark's models and 2.8e-6 on the decode tests' (init_std 0.5), and the
# tests hold it below DECODE_MARGIN / 100.
DECODE_MARGIN = 5e-4


def greedy_decode(
    params: Parameters,
    prompt_ids: list[int],
    max_new_tokens: int,
    stop_at_eos: bool = True,
) -> list[int]:
    """Deterministic argmax decoding with a sliding context window.

    Prompts longer than the context are left-truncated; returns only the
    newly generated ids (EOS included when it stops the decode). Each
    step's token is the argmax of ``forward`` over the last ``w`` ids.
    It is computed in float32, by ``batched_logprobs`` over float32
    ``const`` leaves and, until the window slides, a float32 key/value
    cache. When the top two log-probabilities differ by no more than
    ``DECODE_MARGIN`` times the row's range, the window's last column is
    re-scored in float64, over float64 leaves with no cache.
    Each pick is thus ``forward``'s argmax while float32 errs by less
    than half that margin. An empty prompt or an id outside the
    vocabulary, even one the window drops, raises ValueError. It first
    sets glibc's allocator to keep freed memory (``keep_freed_memory``),
    so tokens reuse their pages.
    """
    keep_freed_memory()
    cfg = params.config
    w = cfg.context_window
    ids = list(prompt_ids)
    _check_ids(np.asarray(ids, dtype=np.int64), cfg)
    leaves = {name: Tensor(view.astype(np.float32), const=True) for name, view in params.views().items()}
    exact_leaves = build_leaves(params, const=True)
    kv = kv_cache(cfg, np.float32)
    cached = 0  # window positions whose keys and values are in kv
    generated: list[int] = []
    for _ in range(max_new_tokens):
        if len(ids) <= w:
            row, start = ids[cached:], cached
            cached = len(ids)
        else:
            # The window slides: each id moves to the previous position, so every
            # cached key and value is stale for good. Recompute the window uncached.
            row, start, kv = ids[-w:], 0, None
        span = (len(row) - 1, len(row))
        logprobs = batched_logprobs(leaves, cfg, np.asarray([row]), kv, start, span).data[0, -1]
        second, first = np.partition(logprobs, -2)[-2:]
        if first - second <= DECODE_MARGIN * -logprobs.min():
            window = ids[-w:]
            span = (len(window) - 1, len(window))
            logprobs = batched_logprobs(exact_leaves, cfg, np.asarray([window]), span=span).data[0, -1]
        next_id = int(np.argmax(logprobs))
        ids.append(next_id)
        generated.append(next_id)
        if stop_at_eos and next_id == EOS_ID:
            break
    return generated
