"""Reference implementations that only the tests use.

Each op function builds the same value as its fused counterpart in
``granary.tape`` out of separate tape primitives, one graph node per
step, the way the model and the training loss were written before the
fused ops existed. ``batched_logprobs`` is the whole model forward built
that way, and ``ref_logprobs`` a training shard's reference
log-probabilities as one array. Tests compare the fused forwards against these to 1e-12.
``greedy_decode_reference`` decodes with one full ``forward`` per token,
the way ``tinylm.greedy_decode`` did before it cached keys and values.
``task_ordinal_reference`` scans the node ids linearly, the way the mock
backend found a task's position before it indexed id prefixes,
``packed_bytes_reference`` gathers ``packed.bin`` one list per pack, and
``load_packed`` is the reference reader of the ``packed.bin`` format,
which no pipeline stage reads back; ``pack_lists`` spells packs as plain
lists, so tests can compare them with ``==``. ``serialize_tree`` re-joins a parsed
section tree, so the tests can check that parsing is lossless.
``RecordingBackend`` keeps the requests a backend was sent and its
replies, and digests that traffic. ``loss_sft``
and ``loss_cpt`` are the per-example training losses computed with one
``tinylm.forward`` per example or pack segment. ``central_differences``
is the tests' one finite-difference oracle, and ``max_rel_err`` the
relative error every gradient test compares it with.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from granary import tape, tinylm
from granary.dataset import PACKED_FORMAT_VERSION, PackedSequence, Segment
from granary.tape import Tensor

_NEG_INF = -1e30
_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5


def causal_softmax(x: Tensor, scale: float, offset: int = 0) -> Tensor:
    t, n = x.data.shape[-2:]
    scores = tape.mul(x, Tensor(scale)) + np.triu(np.full((t, n), _NEG_INF), k=offset + 1)
    return tape.exp(tape.sub(scores, tape.logsumexp(scores, axis=-1)))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float, offset: int = 0) -> Tensor:
    return causal_softmax(q @ tape.swapaxes(k, -1, -2), scale, offset) @ v


def log_softmax(x: Tensor) -> Tensor:
    return tape.sub(x, tape.logsumexp(x, axis=-1))


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float) -> Tensor:
    d = x.data.shape[-1]
    mu = tape.mul(tape.sumdim(x, axis=-1, keepdims=True), Tensor(1.0 / d))
    centered = tape.sub(x, mu)
    var = tape.mul(tape.sumdim(tape.mul(centered, centered), axis=-1, keepdims=True), Tensor(1.0 / d))
    inv = tape.power(var + eps, -0.5)
    return tape.mul(tape.mul(centered, inv), scale) + bias


def gelu(x: Tensor) -> Tensor:
    cubed = tape.mul(tape.mul(x, x), x)
    inner = tape.tanh(tape.mul(x + tape.mul(Tensor(0.044715), cubed), Tensor(_GELU_C)))
    return tape.mul(Tensor(0.5), tape.mul(x, tape.add(Tensor(1.0), inner)))


def ce_kl_loss(logprobs, targets, weights, ref_logprobs, kl_weight):
    """(total, ce, kl) as tensors; kl is None when the KL is off."""
    weights = Tensor(weights)
    picked = tape.take_along_last(logprobs, targets)
    ce = tape.mul(tape.sumdim(tape.mul(picked, weights)), Tensor(-1.0))
    if ref_logprobs is None or kl_weight == 0:
        return ce, ce, None
    diff = tape.sub(logprobs, Tensor(ref_logprobs))
    per_position = tape.sumdim(tape.mul(tape.exp(logprobs), diff), axis=-1)
    kl = tape.sumdim(tape.mul(per_position, weights))
    return ce + tape.mul(kl, Tensor(kl_weight)), ce, kl


def ref_logprobs(shard) -> np.ndarray | None:
    """A training shard's reference [rows, span, V] log-probabilities, bit for
    bit its log-softmax, built in one piece from the parts the shard stores
    (None without a reference); ``tape.ce_kl_loss`` builds them row by row."""
    if shard.ref_hidden is None:
        return None
    logprobs = np.matmul(shard.ref_hidden, shard.ref_head)
    logprobs -= shard.ref_lse
    return logprobs


def batched_logprobs(leaves: dict[str, Tensor], cfg, ids: np.ndarray) -> Tensor:
    """The model forward of ``tinylm.batched_logprobs`` from primitive ops."""
    ids = np.asarray(ids)
    b, t = ids.shape
    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x: Tensor) -> Tensor:
        return tape.swapaxes(tape.reshape(x, (b, t, heads, head_dim)), 1, 2)

    x = tape.gather_rows(leaves["tok_emb"], ids) + tape.slice_rows(leaves["pos_emb"], 0, t)
    for i in range(cfg.n_layers):
        h = layer_norm(x, leaves[f"layer{i}.norm1_scale"], leaves[f"layer{i}.norm1_bias"], _LN_EPS)
        q = split(h @ leaves[f"layer{i}.attn_q"])
        k = split(h @ leaves[f"layer{i}.attn_k"])
        v = split(h @ leaves[f"layer{i}.attn_v"])
        context = tape.reshape(tape.swapaxes(causal_attention(q, k, v, scale), 1, 2), (b, t, cfg.d_model))
        x = x + context @ leaves[f"layer{i}.attn_o"]
        h2 = layer_norm(x, leaves[f"layer{i}.norm2_scale"], leaves[f"layer{i}.norm2_bias"], _LN_EPS)
        x = x + gelu(h2 @ leaves[f"layer{i}.mlp_in"]) @ leaves[f"layer{i}.mlp_out"]
    return log_softmax(x @ leaves["out_proj"])


def loss_sft(params, ex) -> float:
    """Mean NLL of mask-true tokens given their prefixes."""
    ids = np.asarray(ex.input_ids, dtype=np.int64)
    targets = np.nonzero(np.asarray(ex.loss_mask, dtype=bool)[1:])[0] + 1
    if targets.size == 0:
        raise ValueError("no supervised positions after the first token")
    logprobs = tinylm.forward(params, ids)
    return float(-np.mean(logprobs[targets - 1, ids[targets]]))


def loss_cpt(params, packed) -> float:
    """Mean next-token NLL across a pack, segments forwarded independently."""
    total = 0.0
    count = 0
    for seg in packed.segments:
        ids = np.asarray(packed.ids[seg.offset : seg.offset + seg.length], dtype=np.int64)
        if ids.size < 2:
            continue
        logprobs = tinylm.forward(params, ids)
        total += float(-np.sum(logprobs[np.arange(ids.size - 1), ids[1:]]))
        count += ids.size - 1
    return total / count if count else 0.0


def greedy_decode_reference(params, prompt_ids, max_new_tokens, stop_at_eos=True):
    """Argmax of the last row of ``tinylm.forward`` over the last ``w`` ids, per token."""
    w = params.config.context_window
    ids = list(prompt_ids)
    generated = []
    for _ in range(max_new_tokens):
        out = tinylm.forward(params, ids[-w:])
        next_id = int(np.argmax(out[-1]))
        ids.append(next_id)
        generated.append(next_id)
        if stop_at_eos and next_id == tinylm.EOS_ID:
            break
    return generated


def central_differences(value, flat: np.ndarray, coords, h: float = 1e-4) -> np.ndarray:
    """(value() at +h - value() at -h) / 2h at each index of ``coords`` into ``flat``.

    ``value`` reads ``flat`` itself or a view of it (``Parameters.flat``, a
    tensor's data): each entry is moved in place and restored before the
    next, so ``flat`` ends as it began.
    """
    fds = []
    for idx in coords:
        saved = flat[idx]
        flat[idx] = saved + h
        up = value()
        flat[idx] = saved - h
        down = value()
        flat[idx] = saved
        fds.append((up - down) / (2.0 * h))
    return np.array(fds)


def max_rel_err(fd, analytic) -> float:
    """Worst |fd - analytic| / max(|fd|, |analytic|, 1e-6); the floor compares
    near-zero gradients on an absolute scale, as ``tinylm.gradient_check`` does."""
    fd, analytic = np.asarray(fd, dtype=np.float64), np.asarray(analytic, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
    return float(np.max(np.abs(fd - analytic) / denom, initial=0.0))


def task_ordinal_reference(node_ids, n_samples, node_prefix, sample_idx):
    """1-based position of (first node starting with ``node_prefix``, sample)."""
    if node_ids is None:
        return None
    for i, nid in enumerate(node_ids):
        if nid.startswith(node_prefix):
            return i * n_samples + sample_idx + 1
    return None


def packed_bytes_reference(packs) -> bytes:
    """The ids (little-endian int32) then the masks (one byte each) of ``packs``."""
    if not packs:
        return b""
    ids = np.concatenate([np.asarray(p.ids, dtype="<i4") for p in packs])
    masks = np.concatenate(
        [np.asarray([b for s in p.segments for b in s.loss_mask], dtype=np.uint8) for p in packs]
    )
    return ids.tobytes() + masks.tobytes()


def serialize_tree(root) -> str:
    """Reproduce the (line-ending-normalized) source from a section tree."""
    parts = []

    def walk(node) -> None:
        parts.append(node.heading_line)
        parts.append(node.body)
        for child in node.children:
            walk(child)

    walk(root)
    return "".join(parts)


def load_packed(path) -> list:
    """The PackedSequences that ``dataset.save_packed`` wrote to ``path`` and its sidecar."""
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    if sidecar.get("format_version") != PACKED_FORMAT_VERSION:
        raise ValueError(f"unsupported packed format {sidecar.get('format_version')}")
    total = sidecar["total_tokens"]
    raw = path.read_bytes()
    ids = np.frombuffer(raw[: 4 * total], dtype="<i4")
    masks = np.frombuffer(raw[4 * total : 4 * total + total], dtype=np.uint8)
    packs = []
    for meta in sidecar["packs"]:
        base = meta["offset"]
        segments = [
            Segment(
                offset=s["offset"],
                length=s["length"],
                loss_mask=masks[base + s["offset"] : base + s["offset"] + s["length"]].astype(bool),
            )
            for s in meta["segments"]
        ]
        pack_ids = ids[base : base + meta["length"]].astype(np.uint16)
        packs.append(PackedSequence(ids=pack_ids, segments=segments))
    return packs


def pack_lists(packs) -> list:
    """Each pack as ``(ids, [(offset, length, mask), ...])`` of plain lists."""
    return [
        (p.ids.tolist(), [(s.offset, s.length, s.loss_mask.tolist()) for s in p.segments])
        for p in packs
    ]


class RecordingBackend:
    """Delegates to an inner backend and keeps every request and reply."""

    def __init__(self, inner):
        self.inner = inner
        self.transcript = []
        self.replies = []

    def complete(self, request):
        self.transcript.append(request)
        reply = self.inner.complete(request)
        self.replies.append(reply)
        return reply

    def traffic_sha256(self) -> str:
        """sha256 of the canonical JSON of every exchange.

        An exchange is the request's messages (role and content), its
        temperature, seed and ``max_tokens``, and the reply's content.
        """
        exchanges = [
            {
                "messages": [[m.role, m.content] for m in request.messages],
                "temperature": request.temperature,
                "seed": request.seed,
                "max_tokens": request.max_tokens,
                "reply": reply,
            }
            for request, reply in zip(self.transcript, self.replies, strict=True)
        ]
        blob = json.dumps(exchanges, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
