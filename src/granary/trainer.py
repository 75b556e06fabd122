"""Training objectives and a deterministic full-batch gradient-descent loop.

Three objectives: continued pre-training (mean next-token NLL over
``dataset.pack_cpt_texts`` packs), supervised fine-tuning (mean NLL over
mask-true target positions), and KL-anchored fine-tuning, which adds a
weighted KL term tying the model's predictive distributions at those same
positions to a frozen reference model. The KL is computed in log space
throughout.

``loss_nsc_sft`` and ``kl_term`` are per-example references for tests
and the benchmark's checks. Training, the CLI's gradient check and the
tests share one batched path: ``make_batch``
returns a run's batch once, as a tuple of shards of ``_SHARD_ROWS`` (3)
rows, and ``loss_and_grad`` / ``loss_value`` evaluate CE plus the weighted
KL on it (plain CE for cpt, sft and λ=0) through one shard runner, on up
to one thread per CPU, adding the shards' results in shard order. The
runner forwards each shard to the model's final hidden states
(``tinylm.hidden``) and hands them, with the head, to ``tape.ce_kl_loss``,
which forms and normalises the logits and keeps only their gradient, so the
head holds one vocab-sized array per shard. The frozen reference is stored
per shard as its final hidden states and log normalisers, d + 1 numbers a
position instead of the vocabulary's 259; the loss forms its
log-probabilities, bit for bit, one batch row at a time.

The loop is plain gradient descent, the only update rule, under a cosine
schedule with linear warmup; every step records the loss breakdown and
gradient norm so the descent behaviour (non-increasing losses,
square-summable gradient norms) can be checked mechanically.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape, tinylm
from .backend import fan_out
from .config import TrainSettings
from .dataset import PackedSequence, TokenizedExample
from .errors import NonFiniteLoss
from .jsonl import atomic_write, write_jsonl
from .tinylm import PAD_ID, Parameters


@dataclass(frozen=True)
class TrainConfig(TrainSettings):
    """The config section's training run, plus the seed."""

    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    kl: float
    total: float


@dataclass(frozen=True)
class StepRecord:
    step: int
    lr: float
    ce: float
    kl: float
    total: float
    grad_norm: float
    fd_max_rel_err: float | None = None


@dataclass
class TrainReport:
    records: list[StepRecord]
    final_params: Parameters
    ref_fingerprint_before: str | None = None
    ref_fingerprint_after: str | None = None

    def summary(self) -> dict:
        totals = [r.total for r in self.records]
        nonincreasing = sum(
            1 for a, b in zip(totals, totals[1:]) if b <= a
        )
        return {
            "steps": len(self.records),
            "initial_total": totals[0] if totals else None,
            "final_total": totals[-1] if totals else None,
            "nonincreasing_fraction": (
                nonincreasing / (len(totals) - 1) if len(totals) > 1 else 1.0
            ),
            "grad_norm_sq_sum": sum(r.grad_norm**2 for r in self.records),
        }


def write_report(report: TrainReport, jsonl_path: str | Path, summary_path: str | Path) -> None:
    write_jsonl(jsonl_path, [dict(vars(r)) for r in report.records])
    with atomic_write(summary_path) as fh:
        fh.write(json.dumps(report.summary(), indent=2) + "\n")


# -- evaluation-grade losses (single example, used as oracles' targets) ----


def _target_positions(ex: TokenizedExample) -> np.ndarray:
    """Indices i >= 1 whose token is supervised (mask true)."""
    return np.nonzero(ex.loss_mask[1:])[0] + 1


def kl_term(logp_cur: np.ndarray, logp_ref: np.ndarray, mask: np.ndarray) -> float:
    """Mean per-position KL(cur || ref), computed in log space.

    Each masked position contributes sum_v exp(cur_v) * (cur_v - ref_v);
    zero-probability symbols contribute zero by convention, so one-hot
    distributions are handled exactly.
    """
    logp_cur = np.asarray(logp_cur, dtype=np.float64)
    logp_ref = np.asarray(logp_ref, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logp_cur.shape != logp_ref.shape:
        raise ValueError(f"{logp_cur.shape} vs {logp_ref.shape}")
    if mask.shape != logp_cur.shape[:-1]:
        raise ValueError(f"mask {mask.shape} vs positions {logp_cur.shape[:-1]}")
    if not mask.any():
        raise ValueError("kl_term needs at least one masked position")
    cur = logp_cur[mask]
    ref = logp_ref[mask]
    p = np.exp(cur)
    with np.errstate(invalid="ignore"):
        terms = np.where(p > 0.0, p * (cur - ref), 0.0)
    per_position = np.maximum(terms.sum(axis=-1), 0.0)
    return float(per_position.mean())


def loss_nsc_sft(
    params: Parameters,
    ref_params: Parameters,
    ex: TokenizedExample,
    kl_weight: float,
) -> LossBreakdown:
    """CE on supervised tokens plus weighted KL against the frozen reference.

    The KL covers exactly the predictive distributions that the CE term
    reshapes (one per supervised token), averaged the same way, so the
    weight's meaning does not depend on sequence length.
    """
    if kl_weight < 0:
        raise ValueError("kl_weight must be >= 0")
    ids = np.asarray(ex.input_ids, dtype=np.int64)
    targets = _target_positions(ex)
    if targets.size == 0:
        raise ValueError("no supervised positions after the first token")
    cur = tinylm.forward(params, ids)
    ref = tinylm.forward(ref_params, ids)
    ce = float(-np.mean(cur[targets - 1, ids[targets]]))
    position_mask = np.zeros(ids.size, dtype=bool)
    position_mask[targets - 1] = True
    kl = kl_term(cur, ref, position_mask)
    return LossBreakdown(ce=ce, kl=kl, total=ce + kl_weight * kl)


# -- learning-rate schedule -------------------------------------------------


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, then cosine decay to zero.

    The warmup spans round(warmup_frac * total_steps) steps and ends
    exactly at lr_max; the cosine midpoint sits exactly at lr_max / 2.
    """
    if not 0 <= step < cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps})")
    warmup = round(cfg.warmup_frac * cfg.total_steps)
    if step < warmup:
        return cfg.lr_max * (step + 1) / warmup
    span = cfg.total_steps - warmup
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / span))


# -- batched training loop --------------------------------------------------


# Batch rows per shard: one worker's forward and backward. Each worker holds
# one shard's graph at a time, so the step's peak memory grows with this. At
# the benchmark's training shape (30 rows, 2 workers) 3-row shards, with
# tape's 48-row attention blocks and the loss's row-by-row reference, peak
# at 76.4 MB against 86.7 MB for 4-row shards with 32-row blocks, at the same
# 134 ms step (medians of 10 alternated runs). With 32-row blocks 3 rows cost
# ~10% step time: the two workers take turns on the GIL between numpy calls,
# and the larger blocks make fewer of them.
_SHARD_ROWS = 3


@dataclass(frozen=True)
class Shard:
    """Up to ``_SHARD_ROWS`` consecutive rows of a batch, padded to their own width.

    ``span = (lo, hi)`` is the columns that carry weight: from the first
    column with any weight to one past the last ((0, 0) when none does).
    ``ids`` keeps the columns before ``hi``, the ones the span's
    distributions read (the first column alone when none carries weight).
    The other arrays hold the span's columns only: ``weights[b, j]`` weighs
    the distribution at position lo + j of row b, whose target is
    ``targets[b, j]`` (junk where the weight is 0). When the KL term is on,
    the frozen reference is kept as its final hidden states there
    (``ref_hidden``, [rows, span, d]), its head (``ref_head``, a view of its
    ``out_proj``) and its log normalisers (``ref_lse``, [rows, span, 1]),
    else all three are None; ``tape.ce_kl_loss`` forms its
    log-probabilities from them, one row at a time.
    """

    ids: np.ndarray
    span: tuple[int, int]
    targets: np.ndarray
    weights: np.ndarray
    ref_hidden: np.ndarray | None = None
    ref_lse: np.ndarray | None = None
    ref_head: np.ndarray | None = None


def _workers() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _shard(rows: list[tuple[np.ndarray, np.ndarray, float]], ref_params: Parameters | None) -> Shard:
    ids = np.full((len(rows), max(row.size for row, _, _ in rows)), PAD_ID, dtype=np.int64)
    weights = np.zeros(ids.shape)
    for b, (row, positions, weight) in enumerate(rows):
        ids[b, : row.size] = row
        weights[b, positions] = weight
    targets = np.zeros_like(ids)
    targets[:, :-1] = ids[:, 1:]
    weighted = np.flatnonzero(weights.any(axis=0))
    lo, hi = (int(weighted[0]), int(weighted[-1]) + 1) if weighted.size else (0, 0)
    ids = ids[:, : max(hi, 1)]
    ref = (None, None, None)
    if ref_params is not None:
        ref_leaves = tinylm.build_leaves(ref_params, const=True)
        ref_hidden = tinylm.hidden(ref_leaves, ref_params.config, ids, span=(lo, hi)).data
        ref_head = ref_params.view("out_proj")
        ref = (ref_hidden, tape.softmax_lse(np.matmul(ref_hidden, ref_head))[1], ref_head)
    return Shard(ids, (lo, hi), targets[:, lo:hi], weights[:, lo:hi], *ref)


def make_batch(items: list, ref_params: Parameters | None = None) -> tuple[Shard, ...]:
    """One batch's shards from TokenizedExamples (sft) or PackedSequences (cpt).

    An example is one row; each of its supervised positions i >= 1 weighs
    1/(count * n) at i - 1, so every example counts equally. A pack gives
    one row per segment and weighs each next-token position 1/(pack
    positions * n): packing sets only the cpt weighting, never which
    tokens attend to which, and a pack's segments may fall in different
    shards. Rows keep the items' order and are cut into shards of
    ``_SHARD_ROWS`` (the last may hold fewer); weights carry the whole
    batch's normalisation, so the batch loss and gradient are the sums of
    the shards'. The reference forward runs here, once per shard on
    ``fan_out``'s worker threads, when ``ref_params`` is given, over
    ``const`` leaves, so it records no graph; like the loss, it scores
    each shard's weighted span only, and the shard keeps its final hidden
    states and log normalisers rather than its vocabulary-sized
    log-probabilities.
    """
    n = len(items)
    rows: list[tuple[np.ndarray, np.ndarray, float]] = []  # ids, weighted positions, weight
    for k, item in enumerate(items):
        if isinstance(item, PackedSequence):
            segments = [
                np.asarray(item.ids[s.offset : s.offset + s.length], dtype=np.int64)
                for s in item.segments
            ]
            count = sum(max(seg.size - 1, 0) for seg in segments)
            weight = 1.0 / (count * n) if count else 0.0  # a pack of 1-token segments
            rows += [(seg, np.arange(seg.size - 1), weight) for seg in segments]
        else:
            positions = _target_positions(item) - 1
            if positions.size == 0:
                raise ValueError(f"example {k} has no supervised positions")
            row = np.asarray(item.input_ids, dtype=np.int64)
            rows.append((row, positions, 1.0 / (positions.size * n)))

    chunks = tuple(rows[i : i + _SHARD_ROWS] for i in range(0, len(rows), _SHARD_ROWS))
    shards = fan_out(lambda chunk: _shard(chunk, ref_params), chunks, _workers())
    return tuple(shard for _, shard in sorted(shards))


def _run_shards(params: Parameters, shards: tuple[Shard, ...], kl_weight: float, backward: bool):
    """The shards' losses added in shard order, and each shard's leaves.

    ``fan_out``'s worker threads, one per shard up to the CPUs the process
    may use (inline for one shard), each take the next shard and run its
    forward to the final hidden states and the fused head and loss on them,
    which takes the shard's reference as its parts. With ``backward``, a
    shard whose loss is finite then runs its backward, and its leaves hold
    the shard's gradient; otherwise the leaves are None and the forward
    records no graph.
    """

    def run(shard: Shard):
        leaves = tinylm.build_leaves(params, const=not backward)
        total, ce, kl = tape.ce_kl_loss(
            tinylm.hidden(leaves, params.config, shard.ids, span=shard.span), leaves["out_proj"],
            shard.targets, shard.weights, shard.ref_hidden, shard.ref_head, shard.ref_lse, kl_weight,
        )
        value = float(total.data)
        if not (backward and math.isfinite(value)):
            return ce, kl, value, None
        tape.backward(total)
        return ce, kl, value, leaves

    results = [result for _, result in sorted(fan_out(run, shards, _workers()))]
    ce = kl = total = 0.0
    for part_ce, part_kl, part_total, _ in results:
        ce += part_ce
        kl += part_kl
        total += part_total
    return LossBreakdown(ce=ce, kl=kl, total=total), [leaves for *_, leaves in results]


def loss_value(params: Parameters, batch: tuple[Shard, ...], kl_weight: float) -> float:
    """The batch loss alone, for finite-difference checks (no backward)."""
    return _run_shards(params, batch, kl_weight, backward=False)[0].total


def loss_and_grad(
    params: Parameters, batch: tuple[Shard, ...], kl_weight: float
) -> tuple[LossBreakdown, np.ndarray]:
    """Batch loss (kl is 0.0 when off) and its exact flat gradient.

    The shards' losses are added in shard order, and one collect_flat_grad
    call adds their gradients in that order, so no thread count moves a bit.
    A shard whose loss is NaN or infinite runs no backward, and NonFiniteLoss
    is raised, with no gradient, when any shard's loss or their sum is not finite.
    """
    losses, shard_leaves = _run_shards(params, batch, kl_weight, backward=True)
    # A non-finite shard loss makes the sum non-finite too.
    if not math.isfinite(losses.total):
        raise NonFiniteLoss(f"loss evaluated to {losses.total}")
    return losses, tinylm.collect_flat_grad(params, shard_leaves)


def train(
    cfg: TrainConfig,
    data: list,
    init_params: Parameters,
    ref_params: Parameters | None = None,
) -> TrainReport:
    """Run the full training loop; the input parameters are never mutated.

    ``data`` is a list of TokenizedExample for sft/nsc_sft and a list of
    PackedSequence for cpt. The batch, and the reference forward when the
    KL term is on, are built once; each step evaluates the whole batch,
    takes one descent step at the scheduled rate, and appends a record. A
    non-finite loss raises NonFiniteLoss with the partial report attached.

    It first sets glibc's allocator to keep freed memory
    (``tinylm.keep_freed_memory``), so steps reuse their pages; that setting
    is process-wide and lasts for the life of the process.
    """
    tinylm.keep_freed_memory()
    if cfg.mode == "nsc_sft" and ref_params is None:
        raise ValueError("nsc_sft requires reference parameters")
    if not data:
        raise ValueError("training data is empty")

    params = init_params.copy()
    ref_before = ref_params.fingerprint() if ref_params is not None else None
    use_kl = cfg.mode == "nsc_sft" and cfg.kl_weight > 0
    batch = make_batch(data, ref_params if use_kl else None)
    records: list[StepRecord] = []

    def report() -> TrainReport:
        return TrainReport(
            records=records,
            final_params=params,
            ref_fingerprint_before=ref_before,
            ref_fingerprint_after=(
                ref_params.fingerprint() if ref_params is not None else None
            ),
        )

    for step in range(cfg.total_steps):
        lr = lr_at(step, cfg)
        try:
            losses, gradient = loss_and_grad(params, batch, cfg.kl_weight)
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"{exc} at step {step}", report=report()) from None

        fd_err = None
        if cfg.grad_check_every is not None and step % cfg.grad_check_every == 0:
            fd_err, _ = tinylm.gradient_check(
                params,
                lambda p: loss_value(p, batch, cfg.kl_weight),
                gradient,
                n_coords=3,
                seed=[cfg.seed, step],
            )

        params.flat -= lr * gradient
        records.append(
            StepRecord(
                step=step,
                lr=lr,
                ce=losses.ce,
                kl=losses.kl,
                total=losses.total,
                grad_norm=float(np.linalg.norm(gradient)),
                fd_max_rel_err=fd_err,
            )
        )

    return report()
