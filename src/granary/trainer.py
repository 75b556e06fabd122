"""Training objectives and a deterministic full-batch gradient-descent loop.

Three objectives: continued pre-training (mean next-token NLL over packed
raw text), supervised fine-tuning (mean NLL over mask-true target
positions), and KL-anchored fine-tuning, which adds a weighted KL term
tying the model's predictive distributions at those same positions to a
frozen reference model. The KL is computed in log space throughout.

The loop is plain gradient descent under a cosine schedule with linear
warmup; every step records the loss breakdown and gradient norm so the
descent behaviour (non-increasing losses, square-summable gradient
norms) can be checked mechanically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape, tinylm
from .dataset import PackedSequence, TokenizedExample
from .errors import EmptyMask, NonFiniteLoss, ShapeMismatch
from .tape import Tensor
from .tinylm import PAD_ID, Parameters

MODES = ("cpt", "sft", "nsc_sft")
OPTIMIZERS = ("gd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    total_steps: int
    lr_max: float = 1e-3
    warmup_frac: float = 0.10
    kl_weight: float = 0.1
    seed: int = 0
    grad_check_every: int | None = None
    optimizer: str = "gd"
    batch_indices: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 < self.warmup_frac < 1:
            raise ValueError("warmup_frac must be in (0, 1)")
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")


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


def step_to_record(r: StepRecord) -> dict:
    return {
        "step": r.step,
        "lr": r.lr,
        "ce": r.ce,
        "kl": r.kl,
        "total": r.total,
        "grad_norm": r.grad_norm,
        "fd_max_rel_err": r.fd_max_rel_err,
    }


def write_report(report: TrainReport, jsonl_path: str | Path, summary_path: str | Path) -> None:
    with Path(jsonl_path).open("w", encoding="utf-8") as fh:
        for r in report.records:
            fh.write(json.dumps(step_to_record(r)) + "\n")
    Path(summary_path).write_text(
        json.dumps(report.summary(), indent=2) + "\n", encoding="utf-8"
    )


# -- evaluation-grade losses (single example, used as oracles' targets) ----


def _target_positions(ex: TokenizedExample) -> np.ndarray:
    """Indices i >= 1 whose token is supervised (mask true)."""
    mask = np.asarray(ex.loss_mask, dtype=bool)
    return np.nonzero(mask[1:])[0] + 1


def loss_sft(params: Parameters, ex: TokenizedExample) -> float:
    """Mean NLL of mask-true tokens given their prefixes."""
    ids = np.asarray(ex.input_ids, dtype=np.int64)
    targets = _target_positions(ex)
    if targets.size == 0:
        raise EmptyMask("no supervised positions after the first token")
    logprobs = tinylm.forward(params, ids).logprobs
    return float(-np.mean(logprobs[targets - 1, ids[targets]]))


def loss_cpt(params: Parameters, packed: PackedSequence) -> float:
    """Mean next-token NLL across a pack, segments forwarded independently."""
    total = 0.0
    count = 0
    for seg in packed.segments:
        ids = np.asarray(
            packed.ids[seg.offset : seg.offset + seg.length], dtype=np.int64
        )
        if ids.size < 2:
            continue
        logprobs = tinylm.forward(params, ids).logprobs
        total += float(-np.sum(logprobs[np.arange(ids.size - 1), ids[1:]]))
        count += ids.size - 1
    return total / count if count else 0.0


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
        raise ShapeMismatch(f"{logp_cur.shape} vs {logp_ref.shape}")
    if mask.shape != logp_cur.shape[:-1]:
        raise ShapeMismatch(f"mask {mask.shape} vs positions {logp_cur.shape[:-1]}")
    if not mask.any():
        raise EmptyMask("kl_term needs at least one masked position")
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
        raise EmptyMask("no supervised positions after the first token")
    cur = tinylm.forward(params, ids).logprobs
    ref = tinylm.forward(ref_params, ids).logprobs
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
    if span <= 0:
        return cfg.lr_max
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / span))


# -- batched training loop --------------------------------------------------


@dataclass
class _Batch:
    ids: np.ndarray          # [B, T] padded token ids
    targets: np.ndarray      # [B, T] ids shifted left by one (junk where unweighted)
    weights: np.ndarray      # [B, T] per-distribution-position averaging weights


def _batch_from_examples(examples: list[TokenizedExample]) -> _Batch:
    n = len(examples)
    t_max = max(ex.length for ex in examples)
    ids = np.full((n, t_max), PAD_ID, dtype=np.int64)
    targets = np.zeros((n, t_max), dtype=np.int64)
    weights = np.zeros((n, t_max))
    for b, ex in enumerate(examples):
        row = np.asarray(ex.input_ids, dtype=np.int64)
        ids[b, : ex.length] = row
        supervised = _target_positions(ex)
        if supervised.size == 0:
            raise EmptyMask(f"example {b} has no supervised positions")
        targets[b, : ex.length - 1] = row[1:]
        weights[b, supervised - 1] = 1.0 / (supervised.size * n)
    return _Batch(ids=ids, targets=targets, weights=weights)


def _batch_from_packs(packs: list[PackedSequence]) -> _Batch:
    rows: list[np.ndarray] = []
    row_pack: list[int] = []
    positions_per_pack = []
    for p_idx, pack in enumerate(packs):
        positions = 0
        for seg in pack.segments:
            seg_ids = np.asarray(
                pack.ids[seg.offset : seg.offset + seg.length], dtype=np.int64
            )
            rows.append(seg_ids)
            row_pack.append(p_idx)
            positions += max(seg.length - 1, 0)
        positions_per_pack.append(positions)

    n = len(rows)
    t_max = max(r.size for r in rows)
    ids = np.full((n, t_max), PAD_ID, dtype=np.int64)
    targets = np.zeros((n, t_max), dtype=np.int64)
    weights = np.zeros((n, t_max))
    n_packs = len(packs)
    for b, row in enumerate(rows):
        ids[b, : row.size] = row
        if row.size >= 2:
            targets[b, : row.size - 1] = row[1:]
            denom = positions_per_pack[row_pack[b]] * n_packs
            weights[b, : row.size - 1] = 1.0 / denom
    return _Batch(ids=ids, targets=targets, weights=weights)


def _graph_losses(
    params: Parameters,
    batch: _Batch,
    ref_logprobs: np.ndarray | None,
    kl_weight: float,
) -> tuple[dict[str, Tensor], float, float, Tensor]:
    """Build (leaves, ce, kl, total) for one step's batch; kl is 0.0 when off."""
    leaves = tinylm.build_leaves(params)
    logprobs = tinylm.batched_logprobs(leaves, params.config, batch.ids)
    total, ce, kl = tape.ce_kl_loss(
        logprobs, batch.targets, batch.weights, ref_logprobs, kl_weight
    )
    return leaves, ce, kl, total


def _batch_loss_value(
    params: Parameters,
    batch: _Batch,
    ref_logprobs: np.ndarray | None,
    kl_weight: float,
) -> float:
    return float(_graph_losses(params, batch, ref_logprobs, kl_weight)[3].data)


def train(
    cfg: TrainConfig,
    data: list,
    init_params: Parameters,
    ref_params: Parameters | None = None,
) -> TrainReport:
    """Run the full training loop; the input parameters are never mutated.

    ``data`` is a list of TokenizedExample for sft/nsc_sft and a list of
    PackedSequence for cpt. Each step evaluates the whole batch (or the
    configured index subset), takes one descent step at the scheduled
    rate, and appends a record. A non-finite loss raises NonFiniteLoss
    with the partial report attached.
    """
    if cfg.mode == "nsc_sft" and ref_params is None:
        raise ValueError("nsc_sft requires reference parameters")
    if not data:
        raise ValueError("training data is empty")

    params = init_params.copy()
    ref_before = ref_params.fingerprint() if ref_params is not None else None
    use_kl = cfg.mode == "nsc_sft" and cfg.kl_weight > 0

    def build_batch(items: list) -> _Batch:
        if cfg.mode == "cpt":
            return _batch_from_packs(items)
        return _batch_from_examples(items)

    batches: dict[tuple[int, ...] | None, tuple[_Batch, np.ndarray | None]] = {}

    def batch_for(step: int) -> tuple[_Batch, np.ndarray | None]:
        key = None
        items = data
        if cfg.batch_indices:
            key = tuple(cfg.batch_indices[step % len(cfg.batch_indices)])
            items = [data[i] for i in key]
        if key not in batches:
            batch = build_batch(items)
            ref_lp = None
            if use_kl:
                ref_leaves = tinylm.build_leaves(ref_params)
                ref_lp = tinylm.batched_logprobs(
                    ref_leaves, ref_params.config, batch.ids
                ).data
            batches[key] = (batch, ref_lp)
        return batches[key]

    records: list[StepRecord] = []
    moment1 = np.zeros(params.count)
    moment2 = np.zeros(params.count)

    for step in range(cfg.total_steps):
        lr = lr_at(step, cfg)
        batch, ref_lp = batch_for(step)
        leaves, ce, kl, total = _graph_losses(params, batch, ref_lp, cfg.kl_weight)
        total_value = float(total.data)
        if not math.isfinite(total_value):
            partial = TrainReport(
                records=records,
                final_params=params,
                ref_fingerprint_before=ref_before,
                ref_fingerprint_after=(
                    ref_params.fingerprint() if ref_params is not None else None
                ),
            )
            raise NonFiniteLoss(f"loss became {total_value} at step {step}", report=partial)
        tape.backward(total)
        gradient = tinylm.collect_flat_grad(params, leaves)
        grad_norm = float(np.linalg.norm(gradient))

        fd_err = None
        if cfg.grad_check_every and step % cfg.grad_check_every == 0:
            fd_err, _ = tinylm.gradient_check(
                params,
                lambda p: _batch_loss_value(p, batch, ref_lp, cfg.kl_weight),
                gradient,
                n_coords=3,
                h=1e-4,
                seed=[cfg.seed, step],
            )

        if cfg.optimizer == "gd":
            params.flat -= lr * gradient
        else:
            beta1, beta2, eps = 0.9, 0.999, 1e-8
            moment1 = beta1 * moment1 + (1 - beta1) * gradient
            moment2 = beta2 * moment2 + (1 - beta2) * gradient**2
            m_hat = moment1 / (1 - beta1 ** (step + 1))
            v_hat = moment2 / (1 - beta2 ** (step + 1))
            params.flat -= lr * m_hat / (np.sqrt(v_hat) + eps)

        records.append(
            StepRecord(
                step=step,
                lr=lr,
                ce=ce,
                kl=kl,
                total=total_value,
                grad_norm=grad_norm,
                fd_max_rel_err=fd_err,
            )
        )

    return TrainReport(
        records=records,
        final_params=params,
        ref_fingerprint_before=ref_before,
        ref_fingerprint_after=(
            ref_params.fingerprint() if ref_params is not None else None
        ),
    )
