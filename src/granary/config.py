"""Pipeline configuration: one JSON file, documented defaults, flag overrides.

Every stage of the CLI reads the same ``PipelineConfig``. Each setting
is declared, defaulted and checked once, in its section here; the
library configs (``tinylm.ModelConfig``, ``trainer.TrainConfig``) extend
these sections and the HTTP backend reads ``BackendSettings``; ``jsonl``
parses and type-checks the file. The stage contract lives in ``STAGES``
alone: the pipeline order, each stage's config slice (kept in the
work-directory manifest beside its hash, so later stages refuse stale
outputs and name the settings that changed) and the files it writes;
``cli._run_stage`` reads the manifest once, in ``check_upstream``, and
forgets a stage's entries (``start_stage``) only once its inputs pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SchemaViolation
from .jsonl import atomic_write, from_json, read_json


@dataclass(frozen=True)
class BackendSettings:
    """How distillation/evaluation talk to a model."""

    mock: bool = True
    base_url: str = "http://localhost:8080/v1"
    model: str = "teacher"
    supports_seed: bool = True
    timeout: float = 60.0
    max_attempts: int = 5
    base_backoff: float = 0.5
    mock_malform_answer_every: int | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not self.base_backoff >= 0:
            raise ValueError("base_backoff must be >= 0")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.mock_malform_answer_every is not None and self.mock_malform_answer_every < 1:
            raise ValueError("mock_malform_answer_every must be >= 1, or None for no malformed answers")


@dataclass(frozen=True)
class DatasetSettings:
    mix_ratio: float = 1.0
    general_path: str | None = None
    system_prompt: str = ""

    def __post_init__(self):
        if not self.mix_ratio > 0:
            raise ValueError("ratio must be > 0")


@dataclass(frozen=True)
class ModelSettings:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    context_window: int = 64
    init_std: float = 0.02

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.context_window < 2:
            raise ValueError("context_window must be >= 2")
        if not self.init_std >= 0:
            raise ValueError("init_std must be >= 0")


# The training objectives: the CLI's --mode choices and train.mode's values.
MODES = ("cpt", "sft", "nsc_sft")


@dataclass(frozen=True)
class TrainSettings:
    mode: str = "nsc_sft"
    total_steps: int = 200
    lr_max: float = 1e-3
    warmup_frac: float = 0.10
    kl_weight: float = 0.1
    grad_check_every: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not self.lr_max > 0:
            raise ValueError("lr_max must be > 0")
        if not 0 < self.warmup_frac < 1:
            raise ValueError("warmup_frac must be in (0, 1)")
        if not self.kl_weight >= 0:
            raise ValueError("kl_weight must be >= 0")
        if self.grad_check_every is not None and self.grad_check_every < 1:
            raise ValueError("grad_check_every must be >= 1, or None for no checks")


@dataclass(frozen=True)
class PipelineConfig:
    corpus_dir: str = "corpus"
    manifest: str = "corpus/manifest.json"
    workdir: str = "work"
    seed: int = 0
    parallelism: int = 1
    min_node_tokens: int = 64
    stop_headings: list[str] = field(default_factory=lambda: ["introduction", "summary"])
    n_samples: int = 5
    backend: BackendSettings = field(default_factory=BackendSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("parallelism", "min_node_tokens", "n_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def config_from_dict(data: dict) -> PipelineConfig:
    return from_json(PipelineConfig, data, "config")


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_dict(read_json(path))


@dataclass(frozen=True)
class Stage:
    """A stage's config slice (the ``PipelineConfig`` fields whose change
    makes its output stale) and the workdir files it writes."""

    fields: tuple[str, ...]
    outputs: tuple[str, ...]


# The pipeline runs in this order; a stage needs each one before it, up to the last that wrote a file it reads.
STAGES = {
    "ingest": Stage(("corpus_dir", "manifest", "min_node_tokens", "stop_headings"), ("nodes.jsonl",)),
    "distill": Stage(("n_samples", "seed", "backend"), ("qtsa.jsonl", "journal.jsonl")),
    "build": Stage(("seed", "dataset"), ("sft_dataset.jsonl", "cpt_dataset.jsonl")),
    "train": Stage(("seed", "model", "train"), ("model.ckpt", "train_report.jsonl", "train_summary.json")),
    "eval": Stage((), ("eval_report.json",)),
}


def stage_config_subset(cfg: PipelineConfig, stage: str) -> dict:
    """The configuration slice whose change invalidates a stage's output."""
    values = dataclasses.asdict(cfg)
    return {name: values[name] for name in STAGES[stage].fields}


def stage_hash(cfg: PipelineConfig, stage: str) -> str:
    payload = json.dumps(stage_config_subset(cfg, stage), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _manifest_path(workdir: str | Path) -> Path:
    return Path(workdir) / "manifest.json"


def load_stage_manifest(workdir: str | Path) -> dict:
    """The work directory's manifest; SchemaViolation names the file when it is malformed."""
    path = _manifest_path(workdir)
    if not path.exists():
        return {"stages": {}}
    manifest = read_json(path)
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(
        isinstance(v, dict) and isinstance(v.get("config_hash"), str) and isinstance(v.get("config", {}), dict)
        for v in stages.values()
    ):
        raise SchemaViolation(
            f'{path}: must be a JSON object whose "stages" maps each stage to a "config_hash" and its "config" object'
        )
    return manifest


def _save_manifest(workdir: str | Path, manifest: dict) -> None:
    with atomic_write(_manifest_path(workdir)) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def record_stage(workdir: str | Path, stage: str, cfg: PipelineConfig, manifest: dict) -> None:
    """Add ``stage``'s entry to ``manifest``, the dict ``check_upstream`` returned, and write it."""
    manifest["stages"][stage] = {
        "config": stage_config_subset(cfg, stage),
        "config_hash": stage_hash(cfg, stage),
        "outputs": list(STAGES[stage].outputs),
    }
    _save_manifest(workdir, manifest)


def check_upstream(workdir: str | Path, stage: str, cfg: PipelineConfig, inputs: list[str | Path]) -> dict:
    """The workdir manifest, once each earlier stage up to the last that wrote one of ``inputs`` ran under ``cfg``."""
    manifest = load_stage_manifest(workdir)
    order = list(STAGES)
    upstream = order[: order.index(stage)]
    read = {Path(path).resolve() for path in inputs}
    while upstream and not read.intersection(Path(workdir, name).resolve() for name in STAGES[upstream[-1]].outputs):
        upstream.pop()
    for parent in upstream:
        recorded = manifest["stages"].get(parent)
        if recorded is None:
            raise ValueError(f"stage {stage!r} needs {parent!r} to run first (no manifest entry)")
        if recorded["config_hash"] != stage_hash(cfg, parent):
            # Each setting that changed, old → new; an entry recorded without its slice names none.
            old, new = _flat(recorded.get("config", {})), _flat(stage_config_subset(cfg, parent))
            changes = [f"{k} {json.dumps(old[k])} → {json.dumps(v)}" for k, v in new.items() if old.get(k, v) != v]
            detail = f" ({', '.join(changes)})" if changes else ""
            raise ValueError(
                f"stage {parent!r} output is stale: its config changed since it ran{detail}; re-run `granary {parent}`"
            )
    return manifest


def _flat(values: dict) -> dict:
    """A config slice keyed by dotted field names (``train.total_steps``); sections nest one level."""
    flat = {}
    for key, value in values.items():
        flat.update({f"{key}.{k}": v for k, v in value.items()} if isinstance(value, dict) else {key: value})
    return flat


def start_stage(workdir: str | Path, stage: str, manifest: dict) -> None:
    """Drop this stage's and every later stage's entries from ``manifest`` and write it, so that
    until ``record_stage`` runs, no later stage takes this one's outputs."""
    order = list(STAGES)
    later = order[order.index(stage) :]
    kept = {name: entry for name, entry in manifest["stages"].items() if name not in later}
    if kept != manifest["stages"]:
        manifest["stages"] = kept
        _save_manifest(workdir, manifest)
