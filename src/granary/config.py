"""Pipeline configuration: one JSON file, documented defaults, flag overrides.

Every stage of the CLI reads the same ``PipelineConfig``. The stage
contract lives in ``STAGES`` alone: the pipeline order, each stage's
config slice (hashed into the work-directory manifest so downstream
commands can detect stale upstream artifacts) and the files it writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, StaleArtifact


@dataclass
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


@dataclass
class DatasetSettings:
    mix_ratio: float = 1.0
    general_path: str | None = None
    system_prompt: str = ""


@dataclass
class ModelSettings:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    context_window: int = 64
    init_std: float = 0.02


@dataclass
class TrainSettings:
    mode: str = "nsc_sft"
    total_steps: int = 200
    lr_max: float = 1e-3
    warmup_frac: float = 0.10
    kl_weight: float = 0.1
    grad_check_every: int | None = None


@dataclass
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


def _fits(value, hint) -> bool:
    """Whether a JSON value has an annotation's type; a bool is never a number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _from_dict(cls, data: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name in data and not _fits(data[f.name], hints[f.name]):
            raise ConfigError(f"{where}.{f.name}: expected {f.type}, got {json.dumps(data[f.name])}")
    # An int given for a float field becomes that float, so both spellings hash alike.
    kwargs = {name: float(value) if hints[name] is float else value for name, value in data.items()}
    return cls(**kwargs)


_SECTIONS = {
    "backend": BackendSettings,
    "dataset": DatasetSettings,
    "model": ModelSettings,
    "train": TrainSettings,
}


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    top = {k: v for k, v in data.items() if k not in _SECTIONS}
    cfg = _from_dict(PipelineConfig, top, "config")
    for section, cls in _SECTIONS.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"config.{section} must be an object")
            setattr(cfg, section, _from_dict(cls, data[section], f"config.{section}"))
    return cfg


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass(frozen=True)
class Stage:
    """A stage's config slice (the ``PipelineConfig`` fields whose change
    makes its output stale) and the workdir files it writes."""

    fields: tuple[str, ...]
    outputs: tuple[str, ...]


# The pipeline runs in this order; a stage's parents are the stages before it.
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


_MANIFEST_NAME = "manifest.json"


def _manifest_path(workdir: str | Path) -> Path:
    return Path(workdir) / _MANIFEST_NAME


def load_stage_manifest(workdir: str | Path) -> dict:
    path = _manifest_path(workdir)
    if not path.exists():
        return {"stages": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def record_stage(workdir: str | Path, stage: str, cfg: PipelineConfig) -> None:
    manifest = load_stage_manifest(workdir)
    manifest["stages"][stage] = {
        "config_hash": stage_hash(cfg, stage),
        "outputs": list(STAGES[stage].outputs),
    }
    _manifest_path(workdir).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def check_upstream(workdir: str | Path, stage: str, cfg: PipelineConfig) -> None:
    """Fail when any ancestor stage is missing or ran under a different config."""
    manifest = load_stage_manifest(workdir)
    order = list(STAGES)
    for parent in order[: order.index(stage)]:
        recorded = manifest["stages"].get(parent)
        if recorded is None:
            raise StaleArtifact(
                f"stage {stage!r} needs {parent!r} to run first (no manifest entry)"
            )
        if recorded["config_hash"] != stage_hash(cfg, parent):
            raise StaleArtifact(
                f"stage {parent!r} output is stale: its config changed since it ran;"
                f" re-run `granary {parent}`"
            )
