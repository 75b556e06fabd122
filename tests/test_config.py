"""Pipeline config: loading, type checks, and the stage slices hashed into the manifest."""

import dataclasses
import json

import pytest

from granary import config as cfgmod
from granary.errors import ConfigError

# A config that sets every field away from its default, sections included.
NON_DEFAULT = {
    "corpus_dir": "books",
    "manifest": "books/m.json",
    "workdir": "w",
    "seed": 7,
    "parallelism": 3,
    "min_node_tokens": 32,
    "stop_headings": ["preface", "exercises"],
    "n_samples": 3,
    "backend": {
        "mock": False, "base_url": "http://localhost:9000/v1", "model": "m2", "supports_seed": False,
        "timeout": 12.5, "max_attempts": 2, "base_backoff": 0.25, "mock_malform_answer_every": 7,
    },
    "dataset": {
        "mix_ratio": 0.5, "general_path": "g.jsonl",
        "system_prompt": "You are an analog expert.",
    },
    "model": {"d_model": 16, "n_layers": 1, "n_heads": 4, "context_window": 128, "init_std": 0.05},
    "train": {
        "mode": "cpt", "total_steps": 9, "lr_max": 0.02, "warmup_frac": 0.2,
        "kl_weight": 0.3, "grad_check_every": 3,
    },
}

# ``stage_hash`` of each recorded stage, captured while each stage's slice
# was still spelled out by hand; every existing manifest.json carries these.
# The build entries were re-captured when dataset.max_len was removed.
STAGE_HASHES = {
    "default": {
        "ingest": "c18b1ff04132b4c7",
        "distill": "d49a9ebe683cd68f",
        "build": "ca23e1f27e988f94",
        "train": "03da800c63da86f9",
    },
    "non_default": {
        "ingest": "2a304de00d421701",
        "distill": "a49ff7990931f3c8",
        "build": "4bf1c33012b1070e",
        "train": "8a438fa22ed037e2",
    },
}

RECORDED = ("ingest", "distill", "build", "train")


class TestStageContract:
    @pytest.mark.parametrize("name", sorted(STAGE_HASHES))
    def test_stage_hashes_are_pinned(self, name):
        cfg = cfgmod.config_from_dict(NON_DEFAULT) if name == "non_default" else cfgmod.PipelineConfig()
        assert {stage: cfgmod.stage_hash(cfg, stage) for stage in RECORDED} == STAGE_HASHES[name]

    def test_non_default_config_sets_every_field(self):
        defaults = dataclasses.asdict(cfgmod.PipelineConfig())
        assert set(NON_DEFAULT) == set(defaults)
        for key, value in NON_DEFAULT.items():
            if isinstance(value, dict):
                assert set(value) == set(defaults[key]), key
                assert all(defaults[key][k] != v for k, v in value.items()), key
            else:
                assert defaults[key] != value, key

    @pytest.mark.parametrize(
        "section,key,value,stage", [("backend", "timeout", 60, "distill"), ("train", "kl_weight", 0, "train")]
    )
    def test_integer_spelling_of_a_float_field_hashes_the_same(self, section, key, value, stage):
        as_int = cfgmod.config_from_dict({section: {key: value}})
        as_float = cfgmod.config_from_dict({section: {key: float(value)}})
        assert cfgmod.stage_hash(as_int, stage) == cfgmod.stage_hash(as_float, stage)

    def test_every_field_but_workdir_and_parallelism_makes_some_stage_stale(self):
        cfg = cfgmod.PipelineConfig()
        sliced = {key for stage in RECORDED for key in cfgmod.stage_config_subset(cfg, stage)}
        names = {f.name for f in dataclasses.fields(cfgmod.PipelineConfig)}
        assert sliced == names - {"workdir", "parallelism"}


WRONG_TYPES = [
    ({"n_samples": "5"}, "config.n_samples"),
    ({"seed": True}, "config.seed"),
    ({"seed": 1.5}, "config.seed"),
    ({"stop_headings": "summary"}, "config.stop_headings"),
    ({"stop_headings": ["summary", 3]}, "config.stop_headings"),
    ({"corpus_dir": None}, "config.corpus_dir"),
    ({"backend": {"mock": 1}}, "config.backend.mock"),
    ({"backend": {"timeout": False}}, "config.backend.timeout"),
    ({"backend": {"mock_malform_answer_every": "7"}}, "config.backend.mock_malform_answer_every"),
    ({"dataset": {"general_path": 3}}, "config.dataset.general_path"),
    ({"train": {"kl_weight": "0.1"}}, "config.train.kl_weight"),
]


def _case_id(data, where):
    value = data
    while isinstance(value, dict):
        [value] = value.values()
    return f"{where}={json.dumps(value, separators=(',', ':'))}"


class TestConfigTypes:
    @pytest.mark.parametrize("data,where", WRONG_TYPES, ids=[_case_id(*case) for case in WRONG_TYPES])
    def test_wrong_json_type_is_a_config_error(self, data, where):
        with pytest.raises(ConfigError, match=rf"^{where}: "):
            cfgmod.config_from_dict(data)

    def test_values_of_the_annotated_types_load(self):
        cfg = cfgmod.config_from_dict(
            {
                **NON_DEFAULT,
                "backend": {**NON_DEFAULT["backend"], "timeout": 12, "mock_malform_answer_every": None},
                "dataset": {**NON_DEFAULT["dataset"], "general_path": None},
                "train": {**NON_DEFAULT["train"], "grad_check_every": None},
            }
        )
        assert cfg.backend.timeout == 12
        assert cfg.backend.mock_malform_answer_every is None
        assert cfg.stop_headings == ["preface", "exercises"]

    def test_wrong_type_in_a_file_is_rejected_at_load(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_samples": "5"}))
        with pytest.raises(ConfigError, match="config.n_samples"):
            cfgmod.load_config(path)
