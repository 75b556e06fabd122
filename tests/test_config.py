"""Pipeline config: loading, type checks, and the stage slices hashed into the manifest."""

import dataclasses
import json

import pytest

from granary import config as cfgmod
from granary.errors import SchemaViolation
from granary.tinylm import ModelConfig
from granary.trainer import TrainConfig

MALFORM_PROBLEM = "mock_malform_answer_every must be >= 1, or None for no malformed answers"

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

    @pytest.mark.parametrize(
        "changed, stage, changes",
        [
            ({"train": {"total_steps": 3}}, "train", "train.total_steps 4 → 3"),
            (
                {"train": {"total_steps": 3, "kl_weight": 0.2}},
                "train",
                "train.total_steps 4 → 3, train.kl_weight 0.1 → 0.2",
            ),
            ({"seed": 1}, "distill", "seed 0 → 1"),
            ({"dataset": {"system_prompt": "Be brief."}}, "build", 'dataset.system_prompt "" → "Be brief."'),
        ],
        ids=["one-field", "two-fields", "top-level-field", "string-field"],
    )
    def test_a_stale_error_names_each_changed_setting(self, tmp_path, changed, stage, changes):
        ran = cfgmod.config_from_dict({"train": {"total_steps": 4}})
        for name in RECORDED:
            cfgmod.record_stage(tmp_path, name, ran, cfgmod.load_stage_manifest(tmp_path))
        now = cfgmod.config_from_dict({"train": {"total_steps": 4}, **changed})
        want = f"stage {stage!r} output is stale: its config changed since it ran ({changes}); re-run `granary {stage}`"
        with pytest.raises(ValueError) as exc:
            cfgmod.check_upstream(tmp_path, "eval", now, [tmp_path / "model.ckpt"])
        assert str(exc.value) == want

    def test_an_entry_without_its_config_slice_keeps_the_plain_stale_error(self, tmp_path):
        ran = cfgmod.PipelineConfig()
        cfgmod.record_stage(tmp_path, "ingest", ran, cfgmod.load_stage_manifest(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["stages"]["ingest"] = {"config_hash": cfgmod.stage_hash(ran, "ingest"), "outputs": ["nodes.jsonl"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        now = dataclasses.replace(ran, min_node_tokens=32)
        with pytest.raises(ValueError) as exc:
            cfgmod.check_upstream(tmp_path, "distill", now, [tmp_path / "nodes.jsonl"])
        want = "stage 'ingest' output is stale: its config changed since it ran; re-run `granary ingest`"
        assert str(exc.value) == want

    @pytest.mark.parametrize(
        "stage, reads, last",
        [
            ("distill", ["nodes.jsonl"], "ingest"),
            ("build", ["qtsa.jsonl", "nodes.jsonl"], "distill"),
            ("train", ["sft_dataset.jsonl"], "build"),
            ("train", ["cpt_dataset.jsonl", "model.ckpt"], "build"),
            ("eval", ["model.ckpt"], "train"),
            ("eval", [], None),
        ],
        ids=["distill", "build", "train", "train-init-checkpoint", "eval-workdir-checkpoint", "eval-given-checkpoint"],
    )
    def test_a_stage_needs_each_stage_up_to_the_last_that_wrote_a_file_it_reads(self, tmp_path, stage, reads, last):
        # A file outside the workdir never counts, nor do a stage's own outputs, so train may
        # resume from the workdir's model.ckpt; a workdir file counts however its path is spelled.
        cfg, workdir = cfgmod.PipelineConfig(), tmp_path / "work"
        workdir.mkdir()
        outside = [tmp_path / "quiz.jsonl", tmp_path / "model.ckpt"]
        inputs = [*outside, *(f"{tmp_path}/../{tmp_path.name}/work/{name}" for name in reads)]
        order = list(cfgmod.STAGES)
        needed = order[: order.index(last) + 1] if last else []
        for name in needed[:-1]:
            cfgmod.record_stage(workdir, name, cfg, cfgmod.load_stage_manifest(workdir))
        if last:
            with pytest.raises(ValueError, match=rf"^stage {stage!r} needs {last!r} to run first"):
                cfgmod.check_upstream(workdir, stage, cfg, inputs)
            cfgmod.record_stage(workdir, last, cfg, cfgmod.load_stage_manifest(workdir))
        assert set(cfgmod.check_upstream(workdir, stage, cfg, inputs)["stages"]) == set(needed)

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
        with pytest.raises(ValueError, match=rf"^{where}: "):
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
        with pytest.raises(ValueError, match="config.n_samples"):
            cfgmod.load_config(path)

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_parallelism_below_1_is_a_config_error(self, parallelism):
        with pytest.raises(ValueError, match=r"^parallelism must be >= 1$"):
            cfgmod.config_from_dict({"parallelism": parallelism})
        assert cfgmod.config_from_dict({"parallelism": 1}).parallelism == 1

    @pytest.mark.parametrize("name", ["n_samples", "min_node_tokens"])
    def test_a_count_below_1_is_a_config_error(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1$"):
            cfgmod.config_from_dict({name: 0})
        assert getattr(cfgmod.config_from_dict({name: 1}), name) == 1

    def test_a_negative_seed_is_a_config_error(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            cfgmod.config_from_dict({"seed": -1})
        assert cfgmod.config_from_dict({"seed": 0}).seed == 0

    @pytest.mark.parametrize("library_config", [ModelConfig, TrainConfig])
    def test_a_negative_seed_is_refused_by_the_library_configs(self, library_config):
        # Each takes its seed from its own argument, not from the config file.
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            library_config(seed=-1)
        assert library_config(seed=0).seed == 0

    @pytest.mark.parametrize("every", [0, -2])
    def test_grad_check_every_below_1_is_a_config_error(self, every):
        with pytest.raises(ValueError, match=r"^grad_check_every must be >= 1, or None for no checks$"):
            cfgmod.config_from_dict({"train": {"grad_check_every": every}})
        for every in (None, 1):
            cfg = cfgmod.config_from_dict({"train": {"grad_check_every": every}})
            assert cfg.train.grad_check_every == every

    @pytest.mark.parametrize(
        "section,values,problem,allowed",
        [
            ("model", {"n_heads": 0}, "n_heads must be >= 1", {"n_heads": 1}),
            ("model", {"d_model": 0, "n_heads": 1}, "d_model must be >= 1", {"d_model": 1, "n_heads": 1}),
            ("model", {"n_layers": 0}, "n_layers must be >= 1", {"n_layers": 1}),
            ("model", {"init_std": -1}, "init_std must be >= 0", {"init_std": 0}),
            ("dataset", {"mix_ratio": 0, "general_path": "g.jsonl"}, "ratio must be > 0", {"mix_ratio": 0.01}),
            ("backend", {"base_backoff": -1}, "base_backoff must be >= 0", {"base_backoff": 0}),
            ("backend", {"timeout": 0}, "timeout must be > 0", {"timeout": 0.5}),
            ("backend", {"timeout": -1}, "timeout must be > 0", {"timeout": 0.5}),
            ("backend", {"mock_malform_answer_every": 0}, MALFORM_PROBLEM, {"mock_malform_answer_every": 1}),
            ("backend", {"mock_malform_answer_every": -1}, MALFORM_PROBLEM, {"mock_malform_answer_every": 1}),
            ("train", {"lr_max": 0}, "lr_max must be > 0", {"lr_max": 1e-9}),
            ("train", {"lr_max": -1e-3}, "lr_max must be > 0", {"lr_max": 1e-9}),
        ],
        ids=[
            "n_heads", "d_model", "n_layers", "init_std", "mix_ratio", "base_backoff", "timeout=0", "timeout<0",
            "mock_malform_answer_every=0", "mock_malform_answer_every<0", "lr_max=0", "lr_max<0",
        ],
    )
    def test_a_setting_no_run_can_take_is_a_config_error(self, section, values, problem, allowed):
        with pytest.raises(ValueError, match=rf"^{problem}$"):
            cfgmod.config_from_dict({section: values})
        cfg = cfgmod.config_from_dict({section: allowed})
        assert {k: getattr(getattr(cfg, section), k) for k in allowed} == allowed

    @pytest.mark.parametrize(
        "section,name,problem",
        [
            ("train", "kl_weight", "kl_weight must be >= 0"),
            ("train", "lr_max", "lr_max must be > 0"),
            ("train", "warmup_frac", r"warmup_frac must be in \(0, 1\)"),
            ("model", "init_std", "init_std must be >= 0"),
            ("dataset", "mix_ratio", "ratio must be > 0"),
            ("backend", "base_backoff", "base_backoff must be >= 0"),
            ("backend", "timeout", "timeout must be > 0"),
        ],
    )
    def test_nan_is_refused_by_each_float_check(self, section, name, problem):
        # A config file's NaN is refused as no finite float; a section built in code meets its own check,
        # where NaN fails every comparison, so only a check that asks for the good side refuses it.
        with pytest.raises(SchemaViolation, match=rf"^config\.{section}\.{name}: expected float, got NaN$"):
            cfgmod.config_from_dict({section: {name: float("nan")}})
        with pytest.raises(ValueError, match=rf"^{problem}$"):
            type(getattr(cfgmod.PipelineConfig(), section))(**{name: float("nan")})

    @pytest.mark.parametrize(
        "section,name",
        [
            (section, f.name)
            for section in ("backend", "dataset", "model", "train")
            for f in dataclasses.fields(type(getattr(cfgmod.PipelineConfig(), section)))
            if f.type == "float"
        ],
    )
    def test_an_integer_too_large_for_a_float_is_a_schema_violation(self, section, name):
        with pytest.raises(SchemaViolation, match=rf"^config\.{section}\.{name}: expected float, got 1000"):
            cfgmod.config_from_dict({section: {name: 10**400}})
