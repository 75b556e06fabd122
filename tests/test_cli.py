"""End-to-end command-line pipeline on the fixture mini-book."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from granary import config as cfgmod
from granary import dataset, evalharness, tinylm, trainer
from granary.backend import HttpLlmBackend, MockLlmBackend
from granary.cli import _OVERRIDES, _apply_overrides, build_parser, main
from granary.jsonl import read_jsonl

FIXTURES = Path(__file__).parent / "fixtures" / "minibook"
SRC = Path(__file__).parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `train --mode cpt --steps 2` on the minibook config below (BLAS pinned to
# one thread by conftest), captured when train still re-read `packed.bin`
# whenever its width matched the training length, as it does here;
# model.ckpt re-captured when attention began to run in blocks of rows,
# and again when the last layer and the head began to run only the
# batch's weighted span; both files re-captured when the step began to
# run in shards of 8 rows, each cut to its own weighted columns, and again
# when shards went from 8 rows to 4.
CPT_SHA256 = {
    "model.ckpt": "1749d83898b706c9f30a9650b3baf9ecf8cbfbff5ab122553a9c58ba9443d4fb",
    "train_report.jsonl": "d4b38594230f7e33e61e54ab8f9100bd08d6cd93286b1a90ee004a229c96b2bb",
}

# The minibook config below run through ingest, distill, build, train
# (sft, 4 steps) and eval of the trained checkpoint, BLAS pinned to one
# thread by conftest; captured before the record writers were derived
# from their dataclasses, model.ckpt re-captured when attention began to
# run in blocks of rows, and again when the last layer and the head began
# to run only the batch's weighted span; the three train outputs
# re-captured when the step began to run in shards of 8 rows, and
# train_report.jsonl and model.ckpt again when shards went from 8 rows to
# 4 (train_summary.json and eval_report.json held).
MINIBOOK_SHA256 = {
    "nodes.jsonl": "b1458ec26e76aa15f6a69ef3187b652e6d521d1ad44a9a5af25d836f4e761508",
    "qtsa.jsonl": "337dfcbd69fedfcca759000bc6b682f4a887b50293143377b3e4eac64d2ebf1e",
    "sft_dataset.jsonl": "e2b4ae56cc5b7a20bfd28852ae9949fd6650f161af5dcd6c76ad2ce71acab99f",
    "cpt_dataset.jsonl": "559a34a2481ef848a8feb7befe02982ca00498a63411ed8669f3f7e59474cb17",
    "train_report.jsonl": "7dadef350ea3835c3a297bc9adb5e62f86d8287bcf1040f54a9b98cff358d9d3",
    "train_summary.json": "6e82b4a1c4106bfc5f27bb9eb97fb7b60ca6eb026a8a78cfd8074c10ab4fe360",
    "model.ckpt": "e2f8fd3948d1deb42ca02fddb3396169d49e1394dbc0d5e6b7101ae7842fec90",
    "eval_report.json": "b408f087c460b617476f512e211e1359928f91754aecc76e2f966f4e4476eb10",
}


def digests(workdir, names):
    return {n: hashlib.sha256((workdir / n).read_bytes()).hexdigest() for n in names}


def write_config(tmp_path, **overrides):
    config = {
        "corpus_dir": str(FIXTURES),
        "manifest": str(FIXTURES / "manifest.json"),
        "workdir": str(tmp_path / "work"),
        "seed": 0,
        "backend": {"mock": True},
        "model": {"context_window": 256, "init_std": 0.2},
        "train": {"mode": "sft", "total_steps": 4, "lr_max": 1e-3},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pipeline(tmp_path, capsys):
    """Config + helpers for running stages in order."""
    config = write_config(tmp_path)
    workdir = tmp_path / "work"

    def stage(*argv):
        code = run(*argv, "--config", str(config))
        out = capsys.readouterr().out
        return code, out

    return config, workdir, stage


class TestIngest:
    def test_six_node_jsonl_and_stats(self, pipeline):
        config, workdir, stage = pipeline
        code, out = stage("ingest")
        assert code == 0
        lines = (workdir / "nodes.jsonl").read_text().splitlines()
        assert len(lines) == 6
        stats = json.loads(out.splitlines()[-1])
        assert stats["node_count"] == 6

    def test_rerun_is_idempotent(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        first = (workdir / "nodes.jsonl").read_bytes()
        stage("ingest")
        assert (workdir / "nodes.jsonl").read_bytes() == first

    def test_dry_run_touches_nothing(self, pipeline):
        config, workdir, stage = pipeline
        code, out = stage("ingest", "--dry-run")
        assert code == 0
        assert not workdir.exists()
        assert json.loads(out)["dry_run"] is True


class TestDistill:
    def test_thirty_entries(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        code, out = stage("distill")
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"attempted": 30, "kept": 30, "rejected": 0}
        assert len((workdir / "qtsa.jsonl").read_text().splitlines()) == 30

    def test_rerun_resumes_without_duplicates(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        first = (workdir / "qtsa.jsonl").read_bytes()
        journal_size = (workdir / "journal.jsonl").stat().st_size
        code, _ = stage("distill")
        assert code == 0
        assert (workdir / "qtsa.jsonl").read_bytes() == first
        assert (workdir / "journal.jsonl").stat().st_size == journal_size

    def test_two_file_journal_exits_1(self, pipeline, capsys):
        config, workdir, stage = pipeline
        stage("ingest")
        node_id = read_jsonl(workdir / "nodes.jsonl")[0]["node_id"]
        marker = {"node_id": node_id, "sample_idx": 0, "status": "kept", "timestamp": 1.0}
        (workdir / "journal.jsonl").write_text(json.dumps(marker) + "\n")
        assert run("distill", "--config", str(config)) == 1
        assert str(workdir / "journal.jsonl") in capsys.readouterr().err
        assert not (workdir / "qtsa.jsonl").exists()

    def test_a_journal_from_another_distill_config_exits_1(self, pipeline, tmp_path, capsys):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        before = {name: (workdir / name).read_bytes() for name in ("journal.jsonl", "qtsa.jsonl")}
        changed = write_config(tmp_path, backend={"mock_malform_answer_every": 2})
        assert run("distill", "--config", str(changed)) == 1
        assert capsys.readouterr().err.startswith(f"error: {workdir / 'journal.jsonl'}: line 1 ")
        assert {name: (workdir / name).read_bytes() for name in before} == before

        (workdir / "journal.jsonl").unlink()
        assert run("distill", "--config", str(changed)) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["kept"] == 15

    @pytest.mark.parametrize("line", ["5", "null", '["node_id"]'])
    def test_non_object_nodes_line_exits_1(self, pipeline, capsys, line):
        config, workdir, stage = pipeline
        stage("ingest")
        with (workdir / "nodes.jsonl").open("a") as fh:
            fh.write(line + "\n")
        assert run("distill", "--config", str(config)) == 1
        want = f"error: {workdir / 'nodes.jsonl'}:7: record must be a JSON object, got {line}\n"
        assert capsys.readouterr().err == want
        assert not (workdir / "qtsa.jsonl").exists()

    def test_malformed_journal_line_names_the_file_and_line(self, pipeline, capsys):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        journal = workdir / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + "{not json\n" + "".join(lines[2:]))
        assert run("distill", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {journal}:2: invalid JSON: ")

    def test_requires_ingest_first(self, pipeline):
        config, workdir, stage = pipeline
        code, _ = stage("distill")
        assert code == 1

    def test_stale_ingest_detected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run("ingest", "--config", str(config)) == 0
        capsys.readouterr()
        stale = write_config(tmp_path, min_node_tokens=32)
        assert run("distill", "--config", str(stale)) == 1
        assert "stale" in capsys.readouterr().err.lower()


class TestBuildTrainEval:
    def test_build_outputs(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        code, out = stage("build")
        assert code == 0
        counts = json.loads(out.splitlines()[-1])
        assert counts == {"sft_examples": 30, "cpt_records": 6}
        assert (workdir / "sft_dataset.jsonl").exists()
        assert (workdir / "cpt_dataset.jsonl").exists()

    def test_manifest_outputs_are_the_files_each_stage_creates(self, pipeline):
        config, workdir, stage = pipeline
        before: set[str] = set()
        for name in ("ingest", "distill", "build", "train"):
            code, _ = stage(name)
            assert code == 0, name
            files = {str(p.relative_to(workdir)) for p in workdir.rglob("*") if p.is_file()}
            files.discard("manifest.json")
            outputs = cfgmod.load_stage_manifest(workdir)["stages"][name]["outputs"]
            assert sorted(outputs) == sorted(files - before), name
            before = files

    def test_dry_run_outputs_are_the_manifest_outputs(self, pipeline):
        config, workdir, stage = pipeline
        for name in ("ingest", "distill", "build", "train"):
            code, out = stage(name, "--dry-run")
            assert code == 0, name
            planned = json.loads(out)["outputs"]
            assert stage(name)[0] == 0, name
            outputs = cfgmod.load_stage_manifest(workdir)["stages"][name]["outputs"]
            assert sorted(planned) == sorted(str(workdir / o) for o in outputs), name

    def test_general_mixing(self, pipeline, tmp_path):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        general = tmp_path / "general.jsonl"
        records = [
            {"id": f"g{i}", "origin": "general", "system": "", "user": f"u{i}", "assistant": f"a{i}"}
            for i in range(10)
        ]
        general.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out = stage("build", "--general", str(general))
        assert code == 0
        rows = read_jsonl(workdir / "sft_dataset.jsonl")
        origins = [r["origin"] for r in rows]
        assert origins.count("domain") == 30
        assert origins.count("general") == 10

    def test_train_writes_checkpoint_and_report(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        stage("build")
        code, out = stage("train")
        assert code == 0
        assert (workdir / "model.ckpt").exists()
        report_lines = (workdir / "train_report.jsonl").read_text().splitlines()
        assert len(report_lines) == 4
        summary = json.loads((workdir / "train_summary.json").read_text())
        assert summary["steps"] == 4

    def test_lambda_zero_equals_sft_mode(self, tmp_path, capsys):
        outputs = {}
        for tag, extra in {
            "sft": ("--mode", "sft"),
            "nsc0": ("--mode", "nsc_sft", "--lambda", "0"),
        }.items():
            config = write_config(tmp_path / tag, workdir=str(tmp_path / tag / "work"))
            for command in ("ingest", "distill", "build"):
                assert run(command, "--config", str(config)) == 0
            assert run("train", "--config", str(config), *extra) == 0
            workdir = tmp_path / tag / "work"
            outputs[tag] = (
                (workdir / "train_report.jsonl").read_bytes(),
                (workdir / "train_summary.json").read_bytes(),
                (workdir / "model.ckpt").read_bytes(),
            )
        assert outputs["sft"] == outputs["nsc0"]

    @staticmethod
    def _cpt_digests(workdir):
        return digests(workdir, CPT_SHA256)

    def test_cpt_mode_trains_on_packs(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        stage("build")
        code, _ = stage("train", "--mode", "cpt", "--steps", "2")
        assert code == 0
        assert self._cpt_digests(workdir) == CPT_SHA256

    def test_cpt_mode_never_reads_packed_bin(self, pipeline):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build"):
            stage(command)
        (workdir / "packed.bin").write_bytes(b"\x07" * 1000)
        (workdir / "packed.bin.json").write_text("not json")
        code, _ = stage("train", "--mode", "cpt", "--steps", "2")
        assert code == 0
        assert self._cpt_digests(workdir) == CPT_SHA256

    def test_cpt_mode_packs_at_the_context_window(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, model={"context_window": 64})
        for command in ("ingest", "distill", "build"):
            assert run(command, "--config", str(config)) == 0
        seen = []
        original = trainer.train

        def spy(cfg, data, init_params, ref_params=None):
            seen.append(data)
            return original(cfg, data, init_params, ref_params=ref_params)

        monkeypatch.setattr(trainer, "train", spy)
        assert run("train", "--config", str(config), "--mode", "cpt", "--steps", "2") == 0
        workdir = tmp_path / "work"
        assert len((workdir / "train_report.jsonl").read_text().splitlines()) == 2
        [packs] = seen
        assert max(p.total_length for p in packs) == 64
        texts = [r["text"] for r in read_jsonl(workdir / "cpt_dataset.jsonl")]
        assert packs == dataset.pack_cpt_texts(texts, 64)

    def test_build_and_train_reruns_are_idempotent(self, pipeline):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        stage("build")
        stage("train")
        artifacts = ["sft_dataset.jsonl", "cpt_dataset.jsonl", "model.ckpt", "train_report.jsonl"]
        first = {name: (workdir / name).read_bytes() for name in artifacts}
        stage("build")
        stage("train")
        for name in artifacts:
            assert (workdir / name).read_bytes() == first[name], name

    def test_eval_with_checkpoint(self, pipeline):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build", "train"):
            stage(command)
        code, out = stage("eval")
        assert code == 0
        report = json.loads((workdir / "eval_report.json").read_text())
        assert set(report) == {"accuracy", "counts", "per_item"}
        assert len(report["per_item"]) == 4
        for row in report["per_item"]:
            assert set(row) == {"item_id", "extracted", "correct_flag", "response"}
            assert isinstance(row["response"], str)

    def test_eval_responder_choice(self, pipeline, tmp_path, monkeypatch):
        config, workdir, stage = pipeline

        class Graded(Exception):
            pass

        def fake_grade(items, responder, parallelism=1):
            params = getattr(responder, "params", None)
            raise Graded(type(responder), parallelism, params and params.fingerprint())

        def graded(*argv, config=config):
            with pytest.raises(Graded) as seen:
                run("eval", "--config", str(config), "--parallelism", "3", *argv)
            return seen.value.args

        monkeypatch.setattr(evalharness, "grade", fake_grade)
        given = tmp_path / "given.ckpt"
        tinylm.save_checkpoint(given, tinylm.init(tinylm.ModelConfig(seed=1)))
        mock_off = write_config(tmp_path / "off", workdir=str(workdir), backend={"mock": False})

        # Mock on, no model.ckpt: the mock answers.
        assert graded() == (MockLlmBackend, 3, None)

        trained = tinylm.init(tinylm.ModelConfig(seed=2))
        tinylm.save_checkpoint(workdir / "model.ckpt", trained)
        # The workdir's model.ckpt is graded only once its upstream stages are current.
        assert run("eval", "--config", str(config)) == 1
        cfg = cfgmod.load_config(config)
        for name in ("ingest", "distill", "build", "train"):
            cfgmod.record_stage(workdir, name, cfg)
        local = evalharness.TinyLmResponder
        given_print = tinylm.load_checkpoint(given).fingerprint()
        cases = {
            "explicit --checkpoint": (config, ["--checkpoint", str(given)], (local, 1, given_print)),
            "mock off": (mock_off, [], (HttpLlmBackend, 3, None)),
            "mock on with model.ckpt": (config, [], (local, 1, trained.fingerprint())),
        }
        for case, (path, argv, want) in cases.items():
            assert graded(*argv, config=path) == want, case

    def test_minibook_run_reproduces_pinned_bytes(self, pipeline):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build", "train", "eval"):
            assert stage(command)[0] == 0, command
        assert digests(workdir, MINIBOOK_SHA256) == MINIBOOK_SHA256

    @pytest.mark.parametrize(
        "command, target",
        [
            (["train"], "model.ckpt"),
            (["train"], "train_summary.json"),
            (["train"], "manifest.json"),
            (["eval", "--checkpoint", "{work}/model.ckpt"], "eval_report.json"),
        ],
        ids=["checkpoint", "train-summary", "manifest", "eval-report"],
    )
    def test_a_failed_write_keeps_the_old_artifact(self, pipeline, monkeypatch, command, target):
        # The old files come from a 2-step train and a mock-graded eval, so
        # the failing run (4 steps, or eval of the checkpoint) writes new bytes.
        config, workdir, stage = pipeline
        for argv in (["ingest"], ["distill"], ["build"], ["eval"], ["train", "--steps", "2"]):
            assert stage(*argv)[0] == 0, argv
        before = (workdir / target).read_bytes()
        replace = os.replace

        def fail_on_target(src, dst):
            if Path(dst).name == target:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        with pytest.raises(OSError, match="disk full"):
            stage(*(arg.format(work=workdir) for arg in command))
        assert (workdir / target).read_bytes() == before
        assert not list(workdir.glob("*.tmp"))

    def test_eval_with_mock_backend(self, pipeline):
        config, workdir, stage = pipeline
        code, out = stage("eval", "--mock-llm")
        assert code == 0
        assert "accuracy" in json.loads(out.splitlines()[-1])


class TestGradcheckAndErrors:
    def test_gradcheck_passes(self, pipeline, capsys):
        config, workdir, stage = pipeline
        code, out = stage("gradcheck")
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        assert result["pass"] is True
        assert result["max_rel_err"] <= 1e-4

    def test_missing_config_file(self, capsys):
        assert run("ingest", "--config", "/nonexistent/config.json") == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        assert run("ingest", "--config", str(path)) == 1

    def test_wrong_config_type_exits_1_before_any_stage_runs(self, tmp_path, capsys):
        config = write_config(tmp_path, n_samples="5")
        assert run("ingest", "--config", str(config)) == 1
        assert "config.n_samples" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_non_object_manifest_entry_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a.md": 5}))
        config = write_config(tmp_path, corpus_dir=str(tmp_path), manifest=str(manifest))
        assert run("ingest", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: manifest entry 'a.md' must be a JSON object\n"

    @pytest.mark.parametrize(
        "text", ["[]", "5", "{}", '{"stages": []}', '{"stages": {"ingest": 1}}', '{"stages": {"ingest": {}}}'],
        ids=["list", "number", "no-stages", "stages-list", "stage-number", "stage-without-hash"],
    )
    def test_non_object_workdir_manifest_exits_1(self, pipeline, capsys, text):
        config, workdir, stage = pipeline
        stage("ingest")
        stage("distill")
        (workdir / "manifest.json").write_text(text)
        assert run("build", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / 'manifest.json'}: "), err
        assert not (workdir / "sft_dataset.jsonl").exists()

    def test_unparsable_workdir_manifest_names_the_file_and_line(self, pipeline, capsys):
        config, workdir, stage = pipeline
        stage("ingest")
        (workdir / "manifest.json").write_text('{\n  "stages": {not json\n')
        assert run("distill", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {workdir / 'manifest.json'}:2: invalid JSON: ")
        assert not (workdir / "qtsa.jsonl").exists()

    @pytest.mark.parametrize(
        "header", [b"[1]\n", b'{"format_version": 1, "model_config": {"width": 3}}\n'], ids=["list", "unknown-key"]
    )
    def test_malformed_checkpoint_header_exits_1(self, pipeline, tmp_path, capsys, header):
        config, workdir, stage = pipeline
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header)
        assert run("eval", "--config", str(config), "--checkpoint", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_eval_parallelism_0_exits_1(self, pipeline, capsys):
        config, workdir, stage = pipeline
        assert run("eval", "--config", str(config), "--mock-llm", "--parallelism", "0") == 1
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [["ingest"], ["distill"], ["build"], ["train"], ["gradcheck"], ["eval", "--checkpoint", "given.ckpt"],
         ["ingest", "--dry-run"]],
        ids=["ingest", "distill", "build", "train", "gradcheck", "eval-checkpoint", "dry-run"],
    )
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_parallelism_below_1_is_refused_by_every_command(self, tmp_path, capsys, argv, where):
        # Refused in config validation, before any stage reads or writes a file.
        config = write_config(tmp_path, **({"parallelism": 0} if where == "file" else {}))
        flag = ["--parallelism", "0"] if where == "flag" else []
        assert run(*argv, "--config", str(config), *flag) == 1
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("every", [0, -2])
    def test_grad_check_every_below_1_in_the_config_file_exits_1(self, tmp_path, capsys, every):
        config = write_config(tmp_path, train={"grad_check_every": every})
        assert run("train", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: train.grad_check_every must be >= 1 or null\n"
        assert not (tmp_path / "work").exists()

    def test_non_string_manifest_doc_id_exits_1(self, tmp_path, capsys):
        (tmp_path / "a.md").write_text("# A\nbody\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a.md": {"doc_id": [1], "title": "A", "learning_stage": "advanced"}}))
        config = write_config(tmp_path, corpus_dir=str(tmp_path), manifest=str(manifest))
        assert run("ingest", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: manifest entry 'a.md': doc_id must be a string, got [1]\n"

    def test_every_command_supports_dry_run(self, pipeline):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build", "train", "eval", "gradcheck"):
            code, out = stage(command, "--dry-run")
            assert code == 0, command
            assert json.loads(out)["command"] == command
        assert not workdir.exists()

    @pytest.mark.parametrize(
        "argv,made,inputs",
        [
            (["train", "--mode", "cpt"], [], ["{work}/cpt_dataset.jsonl"]),
            (
                ["train", "--mode", "sft", "--init-checkpoint", "base.ckpt"],
                [],
                ["{work}/sft_dataset.jsonl", "base.ckpt"],
            ),
            (
                ["build", "--general", "general.jsonl"],
                [],
                ["{work}/qtsa.jsonl", "{work}/nodes.jsonl", "general.jsonl"],
            ),
            (["eval", "--quiz", "quiz.jsonl"], [], ["quiz.jsonl"]),
            (["eval", "--quiz", "quiz.jsonl"], ["model.ckpt"], ["quiz.jsonl", "{work}/model.ckpt"]),
            (
                ["eval", "--quiz", "quiz.jsonl", "--checkpoint", "given.ckpt"],
                ["model.ckpt"],
                ["quiz.jsonl", "given.ckpt"],
            ),
        ],
        ids=[
            "train-cpt",
            "train-sft-init-checkpoint",
            "build-general",
            "eval-mock",
            "eval-workdir-checkpoint",
            "eval-given-checkpoint",
        ],
    )
    def test_dry_run_inputs_are_what_the_run_reads(self, pipeline, argv, made, inputs):
        # ``made`` names workdir files present before the dry run.
        config, workdir, stage = pipeline
        for name in made:
            workdir.mkdir(exist_ok=True)
            (workdir / name).write_bytes(b"")
        code, out = stage(*argv, "--dry-run")
        assert code == 0
        assert json.loads(out)["inputs"] == [i.format(work=workdir) for i in inputs]


class TestBlasThreads:
    @staticmethod
    def _env(**values):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return {**env, **values}

    def test_cli_reproduces_pinned_bytes_with_no_thread_count_set(self, tmp_path):
        config = write_config(tmp_path)
        env = self._env()
        for argv in (["ingest"], ["distill"], ["build"], ["train", "--mode", "cpt", "--steps", "2"]):
            cmd = [sys.executable, "-m", "granary.cli", *argv, "--config", str(config)]
            subprocess.run(cmd, env=env, check=True, capture_output=True)
        assert digests(tmp_path / "work", CPT_SHA256) == CPT_SHA256

    def test_a_thread_count_already_set_wins(self):
        code = "import os, granary; print([os.environ[v] for v in %r])" % (BLAS_VARS,)
        env = self._env(OPENBLAS_NUM_THREADS="2")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "['2', '1', '1']"


def test_importing_the_cli_leaves_requests_unloaded():
    # Only the HTTP backend needs an HTTP client, so it imports requests itself;
    # fan_out runs plain threads, so no executor module is loaded either.
    code = "import sys, granary.cli; print('requests' in sys.modules, 'concurrent.futures' in sys.modules)"
    env = TestBlasThreads._env()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "False False"


# Config-file values that no flag below produces, so a flag that fails to
# apply, or an absent flag that clobbers the file, shows up.
FILE_VALUES = {
    "workdir": "file_work",
    "seed": 3,
    "backend.mock": False,
    "parallelism": 2,
    "corpus_dir": "file_corpus",
    "manifest": "file_manifest.json",
    "dataset.general_path": "file_general.jsonl",
    "train.mode": "sft",
    "train.kl_weight": 0.25,
    "train.total_steps": 5,
    "train.lr_max": 0.125,
}

FLAG_CASES = [
    (["ingest", "--workdir", "w2"], "workdir", "w2"),
    (["ingest", "--seed", "7"], "seed", 7),
    (["ingest", "--mock-llm"], "backend.mock", True),
    (["ingest", "--parallelism", "4"], "parallelism", 4),
    (["ingest", "--corpus-dir", "c2"], "corpus_dir", "c2"),
    (["ingest", "--manifest", "m2.json"], "manifest", "m2.json"),
    (["build", "--general", "g2.jsonl"], "dataset.general_path", "g2.jsonl"),
    (["train", "--mode", "cpt"], "train.mode", "cpt"),
    (["train", "--lambda", "0.5"], "train.kl_weight", 0.5),
    (["train", "--steps", "9"], "train.total_steps", 9),
    (["train", "--lr", "0.5"], "train.lr_max", 0.5),
]


def _field(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def _file_config(tmp_path, values):
    data = {}
    for path, value in values.items():
        *sections, name = path.split(".")
        target = data
        for section in sections:
            target = target.setdefault(section, {})
        target[name] = value
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    return str(path)


def _configured(argv, config_path):
    args = build_parser().parse_args([*argv, "--config", config_path])
    return _apply_overrides(cfgmod.load_config(args.config), args)


class TestConfigWiring:
    @pytest.mark.parametrize("argv,path,value", FLAG_CASES, ids=[c[0][1] for c in FLAG_CASES])
    def test_flag_sets_its_field_and_absent_flags_keep_the_file(self, tmp_path, argv, path, value):
        config_path = _file_config(tmp_path, FILE_VALUES)
        flagged = _configured(argv, config_path)
        assert {p: _field(flagged, p) for p in FILE_VALUES} == {**FILE_VALUES, path: value}
        plain = _configured(argv[:1], config_path)
        assert {p: _field(plain, p) for p in FILE_VALUES} == FILE_VALUES

    def test_every_override_flag_is_covered(self):
        assert {path for _, path, _ in FLAG_CASES} == set(FILE_VALUES) == set(_OVERRIDES.values())

    def test_stage_flags_set_only_their_own_stage_slice(self):
        # A flag that writes another stage's field cannot take effect: that
        # stage's output turns stale instead.
        parser = build_parser()
        flags = {name: set(vars(parser.parse_args([name]))) & set(_OVERRIDES) for name in cfgmod.STAGES}
        common = set.intersection(*flags.values())
        assert set().union(*flags.values()) == set(_OVERRIDES)
        for name, stage in cfgmod.STAGES.items():
            for dest in flags[name] - common:
                assert _OVERRIDES[dest].split(".")[0] in stage.fields, (name, dest)

    def test_train_has_no_max_len_flag(self, capsys):
        # Nor has build: every sequence is fit to model.context_window.
        for command in ("build", "train"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([command, "--max-len", "128"])
            assert exit_info.value.code == 2, command
            assert "--max-len" in capsys.readouterr().err, command

    def test_mock_llm_only_turns_the_mock_on(self, tmp_path):
        for mock in (True, False):
            config_path = _file_config(tmp_path, {"backend.mock": mock})
            assert _configured(["eval"], config_path).backend.mock is mock
            assert _configured(["eval", "--mock-llm"], config_path).backend.mock is True

    def test_model_and_train_sections_reach_the_library_configs(self, pipeline, tmp_path, monkeypatch):
        config, workdir, stage = pipeline
        model = {"d_model": 16, "n_layers": 1, "n_heads": 4, "context_window": 512, "init_std": 0.05}
        train = {
            "mode": "sft", "total_steps": 3, "lr_max": 0.02, "warmup_frac": 0.2,
            "kl_weight": 0.3, "grad_check_every": 2,
        }
        for defaults, values in ((cfgmod.ModelSettings(), model), (cfgmod.TrainSettings(), train)):
            assert set(values) == {f.name for f in dataclasses.fields(defaults)}
            assert all(getattr(defaults, name) != value for name, value in values.items())
        write_config(tmp_path, seed=5, model=model, train=train)
        for command in ("ingest", "distill", "build"):
            assert stage(command)[0] == 0

        class Seen(Exception):
            pass

        def fake_train(cfg, data, init_params, ref_params=None):
            raise Seen(cfg, init_params.config)

        monkeypatch.setattr(trainer, "train", fake_train)
        with pytest.raises(Seen) as seen:
            run("train", "--config", str(config))
        assert seen.value.args == (
            trainer.TrainConfig(seed=5, **train),
            tinylm.ModelConfig(seed=5, **model),
        )
