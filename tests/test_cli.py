"""End-to-end command-line pipeline on the fixture mini-book."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from granary import config as cfgmod
from granary import dataset, evalharness, tinylm, trainer
from granary.backend import HttpLlmBackend, MockLlmBackend
from granary.cli import _COMMANDS, _OVERRIDES, _STAGE_BODIES, _apply_overrides, _run_stage, build_parser, main
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
# run in shards of 8 rows, each cut to its own weighted columns, again
# when shards went from 8 rows to 4, and model.ckpt again when shards went
# from 4 rows to 3 and attention blocks from 32 rows to 48.
CPT_SHA256 = {
    "model.ckpt": "7d4049ce9d16d1c5adadd4b52ae8a2c10666d8f15ecd8ce3b91ea50e0b4cce36",
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
# 4 (train_summary.json and eval_report.json held), and the three train
# outputs again when shards went from 4 rows to 3 and attention blocks
# from 32 rows to 48 (eval_report.json held).
MINIBOOK_SHA256 = {
    "nodes.jsonl": "b1458ec26e76aa15f6a69ef3187b652e6d521d1ad44a9a5af25d836f4e761508",
    "qtsa.jsonl": "337dfcbd69fedfcca759000bc6b682f4a887b50293143377b3e4eac64d2ebf1e",
    "sft_dataset.jsonl": "e2b4ae56cc5b7a20bfd28852ae9949fd6650f161af5dcd6c76ad2ce71acab99f",
    "cpt_dataset.jsonl": "559a34a2481ef848a8feb7befe02982ca00498a63411ed8669f3f7e59474cb17",
    "train_report.jsonl": "8d85a7f2cc449e7dbe1675e8cf23af89fe69badac98be040eaa22485ef396f3e",
    "train_summary.json": "ec6604ed2d2d8861fe51f649154c3775d51d3145130ca37416dd0f79335457e6",
    "model.ckpt": "7ef371d44bd229126c22d906a47c44f20ba2eceb8ee04cca28cad6bf39e76cb9",
    "eval_report.json": "b408f087c460b617476f512e211e1359928f91754aecc76e2f966f4e4476eb10",
}


MALFORM_PROBLEM = "mock_malform_answer_every must be >= 1, or None for no malformed answers"


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
        assert capsys.readouterr().err.startswith(f"error: {workdir / 'journal.jsonl'}: distilled under stage hash ")
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
        for name in cfgmod.STAGES:
            code, _ = stage(name)
            assert code == 0, name
            files = {str(p.relative_to(workdir)) for p in workdir.rglob("*") if p.is_file()}
            files.discard("manifest.json")
            outputs = cfgmod.load_stage_manifest(workdir)["stages"][name]["outputs"]
            assert sorted(outputs) == sorted(files - before), name
            before = files

    def test_dry_run_outputs_are_the_manifest_outputs(self, pipeline):
        config, workdir, stage = pipeline
        for name in cfgmod.STAGES:
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
        assert oracles.pack_lists(packs) == oracles.pack_lists(dataset.pack_cpt_texts(texts, 64))

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

    def test_a_stale_workdir_checkpoint_is_refused_however_it_is_named(self, tmp_path, capsys):
        ran = write_config(tmp_path, train={"total_steps": 2})
        for command in ("ingest", "distill", "build", "train"):
            assert run(command, "--config", str(ran)) == 0, command
        workdir = tmp_path / "work"
        now = write_config(tmp_path / "now", workdir=str(workdir), train={"total_steps": 3})
        capsys.readouterr()
        want = (
            "error: stage 'train' output is stale: its config changed since it ran"
            " (train.total_steps 2 → 3); re-run `granary train`\n"
        )
        # Picked by eval itself, then named with --checkpoint, plainly and through "..".
        spellings = [str(workdir / "model.ckpt"), f"{workdir}/../work/model.ckpt"]
        for argv in [[], *(["--checkpoint", path] for path in spellings)]:
            assert run("eval", "--config", str(now), *argv) == 1, argv
            assert capsys.readouterr().err == want, argv
        assert not (workdir / "eval_report.json").exists()
        assert "eval" not in cfgmod.load_stage_manifest(workdir)["stages"]

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
            cfgmod.record_stage(workdir, name, cfg, cfgmod.load_stage_manifest(workdir))
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
        # eval is recorded like every other stage; its config slice is empty.
        eval_entry = {"config": {}, "config_hash": "44136fa355b3678a", "outputs": ["eval_report.json"]}
        assert cfgmod.load_stage_manifest(workdir)["stages"]["eval"] == eval_entry

    def test_a_stage_run_reads_the_manifest_once(self, pipeline, monkeypatch):
        config, workdir, stage = pipeline
        commands = ("ingest", "distill", "build", "train", "eval")
        for command in commands:
            assert stage(command)[0] == 0, command
        read_json, reads = cfgmod.read_json, []
        monkeypatch.setattr(cfgmod, "read_json", lambda path: reads.append(Path(path)) or read_json(path))
        for command in commands:
            reads.clear()
            assert stage(command)[0] == 0, command
            assert reads.count(workdir / "manifest.json") == 1, command

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
    def test_a_failed_write_keeps_the_old_artifact(self, pipeline, tmp_path, monkeypatch, command, target):
        # The old files come from a 2-step train and a mock-graded eval, so
        # the failing run (4 steps, or eval of the checkpoint) writes new bytes.
        # Eval runs under a 2-step config, for which that checkpoint is current.
        config, workdir, stage = pipeline
        for argv in (["ingest"], ["distill"], ["build"], ["eval"], ["train", "--steps", "2"]):
            assert stage(*argv)[0] == 0, argv
        if command[0] == "eval":
            config = write_config(tmp_path / "two-steps", workdir=str(workdir), train={"total_steps": 2})
        before = (workdir / target).read_bytes()
        replace = os.replace

        def fail_on_target(src, dst):
            if Path(dst).name == target:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        with pytest.raises(OSError, match="disk full"):
            run(*(arg.format(work=workdir) for arg in command), "--config", str(config))
        assert (workdir / target).read_bytes() == before
        assert not list(workdir.glob("*.tmp"))

    def test_eval_with_mock_backend(self, pipeline):
        config, workdir, stage = pipeline
        code, out = stage("eval", "--mock-llm")
        assert code == 0
        assert "accuracy" in json.loads(out.splitlines()[-1])


class TestStageStart:
    @pytest.mark.parametrize(
        "name, changed",
        [
            ("ingest", {"min_node_tokens": 32}),
            ("distill", {"n_samples": 2}),
            ("build", {"dataset": {"system_prompt": "Be brief."}}),
            ("train", {"train": {"total_steps": 3}}),
        ],
    )
    def test_a_crash_before_the_manifest_write_leaves_downstream_refused(
        self, tmp_path, monkeypatch, capsys, name, changed
    ):
        # A stage re-run under config B writes its outputs, then dies before
        # its manifest entry: the next stage under the old config A must not
        # take B's outputs for A's.
        config_a = write_config(tmp_path)
        config_b = write_config(tmp_path / "b", workdir=str(tmp_path / "work"), **changed)
        order = list(cfgmod.STAGES)
        for stage in order[: order.index(name) + 1]:
            assert run(stage, "--config", str(config_a)) == 0, stage
        if name == "distill":
            # A journal from another distill config is refused before any write.
            (tmp_path / "work" / "journal.jsonl").unlink()

        def crash(*args):
            raise RuntimeError("killed")

        monkeypatch.setattr(cfgmod, "record_stage", crash)
        with pytest.raises(RuntimeError, match="killed"):
            run(name, "--config", str(config_b))
        monkeypatch.undo()
        capsys.readouterr()
        assert run(order[order.index(name) + 1], "--config", str(config_a)) == 1
        assert f"needs {name!r} to run first" in capsys.readouterr().err

    def test_re_ingest_under_another_config_makes_build_refuse(self, tmp_path, capsys):
        # distill's config slice is the same under both configs, so only the
        # dropped manifest entry tells build that qtsa.jsonl came from other nodes.
        config_a = write_config(tmp_path)
        config_b = write_config(tmp_path / "b", workdir=str(tmp_path / "work"), min_node_tokens=200)
        for stage in ("ingest", "distill", "build"):
            assert run(stage, "--config", str(config_a)) == 0, stage
        capsys.readouterr()
        assert run("ingest", "--config", str(config_b)) == 0
        assert json.loads(capsys.readouterr().out)["node_count"] == 1
        assert run("build", "--config", str(config_b)) == 1
        assert "needs 'distill' to run first" in capsys.readouterr().err


class TestRefusedInputsKeepTheManifest:
    """A stage refused on its own inputs has written nothing, so every
    manifest entry stays, its own and later stages' included."""

    @pytest.fixture
    def done(self, pipeline):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build"):
            assert stage(command)[0] == 0, command
        cfgmod.record_stage(workdir, "train", cfgmod.load_config(config), cfgmod.load_stage_manifest(workdir))
        return config, workdir, (workdir / "manifest.json").read_bytes()

    def test_a_journal_from_another_distill_config(self, done, tmp_path, capsys):
        config, workdir, before = done
        changed = write_config(tmp_path / "changed", workdir=str(workdir), n_samples=3)
        assert run("distill", "--config", str(changed)) == 1
        assert "distilled under stage hash" in capsys.readouterr().err
        assert (workdir / "manifest.json").read_bytes() == before
        assert run("build", "--config", str(config)) == 0

    def test_a_corpus_manifest_entry_with_an_extra_key(self, done, tmp_path, capsys):
        config, workdir, before = done
        entries = json.loads((FIXTURES / "manifest.json").read_text())
        corpus_manifest = tmp_path / "corpus_manifest.json"
        corpus_manifest.write_text(json.dumps({name: {**e, "year": 2020} for name, e in entries.items()}))
        changed = write_config(tmp_path / "changed", workdir=str(workdir), manifest=str(corpus_manifest))
        assert run("ingest", "--config", str(changed)) == 1
        assert "unknown keys ['year']" in capsys.readouterr().err
        assert (workdir / "manifest.json").read_bytes() == before

    def test_a_malformed_general_record(self, done, tmp_path, capsys):
        config, workdir, before = done
        general = tmp_path / "general.jsonl"
        general.write_text('{"id": "g1"}\n')
        assert run("build", "--config", str(config), "--general", str(general)) == 1
        assert capsys.readouterr().err.startswith(f"error: {general}:1: record keys do not match schema")
        assert (workdir / "manifest.json").read_bytes() == before

    def test_a_bad_init_checkpoint(self, done, tmp_path, capsys):
        config, workdir, before = done
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not json\n")
        assert run("train", "--config", str(config), "--init-checkpoint", str(bad)) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert (workdir / "manifest.json").read_bytes() == before

    def test_a_non_string_field_in_an_sft_record(self, done, capsys):
        config, workdir, before = done
        path = workdir / "sft_dataset.jsonl"
        records = read_jsonl(path)
        records[1]["assistant"] = 5
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run("train", "--config", str(config)) == 1
        want = f"error: SFT record {records[1]['id']!r}.assistant: expected str, got 5\n"
        assert capsys.readouterr().err == want
        assert (workdir / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize(
        "command, target, field, value, problem",
        [
            (["build"], "nodes.jsonl", "text", 5, ".text: expected str, got 5"),
            (["build"], "nodes.jsonl", "token_estimate", "many", '.token_estimate: expected int, got "many"'),
            (["distill"], "nodes.jsonl", "heading_path", [1], ".heading_path: expected list[str], got [1]"),
            (["build"], "qtsa.jsonl", "answer", 5, ".answer: expected str, got 5"),
            (["build"], "qtsa.jsonl", "thinking", ["x"], '.thinking: expected str, got ["x"]'),
            (["build"], "qtsa.jsonl", "sample_idx", True, ".sample_idx: expected int, got true"),
            (["build"], "qtsa.jsonl", "reject_reason", 3, ".reject_reason: expected str | None, got 3"),
            (["distill"], "journal.jsonl", "answer", 5, ".answer: expected str, got 5"),
            (["train", "--mode", "cpt"], "cpt_dataset.jsonl", "text", 5, ".text: expected str, got 5"),
            (["train"], "sft_dataset.jsonl", "id", 5, ".id: expected str, got 5"),
        ],
        ids=[
            "node-text",
            "node-token-estimate",
            "node-heading-path",
            "qtsa-answer",
            "qtsa-thinking",
            "qtsa-sample-idx",
            "qtsa-reject-reason",
            "journal-answer",
            "cpt-text",
            "sft-id",
        ],
    )
    def test_an_ill_typed_artifact_field(self, done, capsys, command, target, field, value, problem):
        config, workdir, before = done
        path = workdir / target
        records = read_jsonl(path)
        records[1][field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run(*command, "--config", str(config)) == 1
        what, key = {
            "nodes.jsonl": ("node", "node_id"),
            "qtsa.jsonl": ("qtsa", "entry_id"),
            "journal.jsonl": (f"{path}: journal", "entry_id"),
            "cpt_dataset.jsonl": ("CPT", "node_id"),
            "sft_dataset.jsonl": ("SFT", "id"),
        }[target]
        assert capsys.readouterr().err == f"error: {what} record {records[1][key]!r}{problem}\n"
        assert (workdir / "manifest.json").read_bytes() == before

    def test_an_example_longer_than_the_context_window(self, done, tmp_path, capsys):
        config, workdir, before = done
        changed = write_config(tmp_path / "changed", workdir=str(workdir), model={"context_window": 2})
        assert run("train", "--config", str(changed)) == 1
        assert capsys.readouterr().err == "error: example of length 246 cannot fit 2\n"
        assert (workdir / "manifest.json").read_bytes() == before


class TestGradcheckAndErrors:
    def test_gradcheck_passes(self, pipeline, capsys):
        config, workdir, stage = pipeline
        code, out = stage("gradcheck")
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        assert result["pass"] is True
        assert result["max_rel_err"] <= 1e-4

    def test_gradcheck_passes_under_the_default_config(self, tmp_path, monkeypatch, capsys):
        # The default window (64) is shorter than the probe example, which
        # is fit to the window as train fits its examples.
        monkeypatch.chdir(tmp_path)
        assert run("gradcheck") == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["pass"] is True and result["max_rel_err"] <= 1e-4
        assert list(tmp_path.iterdir()) == []

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
        "header",
        [
            b"[1]\n",
            b'{"format_version": 1, "model_config": {"width": 3}}\n',
            b'{"format_version": 1, "model_config": {"d_model": 8, "n_heads": 3}}\n',
        ],
        ids=["list", "unknown-key", "heads-do-not-divide"],
    )
    def test_malformed_checkpoint_header_exits_1(self, pipeline, tmp_path, capsys, header):
        config, workdir, stage = pipeline
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header)
        assert run("eval", "--config", str(config), "--checkpoint", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_an_infinite_checkpoint_setting_is_named(self, pipeline, tmp_path, capsys):
        config, workdir, stage = pipeline
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format_version": 1, "model_config": {"init_std": Infinity}}\n')
        assert run("eval", "--config", str(config), "--checkpoint", str(path)) == 1
        want = f"error: {path}: checkpoint model_config.init_std: expected float, got Infinity\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda blob: b"not json\n" + blob, "checkpoint header is not valid JSON: "),
            (lambda blob: blob[:-3], "checkpoint payload: "),
            (lambda blob: blob[:-8], "checkpoint payload: expected flat vector of length "),
        ],
        ids=["header-not-json", "partial-float64", "short-payload"],
    )
    def test_unreadable_checkpoint_names_the_file(self, pipeline, tmp_path, capsys, damage, problem):
        config, workdir, stage = pipeline
        path = tmp_path / "bad.ckpt"
        tinylm.save_checkpoint(path, tinylm.init(tinylm.ModelConfig(d_model=8, n_heads=2, n_layers=1)))
        path.write_bytes(damage(path.read_bytes()))
        assert run("eval", "--config", str(config), "--checkpoint", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {problem}")

    @pytest.mark.parametrize("bad_input", ["quiz", "checkpoint"])
    def test_eval_input_error_leaves_no_workdir(self, pipeline, tmp_path, capsys, bad_input):
        # Eval reads its inputs before it creates the workdir.
        config, workdir, stage = pipeline
        item = {"item_id": "q1", "stem": "Which law?", "options": {"A": "one", "B": "two"}, "correct": "A"}
        quiz = tmp_path / "q.jsonl"
        quiz.write_text(json.dumps({**item, "stem": 5} if bad_input == "quiz" else item) + "\n")
        path = tmp_path / "model.ckpt"
        tinylm.save_checkpoint(path, tinylm.init(tinylm.ModelConfig(d_model=8, n_heads=2, n_layers=1)))
        if bad_input == "checkpoint":
            path.write_bytes(path.read_bytes()[:-3])
        assert run("eval", "--config", str(config), "--quiz", str(quiz), "--checkpoint", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not workdir.exists()

    @pytest.mark.parametrize("below_a_file", [False, True], ids=["directory", "below-a-file"])
    @pytest.mark.parametrize("flag", ["--quiz", "--checkpoint", "--config"])
    def test_a_path_that_is_no_file_exits_1_naming_it(self, pipeline, tmp_path, capsys, flag, below_a_file):
        config, workdir, stage = pipeline
        path = tmp_path / "folder"
        path.mkdir()
        if below_a_file:
            (path / "file").write_text("")
            path = path / "file" / "input"
        if flag == "--config":
            argv = ["gradcheck", "--config", str(path)]
        else:
            argv = ["eval", "--mock-llm", "--config", str(config), flag, str(path)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err

    def test_unparsable_corpus_manifest_names_the_file_and_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{\n  not json\n')
        config = write_config(tmp_path, corpus_dir=str(tmp_path), manifest=str(manifest))
        assert run("ingest", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}:2: invalid JSON: ")
        assert not (tmp_path / "work" / "nodes.jsonl").exists()

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("correct", ["A"], """quiz item 'q1'.correct: expected str, got ["A"]"""),
            ("stem", 5, "quiz item 'q1'.stem: expected str, got 5"),
            ("options", {"A": 1, "B": "two"}, """quiz item 'q1'.options: expected dict[str, str], got {"A": 1, "B": "two"}"""),
            ("options", ["one", "two"], """quiz item 'q1'.options: expected dict[str, str], got ["one", "two"]"""),
            ("options", {"A": "one"}, "item q1: need at least 2 options"),
            ("correct", "C", "item q1: correct letter not among options"),
        ],
        ids=["list-correct", "int-stem", "int-option", "list-options", "one-option", "unknown-correct"],
    )
    def test_ill_typed_quiz_item_names_the_file_and_item(self, pipeline, tmp_path, capsys, field, value, problem):
        config, workdir, stage = pipeline
        item = {"item_id": "q1", "stem": "Which law?", "options": {"A": "one", "B": "two"}, "correct": "A"}
        quiz = tmp_path / "q.jsonl"
        quiz.write_text(json.dumps({**item, field: value}) + "\n")
        assert run("eval", "--config", str(config), "--mock-llm", "--quiz", str(quiz)) == 1
        assert capsys.readouterr().err == f"error: {quiz}: {problem}\n"
        assert not (workdir / "eval_report.json").exists()

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
        assert capsys.readouterr().err == "error: grad_check_every must be >= 1, or None for no checks\n"
        assert not (tmp_path / "work").exists()

    def test_a_model_section_no_model_can_take_fails_the_dry_run(self, tmp_path, capsys):
        config = write_config(tmp_path, model={"n_heads": 3})
        assert run("train", "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: d_model must be divisible by n_heads\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("command", ["ingest", "distill", "build", "train", "eval", "gradcheck"])
    def test_zero_heads_fail_every_dry_run(self, tmp_path, capsys, command):
        config = write_config(tmp_path, model={"n_heads": 0})
        assert run(command, "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: n_heads must be >= 1\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("target", ["config", "nodes.jsonl"])
    def test_a_file_that_is_not_utf8_is_named(self, pipeline, capsys, target):
        config, workdir, stage = pipeline
        assert stage("ingest")[0] == 0
        path = config if target == "config" else workdir / target
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xff', 1))
        assert run("distill", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid UTF-8: ")
        assert not (workdir / "qtsa.jsonl").exists()

    def test_backend_max_attempts_below_1_exits_1_with_the_mock_on(self, tmp_path, capsys):
        config = write_config(tmp_path, backend={"mock": True, "max_attempts": 0})
        assert run("ingest", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: max_attempts must be >= 1\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "command, setting, problem",
        [
            ("distill", {"n_samples": 0}, "n_samples must be >= 1"),
            ("ingest", {"min_node_tokens": 0}, "min_node_tokens must be >= 1"),
        ],
        ids=["n_samples", "min_node_tokens"],
    )
    def test_a_refused_setting_keeps_the_manifest(self, pipeline, tmp_path, capsys, command, setting, problem):
        config, workdir, stage = pipeline
        for done in ("ingest", "distill", "build"):
            assert stage(done)[0] == 0, done
        before = (workdir / "manifest.json").read_bytes()
        refused = write_config(tmp_path / "refused", workdir=str(workdir), **setting)
        for dry_run in ([], ["--dry-run"]):
            assert run(command, "--config", str(refused), *dry_run) == 1
            assert capsys.readouterr().err == f"error: {problem}\n"
        assert (workdir / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize(
        "argv, setting, problem",
        [
            (["distill"], {"backend": {"mock_malform_answer_every": -1}}, MALFORM_PROBLEM),
            (["distill"], {"backend": {"mock_malform_answer_every": 0}}, MALFORM_PROBLEM),
            (["distill"], {"backend": {"timeout": 0}}, "timeout must be > 0"),
            (["train"], {"train": {"lr_max": 0}}, "lr_max must be > 0"),
            (["train", "--lr", "-0.5"], {}, "lr_max must be > 0"),
            (["train"], {"seed": -1}, "seed must be >= 0"),
            (["gradcheck", "--seed", "-1"], {}, "seed must be >= 0"),
        ],
        ids=["malform<0", "malform=0", "timeout=0", "lr_max=0", "lr-flag<0", "seed<0", "seed-flag<0"],
    )
    def test_a_setting_that_would_fail_late_fails_the_dry_run(self, tmp_path, capsys, argv, setting, problem):
        config = write_config(tmp_path, **setting)
        assert run(*argv, "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "command, section, name",
        [
            ("train", "train", "kl_weight"),
            ("train", "model", "init_std"),
            ("distill", "backend", "base_backoff"),
            ("build", "dataset", "mix_ratio"),
        ],
        ids=["kl_weight", "init_std", "base_backoff", "mix_ratio"],
    )
    def test_a_nan_setting_is_refused_at_load(self, tmp_path, capsys, command, section, name):
        # A NaN kl_weight once trained nsc_sft as plain SFT (kl 0.0 at every step) and exited 0.
        config = write_config(tmp_path, **{section: {name: float("nan")}})
        for dry_run in (["--dry-run"], []):
            assert run(command, "--config", str(config), *dry_run) == 1
            assert capsys.readouterr().err == f"error: config.{section}.{name}: expected float, got NaN\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "name, literal, shown",
        [
            ("kl_weight", "Infinity", "Infinity"),
            ("kl_weight", "1e999", "Infinity"),
            ("lr_max", "Infinity", "Infinity"),
            ("lr_max", "-1e999", "-Infinity"),
        ],
    )
    def test_an_infinite_float_setting_is_named(self, tmp_path, capsys, name, literal, shown):
        # Infinity passed every range check (kl_weight >= 0, lr_max > 0), so a dry run once printed it.
        config = tmp_path / "config.json"
        config.write_text(f'{{"workdir": "{tmp_path / "work"}", "train": {{"{name}": {literal}}}}}')
        assert run("train", "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"error: config.train.{name}: expected float, got {shown}\n"
        assert not (tmp_path / "work").exists()

    def test_an_integer_too_large_for_a_float_setting_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, train={"lr_max": 10**400})
        assert run("train", "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"error: config.train.lr_max: expected float, got {10**400}\n"
        assert not (tmp_path / "work").exists()

    def test_an_integer_literal_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        # json.loads refuses an integer of over 4300 digits with a plain ValueError, not a JSONDecodeError.
        config = tmp_path / "config.json"
        config.write_text('{"seed": ' + "1" * 5000 + "}")
        assert run("train", "--dry-run", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON: Exceeds the limit (4300 digits)")

    def test_a_refused_steps_flag_keeps_the_train_entry(self, pipeline, capsys):
        config, workdir, stage = pipeline
        for command in ("ingest", "distill", "build", "train"):
            assert stage(command)[0] == 0, command
        assert run("train", "--config", str(config), "--steps", "0") == 1
        assert capsys.readouterr().err == "error: total_steps must be >= 1\n"
        assert "train" in cfgmod.load_stage_manifest(workdir)["stages"]

    def test_non_string_manifest_doc_id_exits_1(self, tmp_path, capsys):
        (tmp_path / "a.md").write_text("# A\nbody\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a.md": {"doc_id": [1], "title": "A", "learning_stage": "advanced"}}))
        config = write_config(tmp_path, corpus_dir=str(tmp_path), manifest=str(manifest))
        assert run("ingest", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: manifest entry 'a.md'.doc_id: expected str, got [1]\n"

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
    # fan_out runs plain threads, so no executor module is loaded either; the
    # commands that run the model import numpy through it.
    code = (
        "import sys, granary.cli; "
        "print('requests' in sys.modules, 'concurrent.futures' in sys.modules, 'numpy' in sys.modules)"
    )
    env = TestBlasThreads._env()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "False False False"


def test_data_prep_commands_and_dry_runs_leave_numpy_unloaded(tmp_path):
    # Each command runs in a fresh interpreter. build reads the dataset module,
    # which holds token arrays, and train runs the model: both show that the
    # probe sees numpy when it loads.
    config = write_config(tmp_path)
    code = (
        "import sys\n"
        "from granary.cli import main\n"
        "try:\n"
        "    status = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    runs = [
        (["--help"], False),
        (["ingest", "--dry-run"], False),
        (["ingest"], False),
        (["distill", "--dry-run"], False),
        (["distill"], False),
        (["build", "--dry-run"], False),
        (["train", "--dry-run"], False),
        (["gradcheck", "--dry-run"], False),
        (["eval", "--dry-run"], False),
        (["build"], True),
        (["train"], True),
    ]
    env = TestBlasThreads._env()
    for argv, loaded in runs:
        cmd = [sys.executable, "-c", code, *argv, "--config", str(config)]
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == f"0 {loaded}", argv


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

    def test_every_stage_runs_through_the_runner(self):
        # A stage with no body would need a hand-written command, which could spell the order wrong.
        assert list(_STAGE_BODIES) == list(cfgmod.STAGES)
        assert {name for name, command in _COMMANDS.items() if command is _run_stage} == set(cfgmod.STAGES)

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

    def test_mode_is_one_of_the_config_modes(self, capsys):
        for mode in cfgmod.MODES:
            assert build_parser().parse_args(["train", "--mode", mode]).mode == mode
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--mode", "dpo"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'dpo'" in capsys.readouterr().err

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


# Each section's number fields, drawn around and below the bounds their checks set.
NUMBER_FIELDS = {
    name: {f.name: f.type for f in dataclasses.fields(section) if f.type.startswith(("int", "float"))}
    for name, section in (
        ("model", cfgmod.ModelSettings),
        ("train", cfgmod.TrainSettings),
        ("dataset", cfgmod.DatasetSettings),
        ("backend", cfgmod.BackendSettings),
    )
}


def _number(type_name):
    small = st.integers(-2, 4)
    return st.one_of(small, st.floats(-1.0, 1.0)) if type_name == "float" else small


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(command="train", sections={"model": {"n_heads": 0}})
@given(
    command=st.sampled_from(["ingest", "distill", "build", "train", "eval", "gradcheck"]),
    sections=st.fixed_dictionaries(
        {},
        optional={
            name: st.fixed_dictionaries({}, optional={key: _number(t) for key, t in fields.items()})
            for name, fields in NUMBER_FIELDS.items()
        },
    ),
)
def test_number_settings_never_crash_a_dry_run(tmp_path, capsys, command, sections):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path / "work"), **sections}))
    assert main([command, "--dry-run", "--config", str(config)]) in (0, 1)
    capsys.readouterr()
    assert not (tmp_path / "work").exists()
