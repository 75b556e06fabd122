"""Single entry point wiring the pipeline stages.

Subcommands: ingest -> distill -> build -> train -> eval, plus gradcheck.
All artifacts live under a work directory whose manifest records the
config hash each stage ran with, so stale upstream outputs are refused.
Each stage's order, config slice and output files come from
``config.STAGES``; a command here names only the files it reads.
Exit codes: 0 success, 1 validation/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import corpus, dataset, distiller, evalharness, tinylm, trainer
from .backend import HttpLlmBackend, MockLlmBackend, RetryPolicy
from .errors import (
    ConfigError,
    GranaryError,
    InvalidEncoding,
    NonFiniteLoss,
    SchemaViolation,
    StaleArtifact,
)
from .jsonl import atomic_write, read_jsonl, write_jsonl


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="pipeline config JSON file")
    parser.add_argument("--workdir", default=None, help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument(
        "--mock-llm", action="store_const", const=True, help="force the deterministic mock backend"
    )
    parser.add_argument("--parallelism", type=int, default=None, help="worker count override")
    parser.add_argument("--dry-run", action="store_true", help="validate and print the plan; no side effects")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="granary", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse books and emit nodes.jsonl")
    p_ingest.add_argument("--corpus-dir", default=None)
    p_ingest.add_argument("--manifest", default=None)

    p_distill = sub.add_parser("distill", help="run the agents over every node (resumable)")

    p_build = sub.add_parser("build", help="render, mix, and tokenize the training datasets")
    p_build.add_argument("--general", default=None, help="general-domain sft JSONL to mix in")

    p_train = sub.add_parser("train", help="train the tiny model and emit a report")
    p_train.add_argument("--mode", choices=trainer.MODES, default=None)
    p_train.add_argument("--lambda", dest="kl_weight", type=float, default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--init-checkpoint", default=None)

    p_eval = sub.add_parser("eval", help="grade a quiz with a checkpoint or backend")
    p_eval.add_argument("--quiz", default=None, help="quiz JSONL (defaults to the packaged one)")
    p_eval.add_argument("--checkpoint", default=None, help="tiny-model checkpoint to grade")

    sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")

    for p in sub.choices.values():
        _add_common_flags(p)
    return parser


# Flag destination -> dotted config field. An absent flag is None and keeps
# the config file's value; --mock-llm is True or None, so it can only turn
# the mock backend on.
_OVERRIDES = {
    "workdir": "workdir",
    "seed": "seed",
    "mock_llm": "backend.mock",
    "parallelism": "parallelism",
    "corpus_dir": "corpus_dir",
    "manifest": "manifest",
    "general": "dataset.general_path",
    "mode": "train.mode",
    "kl_weight": "train.kl_weight",
    "steps": "train.total_steps",
    "lr": "train.lr_max",
}


def _apply_overrides(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> cfgmod.PipelineConfig:
    for dest, path in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            section, _, name = path.rpartition(".")
            setattr(getattr(cfg, section) if section else cfg, name, value)
    return cfg


def _workdir(cfg: cfgmod.PipelineConfig) -> Path:
    path = Path(cfg.workdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _backend_for(cfg: cfgmod.PipelineConfig, node_ids: list[str] | None = None):
    if cfg.backend.mock:
        return MockLlmBackend(
            seed=cfg.seed,
            node_ids=node_ids,
            n_samples=cfg.n_samples,
            malform_answer_every=cfg.backend.mock_malform_answer_every,
        )
    return HttpLlmBackend(
        base_url=cfg.backend.base_url,
        model=cfg.backend.model,
        retry=RetryPolicy(
            max_attempts=cfg.backend.max_attempts,
            base_backoff=cfg.backend.base_backoff,
        ),
        timeout=cfg.backend.timeout,
        supports_seed=cfg.backend.supports_seed,
    )


def _model_config(cfg: cfgmod.PipelineConfig) -> tinylm.ModelConfig:
    return tinylm.ModelConfig(**dataclasses.asdict(cfg.model), seed=cfg.seed)


def _plan(command: str, cfg: cfgmod.PipelineConfig, inputs: list[str | Path]) -> int:
    """Print the plan: the files the run reads, and the stage's outputs from ``config.STAGES``."""
    outputs = cfgmod.STAGES[command].outputs if command in cfgmod.STAGES else ()
    print(
        json.dumps(
            {
                "command": command,
                "dry_run": True,
                "inputs": [str(path) for path in inputs],
                "outputs": [str(Path(cfg.workdir) / name) for name in outputs],
                "config": dataclasses.asdict(cfg),
            },
            indent=2,
        )
    )
    return 0


def _finish(workdir: Path, stage: str, cfg: cfgmod.PipelineConfig, summary: dict) -> int:
    """Record a finished stage in the manifest and print its summary line."""
    cfgmod.record_stage(workdir, stage, cfg)
    print(json.dumps(summary))
    return 0


def cmd_ingest(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    if args.dry_run:
        return _plan("ingest", cfg, [cfg.corpus_dir, cfg.manifest])
    workdir = _workdir(cfg)
    decompose_cfg = corpus.DecomposeConfig(
        min_node_tokens=cfg.min_node_tokens,
        stop_headings=tuple(cfg.stop_headings),
    )
    nodes: list[corpus.LearningNode] = []
    for doc in corpus.load_corpus(cfg.corpus_dir, cfg.manifest):
        tree = corpus.parse_markdown_tree(doc)
        nodes.extend(corpus.decompose_to_nodes(tree, doc.doc_id, decompose_cfg))
    records = [corpus.node_to_record(n) for n in nodes]
    write_jsonl(workdir / "nodes.jsonl", records, schema=corpus.NODE_KEYS)
    return _finish(workdir, "ingest", cfg, dataclasses.asdict(corpus.corpus_stats(nodes)))


def cmd_distill(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    workdir = Path(cfg.workdir)
    nodes_path = workdir / "nodes.jsonl"
    if args.dry_run:
        return _plan("distill", cfg, [nodes_path])
    cfgmod.check_upstream(workdir, "distill", cfg)
    nodes = [corpus.node_from_record(r) for r in read_jsonl(nodes_path, schema=corpus.NODE_KEYS)]
    backend = _backend_for(cfg, node_ids=[n.node_id for n in nodes])
    distill_cfg = distiller.DistillConfig(
        n_samples=cfg.n_samples,
        parallelism=cfg.parallelism,
        journal_path=workdir / "journal.jsonl",
        stage_hash=cfgmod.stage_hash(cfg, "distill"),
    )
    entries = distiller.distill_corpus(nodes, distill_cfg, backend)
    records = [distiller.entry_to_record(e) for e in entries]
    write_jsonl(workdir / "qtsa.jsonl", records, schema=distiller.QTSA_KEYS)
    kept = sum(e.kept for e in entries)
    summary = {"attempted": len(entries), "kept": kept, "rejected": len(entries) - kept}
    return _finish(workdir, "distill", cfg, summary)


def cmd_build(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    workdir = Path(cfg.workdir)
    qtsa_path, nodes_path = workdir / "qtsa.jsonl", workdir / "nodes.jsonl"
    general_path = cfg.dataset.general_path
    if args.dry_run:
        return _plan("build", cfg, [qtsa_path, nodes_path] + ([general_path] if general_path else []))
    cfgmod.check_upstream(workdir, "build", cfg)

    entries = [distiller.entry_from_record(r) for r in read_jsonl(qtsa_path, schema=distiller.QTSA_KEYS)]
    domain = [
        (e.entry_id, dataset.render_chat_template(e, cfg.dataset.system_prompt))
        for e in entries
        if e.kept
    ]
    general = [
        (rec["id"], dataclasses.replace(dataset.chat_example_from_record(rec), origin=dataset.ORIGIN_GENERAL))
        for rec in (read_jsonl(general_path, schema=dataset.SFT_KEYS) if general_path else [])
    ]
    mixed = dataset.mix_datasets(domain, general, cfg.dataset.mix_ratio, cfg.seed) if general else domain
    write_jsonl(
        workdir / "sft_dataset.jsonl",
        [dataset.chat_example_to_record(ex, example_id) for example_id, ex in mixed],
        schema=dataset.SFT_KEYS,
    )

    nodes = [corpus.node_from_record(r) for r in read_jsonl(nodes_path, schema=corpus.NODE_KEYS)]
    write_jsonl(
        workdir / "cpt_dataset.jsonl",
        [{"node_id": n.node_id, "text": n.text} for n in nodes],
        schema=dataset.CPT_KEYS,
    )
    return _finish(workdir, "build", cfg, {"sft_examples": len(mixed), "cpt_records": len(nodes)})


def cmd_train(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    workdir = Path(cfg.workdir)
    mode = cfg.train.mode
    data_path = workdir / ("cpt_dataset.jsonl" if mode == "cpt" else "sft_dataset.jsonl")
    if args.dry_run:
        return _plan("train", cfg, [data_path] + ([args.init_checkpoint] if args.init_checkpoint else []))
    cfgmod.check_upstream(workdir, "train", cfg)

    if args.init_checkpoint:
        init_params = tinylm.load_checkpoint(args.init_checkpoint)
    else:
        init_params = tinylm.init(_model_config(cfg))

    # Every sequence is fit to the model's context window.
    tokenizer = tinylm.ByteTokenizer()
    window = init_params.config.context_window
    if mode == "cpt":
        records = read_jsonl(data_path, schema=dataset.CPT_KEYS)
        data: list = dataset.pack_cpt_texts((rec["text"] for rec in records), window)
    else:
        data = [
            dataset.truncate_chat_example(dataset.chat_example_from_record(rec), tokenizer, window)
            for rec in read_jsonl(data_path, schema=dataset.SFT_KEYS)
        ]

    train_cfg = trainer.TrainConfig(**dataclasses.asdict(cfg.train), seed=cfg.seed)
    ref_params = tinylm.freeze_reference(init_params) if mode == "nsc_sft" else None
    report_paths = (workdir / "train_report.jsonl", workdir / "train_summary.json")
    try:
        report = trainer.train(train_cfg, data, init_params, ref_params=ref_params)
    except NonFiniteLoss as exc:
        if exc.report is not None:
            trainer.write_report(exc.report, *report_paths)
        raise

    tinylm.save_checkpoint(workdir / "model.ckpt", report.final_params)
    trainer.write_report(report, *report_paths)
    return _finish(workdir, "train", cfg, report.summary())


def cmd_eval(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    quiz_path = args.quiz or str(evalharness.default_quiz_path())
    workdir = Path(cfg.workdir)
    trained_here = args.checkpoint is None and cfg.backend.mock and (workdir / "model.ckpt").exists()
    checkpoint = str(workdir / "model.ckpt") if trained_here else args.checkpoint
    if args.dry_run:
        return _plan("eval", cfg, [quiz_path] if checkpoint is None else [quiz_path, checkpoint])
    _workdir(cfg)

    items = evalharness.read_quiz(quiz_path)
    if trained_here:
        cfgmod.check_upstream(workdir, "eval", cfg)
    if checkpoint is None:
        report = evalharness.grade(items, _backend_for(cfg), parallelism=cfg.parallelism)
    else:
        # Local greedy decode stays sequential; parallelism applies to backends.
        responder = evalharness.TinyLmResponder(tinylm.load_checkpoint(checkpoint))
        report = evalharness.grade(items, responder, parallelism=1)
    with atomic_write(workdir / "eval_report.json") as fh:
        fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
    print(json.dumps({"accuracy": report.accuracy, "unparsable": report.unparsable}))
    return 0


def cmd_gradcheck(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    if args.dry_run:
        return _plan("gradcheck", cfg, [])
    model_cfg = _model_config(cfg)
    params = tinylm.init(model_cfg)
    ref = tinylm.freeze_reference(tinylm.init(dataclasses.replace(model_cfg, seed=cfg.seed + 101)))

    tokenizer = tinylm.ByteTokenizer()
    probe = dataset.tokenize_and_mask(
        dataset.ChatExample(
            system="",
            user="State the loop law.",
            assistant=distiller.render_assistant("sum drops", "Add voltages around the loop.", "They sum to zero."),
        ),
        tokenizer,
    )
    batch = trainer.make_batch([probe], ref)
    _, analytic = trainer.loss_and_grad(params, batch, cfg.train.kl_weight)
    worst, _ = tinylm.gradient_check(
        params,
        lambda p: trainer.loss_value(p, batch, cfg.train.kl_weight),
        analytic,
        n_coords=200,
        seed=cfg.seed,
    )
    passed = worst <= 1e-4
    print(json.dumps({"max_rel_err": worst, "tolerance": 1e-4, "pass": passed}))
    return 0 if passed else 2


_COMMANDS = {
    "ingest": cmd_ingest,
    "distill": cmd_distill,
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}

_VALIDATION_ERRORS = (
    ConfigError,
    StaleArtifact,
    SchemaViolation,
    InvalidEncoding,
    FileNotFoundError,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.check_config(_apply_overrides(cfgmod.load_config(args.config), args))
        return _COMMANDS[args.command](cfg, args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GranaryError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
