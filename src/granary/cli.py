"""Single entry point wiring the pipeline stages.

Subcommands: ingest -> distill -> build -> train -> eval, plus gradcheck.
All artifacts live under a work directory whose manifest records the
config slice each stage ran with and its hash, so a stale upstream output
is refused, naming the settings that changed. Each stage's order, config
slice and output files come from ``config.STAGES``.
Exit codes: 0 success; 1 for an input the run cannot use, a ``ValueError``
(a setting, a file, a record, an example longer than the context window);
2 for a failure while the run works, a ``GranaryError`` (a non-finite
loss), or a failed gradient check.

Importing this module loads only what every command needs. The model
stack (``dataset``, ``tinylm``, ``trainer``, ``evalharness``, and numpy
with them) is imported inside the commands that use it, past the point where
``--dry-run`` stops, so ``ingest``, ``distill``, ``--help`` and every
dry run start without numpy. ``_run_stage`` alone keeps the order each
stage of ``config.STAGES`` works in; its body says what it reads and writes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import corpus, distiller, prompts
from .backend import HttpLlmBackend, MockLlmBackend
from .errors import GranaryError, NonFiniteLoss
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
    p_train.add_argument("--mode", choices=cfgmod.MODES, default=None)
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
    """``cfg`` with the given flags' values; each changed section and the config
    are rebuilt, so every value is checked again."""
    changes: dict[str, dict] = {}
    for dest, path in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            section, _, name = path.rpartition(".")
            changes.setdefault(section, {})[name] = value
    top = changes.pop("", {})
    sections = {name: dataclasses.replace(getattr(cfg, name), **values) for name, values in changes.items()}
    return dataclasses.replace(cfg, **top, **sections)


def _backend_for(cfg: cfgmod.PipelineConfig, node_ids: list[str] | None = None):
    if cfg.backend.mock:
        return MockLlmBackend(
            seed=cfg.seed,
            node_ids=node_ids,
            n_samples=cfg.n_samples,
            malform_answer_every=cfg.backend.mock_malform_answer_every,
        )
    return HttpLlmBackend(cfg.backend)


def _model_config(cfg: cfgmod.PipelineConfig):
    from . import tinylm

    return tinylm.ModelConfig(**dataclasses.asdict(cfg.model), seed=cfg.seed)


def _plan(command: str, cfg: cfgmod.PipelineConfig, inputs: list[str | Path]) -> int:
    """Print the plan: the files the run reads, and the stage's outputs from ``config.STAGES``."""
    outputs = cfgmod.STAGES[command].outputs if command in cfgmod.STAGES else ()
    plan = {
        "command": command,
        "dry_run": True,
        "inputs": [str(path) for path in inputs],
        "outputs": [str(Path(cfg.workdir) / name) for name in outputs],
        "config": dataclasses.asdict(cfg),
    }
    print(json.dumps(plan, indent=2))
    return 0


def _run_stage(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    """Run a stage in the one order the manifest relies on.

    A stage's body is a generator that yields three times: the files it
    reads (a dry run stops there), once it has read and checked them, and
    its summary once it has written. The upstream check of the stages that
    wrote those files comes before the read and ``config.start_stage``
    after it, so a stage refused on its inputs keeps every manifest entry;
    ``config.record_stage`` comes last. Both take the manifest the check read.
    """
    workdir = Path(cfg.workdir)
    body = _STAGE_BODIES[args.command](cfg, args, workdir)
    inputs = next(body)
    if args.dry_run:
        return _plan(args.command, cfg, inputs)
    manifest = cfgmod.check_upstream(workdir, args.command, cfg, inputs)
    next(body)
    workdir.mkdir(parents=True, exist_ok=True)
    cfgmod.start_stage(workdir, args.command, manifest)
    summary = next(body)
    cfgmod.record_stage(workdir, args.command, cfg, manifest)
    print(json.dumps(summary))
    return 0


def _ingest(cfg: cfgmod.PipelineConfig, args: argparse.Namespace, workdir: Path):
    yield [cfg.corpus_dir, cfg.manifest]
    decompose_cfg = corpus.DecomposeConfig(min_node_tokens=cfg.min_node_tokens, stop_headings=tuple(cfg.stop_headings))
    nodes: list[corpus.LearningNode] = []
    for doc in corpus.load_corpus(cfg.corpus_dir, cfg.manifest):
        nodes.extend(corpus.decompose_to_nodes(corpus.parse_markdown_tree(doc), doc.doc_id, decompose_cfg))
    yield
    write_jsonl(workdir / "nodes.jsonl", [corpus.node_to_record(n) for n in nodes], schema=corpus.NODE_KEYS)
    yield dataclasses.asdict(corpus.corpus_stats(nodes))


def _distill(cfg: cfgmod.PipelineConfig, args: argparse.Namespace, workdir: Path):
    nodes_path = workdir / "nodes.jsonl"
    yield [nodes_path]
    nodes = [corpus.node_from_record(r) for r in read_jsonl(nodes_path, schema=corpus.NODE_KEYS)]
    backend = _backend_for(cfg, node_ids=[n.node_id for n in nodes])
    distill_cfg = distiller.DistillConfig(
        n_samples=cfg.n_samples,
        parallelism=cfg.parallelism,
        journal_path=workdir / "journal.jsonl",
        stage_hash=cfgmod.stage_hash(cfg, "distill"),
    )
    # The journal is read and checked here and appended as tasks finish; each line carries its stage hash.
    entries = distiller.distill_corpus(nodes, distill_cfg, backend)
    yield
    write_jsonl(workdir / "qtsa.jsonl", [distiller.entry_to_record(e) for e in entries], schema=distiller.QTSA_KEYS)
    kept = sum(e.kept for e in entries)
    yield {"attempted": len(entries), "kept": kept, "rejected": len(entries) - kept}


def _build(cfg: cfgmod.PipelineConfig, args: argparse.Namespace, workdir: Path):
    qtsa_path, nodes_path = workdir / "qtsa.jsonl", workdir / "nodes.jsonl"
    general_path = cfg.dataset.general_path
    yield [qtsa_path, nodes_path] + ([general_path] if general_path else [])
    from . import dataset

    entries = [distiller.entry_from_record(r) for r in read_jsonl(qtsa_path, schema=distiller.QTSA_KEYS)]
    domain = [(e.entry_id, dataset.render_chat_template(e, cfg.dataset.system_prompt)) for e in entries if e.kept]
    general = [
        (rec["id"], dataclasses.replace(dataset.chat_example_from_record(rec), origin=dataset.ORIGIN_GENERAL))
        for rec in (read_jsonl(general_path, schema=dataset.SFT_KEYS) if general_path else [])
    ]
    mixed = dataset.mix_datasets(domain, general, cfg.dataset.mix_ratio, cfg.seed) if general else domain
    nodes = [corpus.node_from_record(r) for r in read_jsonl(nodes_path, schema=corpus.NODE_KEYS)]
    yield
    write_jsonl(
        workdir / "sft_dataset.jsonl",
        [dataset.chat_example_to_record(ex, example_id) for example_id, ex in mixed],
        schema=dataset.SFT_KEYS,
    )
    cpt_records = [vars(dataset.CptRecord(n.node_id, n.text)) for n in nodes]
    write_jsonl(workdir / "cpt_dataset.jsonl", cpt_records, schema=dataset.CPT_KEYS)
    yield {"sft_examples": len(mixed), "cpt_records": len(nodes)}


def _train(cfg: cfgmod.PipelineConfig, args: argparse.Namespace, workdir: Path):
    mode = cfg.train.mode
    data_path = workdir / ("cpt_dataset.jsonl" if mode == "cpt" else "sft_dataset.jsonl")
    init = args.init_checkpoint
    yield [data_path] + ([init] if init else [])
    from . import dataset, tinylm, trainer

    init_params = tinylm.load_checkpoint(init) if init else tinylm.init(_model_config(cfg))

    # Every sequence is fit to the model's context window.
    tokenizer = tinylm.ByteTokenizer()
    window = init_params.config.context_window
    if mode == "cpt":
        texts = [dataset.cpt_text_from_record(rec) for rec in read_jsonl(data_path, schema=dataset.CPT_KEYS)]
        data: list = dataset.pack_cpt_texts(texts, window)
    else:
        data = [
            dataset.truncate_chat_example(dataset.chat_example_from_record(rec), tokenizer, window)
            for rec in read_jsonl(data_path, schema=dataset.SFT_KEYS)
        ]

    train_cfg = trainer.TrainConfig(**dataclasses.asdict(cfg.train), seed=cfg.seed)
    ref_params = tinylm.freeze_reference(init_params) if mode == "nsc_sft" else None
    report_paths = (workdir / "train_report.jsonl", workdir / "train_summary.json")
    yield
    try:
        report = trainer.train(train_cfg, data, init_params, ref_params=ref_params)
    except NonFiniteLoss as exc:
        if exc.report is not None:
            trainer.write_report(exc.report, *report_paths)
        raise

    tinylm.save_checkpoint(workdir / "model.ckpt", report.final_params)
    trainer.write_report(report, *report_paths)
    yield report.summary()


def _eval(cfg: cfgmod.PipelineConfig, args: argparse.Namespace, workdir: Path):
    quiz_path = args.quiz or prompts.default_quiz_path()
    trained_here = args.checkpoint is None and cfg.backend.mock and (workdir / "model.ckpt").exists()
    checkpoint = workdir / "model.ckpt" if trained_here else args.checkpoint
    yield [quiz_path] if checkpoint is None else [quiz_path, checkpoint]
    from . import evalharness, tinylm

    items = evalharness.read_quiz(quiz_path)
    params = None if checkpoint is None else tinylm.load_checkpoint(checkpoint)
    yield
    if params is None:
        report = evalharness.grade(items, _backend_for(cfg), parallelism=cfg.parallelism)
    else:
        # Local greedy decode stays sequential; parallelism applies to backends.
        report = evalharness.grade(items, evalharness.TinyLmResponder(params), parallelism=1)
    with atomic_write(workdir / "eval_report.json") as fh:
        fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
    yield {"accuracy": report.accuracy, "unparsable": report.unparsable}


_STAGE_BODIES = {"ingest": _ingest, "distill": _distill, "build": _build, "train": _train, "eval": _eval}


def cmd_gradcheck(cfg: cfgmod.PipelineConfig, args: argparse.Namespace) -> int:
    if args.dry_run:
        return _plan("gradcheck", cfg, [])
    from . import dataset, tinylm, trainer

    model_cfg = _model_config(cfg)
    params = tinylm.init(model_cfg)
    ref = tinylm.freeze_reference(tinylm.init(dataclasses.replace(model_cfg, seed=cfg.seed + 101)))

    # The probe is fit to the model's context window, as train fits its
    # examples. Its reply is untagged, so it is cut from its tail: a tagged
    # Q/T/S/A reply keeps its answer span and cannot fit the default window.
    reply = "Sum the drops: add voltages around the loop. They sum to zero."
    probe = dataset.ChatExample(system="", user="State the loop law.", assistant=reply)
    probe = dataset.truncate_chat_example(probe, tinylm.ByteTokenizer(), model_cfg.context_window)
    batch = trainer.make_batch([probe], ref)
    _, analytic = trainer.loss_and_grad(params, batch, cfg.train.kl_weight)
    worst, _ = tinylm.gradient_check(
        params, lambda p: trainer.loss_value(p, batch, cfg.train.kl_weight), analytic, n_coords=200, seed=cfg.seed
    )
    passed = worst <= 1e-4
    print(json.dumps({"max_rel_err": worst, "tolerance": 1e-4, "pass": passed}))
    return 0 if passed else 2


_COMMANDS = {**dict.fromkeys(_STAGE_BODIES, _run_stage), "gradcheck": cmd_gradcheck}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(cfgmod.load_config(args.config), args)
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GranaryError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
