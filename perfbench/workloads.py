"""The benchmark workloads: prep_synth, train_nsc_sft and eval_greedy.

Each workload has an input writer (seeded, runs before any timing), a
set-up step, an operation that the timed loop repeats until the time is
up, and checks on the outputs. ``measure`` runs the loop untraced or
under a ``Tracer``; ``layer_metrics`` turns a tracer's spans into the
per-layer numbers. Work is driven only through the program's public
module functions, looked up at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from granary import corpus, dataset, distiller, evalharness, jsonl, prompts, tape, tinylm, trainer
from granary.backend import MockLlmBackend

import inputs
from tracing import TAPE_OPS, Tracer, graph_size, patched

perf = time.perf_counter

# prep_synth: 4 books x 17 chapters gives 2044 learning nodes, enough for
# the mock backend's per-answer node scan to dominate distill time.
PREP_BOOKS, PREP_CHAPTERS = 4, 17
N_SAMPLES = 5
MALFORM_EVERY = 7
PARALLELISM = 2
MAX_LEN = 256

# train_nsc_sft: the demo shape (30 examples of ~246 tokens, d=32, two
# layers, two heads, context 256). Each timed attempt is a fresh
# trainer.train call of TRAIN_STEPS steps; step 0 builds the batch and the
# reference forward lazily, so it is set-up, not a timed step.
TRAIN_NODES = 6
TRAIN_STEPS = 8
TRAIN_LR = 1e-2
KL_WEIGHT = 0.1
GRAD_CHECK_COORDS = 3
GRAD_TOL = 1e-4

# eval_greedy: a seeded-init checkpoint, 32 items alternating prompts
# below and above the 256-token window, 48 new tokens each; one timed
# operation grades one item of each kind.
EVAL_ITEMS = 32
EVAL_NEW_TOKENS = 48
EVAL_SETUP_REPEATS = 5
CHECK_WINDOWS = 6


class SpeedProbe:
    """Times fixed interpreter-bound work that shares nothing with the program.

    On a shared machine the CPU's speed for interpreter-bound code (a
    Python loop, small numpy calls) swings by tens of percent from minute
    to minute. Timed between operations, the probe measures that swing, so
    a workload made of such code (eval_greedy) can scale its timed-loop
    figures to a machine on which the probe takes REF_S (see README).
    """

    REF_S = 0.011
    REPEATS = 3

    def __init__(self):
        self.matrix = np.random.default_rng(0).normal(size=(64, 64))

    def _work(self) -> None:
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(200):
            np.tanh(self.matrix @ self.matrix) + self.matrix

    def __call__(self) -> float:
        """Median seconds of REPEATS runs of the probe work."""
        times = []
        for _ in range(self.REPEATS):
            t0 = perf()
            self._work()
            times.append(perf() - t0)
        return statistics.median(times)


def model_config(seed: int) -> tinylm.ModelConfig:
    return tinylm.ModelConfig(
        d_model=32, n_layers=2, n_heads=2, context_window=256, init_std=0.2, seed=seed
    )


@dataclass
class Outcome:
    """What one measured loop saw: operation counts, samples and failures."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # one latency sample per op unit
    work: float = 0.0  # tokens processed (train and eval)
    work_s: float = 0.0  # seconds spent doing that work
    extra: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    units: int = 0  # op units measured (passes, steps, tokens)
    probe_s: list[float] = field(default_factory=list)  # speed probes between operations
    errors: list[str] = field(default_factory=list)

    def speed(self) -> float:
        """How much slower than the reference the machine ran (1 when not probed)."""
        return statistics.median(self.probe_s) / SpeedProbe.REF_S if self.probe_s else 1.0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value


def _guarded(out: Outcome, label: str, fn) -> None:
    """Run one operation; an exception counts it as failed."""
    out.attempted += 1
    try:
        fn()
    except Exception:  # a crash in the program is a failed operation
        out.fail(f"{label}: {traceback.format_exc()}")


# -- prep_synth ------------------------------------------------------------------


class PrepSynth:
    name = "prep_synth"
    # Unscaled: GIL hand-offs between the distill workers dominate this
    # workload's run-to-run spread, and the single-thread probe does not
    # track them (ten runs: spread 0.11 unscaled, 0.21 scaled).
    scaled = False

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.corpus_dir = work / "books"
        self.expected_nodes = inputs.write_corpus(self.corpus_dir, seed, PREP_BOOKS, PREP_CHAPTERS)
        self.passes = 0

    def _distill(self, nodes, out_dir: Path):
        backend = MockLlmBackend(
            seed=self.seed,
            node_ids=[n.node_id for n in nodes],
            n_samples=N_SAMPLES,
            malform_answer_every=MALFORM_EVERY,
        )
        cfg = distiller.DistillConfig(
            n_samples=N_SAMPLES, parallelism=PARALLELISM, journal_path=out_dir / "journal.jsonl"
        )
        return distiller.distill_corpus(nodes, cfg, backend)

    def _write_qtsa(self, path: Path, entries) -> None:
        jsonl.write_jsonl(
            path, [distiller.entry_to_record(e) for e in entries], schema=distiller.QTSA_KEYS
        )

    def _build(self, out_dir: Path) -> tuple[int, int, int]:
        """The build stage as ``granary build`` runs it; returns (sft, tokens, packs)."""
        entries = [
            distiller.entry_from_record(r)
            for r in jsonl.read_jsonl(out_dir / "qtsa.jsonl", schema=distiller.QTSA_KEYS)
        ]
        sft = [
            dataset.chat_example_to_record(dataset.render_chat_template(e), e.entry_id)
            for e in entries
            if e.kept
        ]
        jsonl.write_jsonl(out_dir / "sft_dataset.jsonl", sft, schema=dataset.SFT_KEYS)
        nodes = [
            corpus.node_from_record(r)
            for r in jsonl.read_jsonl(out_dir / "nodes.jsonl", schema=corpus.NODE_KEYS)
        ]
        jsonl.write_jsonl(
            out_dir / "cpt_dataset.jsonl",
            [{"node_id": n.node_id, "text": n.text} for n in nodes],
            schema=dataset.CPT_KEYS,
        )
        tokenizer = tinylm.ByteTokenizer()
        pieces = []
        for node in nodes:
            pieces.extend(dataset.chunk_tokenized(dataset.tokenize_cpt(node.text, tokenizer), MAX_LEN))
        packs = dataset.pack_sequences(pieces, MAX_LEN)
        dataset.save_packed(out_dir / "packed.bin", packs, max_len=MAX_LEN)
        return len(sft), sum(p.total_length for p in packs), len(packs)

    def op(self, out: Outcome, tracer: Tracer | None) -> None:
        out_dir = self.work / f"pass{self.passes}"
        self.passes += 1
        if tracer is not None:
            tracer.unit = self.passes
        out_dir.mkdir()
        t0 = perf()
        docs = corpus.load_corpus(self.corpus_dir, self.corpus_dir / "manifest.json")
        decompose_cfg = corpus.DecomposeConfig()
        nodes = []
        for doc in docs:
            nodes.extend(corpus.decompose_to_nodes(corpus.parse_markdown_tree(doc), doc.doc_id, decompose_cfg))
        jsonl.write_jsonl(out_dir / "nodes.jsonl", [corpus.node_to_record(n) for n in nodes], schema=corpus.NODE_KEYS)
        nodes = [corpus.node_from_record(r) for r in jsonl.read_jsonl(out_dir / "nodes.jsonl", schema=corpus.NODE_KEYS)]
        t1 = perf()
        entries = self._distill(nodes, out_dir)
        t2 = perf()
        self._write_qtsa(out_dir / "qtsa.jsonl", entries)
        sft_count, packed_tokens, packs = self._build(out_dir)
        t3 = perf()

        kept_lines = inputs.truncate_lines(out_dir / "journal.jsonl")
        t4 = perf()
        resumed = self._distill(nodes, out_dir)
        t5 = perf()
        self._write_qtsa(out_dir / "qtsa_resumed.jsonl", resumed)
        t6 = perf()

        tasks = len(nodes) * N_SAMPLES
        fresh_tasks, resume_tasks = tasks, tasks - kept_lines
        out.op_s.append(t3 - t0)
        out.add("distill_tasks_per_s", fresh_tasks / (t2 - t1))
        out.add("resume_s", t6 - t4)
        out.add("tasks_per_s", (fresh_tasks + resume_tasks) / ((t2 - t1) + (t5 - t4)))
        out.units += 1
        kept = sum(e.kept for e in entries)
        out.count("nodes", len(nodes))
        out.count("tasks", fresh_tasks + resume_tasks)
        out.count("kept_frac", kept / len(entries))
        out.count("pack_fill", packed_tokens / (packs * MAX_LEN))

        problems = self._check(nodes, entries, out_dir, kept_lines, sft_count, packed_tokens)
        shutil.rmtree(out_dir)
        if problems:
            raise AssertionError("; ".join(problems))

    def _check(self, nodes, entries, out_dir, kept_lines, sft_count, packed_tokens) -> list[str]:
        problems = []
        if len(nodes) != self.expected_nodes:
            problems.append(f"ingest yielded {len(nodes)} nodes, expected {self.expected_nodes}")
        if len(entries) != len(nodes) * N_SAMPLES:
            problems.append(f"distill returned {len(entries)} entries for {len(nodes)} nodes")
        wrong = 0
        for ordinal, entry in enumerate(entries, 1):
            if ordinal % MALFORM_EVERY == 0:
                wrong += entry.status != distiller.STATUS_REJECTED or entry.reject_reason != "missing_answer"
            else:
                wrong += not entry.kept
        if wrong:
            problems.append(f"{wrong} entries break the every-{MALFORM_EVERY}th rejection schedule")
        fresh = (out_dir / "qtsa.jsonl").read_bytes()
        if (out_dir / "qtsa_resumed.jsonl").read_bytes() != fresh:
            problems.append("resumed qtsa.jsonl differs from the fresh run's")
        with (out_dir / "journal.jsonl").open(encoding="utf-8") as fh:
            journal_lines = sum(1 for _ in fh)
        if journal_lines != len(entries):
            problems.append(
                f"journal has {journal_lines} lines after resuming from {kept_lines}, expected {len(entries)}"
            )
        kept = sum(e.kept for e in entries)
        if sft_count != kept:
            problems.append(f"build wrote {sft_count} sft records for {kept} kept entries")
        expected_tokens = sum(len(n.text.encode("utf-8")) + 2 for n in nodes)
        if packed_tokens != expected_tokens:
            problems.append(f"packed {packed_tokens} tokens, expected {expected_tokens}")
        return problems

    def trace(self, tracer: Tracer, stack: ExitStack) -> None:
        def count_bytes(_result, path, *_args):
            tracer.counters["jsonl.bytes_written"] += Path(path).stat().st_size

        tracer.wrap(corpus, "parse_markdown_tree", "corpus.parse")
        tracer.wrap(corpus, "decompose_to_nodes", "corpus.decompose")
        tracer.wrap(distiller, "distill_corpus", "distiller.distill_corpus", adopt=True)
        tracer.wrap(
            MockLlmBackend,
            "complete",
            name_of=lambda _self, request: "backend." + _agent(request),
        )
        tracer.wrap(distiller.DistillJournal, "__init__", "journal.load")
        tracer.wrap(distiller.DistillJournal, "commit", "journal.commit")
        tracer.wrap(dataset, "tokenize_cpt", "dataset.tokenize")
        tracer.wrap(dataset, "chunk_tokenized", "dataset.tokenize")
        tracer.wrap(dataset, "pack_sequences", "dataset.pack")
        tracer.wrap(dataset, "save_packed", "dataset.save")
        tracer.wrap(jsonl, "read_jsonl", "jsonl.read")
        tracer.wrap(jsonl, "write_jsonl", "jsonl.write", after=count_bytes)
        stack.callback(tracer.restore)


def _agent(request) -> str:
    system = request.messages[0].content
    for tag, agent in (
        (prompts.QUESTION_TAG, "question"),
        (prompts.ANSWER_TAG, "answer"),
        (prompts.REWRITE_TAG, "rewrite"),
        (prompts.EVAL_TAG, "eval"),
    ):
        if system.startswith(tag):
            return agent
    return "other"


# -- train_nsc_sft ---------------------------------------------------------------


class TrainNscSft:
    name = "train_nsc_sft"
    # Unscaled: large memory-bound numpy ops do not follow the probe.
    scaled = False

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.sft_path = work / "sft_dataset.jsonl"
        self._write_examples()
        self.checked = False

    def _write_examples(self) -> None:
        """Mock-distil the first nodes of a one-chapter book into SFT records."""
        books = self.work / "books"
        inputs.write_corpus(books, self.seed, books=1, chapters=1)
        (doc,) = corpus.load_corpus(books, books / "manifest.json")
        nodes = corpus.decompose_to_nodes(corpus.parse_markdown_tree(doc), doc.doc_id, corpus.DecomposeConfig())
        nodes = nodes[:TRAIN_NODES]
        backend = MockLlmBackend(seed=self.seed, node_ids=[n.node_id for n in nodes], n_samples=N_SAMPLES)
        entries = distiller.distill_corpus(nodes, distiller.DistillConfig(n_samples=N_SAMPLES), backend)
        jsonl.write_jsonl(
            self.sft_path,
            [dataset.chat_example_to_record(dataset.render_chat_template(e), e.entry_id) for e in entries],
            schema=dataset.SFT_KEYS,
        )

    def _load(self):
        tokenizer = tinylm.ByteTokenizer()
        data = [
            dataset.truncate_chat_example(dataset.chat_example_from_record(r), tokenizer, MAX_LEN)
            for r in jsonl.read_jsonl(self.sft_path, schema=dataset.SFT_KEYS)
        ]
        init_params = tinylm.init(model_config(self.seed))
        return data, init_params, tinylm.freeze_reference(init_params)

    def _train_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            mode="nsc_sft", total_steps=TRAIN_STEPS, lr_max=TRAIN_LR, kl_weight=KL_WEIGHT, seed=self.seed
        )

    def op(self, out: Outcome, tracer: Tracer | None) -> None:
        marks: list[float] = []
        captured: list[tuple[np.ndarray, np.ndarray]] = []

        def mark_step(original):
            def lr_at(step, cfg):
                marks.append(perf())
                if tracer is not None:
                    tracer.unit = step
                return original(step, cfg)

            return lr_at

        def capture_grad(original):
            def collect_flat_grad(params, leaves):
                gradient = original(params, leaves)
                captured.append((params.flat.copy(), gradient))
                return gradient

            return collect_flat_grad

        t0 = perf()
        data, init_params, ref_params = self._load()
        with ExitStack() as stack:
            stack.enter_context(patched(trainer, "lr_at", mark_step))
            stack.enter_context(patched(tinylm, "collect_flat_grad", capture_grad))
            report = trainer.train(self._train_config(), data, init_params, ref_params)
        t_end = perf()

        bounds = marks[1:] + [t_end]
        steps = [b - a for a, b in zip(marks[1:], bounds[1:])]
        out.setup_s.append(marks[1] - t0)
        out.op_s.extend(steps)
        tokens = sum(ex.length for ex in data)
        out.work += tokens * len(steps)
        out.work_s += sum(steps)
        out.units += len(steps)
        out.count("pad_frac", 1.0 - tokens / (len(data) * max(ex.length for ex in data)))

        problems = self._check(report, captured, data, init_params, ref_params)
        if problems:
            raise AssertionError("; ".join(problems))

    def _check(self, report, captured, data, init_params, ref_params) -> list[str]:
        """Check the trajectory against the evaluation-grade loss and itself.

        The reference trajectory of a seed is re-derived here: step 0's
        loss and the last step's loss must equal ``trainer.loss_nsc_sft``
        averaged over the examples at the parameters that step saw, every
        update must be exactly params - lr * gradient, and the first
        attempt's step-0 gradient must pass a finite-difference check.
        Later attempts must repeat the first attempt's records exactly.
        """
        problems = []
        if len(data) != TRAIN_NODES * N_SAMPLES:
            problems.append(f"{len(data)} training examples, expected {TRAIN_NODES * N_SAMPLES}")
        records = report.records
        if len(records) != TRAIN_STEPS or len(captured) != TRAIN_STEPS:
            return problems + [f"{len(records)} records and {len(captured)} gradients for {TRAIN_STEPS} steps"]
        if not all(math.isfinite(r.total) for r in records):
            problems.append("non-finite loss in the trajectory")
        if self.checked:
            if records != self.records:
                problems.append("trajectory differs from the first attempt's")
            return problems

        def oracle(params) -> float:
            return float(
                np.mean([trainer.loss_nsc_sft(params, ref_params, ex, KL_WEIGHT).total for ex in data])
            )

        for step in (0, TRAIN_STEPS - 1):
            flat, _ = captured[step]
            want = oracle(tinylm.Parameters(init_params.config, flat))
            if not math.isclose(records[step].total, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"step {step} loss {records[step].total!r} != reference {want!r}")
        if not np.array_equal(captured[0][0], init_params.flat):
            problems.append("step 0 did not start from the initial parameters")
        nexts = [flat for flat, _ in captured[1:]] + [report.final_params.flat]
        for (flat, grad), record, nxt in zip(captured, records, nexts):
            if not np.allclose(nxt, flat - record.lr * grad, rtol=1e-12, atol=1e-15):
                problems.append(f"step {record.step} update is not params - lr * gradient")
                break
            if not math.isclose(record.grad_norm, float(np.linalg.norm(grad)), rel_tol=1e-12):
                problems.append(f"step {record.step} grad_norm disagrees with its gradient")
                break
        worst, _ = tinylm.gradient_check(
            init_params, oracle, captured[0][1], n_coords=GRAD_CHECK_COORDS, seed=self.seed
        )
        if not worst <= GRAD_TOL:
            problems.append(f"step-0 gradient check max rel err {worst:.3g} > {GRAD_TOL}")
        self.checked, self.records = True, records
        return problems

    def trace(self, tracer: Tracer, stack: ExitStack) -> None:
        def count_nodes(loss):
            if tracer.unit >= 1:
                tracer.counters["tape.nodes_per_step"] += graph_size(loss)

        tracer.wrap(tinylm, "batched_logprobs", "tinylm.batched_logprobs")
        tracer.wrap(tape, "backward", "tape.backward", before=count_nodes)
        tracer.wrap(tinylm, "collect_flat_grad", "tinylm.collect_flat_grad")
        tracer.wrap(trainer, "lr_at", "trainer.lr_at")
        tracer.wrap_tape_ops(tape)
        stack.callback(tracer.restore)


# -- eval_greedy -----------------------------------------------------------------


class EvalGreedy:
    name = "eval_greedy"
    # Scaled: per-token decode is many small numpy calls and follows the
    # probe (ten runs: spread 0.22 unscaled, 0.08 scaled).
    scaled = True

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.quiz_path = work / "quiz.jsonl"
        self.ckpt_path = work / "model.ckpt"
        inputs.write_quiz(self.quiz_path, seed, EVAL_ITEMS)
        tinylm.save_checkpoint(self.ckpt_path, tinylm.init(model_config(seed)))
        self.params = self.items = self.responder = None
        self.next_item = 0
        self.decodes: dict[str, tuple[list[int], list[int]]] = {}

    def setup(self, out: Outcome) -> None:
        for _ in range(EVAL_SETUP_REPEATS):
            t0 = perf()
            params = tinylm.load_checkpoint(self.ckpt_path)
            items = evalharness.read_quiz(self.quiz_path)
            responder = evalharness.TinyLmResponder(params, max_new_tokens=EVAL_NEW_TOKENS)
            out.setup_s.append(perf() - t0)
        self.params, self.items, self.responder = params, items, responder

    def op(self, out: Outcome, tracer: Tracer | None) -> None:
        """Grade the next pair of items, one prompt below and one above the window."""
        for _ in range(2):
            self._grade(self.items[self.next_item % len(self.items)], out, tracer)

    def _grade(self, item, out: Outcome, tracer: Tracer | None) -> None:
        self.next_item += 1
        if tracer is not None:
            tracer.unit = self.next_item
        calls: list[tuple[list[int], list[int]]] = []

        def capture(original):
            def greedy_decode(params, prompt_ids, max_new_tokens, stop_at_eos=True):
                generated = original(params, prompt_ids, max_new_tokens, stop_at_eos)
                calls.append((list(prompt_ids), list(generated)))
                return generated

            return greedy_decode

        with patched(evalharness, "greedy_decode", capture):
            t0 = perf()
            report = evalharness.grade([item], self.responder)
            elapsed = perf() - t0
        if tracer is not None:
            tracer.counters["items"] += 1
            tracer.counters["unparsable"] += report.unparsable
        if len(calls) != 1:
            raise AssertionError(f"grading one item made {len(calls)} decode calls")
        prompt, generated = calls[0]
        n = len(generated)
        out.op_s.append(elapsed / n)
        out.work += n
        out.work_s += elapsed
        out.units += n
        out.count("long_prompts", len(prompt) > self.params.config.context_window)
        out.count("short_prompts", len(prompt) < self.params.config.context_window)

        seen = self.decodes.get(item.item_id)
        if seen is None:
            self.decodes[item.item_id] = (prompt, generated)
        elif seen != (prompt, generated):
            raise AssertionError(f"item {item.item_id} decoded differently on a repeat")

    def check(self, out: Outcome) -> None:
        """Recompute the decodes with batched forwards and compare argmaxes.

        Contexts shorter than the window are prefixes of one sequence, so
        a single causal forward scores all of them; of the sliding
        windows, CHECK_WINDOWS evenly spaced ones (first and last
        included) are scored in one batch, which keeps the check cheaper
        than the decode. A differing argmax is accepted only at an exact
        tie (1e-9 nats).
        """
        if not (out.counters.get("long_prompts") and out.counters.get("short_prompts")):
            out.fail("quiz prompts do not fall on both sides of the context window")
        w = self.params.config.context_window
        leaves = tinylm.build_leaves(self.params)
        for item_id, (prompt, generated) in self.decodes.items():
            problems = []
            if len(generated) < EVAL_NEW_TOKENS and generated[-1:] != [tinylm.EOS_ID]:
                problems.append("decode stopped early without EOS")
            seq = prompt + generated
            prefix = [j for j in range(len(generated)) if len(prompt) + j <= w]
            sliding = [j for j in range(len(generated)) if len(prompt) + j > w]
            if len(sliding) > CHECK_WINDOWS:
                step = (len(sliding) - 1) / (CHECK_WINDOWS - 1)
                sliding = [sliding[round(i * step)] for i in range(CHECK_WINDOWS)]
            rows: list[tuple[int, np.ndarray]] = []
            if prefix:
                end = len(prompt) + prefix[-1]
                lp = tinylm.batched_logprobs(leaves, self.params.config, np.asarray([seq[:end]])).data[0]
                rows += [(j, lp[len(prompt) + j - 1]) for j in prefix]
            if sliding:
                windows = np.asarray([seq[len(prompt) + j - w : len(prompt) + j] for j in sliding])
                lp = tinylm.batched_logprobs(leaves, self.params.config, windows).data[:, -1]
                rows += list(zip(sliding, lp))
            for j, logprobs in rows:
                if logprobs[generated[j]] < logprobs.max() - 1e-9:
                    problems.append(f"token {j} is {generated[j]}, argmax is {int(np.argmax(logprobs))}")
                    break
            if problems:
                out.fail(f"item {item_id}: " + "; ".join(problems))

    def trace(self, tracer: Tracer, stack: ExitStack) -> None:
        def count_window(_params, ids):
            tracer.counters["context_tokens"] += len(ids)

        def count_nodes(result, *_args):
            tracer.counters["tape.nodes_per_token"] += graph_size(result)

        tracer.wrap(evalharness, "grade", "eval.grade")
        tracer.wrap(evalharness, "extract_answer", "eval.extract")
        tracer.wrap(tinylm, "forward", "tinylm.forward", before=count_window)
        tracer.wrap(tinylm, "batched_logprobs", "tinylm.batched_logprobs", after=count_nodes)
        tracer.wrap_tape_ops(tape)
        stack.callback(tracer.restore)


WORKLOADS = {w.name: w for w in (PrepSynth, TrainNscSft, EvalGreedy)}


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Outcome:
    """Repeat the workload's operation while another one fits in ``seconds``.

    The first operation always runs; a further one starts only if an
    operation of the median length seen so far would end in time. For a
    scaled workload the speed probe runs before the set-up and after every
    operation, outside the timed spans.
    """
    probe = SpeedProbe() if workload.scaled else None
    out = Outcome()
    if probe:
        out.probe_s.append(probe())
    if hasattr(workload, "setup"):
        workload.setup(out)
    durations: list[float] = []
    with ExitStack() as stack:
        if tracer is not None:
            workload.trace(tracer, stack)
        start = perf()
        while not durations or perf() - start + statistics.median(durations) <= seconds:
            t0 = perf()
            _guarded(out, workload.name, lambda: workload.op(out, tracer))
            durations.append(perf() - t0)
            if probe:
                out.probe_s.append(probe())
    return out


def layer_metrics(tracer: Tracer, out: Outcome) -> dict[str, float]:
    """Per-layer numbers from a traced loop, per op unit (pass, step or token).

    Spans from a training call's step 0 (batch build, reference forward)
    are excluded from the per-step figures and reported on their own.
    Layers a workload never calls read 0.
    """
    totals = tracer.totals(min_unit=1)
    units = max(out.units, 1)
    ops = max(out.attempted, 1)

    def secs(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def per_call(name: str) -> float:
        return secs(name) / calls(name) if calls(name) else 0.0

    backend = [f"backend.{agent}" for agent in ("question", "answer", "rewrite", "eval", "other")]
    backend_calls = sum(calls(b) for b in backend)
    m = {
        "corpus.parse_s": secs("corpus.parse") / units,
        "corpus.decompose_s": secs("corpus.decompose") / units,
        "corpus.nodes": out.counters.get("nodes", 0.0) / ops,
        "backend.calls.question": calls("backend.question") / units,
        "backend.calls.answer": calls("backend.answer") / units,
        "backend.calls.rewrite": calls("backend.rewrite") / units,
        "backend.busy_s": sum(secs(b) for b in backend) / units,
        "backend.us_per_call": 1e6 * sum(secs(b) for b in backend) / backend_calls if backend_calls else 0.0,
        "distiller.tasks": out.counters.get("tasks", 0.0) / ops,
        "distiller.kept_frac": out.counters.get("kept_frac", 0.0) / ops,
        "distiller.self_s": tracer.self_times(min_unit=1).get("distiller.distill_corpus", 0.0) / units,
        "journal.commits": calls("journal.commit") / units,
        "journal.commit_s": secs("journal.commit") / units,
        "journal.load_s": secs("journal.load") / units,
        "dataset.tokenize_s": secs("dataset.tokenize") / units,
        "dataset.pack_s": secs("dataset.pack") / units,
        "dataset.save_s": secs("dataset.save") / units,
        "dataset.pack_fill": out.counters.get("pack_fill", 0.0) / ops,
        "jsonl.read_s": secs("jsonl.read") / units,
        "jsonl.write_s": secs("jsonl.write") / units,
        "jsonl.bytes_written": tracer.counters.get("jsonl.bytes_written", 0.0) / units,
        "tinylm.forward_ms_per_step": 1e3 * secs("tinylm.batched_logprobs") / units,
        "tape.backward_ms_per_step": 1e3 * secs("tape.backward") / units,
        "tinylm.collect_grad_ms_per_step": 1e3 * secs("tinylm.collect_flat_grad") / units,
        "tape.nodes_per_step": tracer.counters.get("tape.nodes_per_step", 0.0) / units,
        "trainer.pad_frac": out.counters.get("pad_frac", 0.0) / ops,
        "tinylm.forward_calls": calls("tinylm.forward") / units,
        "tinylm.forward_ms_per_call": 1e3 * per_call("tinylm.forward"),
        "tinylm.context_tokens_per_call": (
            tracer.counters.get("context_tokens", 0.0) / calls("tinylm.forward") if calls("tinylm.forward") else 0.0
        ),
        "tape.nodes_per_token": tracer.counters.get("tape.nodes_per_token", 0.0) / units,
        "eval.grade_s": per_call("eval.grade"),
        "eval.extract_us": 1e6 * per_call("eval.extract"),
        "eval.unparsable": tracer.counters.get("unparsable", 0.0) / tracer.counters["items"] if tracer.counters.get("items") else 0.0,
    }
    for op in TAPE_OPS:
        m[f"tape.{op}.calls"] = calls(f"tape.{op}") / units
        m[f"tape.{op}.fwd_ms"] = 1e3 * secs(f"tape.{op}") / units
        m[f"tape.{op}.bwd_ms"] = 1e3 * secs(f"tape.{op}.bwd") / units

    steps = calls("trainer.lr_at")
    m["trainer.other_ms_per_step"] = (
        1e3 * sum(out.op_s) / len(out.op_s)
        - m["tinylm.forward_ms_per_step"]
        - m["tape.backward_ms_per_step"]
        - m["tinylm.collect_grad_ms_per_step"]
        if steps
        else 0.0
    )
    m["trainer.batch_build_s"], m["trainer.ref_forward_s"] = _step0_split(tracer)
    return m


def _step0_split(tracer: Tracer) -> tuple[float, float]:
    """Mean (batch build, reference forward) seconds inside step 0 of each call.

    In step 0 the trainer builds the batch right after ``lr_at(0)`` and
    then runs the reference model's forward, the step's first
    ``batched_logprobs`` span.
    """
    builds, refs = [], []
    pending = None
    for name, start, end, _parent, _tid, unit in tracer.spans:
        if unit != 0:
            continue
        if name == "trainer.lr_at":
            pending = end
        elif name == "tinylm.batched_logprobs" and pending is not None:
            builds.append(start - pending)
            refs.append(end - start)
            pending = None
    if not builds:
        return 0.0, 0.0
    return sum(builds) / len(builds), sum(refs) / len(refs)
