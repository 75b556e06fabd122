"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside pytest's own output.
"""

import json
import math
import string
import time

import numpy as np
import pytest

from conftest import TRAIN_MODEL_CFG
from oracles import central_differences, max_rel_err
from granary import tinylm, trainer
from granary.backend import MockLlmBackend
from granary.dataset import (
    TokenizedExample,
    pack_sequences,
    render_chat_template,
    tokenize_and_mask,
)
from granary.distiller import DistillConfig, QtsaEntry, distill_corpus, entry_to_record
from granary.evalharness import extract_answer, grade, read_quiz
from granary.prompts import default_quiz_path
from granary.tinylm import (
    BOS_ID,
    EOS_ID,
    ByteTokenizer,
    ModelConfig,
    freeze_reference,
    init,
)
from granary.trainer import TrainConfig, kl_term, lr_at, train, write_report

TOK = ByteTokenizer()


def verdict(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d}: {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def descent_runs(fixture_examples):
    """Three 200-step KL-anchored runs sharing one init, swept over lr."""
    init_params = init(TRAIN_MODEL_CFG)
    ref = freeze_reference(init_params)
    runs = {}
    started = time.perf_counter()
    for lr in (1e-2, 1e-3, 1e-4):
        cfg = TrainConfig(mode="nsc_sft", total_steps=200, lr_max=lr, kl_weight=0.1, seed=0)
        runs[lr] = train(cfg, fixture_examples, init_params, ref_params=ref)
    elapsed = time.perf_counter() - started
    return init_params, ref, runs, elapsed


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    ids = [BOS_ID] + TOK.encode("small gradient probe, forty bytes or so") + [EOS_ID]
    mask = [False] * 9 + [True] * (len(ids) - 9)
    example = TokenizedExample(input_ids=ids, loss_mask=mask)

    worst_overall = 0.0
    for seed in (0, 1, 2):
        params = init(ModelConfig(seed=seed))
        batch = trainer.make_batch([example], init(ModelConfig(seed=seed + 50)))
        _, analytic = trainer.loss_and_grad(params, batch, 0.1)
        coords = np.random.default_rng(seed).choice(params.count, size=200, replace=False)
        fd = central_differences(lambda: trainer.loss_value(params, batch, 0.1), params.flat, coords)
        worst_overall = max(worst_overall, max_rel_err(fd, analytic[coords]))

    elapsed = time.perf_counter() - started
    verdict(
        1,
        "analytic gradients of the KL-anchored loss match central differences",
        worst_overall <= 1e-4 and elapsed < 120,
        f"max rel err {worst_overall:.2e} over 600 coords, {elapsed:.1f}s",
    )


def test_criterion_2_kl_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        logits = rng.normal(0, 2, size=(2, 259))
        cur, ref = (row - np.logaddexp.reduce(row) for row in logits)
        p, q = np.exp(cur), np.exp(ref)
        direct = float(np.sum(p * np.log(p / q)))
        ours = kl_term(cur[None], ref[None], np.ones(1, dtype=bool))
        worst = max(worst, abs(ours - direct))

    lp = rng.normal(0, 1, size=(3, 259))
    lp -= np.logaddexp.reduce(lp, axis=-1, keepdims=True)
    identity = kl_term(lp, lp, np.ones(3, dtype=bool))

    one_hot = np.array([[0.0, -np.inf]])
    uniform2 = np.full((1, 2), math.log(0.5))
    ln2_err = abs(kl_term(one_hot, uniform2, np.ones(1, dtype=bool)) - math.log(2))

    elapsed = time.perf_counter() - started
    verdict(
        2,
        "log-space KL matches direct summation, identity and ln2 cases exact",
        worst <= 1e-10 and identity <= 1e-12 and ln2_err <= 1e-12 and elapsed < 5,
        f"max |diff| {worst:.1e}, identity {identity:.1e}, ln2 err {ln2_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_reduction_identity(fixture_examples, tmp_path):
    init_params = init(TRAIN_MODEL_CFG)
    ref = freeze_reference(init_params)
    shared = dict(total_steps=50, lr_max=1e-2, seed=0)
    nsc_report = train(
        TrainConfig(mode="nsc_sft", kl_weight=0.0, **shared),
        fixture_examples, init_params, ref_params=ref,
    )
    sft_report = train(
        TrainConfig(mode="sft", **shared),
        fixture_examples, init_params, ref_params=ref,
    )
    write_report(nsc_report, tmp_path / "nsc.jsonl", tmp_path / "nsc.json")
    write_report(sft_report, tmp_path / "sft.jsonl", tmp_path / "sft.json")
    tinylm.save_checkpoint(tmp_path / "nsc.ckpt", nsc_report.final_params)
    tinylm.save_checkpoint(tmp_path / "sft.ckpt", sft_report.final_params)

    reports_equal = (
        (tmp_path / "nsc.jsonl").read_bytes() == (tmp_path / "sft.jsonl").read_bytes()
        and (tmp_path / "nsc.json").read_bytes() == (tmp_path / "sft.json").read_bytes()
    )
    checkpoints_equal = (tmp_path / "nsc.ckpt").read_bytes() == (tmp_path / "sft.ckpt").read_bytes()
    verdict(
        3,
        "zero-weight KL run and plain SFT run are bit-identical",
        reports_equal and checkpoints_equal,
        "reports and checkpoints byte-equal over 50 steps",
    )


def test_criterion_4_descent_property(descent_runs):
    _, _, runs, elapsed = descent_runs
    outcomes = {}
    for lr, report in runs.items():
        summary = report.summary()
        outcomes[lr] = (
            summary["nonincreasing_fraction"] >= 0.95
            and summary["final_total"] <= 0.8 * summary["initial_total"],
            summary,
        )
    passing = [lr for lr, (ok, _) in outcomes.items() if ok]
    detail = "; ".join(
        f"lr={lr:g}: {s['initial_total']:.2f}->{s['final_total']:.2f}"
        f" noninc={s['nonincreasing_fraction']:.3f}"
        for lr, (_, s) in outcomes.items()
    )
    verdict(
        4,
        "some lr in {1e-2,1e-3,1e-4} descends >=95% of steps to <=0.8x initial",
        bool(passing) and elapsed < 300,
        f"{detail}; sweep took {elapsed:.0f}s",
    )


def test_criterion_5_nsc_directional_effect(descent_runs, fixture_examples):
    init_params, ref, runs, _ = descent_runs
    constrained = runs[1e-2]
    unconstrained = train(
        TrainConfig(mode="nsc_sft", total_steps=200, lr_max=1e-2, kl_weight=0.0, seed=0),
        fixture_examples, init_params, ref_params=ref,
    )

    heldout = [
        "The amplifier rejects supply noise.",
        "A capacitor integrates current over time.",
        "Feedback stabilizes the closed loop gain.",
        "The filter passes low frequencies only.",
        "Bias current sets the operating point.",
        "The oscillator needs unity loop gain.",
    ]

    def mean_heldout_kl(params):
        values = []
        for text in heldout:
            ids = [BOS_ID] + TOK.encode(text) + [EOS_ID]
            cur = tinylm.forward(params, ids)
            anchor = tinylm.forward(ref, ids)
            values.append(kl_term(cur, anchor, np.ones(len(ids), dtype=bool)))
        return float(np.mean(values))

    kl_with = mean_heldout_kl(constrained.final_params)
    kl_without = mean_heldout_kl(unconstrained.final_params)
    ref_intact = (
        constrained.ref_fingerprint_before == constrained.ref_fingerprint_after
        and unconstrained.ref_fingerprint_before == unconstrained.ref_fingerprint_after
    )
    verdict(
        5,
        "KL weight 0.1 keeps the final model strictly closer to the reference",
        kl_with < kl_without and ref_intact,
        f"held-out KL {kl_with:.3f} (constrained) vs {kl_without:.3f} (plain); reference hash unchanged",
    )


class _KillAfter:
    def __init__(self, inner, calls):
        self.inner, self.remaining = inner, calls

    def complete(self, request):
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated crash")
        self.remaining -= 1
        return self.inner.complete(request)


def test_criterion_6_distillation_determinism(minibook_nodes, tmp_path):
    node_ids = [n.node_id for n in minibook_nodes]

    def mock():
        return MockLlmBackend(seed=0, node_ids=node_ids, n_samples=5, malform_answer_every=10)

    entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), mock())
    kept = [e for e in entries if e.kept]
    rejected = [e for e in entries if not e.kept]
    counts_ok = (
        len(entries) == 30
        and len(kept) == 27
        and len(rejected) == 3
        and all(e.reject_reason == "missing_answer" for e in rejected)
    )

    journal = tmp_path / "journal.jsonl"
    cfg = DistillConfig(n_samples=5, journal_path=journal)
    with pytest.raises(KeyboardInterrupt):
        distill_corpus(minibook_nodes, cfg, _KillAfter(mock(), calls=31))
    committed = len([l for l in journal.read_text().splitlines() if l.strip()])
    resumed = distill_corpus(minibook_nodes, cfg, mock())
    resume_ok = 0 < committed < 30 and json.dumps(
        [entry_to_record(e) for e in resumed]
    ) == json.dumps([entry_to_record(e) for e in entries])

    verdict(
        6,
        "mock distillation yields 30 attempted / 27 kept / 3 rejected and resumes byte-identically",
        counts_ok and resume_ok,
        f"kill after {committed} commits, resume output identical",
    )


def test_criterion_7_packing_conservation():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    lengths = rng.integers(1, 8193, size=1000)
    examples = []
    for n in lengths:
        ids = rng.integers(0, 259, size=n)
        mask = rng.random(n) < 0.3
        mask[0] = True
        examples.append(
            TokenizedExample(input_ids=ids.tolist(), loss_mask=mask.tolist())
        )
    packs = pack_sequences(examples, 8192)

    def flatten(pairs):
        return np.sort(np.concatenate(pairs)) if pairs else np.zeros(0, dtype=np.int64)

    before = flatten(
        [
            np.asarray(ex.input_ids, dtype=np.int64) * 2 + np.asarray(ex.loss_mask)
            for ex in examples
        ]
    )
    after = flatten(
        [
            np.asarray(pack.ids[s.offset : s.offset + s.length], dtype=np.int64) * 2
            + np.asarray(s.loss_mask)
            for pack in packs
            for s in pack.segments
        ]
    )
    conserved = np.array_equal(before, after)
    bounded = all(p.total_length <= 8192 for p in packs)
    in_order = [
        pack.ids[s.offset : s.offset + s.length].tolist() for pack in packs for s in pack.segments
    ] == [ex.input_ids.tolist() for ex in examples]
    elapsed = time.perf_counter() - started
    verdict(
        7,
        "packing 1000 random examples conserves the (id, mask) multiset in order",
        conserved and bounded and in_order and elapsed < 10,
        f"{len(packs)} packs, {elapsed:.1f}s",
    )


def test_criterion_8_masking_soundness():
    rng = np.random.default_rng(8)
    alphabet = string.ascii_letters + string.digits + " .,:;!?-+*/=()[]"

    def random_text(max_len):
        n = int(rng.integers(1, max_len))
        return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))

    sound = True
    for k in range(100):
        entry = QtsaEntry(
            entry_id=f"e{k}", node_id="n", sample_idx=0,
            question=random_text(60), thinking=random_text(80),
            solution=random_text(120), answer=random_text(40), status="kept",
        )
        example = render_chat_template(entry, system_prompt=random_text(30) if k % 3 else "")
        tokenized = tokenize_and_mask(example, TOK)
        masked = [i for i, m in zip(tokenized.input_ids, tokenized.loss_mask) if m]
        if TOK.decode(masked[:-1]) != example.assistant or masked[-1] != EOS_ID:
            sound = False
            break
    verdict(
        8,
        "mask-true spans of 100 random records decode to assistant text + EOS",
        sound,
    )


class _ScriptedResponder:
    def __init__(self, answers):
        self.answers = answers

    def complete(self, request):
        stem = request.messages[-1].content.split("\n")[0]
        return self.answers[stem]


def test_criterion_9_eval_harness():
    items = read_quiz(default_quiz_path())
    wrong = {"A": "B", "B": "A"}
    answers = {}
    for k, quiz_item in enumerate(items):
        letter = quiz_item.correct if k != 2 else wrong.get(quiz_item.correct, "A")
        answers[quiz_item.stem] = f"Reasoning...\n<answer>{letter}</answer>"
    report = grade(items, _ScriptedResponder(answers))

    extraction_cases = [
        ("...reasoning...<answer>C</answer>", "C"),
        ("<answer>A</answer> then <answer>D</answer>", "D"),
        ("<answer>  B  </answer>", "B"),
        ("<answer>b</answer>", "b"),
        ("The answer is B.", "B"),
        ("Answer: C", "C"),
        ("I choose option (D) here.", "D"),
        ("first Answer: A, revised answer: C", "C"),
        ("<answer>not a letter</answer> but Answer: B", "B"),
        ("no letter here", None),
    ]
    extraction_ok = all(extract_answer(text) == want for text, want in extraction_cases)
    has_noise_item = any(i.item_id == "opamp-noise-gm-ratio" for i in items)
    verdict(
        9,
        "4-item fixture quiz grades to exactly 0.75; extraction rules hold on 10 strings",
        report.accuracy == 0.75 and extraction_ok and has_noise_item and len(items) == 4,
        f"accuracy {report.accuracy}, unparsable {report.unparsable}",
    )


def test_criterion_10_schedule_shape():
    cfg = TrainConfig(mode="sft", total_steps=200, lr_max=3e-3)
    warmup = round(0.10 * cfg.total_steps)
    end_of_warmup = lr_at(warmup - 1, cfg)
    midpoint = warmup + (cfg.total_steps - warmup) // 2
    mid_value = lr_at(midpoint, cfg)
    warmup_exact = end_of_warmup == cfg.lr_max
    midpoint_exact = abs(mid_value - cfg.lr_max / 2) <= 1e-12
    verdict(
        10,
        "lr hits lr_max exactly at warmup end and lr_max/2 at the cosine midpoint",
        warmup_exact and midpoint_exact,
        f"warmup end {end_of_warmup:g}, midpoint {mid_value:.12g}",
    )
