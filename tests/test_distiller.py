"""Distillation agents, postprocessing, and the resumable run loop."""

import dataclasses
import functools
import hashlib
import json
import re
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granary import prompts
from granary.backend import ChatResponse, HttpLlmBackend, MockLlmBackend
from granary.corpus import LearningNode
from granary.distiller import (
    DANGLING_PATTERNS,
    DistillConfig,
    DistillJournal,
    QTSA_KEYS,
    QtsaEntry,
    RawAnswer,
    answer_question,
    distill_corpus,
    entry_from_record,
    entry_id_for,
    entry_to_record,
    find_dangling,
    generate_question,
    parse_answer_spans,
    postprocess,
    render_assistant,
)
from granary.errors import BackendError, EmptyGeneration, SchemaViolation, StaleArtifact
from granary.jsonl import read_jsonl, write_jsonl
from oracles import RecordingBackend


def make_node(text="Ohm's law ties voltage, current, and resistance together.", nid="f" * 64):
    return LearningNode(
        node_id=nid, doc_id="d", heading_path=["Ch", "Sec"], text=text, token_estimate=20
    )


class StubBackend:
    """Returns canned content; optionally records requests."""

    def __init__(self, content="", error=None):
        self.content = content
        self.error = error
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if self.error is not None:
            raise self.error
        return ChatResponse(content=self.content)


class NullContentSession:
    """An HTTP session whose every completion carries ``"content": null``."""

    def post(self, url, **kwargs):
        return types.SimpleNamespace(status_code=200, json=lambda: {"choices": [{"message": {"content": None}}]})


class TestParseSpans:
    def test_full_response(self):
        raw = parse_answer_spans("<think>t</think>\nsol\n<answer>42</answer>")
        assert (raw.thinking, raw.solution, raw.answer) == ("t", "sol", "42")

    def test_missing_answer_span(self):
        raw = parse_answer_spans("<think>why</think>\nonly solution here")
        assert raw.thinking == "why"
        assert raw.solution == "only solution here"
        assert raw.answer == ""

    def test_malformed_closing_tag(self):
        raw = parse_answer_spans("<answer>a<answer>")
        assert raw.answer == ""

    def test_missing_think_span(self):
        raw = parse_answer_spans("sol\n<answer>x</answer>")
        assert (raw.thinking, raw.solution, raw.answer) == ("", "sol", "x")


class TestQuestionAgent:
    def test_mock_is_deterministic(self):
        node = make_node()
        backend = MockLlmBackend(seed=7)
        first = generate_question(node, 0, backend)
        second = generate_question(node, 0, backend)
        assert first == second
        assert first

    def test_prompt_embeds_node_text_and_sample_idx(self):
        node = make_node()
        backend = RecordingBackend(MockLlmBackend(seed=7))
        generate_question(node, 3, backend)
        user = backend.transcript[-1].messages[-1].content
        assert node.text in user
        assert "Variation: 3" in user

    def test_blank_content_raises(self):
        with pytest.raises(EmptyGeneration):
            generate_question(make_node(), 0, StubBackend(content="  "))

    def test_backend_error_propagates(self):
        with pytest.raises(BackendError):
            generate_question(make_node(), 0, StubBackend(error=BackendError("down")))


class TestAnswerAgent:
    def test_parses_mock_response(self):
        node = make_node()
        backend = MockLlmBackend(seed=0)
        question = generate_question(node, 1, backend)
        raw = answer_question(node, question, backend)
        assert raw.thinking and raw.solution and raw.answer

    def test_prompt_contains_node_and_question(self):
        node = make_node()
        backend = RecordingBackend(MockLlmBackend(seed=0))
        answer_question(node, "What gives?", backend)
        user = backend.transcript[-1].messages[-1].content
        assert node.text in user and "What gives?" in user


class TestPostprocess:
    def well_formed(self):
        return RawAnswer(thinking="think hard", solution="divide v by i", answer="R = V / I")

    def test_clean_entry_kept_unchanged(self):
        entry = postprocess(self.well_formed(), "Find R.", make_node(), 0, StubBackend())
        assert entry.kept
        assert (entry.question, entry.thinking, entry.solution, entry.answer) == (
            "Find R.",
            "think hard",
            "divide v by i",
            "R = V / I",
        )
        assert entry.reject_reason is None

    @pytest.mark.parametrize(
        "raw,reason",
        [
            (RawAnswer("", "s", "a"), "missing_thinking"),
            (RawAnswer("t", "", "a"), "missing_solution"),
            (RawAnswer("t", "s", ""), "missing_answer"),
        ],
    )
    def test_empty_fields_rejected(self, raw, reason):
        entry = postprocess(raw, "Q?", make_node(), 0, StubBackend())
        assert not entry.kept
        assert entry.reject_reason == reason

    def test_empty_question_rejected(self):
        entry = postprocess(self.well_formed(), "  ", make_node(), 0, StubBackend())
        assert entry.reject_reason == "missing_question"

    def test_dangling_reference_triggers_rewrite_and_keeps(self):
        backend = RecordingBackend(MockLlmBackend(seed=0))
        raw = RawAnswer("t", "combine as shown in Table 4.1 here", "ok")
        entry = postprocess(raw, "Q?", make_node(), 0, backend)
        assert entry.kept
        rewrite_calls = [
            r for r in backend.transcript
            if r.messages[0].content.startswith(prompts.REWRITE_TAG)
        ]
        assert len(rewrite_calls) == 1
        assert find_dangling(entry.solution) is None

    def test_unfixed_dangling_rejected(self):
        # Stub echoes the offending text back unchanged.
        raw = RawAnswer("t", "see Eq. (3.2)", "ok")
        stub = StubBackend(
            content="<question>Q?</question>\n<solution>see Eq. (3.2)</solution>"
        )
        entry = postprocess(raw, "Q?", make_node(), 0, stub)
        assert entry.reject_reason == "dangling_reference"

    def test_rewrite_backend_failure_rejects_and_continues(self):
        raw = RawAnswer("t", "see Fig. 2", "ok")
        entry = postprocess(raw, "Q?", make_node(), 0, StubBackend(error=BackendError("x")))
        assert entry.reject_reason == "backend_failure"

    def test_banned_literals_never_kept(self):
        raw = RawAnswer("recall this section", "fine solution", "ok")
        entry = postprocess(raw, "Q?", make_node(), 0, StubBackend())
        assert not entry.kept

    def test_tag_collision_rejected(self):
        raw = RawAnswer("t </think> t", "s", "a")
        entry = postprocess(raw, "Q?", make_node(), 0, StubBackend())
        assert entry.reject_reason == "malformed_tags"

    @pytest.mark.parametrize(
        "raw,content,error,reason",
        [
            (RawAnswer(" t ", " s ", " "), "", None, "missing_answer"),
            (RawAnswer(" t ", " see Fig. 2 ", " a "), "", BackendError("x"), "backend_failure"),
            (RawAnswer(" t ", " see Fig. 2 ", " a "), "no tags", None, "rewrite_failed"),
            (
                RawAnswer(" t ", " see Fig. 2 ", " a "),
                "<question>Which row of Table 1?</question>\n<solution>fine</solution>",
                None,
                "dangling_reference",
            ),
            (RawAnswer(" t </think> ", " s ", " a "), "", None, "malformed_tags"),
        ],
    )
    def test_rejected_entry_keeps_the_agents_output(self, raw, content, error, reason):
        # The stripped original question and the raw, unstripped T/S/A,
        # never the rewrite's question or solution.
        entry = postprocess(raw, "  Q?  ", make_node(), 1, StubBackend(content, error))
        assert entry == QtsaEntry(
            entry_id=entry_id_for("f" * 64, 1),
            node_id="f" * 64,
            sample_idx=1,
            question="Q?",
            thinking=raw.thinking,
            solution=raw.solution,
            answer=raw.answer,
            status="rejected",
            reject_reason=reason,
        )

    def test_rewrite_result_pinned(self):
        backend = RecordingBackend(MockLlmBackend(seed=0))
        raw = RawAnswer("Relate the quantities.", "Use Eq. (3.2) as shown below.", "R = V / I")
        entry = postprocess(raw, "In this chapter, what does Table 4.1 give?", make_node(), 2, backend)
        assert len(backend.transcript) == 1
        assert entry == QtsaEntry(
            entry_id="c055afd6e63868ad",
            node_id="f" * 64,
            sample_idx=2,
            question="in this material, what does the tabulated component values give?",
            thinking="Relate the quantities.",
            solution="Use the governing relation as derived here.",
            answer="R = V / I",
            status="kept",
            reject_reason=None,
        )

    def test_dangling_answer_after_rewrite_pinned(self):
        # The rewrite cleans the solution, but the answer still cites a table.
        backend = RecordingBackend(MockLlmBackend(seed=0))
        raw = RawAnswer("Relate the quantities.", "Read Fig. 2 first.", "see Table 2")
        entry = postprocess(raw, "What does the circuit do?", make_node(), 3, backend)
        assert len(backend.transcript) == 1
        assert entry == QtsaEntry(
            entry_id="9b86310ee894f12f",
            node_id="f" * 64,
            sample_idx=3,
            question="What does the circuit do?",
            thinking="Relate the quantities.",
            solution="Read Fig. 2 first.",
            answer="see Table 2",
            status="rejected",
            reject_reason="dangling_reference",
        )


_DANGLING_FRAGMENTS = (
    "Eq. (3.2)", "Equation 4", "eq 7", "TABLE 4.1", "fig.2", "Figure 10.3.1",
    "as shown below", "As Shown Above", "In this chapter", "this Section",
    "Eq.", "Table", "Fig", "as shown", "this book", "chapter 3", "(3.2)", "4.1",
)
_FILLER = ("the", "gain", "node", "x", "1", "(", ")", ".", "equal", "tablet", "figs", "this")


@st.composite
def _screen_text(draw):
    pieces = draw(st.lists(st.sampled_from(_DANGLING_FRAGMENTS + _FILLER), max_size=8))
    cased = [draw(st.sampled_from((p, p.upper(), p.lower(), p.title()))) for p in pieces]
    seps = [draw(st.sampled_from((" ", "", "\n", ", "))) for _ in cased]
    return "".join(sep + piece for sep, piece in zip(seps, cased))


class TestFindDangling:
    @given(_screen_text())
    @settings(max_examples=400)
    def test_one_search_matches_exactly_when_a_pattern_does(self, text):
        expected = any(pattern.search(text) for pattern in DANGLING_PATTERNS)
        assert (find_dangling(text) is not None) == expected


_clean_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=40
).filter(
    lambda s: s.strip()
    and "<" not in s
    and ">" not in s
    and find_dangling(s) is None
)


class TestRoundTrip:
    @given(_clean_text, _clean_text, _clean_text)
    @settings(max_examples=100)
    def test_kept_fields_reparse_identically(self, t, s, a):
        entry = postprocess(RawAnswer(t, s, a), "Q?", make_node(), 0, StubBackend())
        if entry.kept:
            raw = parse_answer_spans(render_assistant(entry.thinking, entry.solution, entry.answer))
            assert (raw.thinking, raw.solution, raw.answer) == (
                entry.thinking,
                entry.solution,
                entry.answer,
            )


def _asked_tasks(backend):
    """The (node id, sample) of each question request a RecordingBackend saw."""
    return [
        (m[1], int(m[2]))
        for request in backend.transcript
        if (m := prompts.QUESTION_HEADER_RE.search(request.messages[-1].content))
    ]


class _KillAfter:
    """Delegates to an inner backend, then simulates a crash."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.remaining = calls

    def complete(self, request):
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated crash")
        self.remaining -= 1
        return self.inner.complete(request)


class _HoldFirstTask:
    """Holds task (node ``node_id``, sample 0) until ``journal`` has ``lines`` lines, then crashes.

    It gives up waiting after ``timeout`` seconds, so a run that commits
    nothing while the task is held still ends.
    """

    def __init__(self, inner, node_id, journal, lines=3, timeout=10.0):
        self.inner, self.node_id, self.journal = inner, node_id, journal
        self.lines, self.timeout = lines, timeout

    def _journal_lines(self):
        return self.journal.read_bytes().count(b"\n") if self.journal.exists() else 0

    def complete(self, request):
        header = prompts.QUESTION_HEADER_RE.search(request.messages[-1].content)
        if header and header[1] == self.node_id and int(header[2]) == 0:
            deadline = time.monotonic() + self.timeout
            while self._journal_lines() < self.lines and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("simulated crash")
        return self.inner.complete(request)


class TestDistillCorpus:
    def _mock(self, nodes, malform=None, seed=0):
        return MockLlmBackend(
            seed=seed,
            node_ids=[n.node_id for n in nodes],
            n_samples=5,
            malform_answer_every=malform,
        )

    def test_perfect_mock_keeps_everything(self, minibook_nodes):
        entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), self._mock(minibook_nodes))
        assert len(entries) == 30
        assert all(e.kept for e in entries)

    def test_output_sorted_by_node_then_sample(self, minibook_nodes):
        entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), self._mock(minibook_nodes))
        expected = [(n.node_id, k) for n in minibook_nodes for k in range(5)]
        assert [(e.node_id, e.sample_idx) for e in entries] == expected

    def test_malformed_every_tenth_answer(self, minibook_nodes):
        backend = self._mock(minibook_nodes, malform=10)
        entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), backend)
        kept = [e for e in entries if e.kept]
        rejected = [e for e in entries if not e.kept]
        assert (len(entries), len(kept), len(rejected)) == (30, 27, 3)
        assert all(e.reject_reason == "missing_answer" for e in rejected)

    def test_attempted_count_invariant(self, minibook_nodes):
        for n_samples in (1, 2, 5):
            entries = distill_corpus(
                minibook_nodes,
                DistillConfig(n_samples=n_samples),
                MockLlmBackend(seed=0, node_ids=[n.node_id for n in minibook_nodes], n_samples=n_samples),
            )
            assert len(entries) == len(minibook_nodes) * n_samples

    @pytest.mark.parametrize(
        "backend,reason",
        [(StubBackend(content="  "), "empty_generation"), (StubBackend(error=BackendError("x")), "backend_failure")],
    )
    def test_failed_task_is_an_empty_rejected_entry(self, backend, reason):
        node = make_node()
        assert distill_corpus([node], DistillConfig(n_samples=2), backend) == [
            QtsaEntry(entry_id_for(node.node_id, k), node.node_id, k, "", "", "", "", "rejected", reason)
            for k in range(2)
        ]

    def test_null_completion_content_rejects_the_task(self):
        backend = HttpLlmBackend(base_url="http://127.0.0.1:9/v1", model="m", session=NullContentSession())
        entries = distill_corpus([make_node()], DistillConfig(n_samples=2), backend)
        assert [e.reject_reason for e in entries] == ["backend_failure", "backend_failure"]

    def test_determinism_across_runs(self, minibook_nodes):
        cfg = DistillConfig(n_samples=5)
        first = distill_corpus(minibook_nodes, cfg, self._mock(minibook_nodes))
        second = distill_corpus(minibook_nodes, cfg, self._mock(minibook_nodes))
        assert first == second

    def test_parallel_run_matches_sequential(self, minibook_nodes):
        sequential = distill_corpus(
            minibook_nodes, DistillConfig(n_samples=5), self._mock(minibook_nodes)
        )
        parallel = distill_corpus(
            minibook_nodes, DistillConfig(n_samples=5, parallelism=4), self._mock(minibook_nodes)
        )
        assert sequential == parallel

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_kill_and_resume_is_byte_identical(self, minibook_nodes, tmp_path, parallelism):
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=5, journal_path=journal, parallelism=parallelism)
        uninterrupted = distill_corpus(
            minibook_nodes,
            DistillConfig(n_samples=5),
            self._mock(minibook_nodes, malform=10),
        )
        killer = _KillAfter(self._mock(minibook_nodes, malform=10), calls=23)
        with pytest.raises(KeyboardInterrupt):
            distill_corpus(minibook_nodes, cfg, killer)
        committed = {(r["node_id"], r["sample_idx"]) for r in read_jsonl(journal)}
        assert 0 < len(committed) < 30

        fresh = RecordingBackend(self._mock(minibook_nodes, malform=10))
        resumed = distill_corpus(minibook_nodes, cfg, fresh)
        assert json.dumps([entry_to_record(e) for e in resumed]) == json.dumps(
            [entry_to_record(e) for e in uninterrupted]
        )
        everything = {(node.node_id, k) for node in minibook_nodes for k in range(5)}
        assert sorted(_asked_tasks(fresh)) == sorted(everything - committed)

    def test_a_crash_keeps_the_tasks_finished_before_it(self, minibook_nodes, tmp_path):
        # The first task is held while the other thread finishes later ones;
        # those are journaled as they finish, so the crash loses none of them.
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=5, journal_path=journal, parallelism=2)
        first = minibook_nodes[0].node_id
        holder = _HoldFirstTask(self._mock(minibook_nodes, malform=10), first, journal)
        with pytest.raises(RuntimeError, match="simulated crash"):
            distill_corpus(minibook_nodes, cfg, holder)
        committed = {(r["node_id"], r["sample_idx"]) for r in read_jsonl(journal)}
        assert len(committed) >= 3 and (first, 0) not in committed

        qtsa = {}
        for name, run_cfg in (("resumed", cfg), ("fresh", DistillConfig(n_samples=5, parallelism=2))):
            entries = distill_corpus(minibook_nodes, run_cfg, self._mock(minibook_nodes, malform=10))
            qtsa[name] = tmp_path / f"qtsa_{name}.jsonl"
            write_jsonl(qtsa[name], [entry_to_record(e) for e in entries], schema=QTSA_KEYS)
        assert qtsa["resumed"].read_bytes() == qtsa["fresh"].read_bytes()

    def test_resume_never_requeries_completed_pairs(self, minibook_nodes, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=5, journal_path=journal)
        distill_corpus(minibook_nodes, cfg, self._mock(minibook_nodes))
        fresh = RecordingBackend(self._mock(minibook_nodes))
        distill_corpus(minibook_nodes, cfg, fresh)
        assert fresh.transcript == []

    def test_kept_entries_are_decoupled(self, minibook_nodes):
        # No kept entry may cite unavailable material or the source layout.
        entries = distill_corpus(
            minibook_nodes, DistillConfig(n_samples=5), self._mock(minibook_nodes)
        )
        for entry in entries:
            if entry.kept:
                for part in (entry.question, entry.thinking, entry.solution, entry.answer):
                    assert find_dangling(part) is None
                    assert "this section" not in part and "this chapter" not in part

    def test_minibook_qtsa_bytes_pinned(self, minibook_nodes, tmp_path):
        entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), self._mock(minibook_nodes, malform=10))
        path = tmp_path / "qtsa.jsonl"
        write_jsonl(path, [entry_to_record(e) for e in entries], schema=QTSA_KEYS)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "e86cb250de11bd1bb4488453d266084dfdacb532aac39148a816075da7ac7dfe"

    def test_journal_schema(self, minibook_nodes, tmp_path):
        journal = tmp_path / "journal.jsonl"
        distill_corpus(
            minibook_nodes,
            DistillConfig(n_samples=1, journal_path=journal),
            MockLlmBackend(seed=0, node_ids=[n.node_id for n in minibook_nodes], n_samples=1),
        )
        lines = journal.read_text().splitlines()
        assert len(lines) == len(minibook_nodes)
        for line in lines:
            assert set(json.loads(line)) == {*QTSA_KEYS, "timestamp"}
        assert not journal.with_name(journal.name + ".results").exists()

    def test_journal_records_are_the_qtsa_records(self, minibook_nodes, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=5, journal_path=journal)
        killer = _KillAfter(self._mock(minibook_nodes, malform=10), calls=23)
        with pytest.raises(KeyboardInterrupt):
            distill_corpus(minibook_nodes, cfg, killer)
        entries = distill_corpus(minibook_nodes, cfg, self._mock(minibook_nodes, malform=10))
        qtsa = tmp_path / "qtsa.jsonl"
        write_jsonl(qtsa, [entry_to_record(e) for e in entries], schema=QTSA_KEYS)

        order = {n.node_id: i for i, n in enumerate(minibook_nodes)}
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        for rec in records:
            del rec["timestamp"]
        records.sort(key=lambda r: (order[r["node_id"]], r["sample_idx"]))
        assert any(r["status"] == "rejected" for r in records)
        assert records == read_jsonl(qtsa, schema=QTSA_KEYS)

    def test_torn_tail_at_any_byte_resumes(self, minibook_nodes, tmp_path):
        # A crash mid-append leaves a final line without its newline; a
        # resume must drop it, re-run that task and append cleanly after it.
        nodes = minibook_nodes[:3]
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=1, journal_path=journal)

        def backend():
            return MockLlmBackend(seed=0, node_ids=[n.node_id for n in nodes], n_samples=1)

        want = json.dumps([entry_to_record(e) for e in distill_corpus(nodes, cfg, backend())])
        full = journal.read_bytes()
        for cut in range(len(full)):
            journal.write_bytes(full[:cut])
            resumed = distill_corpus(nodes, cfg, backend())
            assert json.dumps([entry_to_record(e) for e in resumed]) == want, cut
            again = RecordingBackend(backend())
            assert json.dumps([entry_to_record(e) for e in distill_corpus(nodes, cfg, again)]) == want, cut
            assert again.transcript == [], cut

    def test_two_file_journal_is_refused(self, minibook_nodes, tmp_path):
        # Before records moved into the journal, its lines were commit
        # markers and the records lived in a journal.jsonl.results sidecar.
        nodes = minibook_nodes[:2]
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=1, journal_path=journal)
        entries = distill_corpus(nodes, DistillConfig(n_samples=1), self._mock(nodes))
        with journal.with_name(journal.name + ".results").open("w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry_to_record(entry)) + "\n")
        with journal.open("w") as fh:
            for entry in entries:
                marker = {"node_id": entry.node_id, "sample_idx": 0, "status": entry.status, "timestamp": 1.0}
                fh.write(json.dumps(marker) + "\n")
        before = journal.read_bytes()
        backend = RecordingBackend(self._mock(nodes))
        with pytest.raises(SchemaViolation, match=re.escape(str(journal))):
            distill_corpus(nodes, cfg, backend)
        assert backend.transcript == []
        assert journal.read_bytes() == before

    def test_leftover_results_sidecar_is_ignored(self, minibook_nodes, tmp_path):
        nodes = minibook_nodes[:3]
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=1, journal_path=journal)
        want = distill_corpus(nodes, cfg, self._mock(nodes))
        sidecar = journal.with_name(journal.name + ".results")
        sidecar.write_text("not json\n")
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0])
        backend = RecordingBackend(self._mock(nodes))
        assert distill_corpus(nodes, cfg, backend) == want
        rerun = RecordingBackend(self._mock(nodes))
        distill_corpus(nodes[1:], DistillConfig(n_samples=1), rerun)
        assert backend.transcript == rerun.transcript
        assert sidecar.read_text() == "not json\n"

    def test_journal_reload_keeps_unicode_line_separators(self, minibook_nodes, tmp_path):
        # json.dumps(ensure_ascii=False) leaves U+2028 and NEL unescaped, so
        # a reload must split records on "\n" only.
        (entry,) = distill_corpus(minibook_nodes[:1], DistillConfig(n_samples=1), self._mock(minibook_nodes[:1]))
        entry = dataclasses.replace(entry, question="one\u2028two\x85three")
        journal = DistillJournal(tmp_path / "journal.jsonl")
        journal.commit(entry)
        journal.close()
        reloaded = DistillJournal(tmp_path / "journal.jsonl")
        reloaded.close()
        assert reloaded.results == {(entry.node_id, entry.sample_idx): entry}

    @pytest.mark.parametrize(
        "written,wanted",
        [("0123456789abcdef", "fedcba9876543210"), (None, "fedcba9876543210"), ("0123456789abcdef", None)],
    )
    def test_a_journal_from_another_stage_hash_is_refused(self, minibook_nodes, tmp_path, written, wanted):
        nodes = minibook_nodes[:2]
        journal = tmp_path / "journal.jsonl"
        distill_corpus(nodes, DistillConfig(n_samples=1, journal_path=journal, stage_hash=written), self._mock(nodes))
        assert [json.loads(line).get("stage_hash") for line in journal.read_text().splitlines()] == [written] * 2
        before = journal.read_bytes()
        backend = RecordingBackend(self._mock(nodes))
        cfg = DistillConfig(n_samples=1, journal_path=journal, stage_hash=wanted)
        want = f"{journal}: line 1 was distilled under stage hash {written},"
        with pytest.raises(StaleArtifact, match=re.escape(want)):
            distill_corpus(nodes, cfg, backend)
        assert backend.transcript == []
        assert journal.read_bytes() == before

    def test_corrupt_middle_line_still_raises(self, minibook_nodes, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cfg = DistillConfig(n_samples=1, journal_path=journal)
        distill_corpus(minibook_nodes[:3], cfg, self._mock(minibook_nodes[:3]))
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + lines[1][:10] + "\n" + lines[2])
        with pytest.raises(SchemaViolation, match=re.escape(f"{journal}:2: invalid JSON: ")):
            distill_corpus(minibook_nodes[:3], cfg, self._mock(minibook_nodes[:3]))


class TestEntryIO:
    def test_jsonl_roundtrip(self, minibook_nodes, tmp_path):
        entries = distill_corpus(
            minibook_nodes,
            DistillConfig(n_samples=5),
            MockLlmBackend(seed=0, node_ids=[n.node_id for n in minibook_nodes], n_samples=5),
        )
        path = tmp_path / "qtsa.jsonl"
        write_jsonl(path, [entry_to_record(e) for e in entries], schema=QTSA_KEYS)
        loaded = [entry_from_record(r) for r in read_jsonl(path, schema=QTSA_KEYS)]
        assert loaded == entries

    def test_reject_reason_null_when_kept(self, minibook_nodes):
        entries = distill_corpus(
            minibook_nodes,
            DistillConfig(n_samples=1),
            MockLlmBackend(seed=0, node_ids=[n.node_id for n in minibook_nodes], n_samples=1),
        )
        record = entry_to_record(entries[0])
        assert record["status"] == "kept" and record["reject_reason"] is None

    def test_bad_record_rejected(self):
        with pytest.raises(SchemaViolation):
            entry_from_record({"entry_id": "x"})

    @pytest.mark.parametrize("rec", [5, None, "text", ["entry_id"]])
    def test_non_object_record_rejected(self, rec):
        with pytest.raises(SchemaViolation, match="^qtsa record: record must be a JSON object"):
            entry_from_record(rec)


# Twelve nodes of three samples each, every fifth answer malformed, so the
# journal holds kept and rejected lines; the stage hash is one the CLI
# could pass.
_RESUME_NODES = [
    make_node(f"Stage {i} of the amplifier biases its transistor at {i + 1} mA.", hashlib.sha256(b"%d" % i).hexdigest())
    for i in range(12)
]
_RESUME_HASH = "0123456789abcdef"


def _resume_config(journal, parallelism):
    return DistillConfig(n_samples=3, parallelism=parallelism, journal_path=journal, stage_hash=_RESUME_HASH)


def _resume_backend():
    return MockLlmBackend(
        seed=0, node_ids=[n.node_id for n in _RESUME_NODES], n_samples=3, malform_answer_every=5
    )


def _qtsa_bytes(entries, path):
    write_jsonl(path, [entry_to_record(e) for e in entries], schema=QTSA_KEYS)
    return path.read_bytes()


@functools.lru_cache(maxsize=None)
def _uninterrupted(parallelism):
    """The journal and ``qtsa.jsonl`` bytes of a run that never crashed."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        entries = distill_corpus(_RESUME_NODES, _resume_config(journal, parallelism), _resume_backend())
        return journal.read_bytes(), _qtsa_bytes(entries, Path(tmp) / "qtsa.jsonl")


class TestCrashAtAnyByte:
    @pytest.mark.parametrize("parallelism", [1, 2])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_resume_is_byte_identical_and_queries_only_the_missing_tasks(self, parallelism, data):
        full, want = _uninterrupted(parallelism)
        cut = data.draw(st.integers(0, len(full)), label="crash at byte")
        kept = {(r["node_id"], r["sample_idx"]) for r in map(json.loads, full[:cut].split(b"\n")[:-1])}
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "journal.jsonl"
            journal.write_bytes(full[:cut])
            backend = RecordingBackend(_resume_backend())
            resumed = distill_corpus(_RESUME_NODES, _resume_config(journal, parallelism), backend)
            assert _qtsa_bytes(resumed, Path(tmp) / "qtsa.jsonl") == want
            assert journal.read_bytes().count(b"\n") == len(_RESUME_NODES) * 3
        everything = {(node.node_id, k) for node in _RESUME_NODES for k in range(3)}
        assert sorted(_asked_tasks(backend)) == sorted(everything - kept)
