"""The agents' message formats, and their traffic through the mock, pinned byte for byte."""

from hypothesis import given
from hypothesis import strategies as st

from granary import evalharness, prompts
from granary.backend import MockLlmBackend
from granary.corpus import LearningNode
from granary.distiller import DistillConfig, RawAnswer, distill_corpus, postprocess
from oracles import RecordingBackend

# ``RecordingBackend.traffic_sha256`` of each run below (every request's
# messages, temperature, seed and max_tokens, and every reply), captured
# before the message formats moved to prompts.py.
AGENT_TRAFFIC_SHA256 = {
    "distill_minibook": "db13dd8ee259f8cd2dbd8288be51fa0c83716064b344d593a0300a4ee2200bc6",
    "postprocess_rewrite": "09eefb028b226b34d30309f8f413ae9f7edb5c8e1844cd8c94ab590700d383f0",
    "grade_quiz": "07f2d8ef6c7978caae5f69a5adcdfc5a04ecfcdab68c416b4ea19c4f0477697b",
}


def test_minibook_distill_traffic_pinned(minibook_nodes):
    mock = MockLlmBackend(
        seed=0, node_ids=[n.node_id for n in minibook_nodes], n_samples=5, malform_answer_every=10
    )
    backend = RecordingBackend(mock)
    entries = distill_corpus(minibook_nodes, DistillConfig(n_samples=5), backend)
    assert sum(e.reject_reason == "missing_answer" for e in entries) == len(entries) // 10
    assert backend.traffic_sha256() == AGENT_TRAFFIC_SHA256["distill_minibook"]


def test_postprocess_rewrite_traffic_pinned():
    node = LearningNode(
        node_id="f" * 64,
        doc_id="d",
        heading_path=["Ch", "Sec"],
        text="Ohm's law ties voltage, current, and resistance together.",
        token_estimate=20,
    )
    backend = RecordingBackend(MockLlmBackend(seed=0))
    raw = RawAnswer("Relate the quantities.", "Use Eq. (3.2) as shown below.", "R = V / I")
    entry = postprocess(raw, "In this chapter, what does Table 4.1 give?", node, 2, backend)
    assert entry.kept and len(backend.transcript) == 1
    assert backend.traffic_sha256() == AGENT_TRAFFIC_SHA256["postprocess_rewrite"]


def test_packaged_quiz_grading_traffic_pinned():
    items = evalharness.read_quiz(prompts.default_quiz_path())
    backend = RecordingBackend(MockLlmBackend(seed=0))
    evalharness.grade(items, backend)
    assert len(backend.transcript) == len(items)
    assert backend.traffic_sha256() == AGENT_TRAFFIC_SHA256["grade_quiz"]


_untagged = st.text(alphabet=st.characters(blacklist_characters="<"), max_size=40)


@given(_untagged, _untagged)
def test_rewrite_exchange_round_trips(question, solution):
    exchange = prompts.render_rewrite(question, solution) + "\n\nPassage:\n<solution>not this</solution>"
    assert prompts.parse_rewrite(exchange) == (question.strip(), solution.strip())


@given(
    st.text(alphabet="0123456789abcdef", min_size=1, max_size=64),
    st.integers(min_value=0, max_value=10**6),
    st.text(),
)
def test_question_header_round_trips(node_id, sample_idx, node_text):
    user = prompts.QUESTION_USER_TEMPLATE.format(node_id=node_id, sample_idx=sample_idx, node_text=node_text)
    assert prompts.QUESTION_HEADER_RE.search(user).groups() == (node_id, str(sample_idx))


# No newline and no ")", so neither the stem nor an option's text reads as an option line.
_one_line = st.text(alphabet=st.characters(blacklist_characters="\n)"))


@given(st.sets(st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), min_size=2), _one_line, _one_line)
def test_eval_option_letters_round_trip(letters, stem, text):
    item = evalharness.McqItem("q", stem, {letter: text for letter in letters}, min(letters))
    user = evalharness.render_eval_prompt(item).messages[-1].content
    assert prompts.EVAL_OPTION_RE.findall(user) == sorted(letters)


def test_rendered_answer_span_is_extracted():
    assert evalharness.extract_answer("I pick one.\n" + prompts.render_answer_span("C")) == "C"
