"""Quiz rendering, answer extraction, and grading."""

import pytest

from granary import evalharness
from granary.backend import ChatMessage, ChatRequest
from granary.dataset import ChatExample, tokenize_and_mask
from granary.errors import BackendError
from granary.evalharness import (
    EvalReport,
    McqItem,
    TinyLmResponder,
    extract_answer,
    grade,
    read_quiz,
    render_eval_prompt,
)
from granary.prompts import default_quiz_path
from granary.tinylm import ByteTokenizer, ModelConfig, init


def item(item_id="q1", correct="B"):
    return McqItem(
        item_id=item_id,
        stem="Which letter comes second?",
        options={"A": "first", "B": "second", "C": "third", "D": "fourth"},
        correct=correct,
    )


class ScriptedResponder:
    """Maps the item stem (or a default) to a canned response string."""

    def __init__(self, by_stem=None, default="", fail_stems=()):
        self.by_stem = by_stem or {}
        self.default = default
        self.fail_stems = set(fail_stems)

    def complete(self, request):
        user = request.messages[-1].content
        stem = user.split("\n")[0]
        if stem in self.fail_stems:
            raise BackendError("scripted failure")
        return self.by_stem.get(stem, self.default)


class TestItems:
    def test_correct_must_be_an_option(self):
        with pytest.raises(ValueError):
            item(correct="E")

    def test_needs_two_options(self):
        with pytest.raises(ValueError):
            McqItem(item_id="x", stem="s", options={"A": "only"}, correct="A")


class TestRenderPrompt:
    def test_temperature_zero(self):
        assert render_eval_prompt(item()).temperature == 0.0

    def test_options_each_once_in_letter_order(self):
        user = render_eval_prompt(item()).messages[-1].content
        assert user.count("A) first") == 1
        assert user.count("B) second") == 1
        positions = [user.index(f"{letter}) ") for letter in "ABCD"]
        assert positions == sorted(positions)

    def test_deterministic(self):
        assert render_eval_prompt(item()) == render_eval_prompt(item())

    def test_system_instructs_tagged_answer(self):
        system = render_eval_prompt(item()).messages[0].content
        assert "<answer>" in system


class TestExtractAnswer:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("...reasoning...<answer>C</answer>", "C"),
            ("<answer>A</answer> then <answer>D</answer>", "D"),
            ("<answer>  B  </answer>", "B"),
            ("<answer>b</answer>", "b"),
            ("The answer is B.", "B"),
            ("Answer: C", "C"),
            ("I choose option (D) for this.", "D"),
            ("first Answer: A, revised answer: C", "C"),
            ("<answer>not a letter</answer> but Answer: B", "B"),
            ("no letter here", None),
            ("the answer is unclear", None),
            ("The answer is a resistor.", None),
            ("answer: b", None),
            ("ANSWER: C", "C"),
            ("OPTION IS D", "D"),
            ("", None),
        ],
    )
    def test_crafted_strings(self, text, expected):
        assert extract_answer(text) == expected


class TestGrade:
    def quiz(self):
        stems = ["s1", "s2", "s3", "s4"]
        return [
            McqItem(item_id=f"i{k}", stem=stem, options={"A": "a", "B": "b"}, correct="A")
            for k, stem in enumerate(stems)
        ]

    def test_three_of_four_correct(self):
        responder = ScriptedResponder(
            by_stem={
                "s1": "<answer>A</answer>",
                "s2": "<answer>A</answer>",
                "s3": "Answer: A",
                "s4": "<answer>B</answer>",
            }
        )
        report = grade(self.quiz(), responder)
        assert report.accuracy == 0.75
        assert report.answered == 4 and report.unparsable == 0

    def test_unparsable_counts_as_incorrect(self):
        report = grade(self.quiz(), ScriptedResponder(default="mumble mumble"))
        assert report.accuracy == 0.0
        assert report.unparsable == 4 and report.answered == 0

    def test_backend_failure_marks_unparsable_and_continues(self):
        responder = ScriptedResponder(default="<answer>A</answer>", fail_stems={"s2"})
        report = grade(self.quiz(), responder)
        assert report.unparsable == 1
        assert report.accuracy == 0.75
        assert [r.response for r in report.per_item] == [
            "<answer>A</answer>", None, "<answer>A</answer>", "<answer>A</answer>"
        ]

    def test_accuracy_invariant_to_item_order(self):
        responder = ScriptedResponder(
            by_stem={"s1": "<answer>A</answer>", "s4": "<answer>A</answer>"},
            default="<answer>B</answer>",
        )
        forward_report = grade(self.quiz(), responder)
        reverse_report = grade(list(reversed(self.quiz())), responder)
        assert forward_report.accuracy == reverse_report.accuracy

    def test_letter_outside_options_is_answered_but_wrong(self):
        report = grade(self.quiz(), ScriptedResponder(default="<answer>Z</answer>"))
        assert report.answered == 4
        assert report.accuracy == 0.0

    def test_parallel_matches_sequential(self):
        responder = ScriptedResponder(default="<answer>A</answer>")
        assert grade(self.quiz(), responder) == grade(self.quiz(), responder, parallelism=4)

    def test_report_dict_shape(self):
        responder = ScriptedResponder(by_stem={"s3": "mumble"}, default="<answer>A</answer>")
        data = grade(self.quiz(), responder).to_dict()
        assert data["accuracy"] == 0.75
        assert data["counts"] == {"answered": 3, "unparsable": 1}
        assert len(data["per_item"]) == 4
        assert data["per_item"][2] == {
            "item_id": "i2", "extracted": None, "correct_flag": False, "response": "mumble"
        }


class TestPackagedQuiz:
    def test_loads_four_items(self):
        items = read_quiz(default_quiz_path())
        assert len(items) == 4
        assert all(len(i.options) == 4 for i in items)

    def test_noise_item_rewards_squared_ratio_option(self):
        items = {i.item_id: i for i in read_quiz(default_quiz_path())}
        noise = items["opamp-noise-gm-ratio"]
        assert "squared" in noise.options[noise.correct]
        assert "decreases" in noise.options[noise.correct].lower()


class TestTinyLmResponder:
    def test_deterministic_and_bounded(self):
        params = init(ModelConfig(seed=1, context_window=48))
        responder = TinyLmResponder(params, max_new_tokens=12)
        request = render_eval_prompt(item())
        first = responder.complete(request)
        second = responder.complete(request)
        assert first == second
        assert isinstance(first, str)

    def test_grades_end_to_end(self):
        params = init(ModelConfig(seed=1, context_window=48))
        report = grade([item(), item(item_id="q2")], TinyLmResponder(params, max_new_tokens=8))
        assert isinstance(report, EvalReport)
        assert 0.0 <= report.accuracy <= 1.0

    def test_prompt_is_the_training_template_up_to_the_answer(self, monkeypatch):
        prompts = []
        monkeypatch.setattr(evalharness, "greedy_decode", lambda params, ids, n: prompts.append(ids) or [])
        responder = TinyLmResponder(init(ModelConfig(seed=1, context_window=48)))
        requests = [
            render_eval_prompt(item()),
            ChatRequest(messages=(ChatMessage("user", "Which letter?"),)),
        ]
        for request in requests:
            responder.complete(request)
        trained = []
        for request in requests:
            *system, user = (m.content for m in request.messages)
            example = ChatExample(system="".join(system), user=user, assistant="B")
            trained.append(tokenize_and_mask(example, ByteTokenizer()).input_ids[:-2].tolist())
        assert prompts == trained

    def test_rejects_requests_outside_the_template(self):
        responder = TinyLmResponder(init(ModelConfig(seed=1, context_window=48)))
        for roles in (("system", "user", "assistant"), ("user", "system"), ("system",)):
            request = ChatRequest(messages=tuple(ChatMessage(r, "x") for r in roles))
            with pytest.raises(ValueError):
                responder.complete(request)
