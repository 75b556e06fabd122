"""Backends: request validation, mock determinism, and the HTTP wire protocol."""

import contextvars
import json
import random
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from granary import prompts
from granary.backend import (
    ChatMessage,
    ChatRequest,
    HttpLlmBackend,
    MockLlmBackend,
    RetryPolicy,
    fan_out,
)
from granary.errors import BackendError
from oracles import RecordingBackend, task_ordinal_reference


def qrequest(node_id="a" * 16, sample_idx=0, text="some passage text"):
    return ChatRequest(
        messages=(
            ChatMessage("system", prompts.QUESTION_PROMPT),
            ChatMessage(
                "user",
                prompts.QUESTION_USER_TEMPLATE.format(
                    node_id=node_id, sample_idx=sample_idx, node_text=text
                ),
            ),
        ),
        temperature=0.7,
        seed=7,
    )


class TestFanOut:
    def test_pool_workers_see_the_callers_errstate(self):
        # NumPy 2 keeps np.errstate in a context variable, so a worker thread
        # ignores an overflow only when it runs in a copy of the caller's context.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = list(fan_out(np.exp, [np.float64(1000.0), np.float64(-1.0)], 2))
        assert got == [np.inf, np.exp(-1.0)]

    def test_pool_workers_see_the_callers_context_variables(self):
        var = contextvars.ContextVar("var", default="unset")
        token = var.set("caller")
        try:
            assert list(fan_out(lambda _: var.get(), range(4), 2)) == ["caller"] * 4
        finally:
            var.reset(token)

    @pytest.mark.parametrize("parallelism", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 40], ids=lambda n: f"{n}items")
    @pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
    def test_yields_in_item_order(self, parallelism, n, as_generator):
        def fn(i):
            time.sleep(0.001 * ((n - i) % 4))  # later items often finish first
            return i * i

        items = (i for i in range(n)) if as_generator else list(range(n))
        assert list(fan_out(fn, items, parallelism)) == [i * i for i in range(n)]

    def test_many_threads_pull_each_item_once(self):
        # More threads than cores, switching mid-pull: an unguarded shared
        # generator raises "generator already executing" or loses items.
        pulled = []

        def items():
            for i in range(2000):
                time.sleep(0)
                pulled.append(i)
                yield i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(fan_out(lambda i: -i, items(), 8))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(2000)]
        assert pulled == list(range(2000))

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_an_error_comes_after_the_items_before_it(self, parallelism):
        def fn(i):
            if i == 5:
                raise KeyError(i)
            time.sleep(0.002)  # item 5 fails before the earlier items finish
            return i

        got = []
        with pytest.raises(KeyError):
            for result in fan_out(fn, range(20), parallelism):
                got.append(result)
        assert got == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("stop", ["break", "raise"])
    def test_no_item_starts_after_the_consumer_stops(self, stop):
        threads_before = threading.active_count()
        started = []

        def fn(i):
            started.append(i)
            if i:
                time.sleep(0.2)  # the consumer stops while these run
            return i

        def consume():
            for result in fan_out(fn, range(100), 3):
                assert result == 0
                if stop == "raise":
                    raise RuntimeError("consumer failed")
                break

        if stop == "raise":
            with pytest.raises(RuntimeError):
                consume()
        else:
            consume()
        # Item 0, then at most one slow item per thread; all threads are joined.
        seen = sorted(started)
        assert seen == list(range(len(seen))) and len(seen) <= 4
        assert threading.active_count() == threads_before
        time.sleep(0.3)
        assert sorted(started) == seen

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_an_input_error_reaches_the_caller(self, parallelism):
        def items():
            yield from range(5)
            raise OSError("input broke")

        got, errors = [], []

        def consume():
            try:
                for result in fan_out(lambda i: i, items(), parallelism):
                    got.append(result)
            except OSError as exc:
                errors.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "fan_out hung on an input error"
        assert got == [0, 1, 2, 3, 4]
        assert [str(e) for e in errors] == ["input broke"]


class TestChatTypes:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=())

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage("user", "x"),), temperature=-1)

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage("wizard", "x")


class TestMock:
    def test_same_request_same_response(self):
        backend = MockLlmBackend(seed=0)
        assert backend.complete(qrequest()).content == backend.complete(qrequest()).content

    def test_distinct_samples_distinct_questions(self):
        backend = MockLlmBackend(seed=0)
        q0 = backend.complete(qrequest(sample_idx=0)).content
        q1 = backend.complete(qrequest(sample_idx=1)).content
        assert q0 != q1

    def test_transcript_records_requests(self):
        backend = RecordingBackend(MockLlmBackend(seed=0))
        backend.complete(qrequest())
        assert len(backend.transcript) == 1

    def test_eval_answers_carry_a_tagged_letter(self):
        backend = MockLlmBackend(seed=3)
        request = ChatRequest(
            messages=(
                ChatMessage("system", prompts.EVAL_PROMPT),
                ChatMessage("user", "Pick.\n\nA) one\nB) two"),
            )
        )
        content = backend.complete(request).content
        assert "<answer>" in content and content.split("<answer>")[1][0] in "AB"


class TestTaskOrdinal:
    """The mock's prefix index agrees with a linear scan of the node ids.

    Answer markers always carry an 8-character prefix (``unknown0`` when
    the question has none), so those are the prefixes checked.
    """

    @staticmethod
    def check(node_ids, prefixes, n_samples=5):
        backend = MockLlmBackend(seed=0, node_ids=node_ids, n_samples=n_samples)
        for prefix in prefixes:
            for k in (0, n_samples - 1):
                want = task_ordinal_reference(node_ids, n_samples, prefix, k)
                assert backend._task_ordinal(prefix, k) == want, (prefix, k)

    def test_minibook_ids(self, minibook_nodes):
        ids = [n.node_id for n in minibook_nodes]
        self.check(ids, [nid[:8] for nid in ids] + ["00000000", "unknown0"])

    def test_random_hex_ids(self):
        rng = random.Random(0)
        ids = [f"{rng.getrandbits(256):064x}" for _ in range(2000)]
        absent = [f"{rng.getrandbits(32):08x}" for _ in range(200)]
        self.check(ids, [nid[:8] for nid in ids] + absent, n_samples=3)

    def test_shared_prefix_first_wins(self):
        ids = ["abcdef01" + "1" * 56, "abcdef01" + "2" * 56, "0123abcd" + "3" * 56]
        self.check(ids, ["abcdef01", "0123abcd"])
        assert MockLlmBackend(node_ids=ids, n_samples=5)._task_ordinal("abcdef01", 2) == 3

    def test_unknown_short_and_absent_ids(self):
        ids = ["unknown0-node", "abc", "abcdef01" + "f" * 56]
        self.check(ids, ["unknown0", "abc00000", "ffffffff"])
        assert MockLlmBackend(node_ids=ids)._task_ordinal("unknown0", 1) == 2
        self.check(None, ["unknown0", "abcdef01"])
        assert MockLlmBackend()._task_ordinal("abcdef01", 0) is None


class _Script(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, body) responses."""

    script = []
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = self.script[min(len(self.seen) - 1, len(self.script) - 1)]
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Script.seen = []
    yield server
    server.shutdown()


def _ok_payload(content="hello"):
    return {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}


def _backend(server, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, base_backoff=0.0))
    kwargs.setdefault("sleep", lambda s: None)
    return HttpLlmBackend(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="teach",
        api_key="sekrit",
        **kwargs,
    )


def _plain_request():
    return ChatRequest(messages=(ChatMessage("user", "hi"),), temperature=0.5, seed=11)


class TestHttpBackend:
    def test_success_speaks_chat_completions(self, scripted_server):
        _Script.script = [(200, _ok_payload("fine"))]
        response = _backend(scripted_server).complete(_plain_request())
        assert response.content == "fine"
        seen = _Script.seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sekrit"
        assert seen["body"]["messages"] == [{"role": "user", "content": "hi"}]
        assert seen["body"]["temperature"] == 0.5
        assert seen["body"]["seed"] == 11
        assert "max_tokens" in seen["body"]

    def test_seed_omitted_when_unsupported(self, scripted_server):
        _Script.script = [(200, _ok_payload())]
        _backend(scripted_server, supports_seed=False).complete(_plain_request())
        assert "seed" not in _Script.seen[0]["body"]

    def test_retries_transient_then_succeeds(self, scripted_server):
        _Script.script = [(500, {}), (200, _ok_payload("second"))]
        response = _backend(scripted_server).complete(_plain_request())
        assert response.content == "second"
        assert len(_Script.seen) == 2

    def test_exhausted_retries_raise(self, scripted_server):
        _Script.script = [(503, {})]
        with pytest.raises(BackendError, match="after 3 attempts"):
            _backend(scripted_server).complete(_plain_request())
        assert len(_Script.seen) == 3

    def test_client_error_fails_fast(self, scripted_server):
        _Script.script = [(400, {"error": "bad"})]
        with pytest.raises(BackendError, match="HTTP 400"):
            _backend(scripted_server).complete(_plain_request())
        assert len(_Script.seen) == 1

    def test_api_key_from_environment(self, scripted_server, monkeypatch):
        monkeypatch.setenv("GRANARY_API_KEY", "env-key")
        _Script.script = [(200, _ok_payload())]
        backend = HttpLlmBackend(
            base_url=f"http://127.0.0.1:{scripted_server.server_address[1]}/v1",
            model="teach",
            retry=RetryPolicy(max_attempts=1),
        )
        backend.complete(_plain_request())
        assert _Script.seen[0]["auth"] == "Bearer env-key"

    def test_malformed_body_raises(self, scripted_server):
        _Script.script = [(200, {"weird": True})]
        with pytest.raises(BackendError, match="malformed"):
            _backend(scripted_server).complete(_plain_request())

    @pytest.mark.parametrize("content", [None, 5, ["text"]])
    def test_non_string_content_raises(self, scripted_server, content):
        _Script.script = [(200, _ok_payload(content))]
        with pytest.raises(BackendError, match=r"^malformed completion response: message content is "):
            _backend(scripted_server).complete(_plain_request())
        assert len(_Script.seen) == 1
