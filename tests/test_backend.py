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
    fan_out,
)
from granary.config import BackendSettings
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
                got = dict(fan_out(np.exp, [np.float64(1000.0), np.float64(-1.0)], 2))
        assert got == {0: np.inf, 1: np.exp(-1.0)}

    def test_pool_workers_see_the_callers_context_variables(self):
        var = contextvars.ContextVar("var", default="unset")
        token = var.set("caller")
        try:
            assert sorted(fan_out(lambda _: var.get(), range(4), 2)) == list(enumerate(["caller"] * 4))
        finally:
            var.reset(token)

    @pytest.mark.parametrize("parallelism", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 40], ids=lambda n: f"{n}items")
    @pytest.mark.parametrize("container", [list, tuple], ids=["list", "tuple"])
    def test_yields_in_item_order(self, parallelism, n, container):
        # Later items often finish first; sorted by index, the pairs give
        # every item's result once, in item order.
        def fn(i):
            time.sleep(0.001 * ((n - i) % 4))
            return i * i

        assert sorted(fan_out(fn, container(range(n)), parallelism)) == [(i, i * i) for i in range(n)]

    def test_many_threads_pull_each_item_once(self):
        # More threads than cores, switching mid-pull: an unguarded shared
        # index hands an item to two threads or skips one.
        called = []

        def fn(i):
            called.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sorted(fan_out(fn, range(2000), 8))
        finally:
            sys.setswitchinterval(interval)
        assert got == [(i, -i) for i in range(2000)]
        assert sorted(called) == list(range(2000))

    def test_a_fast_later_item_is_yielded_before_a_slow_earlier_one(self):
        released = threading.Event()

        def fn(i):
            if i == 0:
                assert released.wait(timeout=10), "item 0 waited for a result that never came"
            return i

        order = []
        for index, _ in fan_out(fn, [0, 1, 2], 2):
            order.append(index)
            released.set()
        assert order[0] != 0 and sorted(order) == [0, 1, 2]

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_an_error_from_fn_reaches_the_caller(self, parallelism):
        threads_before = threading.active_count()

        def fn(i):
            if i == 5:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            for _ in fan_out(fn, range(20), parallelism):
                pass
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize(
        "n, parallelism, threads", [(0, 3, 0), (1, 3, 0), (2, 3, 2), (5, 3, 3), (5, 1, 0)]
    )
    def test_starts_at_most_one_thread_per_item(self, monkeypatch, n, parallelism, threads):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        callers = set()

        def fn(i):
            callers.add(threading.current_thread())
            return i

        assert sorted(fan_out(fn, range(n), parallelism)) == [(i, i) for i in range(n)]
        assert len(started) == threads
        if not threads:
            assert callers <= {threading.current_thread()}  # inline

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
            for pair in fan_out(fn, range(100), 3):
                assert pair == (0, 0)
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
        assert backend.complete(qrequest()) == backend.complete(qrequest())

    def test_distinct_samples_distinct_questions(self):
        backend = MockLlmBackend(seed=0)
        q0 = backend.complete(qrequest(sample_idx=0))
        q1 = backend.complete(qrequest(sample_idx=1))
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
        content = backend.complete(request)
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


def _settings(server, **kwargs):
    url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    return BackendSettings(mock=False, base_url=url, model="teach", **kwargs)


def _backend(server, sleep=lambda s: None, **kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_backoff", 0.0)
    return HttpLlmBackend(_settings(server, **kwargs), api_key="sekrit", sleep=sleep)


def _plain_request():
    return ChatRequest(messages=(ChatMessage("user", "hi"),), temperature=0.5, seed=11)


class TestHttpBackend:
    def test_success_speaks_chat_completions(self, scripted_server):
        _Script.script = [(200, _ok_payload("fine"))]
        assert _backend(scripted_server).complete(_plain_request()) == "fine"
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
        assert _backend(scripted_server).complete(_plain_request()) == "second"
        assert len(_Script.seen) == 2

    def test_exhausted_retries_raise(self, scripted_server):
        _Script.script = [(503, {})]
        with pytest.raises(BackendError, match="after 3 attempts"):
            _backend(scripted_server).complete(_plain_request())
        assert len(_Script.seen) == 3

    def test_retry_waits_double_from_base_backoff_with_up_to_a_quarter_jitter(self, scripted_server):
        _Script.script = [(503, {})]
        waits = []
        with pytest.raises(BackendError, match="after 4 attempts"):
            _backend(scripted_server, sleep=waits.append, max_attempts=4, base_backoff=10.0).complete(
                _plain_request()
            )
        assert len(waits) == 3
        for wait, (low, high) in zip(waits, [(10, 12.5), (20, 25), (30, 37.5)]):
            assert low <= wait <= high

    def test_client_error_fails_fast(self, scripted_server):
        _Script.script = [(400, {"error": "bad"})]
        with pytest.raises(BackendError, match="HTTP 400"):
            _backend(scripted_server).complete(_plain_request())
        assert len(_Script.seen) == 1

    def test_api_key_from_environment(self, scripted_server, monkeypatch):
        monkeypatch.setenv("GRANARY_API_KEY", "env-key")
        _Script.script = [(200, _ok_payload())]
        backend = HttpLlmBackend(_settings(scripted_server, max_attempts=1))
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
