"""Chat-completion backends: a deterministic mock and an HTTP client.

The HTTP client speaks the OpenAI-compatible ``/chat/completions`` JSON
protocol. The mock is a pure function of (request, configuration), which
is what makes the whole distillation pipeline reproducible in tests.
"""

from __future__ import annotations

import contextvars
import hashlib
import os
import queue
import random
import re
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from . import prompts
from .errors import BackendError

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "GRANARY_API_KEY"


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    seed: int = 0
    max_tokens: int = 1024

    def __post_init__(self):
        if not self.messages:
            raise ValueError("chat request needs at least one message")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @classmethod
    def of(cls, system: str, user: str, **options) -> ChatRequest:
        """The request every agent sends; ``options`` set temperature, seed or max_tokens."""
        return cls((ChatMessage("system", system), ChatMessage("user", user)), **options)


@dataclass(frozen=True)
class ChatResponse:
    content: str


class LlmBackend(Protocol):
    """Anything that can answer a chat request."""

    def complete(self, request: ChatRequest) -> ChatResponse: ...


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient failures."""

    max_attempts: int = 5
    base_backoff: float = 0.5
    backoff_cap: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, attempt: int, rng: random.Random) -> float:
        # attempt is 0-based; jitter up to +25% avoids lockstep retries
        base = min(self.base_backoff * (2**attempt), self.backoff_cap)
        return base * (1.0 + 0.25 * rng.random())


def fan_out(fn: Callable, items: Iterable, parallelism: int) -> Iterator:
    """Yield ``fn(item)`` for each item, in item order: inline at 1, else from worker threads.

    Above 1, ``parallelism`` threads each take the next item from one shared
    iterator and run it in a copy of the caller's ``contextvars`` context,
    so context-local settings such as ``np.errstate`` reach them. An error
    from ``fn`` or from ``items`` is raised after every earlier item's
    result, as at 1. Once the consumer stops or an error is raised, no new
    item starts, and every thread is joined before the generator returns.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if parallelism == 1:
        yield from map(fn, items)
        return
    context = contextvars.copy_context()
    source = enumerate(items)
    lock = threading.Lock()  # guards ``source`` and ``stop``
    stop = False
    source_error: BaseException | None = None
    done: queue.SimpleQueue = queue.SimpleQueue()  # (index, result, error) per item; None as a thread ends

    def work():
        nonlocal stop, source_error
        try:
            while True:
                with lock:
                    if stop:
                        return
                    try:
                        index, item = next(source)
                    except StopIteration:
                        return
                    except BaseException as exc:  # re-raised by the consumer after the items before it
                        stop, source_error = True, exc
                        return
                try:
                    done.put((index, context.copy().run(fn, item), None))
                except BaseException as exc:  # re-raised by the consumer at this item's turn
                    done.put((index, None, exc))
        finally:
            done.put(None)

    threads = [threading.Thread(target=work) for _ in range(parallelism)]
    for thread in threads:
        thread.start()
    try:
        ready, running, index = {}, parallelism, 0
        while running or index in ready:
            if index in ready:
                result, error = ready.pop(index)
                if error is not None:
                    raise error
                yield result
                index += 1
            elif (message := done.get()) is None:
                running -= 1
            else:
                ready[message[0]] = message[1:]
        if source_error is not None:
            raise source_error
    finally:
        with lock:
            stop = True
        for thread in threads:
            thread.join()


def _stable_digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class HttpLlmBackend:
    """OpenAI-compatible chat-completions client with retries.

    Authentication uses a bearer token from the ``GRANARY_API_KEY``
    environment variable unless an explicit key is given. 429 and 5xx
    responses and connection errors are retried per the policy; other
    HTTP errors fail immediately. ``requests`` is imported on first use,
    so a process that never builds this client never loads it.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        retry: RetryPolicy = RetryPolicy(),
        timeout: float = 60.0,
        supports_seed: bool = True,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.retry = retry
        self.timeout = timeout
        self.supports_seed = supports_seed
        # Sessions are not thread-safe; workers each get their own unless
        # an explicit session is injected (tests).
        self._injected_session = session
        self._local = threading.local()
        self._sleep = sleep
        self._rng = random.Random(0)

    def _session(self) -> requests.Session:
        if self._injected_session is not None:
            return self._injected_session
        if not hasattr(self._local, "session"):
            import requests

            self._local.session = requests.Session()
        return self._local.session

    def complete(self, request: ChatRequest) -> ChatResponse:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if self.supports_seed:
            payload["seed"] = request.seed
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        url = f"{self.base_url}/chat/completions"
        last_error = None
        for attempt in range(self.retry.max_attempts):
            try:
                resp = self._session().post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = f"connection error: {exc}"
            else:
                if resp.status_code == 200:
                    return self._parse(resp)
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = f"transient HTTP {resp.status_code}"
                else:
                    raise BackendError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
            if attempt + 1 < self.retry.max_attempts:
                self._sleep(self.retry.delay(attempt, self._rng))
        raise BackendError(
            f"{url} failed after {self.retry.max_attempts} attempts ({last_error})"
        )

    @staticmethod
    def _parse(resp: requests.Response) -> ChatResponse:
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed completion response: message content is {content!r}")
        return ChatResponse(content=content)


# The marker the mock's questions carry and its answers read back.
_MARKER_RE = re.compile(r"\[([0-9a-f]{8})#(\d+)\]")


@dataclass
class MockLlmBackend:
    """Deterministic stand-in for a remote model.

    Responses are pure functions of the request plus this configuration,
    so runs are reproducible and resumable runs re-derive identical
    content. When ``malform_answer_every`` is set, every Nth answering
    task (counted by the task's fixed position in node order x sample
    index, not by call arrival) omits the ``<answer>`` block; that keeps
    the injected failures stable across interrupted and resumed runs.
    ``node_ids`` must then list the corpus nodes in distillation order; it
    is read once, at construction.
    """

    seed: int = 0
    node_ids: list[str] | None = None
    n_samples: int = 5
    malform_answer_every: int | None = None

    def __post_init__(self):
        # Answer markers carry 8-character id prefixes; the first node wins.
        self._node_index: dict[str, int] = {}
        for i, nid in enumerate(self.node_ids or ()):
            self._node_index.setdefault(nid[:8], i)

    def complete(self, request: ChatRequest) -> ChatResponse:
        system = request.messages[0].content
        user = request.messages[-1].content
        if system.startswith(prompts.QUESTION_TAG):
            return self._question(user)
        if system.startswith(prompts.ANSWER_TAG):
            return self._answer(user)
        if system.startswith(prompts.REWRITE_TAG):
            return self._rewrite(user)
        if system.startswith(prompts.EVAL_TAG):
            return self._eval(user)
        return ChatResponse(content=f"ok:{_stable_digest(f'{self.seed}:{user}') % 10**8}")

    # -- agents ----------------------------------------------------------

    def _question(self, user: str) -> ChatResponse:
        header = prompts.QUESTION_HEADER_RE.search(user)
        if header is None:
            return ChatResponse(content="What does the passage establish?")
        marker = f"[{header.group(1)[:8]}#{int(header.group(2))}]"
        return ChatResponse(content=f"{marker} State the key relation the passage establishes.")

    def _task_ordinal(self, node_prefix: str, sample_idx: int) -> int | None:
        i = self._node_index.get(node_prefix)
        return None if i is None else i * self.n_samples + sample_idx + 1

    def _answer(self, user: str) -> ChatResponse:
        marker = _MARKER_RE.search(user)
        prefix, k = (marker.group(1), int(marker.group(2))) if marker else ("unknown0", 0)
        thinking = f"Trace the passage's definitions for variation {k}."
        solution = "Combine the defined quantities as the passage directs."
        content = prompts.render_assistant(thinking, solution, f"relation-{prefix}-{k}")
        if self.malform_answer_every:
            ordinal = self._task_ordinal(prefix, k)
            if ordinal is not None and ordinal % self.malform_answer_every == 0:
                content = content.partition("\n<answer>")[0]
        return ChatResponse(content=content)

    def _rewrite(self, user: str) -> ChatResponse:
        question, solution = prompts.parse_rewrite(user)
        for pattern, replacement in prompts.DANGLING_REFERENCES:
            question = pattern.sub(replacement, question)
            solution = pattern.sub(replacement, solution)
        return ChatResponse(content=prompts.render_rewrite(question, solution))

    def _eval(self, user: str) -> ChatResponse:
        letters = prompts.EVAL_OPTION_RE.findall(user) or ["A"]
        pick = letters[_stable_digest(f"{self.seed}:{user}") % len(letters)]
        answer = prompts.render_answer_span(pick)
        return ChatResponse(content=f"Considering the options, I pick one.\n{answer}")
