from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ebg.expressions import Expression, parse, render
from ebg.llm import (
    AttemptsExhausted,
    BackendConfig,
    LiveBackend,
    OffspringResult,
    PromptSpec,
    RecordingBackend,
    Rejection,
    ReplayBackend,
    RetryPolicy,
    TranscriptEntry,
    TranscriptMissError,
    TransportError,
    build_prompt,
    generate_offspring,
    load_transcript,
    prompt_digest,
    sanitize_response,
)

INIT_EXAMPLES = (
    "x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*x[1]*x[2]",
    "x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*abs(x[2])",
    "x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*x[1]*sin(x[2])",
)

EXPECTED_INIT_PROMPT = """You are an expert in generating optimization benchmark problems.
Create a new 5-dimensional problem that GA outperforms DE.

Example 1:
f(x) = x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*x[1]*x[2]
Example 2:
f(x) = x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*abs(x[2])
Example 3:
f(x) = x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*x[1]*sin(x[2])

### Instructions ###
1. Generate one problem function `f(x)` in 5 dimensions.
2. Use only the following operators:[+,-,*,/,**,sqrt,sin,sinh,abs].
3. Write in a single line of Python code, starting with `Problem: f(x) = '.
4. Output only the required Python code line. Do not provide any explanation, preamble, or concluding remarks.

Problem: f(x) ="""

CROSSOVER_EXAMPLES = (
    "x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*abs(x[2])",
    "x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*x[2]*tanh(x[3]-abs(x[4]))",
)

EXPECTED_CROSSOVER_PROMPT = """You are an expert in generating optimization benchmark problems.
Create a new 5-dimensional problem that GA outperforms DE.

Example 1:
x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*abs(x[2])
Example 2:
x[0]**2 + sin(x[1])**2 + abs(x[2]*x[3]) + sqrt(abs(x[4])) + x[0]*sin(x[1])*x[2]*tanh(x[3]-abs(x[4]))

### Instructions ###
1. Generate one problem function `f(x)` in 5 dimensions.
2. Use only the following operators:[+,-,*,/,**,sqrt,sin,sinh,abs].
3. Write in a single line of Python code, starting with `Problem: f(x) = '.
4. Output only the required Python code line. Do not provide any explanation, preamble, or concluding remarks.

Problem: f(x) ="""


# ------------------------------------------------------------------ prompts


def test_init_prompt_matches_template_exactly():
    spec = PromptSpec(kind="init", dimension=5, a1="GA", a2="DE", examples=INIT_EXAMPLES)
    assert build_prompt(spec) == EXPECTED_INIT_PROMPT


def test_crossover_prompt_has_bare_example_lines():
    spec = PromptSpec(kind="crossover", dimension=5, a1="GA", a2="DE", examples=CROSSOVER_EXAMPLES)
    assert build_prompt(spec) == EXPECTED_CROSSOVER_PROMPT


def test_mutation_prompt_single_example():
    spec = PromptSpec(kind="mutation", dimension=5, a1="DE", a2="GA", examples=("x[0]**2",))
    prompt = build_prompt(spec)
    assert "Create a new 5-dimensional problem that DE outperforms GA." in prompt
    assert "Example 1:\nx[0]**2\n" in prompt
    assert "Example 2" not in prompt


def test_prompt_determinism_and_digest():
    spec = PromptSpec(kind="mutation", dimension=3, a1="GA", a2="DE", examples=("x[0]",))
    p1, p2 = build_prompt(spec), build_prompt(spec)
    assert p1 == p2
    assert prompt_digest(p1) == hashlib.sha256(p1.encode()).hexdigest()


def test_prompt_spec_example_counts():
    with pytest.raises(ValueError):
        PromptSpec(kind="crossover", dimension=5, a1="GA", a2="DE", examples=("a",))
    with pytest.raises(ValueError):
        PromptSpec(kind="mutation", dimension=5, a1="GA", a2="DE", examples=("a", "b"))
    with pytest.raises(ValueError):
        PromptSpec(kind="init", dimension=5, a1="GA", a2="DE", examples=())
    with pytest.raises(ValueError):
        PromptSpec(kind="evolve", dimension=5, a1="GA", a2="DE", examples=("a",))


# ---------------------------------------------------------------- sanitizer


def test_sanitize_plain_formula():
    result = sanitize_response("x[0]**2 + sin(x[1])", 5)
    assert isinstance(result, Expression)
    assert render(result) == "x[0]**2 + sin(x[1])"


def test_sanitize_strips_problem_prefix():
    result = sanitize_response("Problem: f(x) = x[0] + x[1]", 5)
    assert isinstance(result, Expression)
    assert render(result) == "x[0] + x[1]"


def test_sanitize_fenced_block_with_prose():
    raw = "Sure! Here is a function:\n```\nf(x) = x[0]\n```\nHope this helps."
    result = sanitize_response(raw, 5)
    assert isinstance(result, Expression)
    assert render(result) == "x[0]"


def test_sanitize_skips_leading_prose_lines():
    raw = "Here is the new benchmark you asked for:\nx[0]*x[1] + 1"
    result = sanitize_response(raw, 5)
    assert isinstance(result, Expression)
    assert render(result) == "x[0]*x[1] + 1"


def test_sanitize_rejection_causes():
    assert sanitize_response("", 5) == Rejection("empty")
    assert sanitize_response("  \n  ", 5) == Rejection("empty")
    assert sanitize_response("log(x[0])", 5).cause == "non-whitelisted-symbol"
    assert sanitize_response("log(x[0])", 5).detail == "log"
    assert sanitize_response("x[7]**2", 5).cause == "bad-index"
    assert sanitize_response("I cannot help with that.", 5).cause == "unparseable"
    assert sanitize_response("x[0] + 1e999", 5).cause == "unparseable"


def test_sanitize_prefers_symbol_cause_over_prose():
    raw = "The function is:\nexp(x[0]) + 1"
    rejection = sanitize_response(raw, 5)
    assert rejection.cause == "non-whitelisted-symbol"
    assert rejection.detail == "exp"


def test_sanitize_idempotent_on_valid_input():
    raw = "Problem: f(x) = sqrt(abs(x[0])) + 2*x[1]"
    first = sanitize_response(raw, 5)
    second = sanitize_response(render(first), 5)
    assert isinstance(second, Expression)
    assert second.root == first.root


# ----------------------------------------------------------------- backends


def _entry(prompt: str, response: str) -> TranscriptEntry:
    return TranscriptEntry(
        digest=prompt_digest(prompt),
        prompt=prompt,
        response=response,
        backend="test",
        timestamp="2024-01-01T00:00:00+00:00",
    )


def test_replay_strict_hit_and_miss():
    backend = ReplayBackend([_entry("p1", "x[0]")])
    assert backend.complete("p1") == "x[0]"
    with pytest.raises(TranscriptMissError):
        backend.complete("p2")


def test_replay_fifo_per_digest():
    backend = ReplayBackend([_entry("p", "a"), _entry("p", "b")])
    assert backend.complete("p") == "a"
    assert backend.complete("p") == "b"
    with pytest.raises(TranscriptMissError):  # each entry is served once
        backend.complete("p")


def test_recording_backend_round_trip(tmp_path):
    class Stub:
        name = "stub"

        def complete(self, prompt: str) -> str:
            return f"resp::{prompt}"

    path = tmp_path / "transcript.jsonl"
    backend = RecordingBackend(Stub(), path)
    assert backend.complete("alpha") == "resp::alpha"
    assert backend.complete("beta") == "resp::beta"
    entries = load_transcript(path)
    assert [e.response for e in entries] == ["resp::alpha", "resp::beta"]
    assert entries[0].digest == prompt_digest("alpha")
    assert entries[0].backend == "stub"
    replay = ReplayBackend(entries)
    assert replay.complete("alpha") == "resp::alpha"


def _chat_reply(content) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class _CannedHandler(BaseHTTPRequestHandler):
    reply = _chat_reply("Problem: f(x) = x[0]**2")

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        assert request["messages"][0]["role"] == "user"
        body = json.dumps(self.reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def _canned_endpoint(reply):
    """The URL of a local chat endpoint that answers every request with ``reply``."""
    server = HTTPServer(("127.0.0.1", 0), type("Handler", (_CannedHandler,), {"reply": reply}))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_live_backend_transport():
    with _canned_endpoint(_chat_reply("Problem: f(x) = x[0]**2")) as url:
        backend = LiveBackend(BackendConfig(endpoint_url=url, api_key="k", model="m"))
        assert backend.complete("hello") == "Problem: f(x) = x[0]**2"


def test_live_backend_null_content_is_an_empty_reply():
    with _canned_endpoint(_chat_reply(None)) as url:
        assert LiveBackend(BackendConfig(endpoint_url=url, model="m")).complete("hello") == ""


@pytest.mark.parametrize("reply", [_chat_reply(3), _chat_reply(["x[0]"]), {"choices": ["x[0]"]}, []])
def test_live_backend_reply_without_string_content_is_transport_error(reply):
    with _canned_endpoint(reply) as url:
        backend = LiveBackend(BackendConfig(endpoint_url=url, model="m"), max_retries=1)
        with pytest.raises(TransportError, match="after 1 attempts"):
            backend.complete("hello")


def test_live_backend_failure_is_transport_error():
    backend = LiveBackend(
        BackendConfig(endpoint_url="http://127.0.0.1:9/nothing", model="m"),
        max_retries=1,
        timeout=0.5,
    )
    with pytest.raises(TransportError):
        backend.complete("hello")


# -------------------------------------------------------- offspring creation


class SequenceBackend:
    """Returns queued responses in order, repeating the last one."""

    name = "sequence"

    def __init__(self, *responses: str):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        index = min(self.calls - 1, len(self.responses) - 1)
        return self.responses[index]


def _spec(kind="mutation", examples=("x[0]**2",)):
    return PromptSpec(kind=kind, dimension=5, a1="GA", a2="DE", examples=examples)


def test_generate_offspring_first_try():
    result = generate_offspring(_spec(), SequenceBackend("x[0]**2 + x[1]"))
    assert isinstance(result, OffspringResult)
    assert result.attempts == 1
    assert not result.identical_to_parent
    assert render(result.expression) == "x[0]**2 + x[1]"


def test_generate_offspring_identical_flag():
    result = generate_offspring(_spec(), SequenceBackend("x[0]**2"))
    assert result.identical_to_parent


def test_generate_offspring_retries_then_succeeds():
    backend = SequenceBackend("not a formula at all!", "log(x[0])", "sin(x[0])")
    result = generate_offspring(_spec(), backend)
    assert result.attempts == 3


def test_generate_offspring_retries_past_an_overflowing_literal():
    result = generate_offspring(_spec(), SequenceBackend("x[0] + 1e999", "x[0] + 2"))
    assert result.attempts == 2
    assert render(result.expression) == "x[0] + 2"


def test_generate_offspring_exhausts_attempts():
    backend = SequenceBackend("nope, still prose")
    policy = RetryPolicy(max_attempts_per_offspring=4)
    with pytest.raises(AttemptsExhausted) as err:
        generate_offspring(_spec(), backend, policy)
    assert err.value.attempts == 4
    assert backend.calls == 4


def test_generate_offspring_validator_rejects():
    policy = RetryPolicy(max_attempts_per_offspring=2)
    with pytest.raises(AttemptsExhausted) as err:
        generate_offspring(_spec(), SequenceBackend("x[0]"), policy, validator=lambda e: False)
    assert "pre-validation" in err.value.last_cause


def test_generate_offspring_replay_miss_propagates():
    with pytest.raises(TranscriptMissError):
        generate_offspring(_spec(), ReplayBackend([]))


def test_generate_offspring_prevalidation_filters_domain_errors():
    # first proposal is finite only on half the box, second is fine
    from ebg.fitness import prevalidate

    backend = SequenceBackend("sqrt(x[0])", "sqrt(abs(x[0]))")
    result = generate_offspring(_spec(), backend, validator=prevalidate)
    assert result.attempts == 2
    assert render(result.expression) == "sqrt(abs(x[0]))"
