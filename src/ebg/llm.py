"""LLM variation operators: prompts, response sanitizing, chat backends.

The LLM plays initialization, crossover, and mutation.  All three share
one fixed prompt template; they differ only in how many in-context
examples they present (init: all previously accepted members, crossover:
two parents, mutation: one parent) and in whether example lines carry
the ``f(x) = `` prefix (init does, the genetic operators do not).

Backends speak the chat-completions protocol.  Live calls can be
recorded to a JSONL transcript and replayed later, keyed by a digest of
the prompt text, which makes whole evolution runs reproducible without
network access.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol

from .config import raise_problems, read_jsonl, to_record
from .expressions import (
    DimensionError,
    Expression,
    ParseError,
    SymbolError,
    parse,
    render,
)

PROMPT_KINDS = ("init", "crossover", "mutation")

# The operator set every prompt advertises.  The sanitizer accepts every
# function of expressions.UNARY_FUNCTIONS, so a response using cos, tan,
# cosh, tanh or neg(...) is kept although the prompt does not list them.
DEFAULT_OPERATOR_LIST = "[+,-,*,/,**,sqrt,sin,sinh,abs]"

_TEMPLATE_HEAD = (
    "You are an expert in generating optimization benchmark problems.\n"
    "Create a new {d}-dimensional problem that {a1} outperforms {a2}.\n"
)
_TEMPLATE_TAIL = (
    "\n### Instructions ###\n"
    "1. Generate one problem function `f(x)` in {d} dimensions.\n"
    "2. Use only the following operators:{operators}.\n"
    "3. Write in a single line of Python code, starting with `Problem: f(x) = '.\n"
    "4. Output only the required Python code line. Do not provide any explanation, "
    "preamble, or concluding remarks.\n"
    "\n"
    "Problem: f(x) ="
)


@dataclass(frozen=True)
class PromptSpec:
    kind: str
    dimension: int
    a1: str
    a2: str
    examples: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {self.kind!r}")
        if self.kind == "crossover" and len(self.examples) != 2:
            raise ValueError("crossover prompts take exactly 2 examples")
        if self.kind == "mutation" and len(self.examples) != 1:
            raise ValueError("mutation prompts take exactly 1 example")
        if self.kind == "init" and len(self.examples) < 1:
            raise ValueError("init prompts need at least 1 example")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


def build_prompt(spec: PromptSpec) -> str:
    """Instantiate the template; a pure function of the spec."""
    prefix = "f(x) = " if spec.kind == "init" else ""
    example_lines = []
    for k, text in enumerate(spec.examples, start=1):
        example_lines.append(f"Example {k}:\n{prefix}{text}")
    return (
        _TEMPLATE_HEAD.format(d=spec.dimension, a1=spec.a1, a2=spec.a2)
        + "\n"
        + "\n".join(example_lines)
        + "\n"
        + _TEMPLATE_TAIL.format(d=spec.dimension, operators=DEFAULT_OPERATOR_LIST)
    )


def prompt_digest(prompt_text: str) -> str:
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- sanitizer

REJECT_EMPTY = "empty"
REJECT_UNPARSEABLE = "unparseable"
REJECT_SYMBOL = "non-whitelisted-symbol"
REJECT_INDEX = "bad-index"


@dataclass(frozen=True)
class Rejection:
    cause: str
    detail: str = ""


_FENCE = "```"


def _fenced_block(text: str) -> str | None:
    start = text.find(_FENCE)
    if start < 0:
        return None
    start += len(_FENCE)
    end = text.find(_FENCE, start)
    body = text[start:] if end < 0 else text[start:end]
    lines = body.splitlines()
    # drop a language tag sharing the opening fence line
    if lines and lines[0].strip().isalpha():
        lines = lines[1:]
    return "\n".join(lines)


def _strip_prefixes(line: str) -> str:
    line = line.strip().strip("`").strip()
    lowered = line.lower()
    if lowered.startswith("problem:"):
        line = line[len("problem:") :].strip()
        lowered = line.lower()
    if lowered.startswith("f(x)"):
        rest = line[len("f(x)") :].lstrip()
        if rest.startswith("="):
            line = rest[1:].strip()
    return line


def sanitize_response(text: str, dimension: int) -> Expression | Rejection:
    """Extract one expression from a raw chat response.

    Strips code fences and known prefixes, then returns the first line
    that parses.  When nothing parses, the cause prefers an unknown
    function or an index violation over a generic syntax failure, since
    that points at an actual formula rather than prose.
    """
    if not text or not text.strip():
        return Rejection(REJECT_EMPTY)
    body = _fenced_block(text)
    if body is None or not body.strip():
        body = text.replace(_FENCE, "\n")
    fallback: Rejection | None = None
    saw_line = False
    for raw_line in body.splitlines():
        line = _strip_prefixes(raw_line)
        if not line:
            continue
        saw_line = True
        try:
            return parse(line, dimension)
        except SymbolError as err:
            if fallback is None or fallback.cause == REJECT_UNPARSEABLE:
                fallback = Rejection(REJECT_SYMBOL, err.symbol)
        except DimensionError as err:
            if fallback is None or fallback.cause == REJECT_UNPARSEABLE:
                fallback = Rejection(REJECT_INDEX, f"x[{err.index}]")
        except ParseError as err:
            if fallback is None:
                fallback = Rejection(REJECT_UNPARSEABLE, str(err))
    if not saw_line:
        return Rejection(REJECT_EMPTY)
    return fallback if fallback is not None else Rejection(REJECT_UNPARSEABLE)


# ----------------------------------------------------------------- backends


class TransportError(RuntimeError):
    """Network or protocol failure while talking to the live endpoint."""


class TranscriptMissError(RuntimeError):
    """Replay could not find a transcript entry for a prompt digest."""

    def __init__(self, digest: str):
        super().__init__(f"no transcript entry for prompt digest {digest}")
        self.digest = digest


class ChatBackend(Protocol):
    def complete(self, prompt: str) -> str: ...


@dataclass(frozen=True)
class TranscriptEntry:
    """One line of a transcript: a prompt, keyed by its digest, and the
    response it got."""

    digest: str
    prompt: str
    response: str
    backend: str = "unknown"
    timestamp: str = ""


def load_transcript(path: str | Path) -> list[TranscriptEntry]:
    return read_jsonl(path, "transcript", TranscriptEntry)


BACKEND_MODES = ("live", "replay", "record")


@dataclass(frozen=True)
class BackendConfig:
    """Where responses come from.

    ``live`` calls the endpoint, ``record`` calls it and writes every
    exchange to a fresh ``transcript.jsonl`` in the run directory, and
    ``replay`` serves the responses of a recorded ``transcript``.
    The defaults are a valid config that names no source yet; only a
    command that asks for responses checks :meth:`source_problems`.
    """

    mode: str = "live"
    endpoint_url: str = ""
    api_key: str | None = None
    model: str = ""
    temperature: float = 0.8
    max_tokens: int = 512
    transcript: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in BACKEND_MODES:
            raise_problems([f"mode: must be one of {', '.join(BACKEND_MODES)}"])

    def source_problems(self) -> list[str]:
        """Why this config cannot serve responses, one ``field: message`` each."""
        if self.mode in ("live", "record") and not self.endpoint_url:
            return ["endpoint_url: required when mode is live or record"]
        if self.mode == "replay" and not self.transcript:
            return ["transcript: replay mode needs a transcript path"]
        return []


class LiveBackend:
    """Thin chat-completions client: one user message, first choice out."""

    def __init__(self, config: BackendConfig, timeout: float = 60.0, max_retries: int = 3):
        self.config = config
        self.timeout = timeout
        self.max_retries = max_retries

    name = "live"

    def complete(self, prompt: str) -> str:
        import requests  # costs a third of `import ebg.cli`, and only live calls need it

        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                reply = requests.post(
                    self.config.endpoint_url, json=payload, headers=headers, timeout=self.timeout
                )
                reply.raise_for_status()
                content = reply.json()["choices"][0]["message"]["content"]
                if content is None or isinstance(content, str):
                    return content or ""  # a reply with no text is an empty one
                raise ValueError(f"message content is {type(content).__name__}, not a string")
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as err:
                last_error = err
                if attempt + 1 < self.max_retries:
                    time.sleep(min(2.0**attempt, 8.0))
        raise TransportError(f"chat endpoint failed after {self.max_retries} attempts: {last_error}")


class ReplayBackend:
    """Serve recorded responses keyed by prompt digest.

    Entries sharing a digest form a FIFO queue, so a recorded run with
    repeated prompts (and sampled, differing responses) replays in the
    original order, each entry served once.  A prompt with no recorded
    entry left raises TranscriptMissError, so a replay either reproduces
    the recorded run or stops.
    """

    name = "replay"

    def __init__(self, entries: list[TranscriptEntry]):
        self._queues: dict[str, list[str]] = defaultdict(list)
        for entry in entries:
            self._queues[entry.digest].append(entry.response)

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayBackend":
        return cls(load_transcript(path))

    def complete(self, prompt: str) -> str:
        digest = prompt_digest(prompt)
        queue = self._queues.get(digest)
        if not queue:
            raise TranscriptMissError(digest)
        return queue.pop(0)


class RecordingBackend:
    """Wrap another backend and append every exchange to a transcript.

    The transcript starts fresh when the backend is built: a file left
    at ``path`` by an earlier run is deleted, since replay would serve
    its responses first.
    """

    name = "record"

    def __init__(self, inner: ChatBackend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.path.unlink(missing_ok=True)

    def complete(self, prompt: str) -> str:
        response = self.inner.complete(prompt)
        entry = TranscriptEntry(
            digest=prompt_digest(prompt),
            prompt=prompt,
            response=response,
            backend=getattr(self.inner, "name", type(self.inner).__name__),
            timestamp=datetime.now(timezone.utc).isoformat(),
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(to_record(entry)) + "\n")
        return response


# ------------------------------------------------------- offspring creation


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts_per_offspring: int = 10
    global_failure_cap: int = 100

    def __post_init__(self) -> None:
        problems = []
        if self.max_attempts_per_offspring < 1:
            problems.append("max_attempts_per_offspring: must be >= 1")
        if self.global_failure_cap < 0:
            problems.append("global_failure_cap: must be >= 0")
        raise_problems(problems)


class AttemptsExhausted(RuntimeError):
    """Every attempt for one offspring failed sanitizing or validation."""

    def __init__(self, kind: str, attempts: int, last_cause: str):
        super().__init__(f"{kind} offspring failed {attempts} attempts (last cause: {last_cause})")
        self.kind = kind
        self.attempts = attempts
        self.last_cause = last_cause


@dataclass(frozen=True)
class OffspringResult:
    expression: Expression
    attempts: int
    identical_to_parent: bool


def generate_offspring(
    spec: PromptSpec,
    backend: ChatBackend,
    policy: RetryPolicy = RetryPolicy(),
    validator: Callable[[Expression], bool] | None = None,
) -> OffspringResult:
    """Prompt, sanitize, validate; retry up to the per-offspring budget.

    Rejected or invalid responses consume attempts.  Transport errors
    and replay misses propagate: the backend has already retried its
    transport, and retrying cannot repair a missing transcript.  An
    offspring whose rendered text equals one of the prompt examples is
    accepted but flagged identical, so operator statistics can discount
    it.
    """
    prompt = build_prompt(spec)
    last_cause = "no attempt"
    for attempt in range(1, policy.max_attempts_per_offspring + 1):
        response = backend.complete(prompt)
        result = sanitize_response(response, spec.dimension)
        if isinstance(result, Rejection):
            last_cause = f"{result.cause}: {result.detail}" if result.detail else result.cause
            continue
        if validator is not None and not validator(result):
            last_cause = "failed pre-validation"
            continue
        return OffspringResult(
            expression=result,
            attempts=attempt,
            identical_to_parent=render(result) in spec.examples,
        )
    raise AttemptsExhausted(spec.kind, policy.max_attempts_per_offspring, last_cause)
