"""Regenerate the bundled smoke transcript.

Runs the engine against a fixed list of scripted responses and records
every exchange, producing a transcript that replays the same small run
deterministically.  Run from the repository root:

    python3 tests/fixtures/make_smoke.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from ebg.cli import engine_config_from, load_config
from ebg.engine import run
from ebg.llm import RecordingBackend

FIXTURES = Path(__file__).parent

RESPONSES = [
    "Problem: f(x) = x[0]**2 + x[1]**2 + abs(x[2]*x[3]) + sqrt(abs(x[4]))",
    "Problem: f(x) = x[0]**2 + sin(x[1]) + x[2]**2 + x[3]*x[4]",
    "Problem: f(x) = sin(x[0])*sin(x[1]) + x[2]**2 + abs(x[3]) + x[4]**2",
    "Problem: f(x) = x[0]*x[1] + x[2]*x[3] + x[4]**2 + abs(x[0] - x[4])",
    "Problem: f(x) = sqrt(abs(x[0]*x[1])) + x[2]**2 + sinh(x[3])*x[4]",
    "Problem: f(x) = abs(x[0]) + abs(x[1]) + abs(x[2]) + abs(x[3]) + abs(x[4])",
    "Problem: f(x) = x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2 + sin(x[0]*x[1])",
    "Problem: f(x) = cos(x[0]) + cos(x[1]) + x[2]**2 + x[3]**2 + abs(x[4])",
    "Problem: f(x) = x[0]**2/(1 + abs(x[1])) + x[2]**2 + abs(x[3] - x[4])",
    "Problem: f(x) = sin(x[0]) + sinh(x[1]) + abs(x[2]) + x[3]**2 + sqrt(abs(x[4]))",
    "Problem: f(x) = x[0]**4 + x[1]**2 + abs(x[2]*x[3]*x[4])",
    "Problem: f(x) = x[0]**2 + abs(x[1]*x[2]) + sqrt(abs(x[3])) - sin(x[4])",
    "Problem: f(x) = sinh(x[0]*x[1]) + x[2]**2 + x[3]**2 + abs(x[4])",
    "Problem: f(x) = x[0]**2 + x[1]**2 + sin(x[2])*cos(x[3]) + x[4]**2",
    "Problem: f(x) = abs(x[0] - x[1]) + abs(x[2] - x[3]) + x[4]**2",
    "Problem: f(x) = x[0]**2 + 2*x[1]**2 + 3*x[2]**2 + abs(x[3]*x[4])",
]


class ScriptedBackend:
    name = "scripted"

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        response = self.responses[self.calls % len(self.responses)]
        self.calls += 1
        return response


def main() -> None:
    transcript = FIXTURES / "smoke_transcript.jsonl"
    if transcript.exists():
        transcript.unlink()
    data = load_config(str(FIXTURES / "smoke_config.json"))
    with tempfile.TemporaryDirectory() as tmp:
        config = engine_config_from(data, tmp)
        backend = RecordingBackend(ScriptedBackend(RESPONSES), transcript)
        record = run(config, backend)
    exchanges = len(transcript.read_text(encoding="utf-8").splitlines())
    print(f"recorded {exchanges} exchanges -> {transcript}")
    print(f"best: {record.best.text}  fitness {record.best.fitness:.6f}")
    print(json.dumps(record.best_per_generation))


if __name__ == "__main__":
    main()
