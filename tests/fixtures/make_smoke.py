"""Regenerate the bundled smoke transcript.

Runs the engine against a fixed list of scripted responses and records
every exchange into a temporary transcript that replays the same small
run deterministically.  It then replays that transcript into a fresh
directory and exits with status 1 unless every file of the replayed run
except ``config.json`` is byte-equal to the recorded run's.  The bundled
transcript is overwritten only when its records differ from the new ones
in a field other than ``timestamp``, so an unchanged engine leaves it
untouched.  Run from the repository root:

    python3 tests/fixtures/make_smoke.py
"""

from __future__ import annotations

import filecmp
import json
import sys
import tempfile
from pathlib import Path

from ebg.cli import engine_config_from, load_config
from ebg.engine import run
from ebg.llm import RecordingBackend, ReplayBackend

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


def replay_differences(recorded: Path, replayed: Path) -> list[str]:
    """Files of either run directory, ``config.json`` aside, that are
    missing from the other or differ in content."""
    names = {p.name for p in recorded.iterdir()} | {p.name for p in replayed.iterdir()}
    _, mismatch, missing = filecmp.cmpfiles(
        recorded, replayed, sorted(names - {"config.json"}), shallow=False
    )
    return mismatch + missing


def _records(text: str) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        record.pop("timestamp", None)
    return records


def main() -> int:
    transcript = FIXTURES / "smoke_transcript.jsonl"
    data = load_config(str(FIXTURES / "smoke_config.json"))
    with tempfile.TemporaryDirectory() as tmp:
        recorded, replayed = Path(tmp) / "recorded", Path(tmp) / "replayed"
        fresh = Path(tmp) / "transcript.jsonl"
        backend = RecordingBackend(ScriptedBackend(RESPONSES), fresh)
        record = run(engine_config_from(data, str(recorded)), backend)
        run(engine_config_from(data, str(replayed)), ReplayBackend.from_path(fresh))
        differences = replay_differences(recorded, replayed)
        text = fresh.read_text(encoding="utf-8")
    old = transcript.read_text(encoding="utf-8") if transcript.exists() else ""
    exchanges = len(text.splitlines())
    if _records(text) == _records(old):
        print(f"recorded {exchanges} exchanges, the same as {transcript}; left it unchanged")
    else:
        transcript.write_text(text, encoding="utf-8")
        print(f"recorded {exchanges} exchanges -> {transcript}")
    print(f"best: {record.best.expression}  fitness {record.best.fitness:.6f}")
    print(json.dumps(record.best_per_generation))
    if differences:
        print(f"replay differs from the recorded run in: {', '.join(differences)}", file=sys.stderr)
        return 1
    print("replay reproduces the recorded run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
