from __future__ import annotations

import dataclasses
import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ebg.config import ConfigError, build, to_record
from ebg.engine import (
    Benchmark,
    EngineAbort,
    EngineConfig,
    LineageEvent,
    RunRecord,
    RunSummary,
    initialize_population,
    load_run,
    run,
    seed_expression,
    select_survivors,
    step_generation,
)
from ebg.expressions import render
from ebg.fitness import FitnessConfig
from ebg.llm import (
    RecordingBackend,
    ReplayBackend,
    RetryPolicy,
    TranscriptEntry,
    TranscriptMissError,
    TransportError,
)
from ebg.optimizers import DeConfig, GaConfig
from helpers import FormulaBackend

TINY = dict(
    population_size=4,
    max_generations=3,
    dimension=3,
    fitness=FitnessConfig(trials=2, prevalidation_samples=32),
    ga=GaConfig(population=6, generations=4),
    de=DeConfig(population=6, generations=4),
)


def tiny_config(**overrides) -> EngineConfig:
    return EngineConfig(**{**TINY, **overrides})


class EchoBackend:
    """Returns the first example from the prompt, so offspring repeat parents."""

    name = "echo"

    def complete(self, prompt: str) -> str:
        lines = prompt.splitlines()
        first = lines[lines.index("Example 1:") + 1]
        return first.removeprefix("f(x) = ")


def _bench(bid: int, fitness: float) -> Benchmark:
    return Benchmark(
        id=bid,
        expression=render(seed_expression(1)),
        fitness=fitness,
        rank_term=fitness,
        penalty_term=0.0,
        any_invalid=False,
        origin="seed",
        parent_ids=(),
        generation_created=0,
    )


# ------------------------------------------------------------------- seeds


def test_seed_expression_renders_expected_polynomial():
    assert render(seed_expression(2)) == "x[0] + x[1]**2"
    assert render(seed_expression(5)) == "x[0] + x[1]**2 + x[2]**3 + x[3]**4 + x[4]**5"
    assert render(seed_expression(1)) == "x[0]"


def test_seed_expression_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        seed_expression(0)


# --------------------------------------------------------------- selection


def test_select_survivors_takes_best_of_union():
    union = [_bench(1, 0.3), _bench(2, 0.5), _bench(3, 0.4), _bench(4, 0.5)]
    picked = select_survivors(union, 2)
    assert [b.fitness for b in picked] == [0.3, 0.4]


def test_select_survivors_breaks_ties_toward_older_ids():
    union = [_bench(i, 1.0) for i in (4, 2, 3, 1)]
    picked = select_survivors(union, 2)
    assert [b.id for b in picked] == [1, 2]


def test_select_survivors_keeps_floor_pair():
    union = [_bench(1, 0.256), _bench(2, 0.256), _bench(3, 0.3), _bench(4, 1e6)]
    picked = select_survivors(union, 2)
    assert [b.id for b in picked] == [1, 2]


def test_select_survivors_requires_enough_candidates():
    with pytest.raises(ValueError):
        select_survivors([_bench(1, 0.5)], 2)


# ------------------------------------------------------------------ config


def test_engine_config_validation():
    with pytest.raises(ValueError):
        tiny_config(population_size=1)
    with pytest.raises(ValueError):
        tiny_config(max_generations=0)
    with pytest.raises(ValueError):
        tiny_config(crossover_rate=1.5)
    with pytest.raises(ValueError):
        tiny_config(dimension=0)


def test_build_engine_config_lists_every_problem():
    with pytest.raises(ConfigError) as caught:
        build(
            EngineConfig,
            {
                "population_size": 1,
                "dimension": 0,
                "workers": 2,
                "fitness": {"trials": 0, "alpha": -1.0},
                "ga": {"population": "8"},
                "de": 3,
            },
        )
    assert sorted(caught.value.problems) == [
        "de: must be an object",
        "dimension: must be >= 1",
        "fitness.alpha: must be >= 0",
        "fitness.trials: must be >= 1",
        "ga.population: must be an integer",
        "population_size: must be >= 2",
        "workers: unknown key",
    ]


def test_config_dict_round_trip(tmp_path):
    config = tiny_config(seed=7, output_dir=str(tmp_path))
    assert build(EngineConfig, dataclasses.asdict(config)) == config


# (record, a field to delete, a field to give a wrong value, that value,
# and what it must be)
RECORDS = {
    "benchmark": (_bench(3, 0.25), "id", "parent_ids", [1.5], "a list of integers"),
    "benchmark-nan-terms": (
        dataclasses.replace(_bench(4, 1e6), rank_term=math.nan, penalty_term=math.nan, any_invalid=True),
        "expression",
        "rank_term",
        "0.5",
        "a number or null",
    ),
    "lineage": (
        LineageEvent(child_id=5, kind="crossover", parent_ids=(1, 2), attempts=3, identical=False, generation=1),
        "kind",
        "identical",
        0,
        "a boolean",
    ),
    "transcript": (TranscriptEntry("d", "p", "r", "live", "2024-01-01"), "response", "prompt", None, "a string"),
    "summary": (
        RunSummary(_bench(2, 0.5), (0.75, 0.5), 2, 9, 36, False),
        "aborted",
        "best_fitness_per_generation",
        [0.75, True],
        "a list of numbers",
    ),
}


@pytest.mark.parametrize("record, missing, wrong, value, kind", RECORDS.values(), ids=RECORDS)
def test_record_round_trip_and_problems(record, missing, wrong, value, kind):
    cls = type(record)
    data = json.loads(json.dumps(to_record(record)))
    assert list(data) == [f.name for f in dataclasses.fields(cls)]
    # repr shows NaN, and tells a tuple from a list and 1 from 1.0
    assert repr(build(cls, data)) == repr(record)
    with pytest.raises(ConfigError) as caught:
        build(cls, {**{k: v for k, v in data.items() if k != missing}, wrong: value, "foo": 1})
    assert sorted(caught.value.problems) == sorted(
        [f"{missing}: missing", f"{wrong}: must be {kind}", "foo: unknown key"]
    )
    with pytest.raises(ConfigError) as caught:
        build(cls, [data])
    assert caught.value.problems == ("must be an object",)


# ---------------------------------------------------------- initialization


def test_initialize_population_seed_and_conditioning():
    config = tiny_config()
    backend = FormulaBackend()
    record = RunRecord(config)
    population = initialize_population(record, backend)
    assert len(population) == 4
    assert population[0].expression == "x[0] + x[1]**2 + x[2]**3"
    assert population[0].origin == "seed"
    assert [b.origin for b in population[1:]] == ["init_llm"] * 3
    assert [b.id for b in population] == [1, 2, 3, 4]
    # each init prompt conditions on every previously accepted member
    assert backend.prompts[0].count("Example") == 1
    assert backend.prompts[1].count("Example") == 2
    assert backend.prompts[2].count("Example") == 3
    assert "f(x) = x[0] + x[1]**2 + x[2]**3" in backend.prompts[0]
    # init lineage events carry the in-context example ids
    init_events = [e for e in record.lineage if e.kind == "init_llm"]
    assert [e.parent_ids for e in init_events] == [(1,), (1, 2), (1, 2, 3)]
    assert all(np.isfinite(b.fitness) for b in population)


def test_initialize_population_replay_miss_propagates():
    config = tiny_config()
    with pytest.raises(TranscriptMissError):
        initialize_population(RunRecord(config), ReplayBackend([]))


# ------------------------------------------------------------- generations


def _initialized(config):
    record = RunRecord(config)
    population = initialize_population(record, FormulaBackend())
    return population, record


def _step(record, population, backend, rng):
    """Generation 1's survivors and the lineage events it added."""
    before = len(record.lineage)
    survivors = step_generation(record, population, backend, rng, 1)
    return survivors, record.lineage[before:]


def test_step_generation_all_crossover_when_rate_is_one():
    config = tiny_config(crossover_rate=1.0)
    population, record = _initialized(config)
    rng = np.random.default_rng(0)
    survivors, events = _step(record, population, FormulaBackend(), rng)
    assert len(survivors) == 4
    assert [e.kind for e in events] == ["crossover"] * 4
    assert all(len(e.parent_ids) == 2 for e in events)
    assert all(e.parent_ids[0] != e.parent_ids[1] for e in events)


def test_step_generation_all_mutation_when_rate_is_zero():
    config = tiny_config(crossover_rate=0.0)
    population, record = _initialized(config)
    rng = np.random.default_rng(0)
    _, events = _step(record, population, FormulaBackend(), rng)
    assert [e.kind for e in events] == ["mutation"] * 4
    assert all(len(e.parent_ids) == 1 for e in events)


def test_step_generation_parents_come_from_current_population():
    config = tiny_config()
    population, record = _initialized(config)
    alive = {b.id for b in population}
    rng = np.random.default_rng(1)
    survivors, events = _step(record, population, FormulaBackend(), rng)
    for event in events:
        assert set(event.parent_ids) <= alive
        assert all(event.child_id > pid for pid in event.parent_ids)
    union_ids = alive | {e.child_id for e in events}
    assert {b.id for b in survivors} <= union_ids


def test_step_generation_survivors_are_best_of_union():
    config = tiny_config()
    population, record = _initialized(config)
    rng = np.random.default_rng(2)
    backend = FormulaBackend()
    survivors, events = _step(record, population, backend, rng)
    best_parent = min(b.fitness for b in population)
    assert min(b.fitness for b in survivors) <= best_parent


def test_identical_offspring_flagged_and_cached():
    config = tiny_config(crossover_rate=0.0)
    population, record = _initialized(config)
    evaluated_before = record.evaluated_benchmarks
    rng = np.random.default_rng(3)
    survivors, events = _step(record, population, EchoBackend(), rng)
    assert all(e.identical for e in events)
    # echoed formulas hit the evaluation cache rather than re-running trials
    assert record.evaluated_benchmarks == evaluated_before
    assert record.inner_trials_total == 2 * config.fitness.trials * record.evaluated_benchmarks


# -------------------------------------------------------------- whole runs


def test_run_single_generation_is_initialization_only():
    config = tiny_config(max_generations=1)
    record = run(config, FormulaBackend())
    assert len(record.populations) == 1
    assert record.best.fitness == min(b.fitness for b in record.populations[0])


def test_run_monotone_best_and_conservation(tmp_path):
    config = tiny_config(seed=5, output_dir=str(tmp_path / "runA"))
    record = run(config, FormulaBackend())
    assert len(record.populations) == 3
    assert all(len(pop) == 4 for pop in record.populations)
    trace = record.best_per_generation
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
    assert record.inner_trials_total == 2 * config.fitness.trials * record.evaluated_benchmarks
    # lineage closure: every crossover/mutation parent was alive in the
    # previous generation's population
    for event in record.lineage:
        if event.kind in ("crossover", "mutation"):
            alive = {b.id for b in record.populations[event.generation - 1]}
            assert set(event.parent_ids) <= alive


def test_run_persists_and_reloads(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(seed=9, output_dir=str(out))
    record = run(config, FormulaBackend())
    for name in ("config.json", "lineage.jsonl", "best.json"):
        assert (out / name).exists()
    for k in range(3):
        assert (out / f"population.gen{k}.jsonl").exists()
    loaded = load_run(out)
    assert loaded.config == config
    assert loaded.best_per_generation == record.best_per_generation
    assert loaded.best.expression == record.best.expression
    assert loaded.evaluated_benchmarks == record.evaluated_benchmarks
    assert loaded.inner_trials_total == record.inner_trials_total
    assert [[b.id for b in pop] for pop in loaded.populations] == [
        [b.id for b in pop] for pop in record.populations
    ]
    # every member as its snapshot line holds it: a NaN term is null there
    assert [[to_record(b) for b in pop] for pop in loaded.populations] == [
        [to_record(b) for b in pop] for pop in record.populations
    ]
    assert loaded.lineage == record.lineage
    summary = json.loads((out / "best.json").read_text())
    assert summary["aborted"] is False
    assert summary["generations_completed"] == 3


def test_run_is_deterministic_byte_for_byte(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(tiny_config(seed=11, output_dir=str(out_a)), FormulaBackend())
    run(tiny_config(seed=11, output_dir=str(out_b)), FormulaBackend())
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name == "config.json":
            continue  # differs only in output_dir, by construction
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_run_seed_changes_operator_choices(tmp_path):
    rec_a = run(tiny_config(seed=0), FormulaBackend())
    rec_b = run(tiny_config(seed=1234), FormulaBackend())
    kinds_a = [e.kind for e in rec_a.lineage]
    kinds_b = [e.kind for e in rec_b.lineage]
    assert kinds_a != kinds_b


def test_run_aborts_when_failure_budget_spent(tmp_path):
    out = tmp_path / "abort"
    config = tiny_config(
        output_dir=str(out),
        retry=RetryPolicy(max_attempts_per_offspring=2, global_failure_cap=4),
    )
    # three valid init formulas, then prose forever: generation 1 starves
    backend = FormulaBackend(supply=3)
    with pytest.raises(EngineAbort):
        run(config, backend)
    summary = json.loads((out / "best.json").read_text())
    assert summary["aborted"] is True
    assert summary["generations_completed"] == 1
    assert (out / "population.gen0.jsonl").exists()
    assert not (out / "population.gen1.jsonl").exists()


def test_aborted_generation_writes_no_lineage(tmp_path):
    out = tmp_path / "abort"
    config = tiny_config(
        output_dir=str(out),
        retry=RetryPolicy(max_attempts_per_offspring=2, global_failure_cap=4),
    )
    # three init formulas and two generation-1 children, then prose
    backend = FormulaBackend(supply=5)
    with pytest.raises(EngineAbort):
        run(config, backend)
    # five accepted replies and four failed ones: children 5 and 6 were
    # admitted, but generation 1 never committed
    assert backend.calls == 9
    raw = [json.loads(line) for line in (out / "lineage.jsonl").read_text().splitlines()]
    assert [event["child_id"] for event in raw] == [1, 2, 3, 4]
    assert all(event["generation"] == 0 for event in raw)
    assert [event.child_id for event in load_run(out).lineage] == [1, 2, 3, 4]


def test_run_aborts_on_transport_failure(tmp_path):
    class DeadAfterInit(FormulaBackend):
        def complete(self, prompt: str) -> str:
            if self.calls == 3:  # the three init members are made
                self.calls += 1
                raise TransportError("chat endpoint failed after 3 attempts: timed out")
            return super().complete(prompt)

    out = tmp_path / "dead"
    backend = DeadAfterInit()
    with pytest.raises(TransportError):
        run(tiny_config(output_dir=str(out)), backend)
    assert backend.calls == 4
    summary = json.loads((out / "best.json").read_text())
    assert summary["aborted"] is True
    assert summary["generations_completed"] == 1
    assert len(load_run(out).populations) == 1


def test_reused_run_directory_drops_stale_files(tmp_path):
    out = tmp_path / "reused"
    run(tiny_config(output_dir=str(out)), FormulaBackend())
    (out / "transcript.jsonl").write_text("kept\n")
    # the temporaries of an interrupted atomic write, beside a user's own
    for name in ("best.json.tmp", "config.json.tmp", "population.gen2.jsonl.tmp", "notes.tmp"):
        (out / name).write_text("partial\n")
    # the second run into the same directory aborts after generation 0
    config = tiny_config(
        output_dir=str(out),
        retry=RetryPolicy(max_attempts_per_offspring=2, global_failure_cap=4),
    )
    with pytest.raises(EngineAbort):
        run(config, FormulaBackend(supply=3))
    assert sorted(p.name for p in out.iterdir()) == [
        "best.json", "config.json", "lineage.jsonl", "notes.tmp", "population.gen0.jsonl",
        "transcript.jsonl",
    ]
    assert (out / "transcript.jsonl").read_text() == "kept\n"
    assert (out / "notes.tmp").read_text() == "partial\n"
    record = load_run(out)
    assert len(record.populations) == 1
    assert len(record.best_per_generation) == 1
    assert all(event.generation == 0 for event in record.lineage)


def test_record_mode_starts_a_fresh_transcript(tmp_path):
    class OtherFormulas(FormulaBackend):
        def complete(self, prompt: str) -> str:
            return super().complete(prompt) + " + abs(x[2])"

    recorded, replayed = tmp_path / "recorded", tmp_path / "replayed"
    transcript = recorded / "transcript.jsonl"
    run(tiny_config(output_dir=str(recorded)), RecordingBackend(FormulaBackend(), transcript))
    # a second record run into the same directory, with other responses
    run(tiny_config(output_dir=str(recorded)), RecordingBackend(OtherFormulas(), transcript))
    run(tiny_config(output_dir=str(replayed)), ReplayBackend.from_path(transcript))
    names = sorted(p.name for p in replayed.iterdir())
    assert names == sorted(p.name for p in recorded.iterdir() if p.name != "transcript.jsonl")
    for name in names:
        if name != "config.json":
            assert filecmp.cmp(recorded / name, replayed / name, shallow=False), name
    assert "abs(x[2])" in (replayed / "best.json").read_text()


def test_failed_write_keeps_previous_best(tmp_path, monkeypatch):
    out = tmp_path / "torn"
    real_write = Path.write_text
    best_writes = []

    def torn_write(self, text, *args, **kwargs):
        # the second summary write (after generation 1) dies half way
        if self.name.startswith("best.json"):
            best_writes.append(self.name)
            if len(best_writes) == 2:
                real_write(self, text[: len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
        return real_write(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="disk full"):
        run(tiny_config(output_dir=str(out)), FormulaBackend())
    summary = json.loads((out / "best.json").read_text())
    assert summary["generations_completed"] == 1 and not summary["aborted"]
    assert not list(out.glob("*.tmp"))
    # generation 1's snapshot landed, but best.json never committed it
    assert (out / "population.gen1.jsonl").exists()
    assert len(load_run(out).populations) == 1


def test_run_abort_during_init_leaves_config(tmp_path):
    out = tmp_path / "early"
    config = tiny_config(output_dir=str(out))
    with pytest.raises(TranscriptMissError):
        run(config, ReplayBackend([]))
    assert (out / "config.json").exists()
    assert not (out / "best.json").exists()
    assert not (out / "lineage.jsonl").exists()
