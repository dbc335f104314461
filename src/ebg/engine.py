"""Evolutionary loop over benchmark expressions.

Benchmarks are the individuals: a population of expressions is seeded
from a fixed polynomial, grown to size via conditioned generation, then
evolved for a fixed number of generations.  Each generation builds an
offspring pool the same size as the population, choosing crossover with
probability ``crossover_rate`` (two uniform-random parents) and mutation
otherwise (one parent).  Survivors are the best N of parents plus
offspring by ascending fitness, ties broken toward older individuals.

Every LLM-made individual, at initialization or later, takes one path,
``_breed``: prompt with its parents, generate and pre-validate, charge
exhausted attempts to the run-wide budget, evaluate and log the child.

A run persists incrementally into a directory: the config snapshot, one
population file per generation, a lineage event log, and a best-so-far
summary.  Opening a directory clears what an earlier run wrote there,
except a transcript.  Given the same config, seed, and a recorded
transcript, a run reproduces byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import build, raise_problems
from .expressions import Binary, Constant, Expression, Variable, parse, render
from .fitness import BenchmarkEvaluation, FitnessConfig, evaluate_benchmark, prevalidate
from .llm import (
    AttemptsExhausted,
    ChatBackend,
    PromptSpec,
    RetryPolicy,
    TranscriptMissError,
    generate_offspring,
)
from .optimizers import DeConfig, GaConfig, SearchSpace

ORIGIN_SEED = "seed"
ORIGIN_INIT = "init_llm"
ORIGIN_CROSSOVER = "crossover"
ORIGIN_MUTATION = "mutation"

CONFIG_FILE = "config.json"
LINEAGE_FILE = "lineage.jsonl"
BEST_FILE = "best.json"


class EngineAbort(RuntimeError):
    """Raised when accumulated generation failures hit the global cap."""


# ------------------------------------------------------------------- types


@dataclass(frozen=True)
class EngineConfig:
    population_size: int = 10
    max_generations: int = 20
    crossover_rate: float = 0.5
    dimension: int = 5
    seed: int = 0
    output_dir: str | None = None
    fitness: FitnessConfig = field(default_factory=FitnessConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    de: DeConfig = field(default_factory=DeConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        problems = []
        if self.population_size < 2:
            problems.append("population_size: must be >= 2")
        if self.max_generations < 1:
            problems.append("max_generations: must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            problems.append("crossover_rate: must lie in [0, 1]")
        if self.dimension < 1:
            problems.append("dimension: must be >= 1")
        raise_problems(problems)


@dataclass(frozen=True)
class Benchmark:
    """One individual: an expression plus its evaluated fitness."""

    id: int
    expression: Expression
    text: str
    fitness: float
    rank_term: float
    penalty_term: float
    any_invalid: bool
    origin: str
    parent_ids: tuple[int, ...]
    generation_created: int


@dataclass(frozen=True)
class LineageEvent:
    """Creation record for one individual.

    ``parent_ids`` are the ids whose rendered text appeared in the
    prompt: both parents for crossover, one for mutation, and every
    in-context example for conditioned initialization.  The seed has
    none.  ``identical`` marks offspring whose text equals one of the
    prompt examples.
    """

    child_id: int
    kind: str
    parent_ids: tuple[int, ...]
    attempts: int
    identical: bool
    generation: int


@dataclass
class RunRecord:
    config: EngineConfig
    populations: list[list[Benchmark]]
    lineage: list[LineageEvent]
    best_per_generation: list[float]
    best: Benchmark
    evaluated_benchmarks: int
    inner_trials_total: int
    aborted: bool = False
    output_dir: str | None = None


class EngineState:
    """Mutable bookkeeping shared by initialization and generation steps.

    Tracks the id counter, the per-text evaluation cache, the lineage
    log, the failed-attempt budget, and evaluation counts.  ``observer``
    is called with each new lineage event so a run can persist the log
    incrementally.
    """

    def __init__(self, observer: Callable[[LineageEvent], None] | None = None):
        self.next_id = 1
        self.cache: dict[str, BenchmarkEvaluation] = {}
        self.lineage: list[LineageEvent] = []
        self.failed_attempts = 0
        self.evaluated_benchmarks = 0
        self.inner_trials_total = 0
        self.observer = observer

    def take_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def record(self, event: LineageEvent) -> None:
        self.lineage.append(event)
        if self.observer is not None:
            self.observer(event)


# -------------------------------------------------------------- operations


def seed_expression(dimension: int) -> Expression:
    """The fixed starting individual: sum of x[i] raised to i+1.

    The first term is the bare variable, so D=2 renders as
    ``x[0] + x[1]**2``.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    root = Variable(0)
    for i in range(1, dimension):
        term = Binary("pow", Variable(i), Constant(float(i + 1)))
        root = Binary("add", root, term)
    return Expression(root=root, dimension=dimension)


def _space(config: EngineConfig) -> SearchSpace:
    return SearchSpace(dimension=config.dimension)


def _validator(config: EngineConfig) -> Callable[[Expression], bool]:
    space = _space(config)
    samples = config.fitness.prevalidation_samples
    seed = config.fitness.base_seed
    return lambda expr: prevalidate(expr, space, samples, seed)


def _evaluate(state: EngineState, config: EngineConfig, expr: Expression, text: str) -> BenchmarkEvaluation:
    cached = state.cache.get(text)
    if cached is not None:
        return cached
    evaluation = evaluate_benchmark(expr, config.fitness, _space(config), config.ga, config.de)
    state.cache[text] = evaluation
    state.evaluated_benchmarks += 1
    state.inner_trials_total += len(evaluation.a1_best) + len(evaluation.a2_best)
    return evaluation


def _admit(
    state: EngineState,
    config: EngineConfig,
    expr: Expression,
    origin: str,
    parents: list[Benchmark],
    generation: int,
    attempts: int = 0,
    identical: bool = False,
) -> Benchmark:
    """Evaluate ``expr``, give it the next id, and log its creation."""
    parent_ids = tuple(parent.id for parent in parents)
    text = render(expr)
    evaluation = _evaluate(state, config, expr, text)
    benchmark = Benchmark(
        id=state.take_id(),
        expression=expr,
        text=text,
        fitness=evaluation.fitness,
        rank_term=evaluation.rank_term,
        penalty_term=evaluation.penalty_term,
        any_invalid=evaluation.any_invalid,
        origin=origin,
        parent_ids=parent_ids,
        generation_created=generation,
    )
    state.record(
        LineageEvent(
            child_id=benchmark.id,
            kind=origin,
            parent_ids=parent_ids,
            attempts=attempts,
            identical=identical,
            generation=generation,
        )
    )
    return benchmark


_PROMPT_KINDS = {ORIGIN_INIT: "init", ORIGIN_CROSSOVER: "crossover", ORIGIN_MUTATION: "mutation"}


def _breed(
    state: EngineState,
    config: EngineConfig,
    client: ChatBackend,
    validator: Callable[[Expression], bool],
    origin: str,
    parents: list[Benchmark],
    generation: int,
) -> Benchmark | None:
    """The single offspring path: prompt with ``parents``, admit the child.

    Returns None when the offspring's attempts run out; they are charged
    against the run-wide budget, which raises EngineAbort when spent.
    """
    spec = PromptSpec(
        kind=_PROMPT_KINDS[origin],
        dimension=config.dimension,
        a1=config.fitness.a1,
        a2=config.fitness.a2,
        examples=tuple(parent.text for parent in parents),
    )
    try:
        result = generate_offspring(spec, client, config.retry, validator)
    except AttemptsExhausted as err:
        state.failed_attempts += err.attempts
        if state.failed_attempts >= config.retry.global_failure_cap:
            raise EngineAbort(
                f"aborting run: {state.failed_attempts} failed generation attempts "
                f"(cap {config.retry.global_failure_cap}); last cause: {err.last_cause}"
            ) from err
        return None
    return _admit(
        state,
        config,
        result.expression,
        origin,
        parents,
        generation,
        attempts=result.attempts,
        identical=result.identical_to_parent,
    )


def initialize_population(
    config: EngineConfig,
    client: ChatBackend,
    state: EngineState | None = None,
) -> list[Benchmark]:
    """Seed member plus N-1 conditioned members, all evaluated.

    Member 1 is the fixed seed polynomial.  Each later member is
    generated from an initialization prompt whose example list is every
    previously accepted member, so the context grows as the population
    fills.
    """
    if state is None:
        state = EngineState()
    validator = _validator(config)
    population = [_admit(state, config, seed_expression(config.dimension), ORIGIN_SEED, [], 0)]
    while len(population) < config.population_size:
        child = _breed(state, config, client, validator, ORIGIN_INIT, population, 0)
        if child is not None:
            population.append(child)
    return population


def select_survivors(union: list[Benchmark], n: int) -> list[Benchmark]:
    """Best n by ascending fitness; ties go to the lower (older) id."""
    if len(union) < n:
        raise ValueError(f"need at least {n} candidates, got {len(union)}")
    ordered = sorted(union, key=lambda b: (b.fitness, b.id))
    return ordered[:n]


def step_generation(
    population: list[Benchmark],
    config: EngineConfig,
    client: ChatBackend,
    rng: np.random.Generator,
    generation: int,
    state: EngineState | None = None,
) -> tuple[list[Benchmark], list[LineageEvent]]:
    """One generation: N offspring, then elitist selection from P union Q."""
    if state is None:
        state = EngineState()
        state.next_id = max(b.id for b in population) + 1
    validator = _validator(config)
    before = len(state.lineage)
    offspring: list[Benchmark] = []
    while len(offspring) < config.population_size:
        # rng.random() is drawn before the size check, whatever its outcome
        if rng.random() < config.crossover_rate and len(population) >= 2:
            picks = rng.choice(len(population), size=2, replace=False)
            parents = [population[int(picks[0])], population[int(picks[1])]]
            origin = ORIGIN_CROSSOVER
        else:
            parents = [population[int(rng.integers(len(population)))]]
            origin = ORIGIN_MUTATION
        child = _breed(state, config, client, validator, origin, parents, generation)
        if child is not None:
            offspring.append(child)
    survivors = select_survivors(population + offspring, config.population_size)
    return survivors, state.lineage[before:]


# ------------------------------------------------------------- persistence


def _float_field(value: float) -> float | None:
    return None if math.isnan(value) else value


def benchmark_to_record(benchmark: Benchmark) -> dict:
    return {
        "id": benchmark.id,
        "expression": benchmark.text,
        "fitness": benchmark.fitness,
        "rank_term": _float_field(benchmark.rank_term),
        "penalty_term": _float_field(benchmark.penalty_term),
        "any_invalid": benchmark.any_invalid,
        "origin": benchmark.origin,
        "parent_ids": list(benchmark.parent_ids),
        "generation_created": benchmark.generation_created,
    }


def benchmark_from_record(record: dict, dimension: int) -> Benchmark:
    expr = parse(record["expression"], dimension)
    return Benchmark(
        id=record["id"],
        expression=expr,
        text=record["expression"],
        fitness=record["fitness"],
        rank_term=float("nan") if record["rank_term"] is None else record["rank_term"],
        penalty_term=float("nan") if record["penalty_term"] is None else record["penalty_term"],
        any_invalid=record["any_invalid"],
        origin=record["origin"],
        parent_ids=tuple(record["parent_ids"]),
        generation_created=record["generation_created"],
    )


def event_to_record(event: LineageEvent) -> dict:
    record = {f.name: getattr(event, f.name) for f in dataclasses.fields(LineageEvent)}
    record["parent_ids"] = list(event.parent_ids)
    return record


def event_from_record(record: dict) -> LineageEvent:
    values = {f.name: record[f.name] for f in dataclasses.fields(LineageEvent)}
    values["parent_ids"] = tuple(values["parent_ids"])
    return LineageEvent(**values)


def config_to_dict(config: EngineConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> EngineConfig:
    """Inverse of config_to_dict; missing keys keep their defaults.

    Raises ConfigError, a ValueError, naming every unknown key and every
    violated field.
    """
    return build(EngineConfig, data)


def snapshot_filename(generation: int) -> str:
    return f"population.gen{generation}.jsonl"


class _Persister:
    """Single writer for one run directory; a None directory disables IO."""

    def __init__(self, out: Path | None):
        self.out = out
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            # a reused directory keeps transcript.jsonl, which --replay
            # may read, and loses everything an earlier run wrote
            for stale in [out / LINEAGE_FILE, out / BEST_FILE, *out.glob("population.gen*.jsonl")]:
                stale.unlink(missing_ok=True)

    def config(self, config: EngineConfig) -> None:
        if self.out is None:
            return
        text = json.dumps(config_to_dict(config), indent=2)
        (self.out / CONFIG_FILE).write_text(text + "\n", encoding="utf-8")

    def event(self, event: LineageEvent) -> None:
        if self.out is None:
            return
        with open(self.out / LINEAGE_FILE, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event_to_record(event)) + "\n")

    def snapshot(self, generation: int, population: list[Benchmark]) -> None:
        if self.out is None:
            return
        lines = [json.dumps(benchmark_to_record(b)) for b in population]
        path = self.out / snapshot_filename(generation)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def best(self, payload: dict) -> None:
        if self.out is None:
            return
        (self.out / BEST_FILE).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _best_of(population: list[Benchmark]) -> Benchmark:
    return min(population, key=lambda b: (b.fitness, b.id))


def _best_payload(
    populations: list[list[Benchmark]],
    trace: list[float],
    state: EngineState,
    aborted: bool,
) -> dict:
    return {
        "best": benchmark_to_record(_best_of(populations[-1])),
        "best_fitness_per_generation": trace,
        "generations_completed": len(populations),
        "evaluated_benchmarks": state.evaluated_benchmarks,
        "inner_trials_total": state.inner_trials_total,
        "aborted": aborted,
    }


def run(config: EngineConfig, client: ChatBackend) -> RunRecord:
    """Full run: initialization plus max_generations - 1 generation steps.

    Artifacts are persisted as soon as they exist, so an abort from a
    backend failure or an exhausted retry budget leaves every completed
    generation on disk with ``aborted`` set in the summary file.
    """
    out = Path(config.output_dir) if config.output_dir else None
    persister = _Persister(out)
    persister.config(config)
    state = EngineState(observer=persister.event)
    rng = np.random.default_rng(config.seed)
    populations: list[list[Benchmark]] = []
    trace: list[float] = []
    try:
        for generation in range(config.max_generations):
            if generation == 0:
                population = initialize_population(config, client, state)
            else:
                population, _ = step_generation(population, config, client, rng, generation, state)
            populations.append(population)
            trace.append(_best_of(population).fitness)
            persister.snapshot(generation, population)
            persister.best(_best_payload(populations, trace, state, aborted=False))
    except (TranscriptMissError, EngineAbort):
        if populations:
            persister.best(_best_payload(populations, trace, state, aborted=True))
        raise
    return RunRecord(
        config=config,
        populations=populations,
        lineage=list(state.lineage),
        best_per_generation=trace,
        best=_best_of(populations[-1]),
        evaluated_benchmarks=state.evaluated_benchmarks,
        inner_trials_total=state.inner_trials_total,
        aborted=False,
        output_dir=config.output_dir,
    )


# ------------------------------------------------------------------ loading


def _read_jsonl(path: str | Path, what: str, decode: Callable[[dict], object]) -> list:
    items = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                items.append(decode(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as err:
                raise ValueError(f"{path}:{number}: bad {what} record: {err}") from err
    return items


def load_lineage(path: str | Path) -> list[LineageEvent]:
    return _read_jsonl(path, "lineage", event_from_record)


def load_population(path: str | Path, dimension: int) -> list[Benchmark]:
    return _read_jsonl(path, "benchmark", lambda record: benchmark_from_record(record, dimension))


def load_run(directory: str | Path) -> RunRecord:
    """Rehydrate a persisted run directory into a RunRecord."""
    out = Path(directory)
    config = config_from_dict(json.loads((out / CONFIG_FILE).read_text(encoding="utf-8")))
    populations = []
    for generation in range(config.max_generations):
        path = out / snapshot_filename(generation)
        if not path.exists():
            break
        populations.append(load_population(path, config.dimension))
    if not populations:
        raise FileNotFoundError(f"no population snapshots in {out}")
    lineage = load_lineage(out / LINEAGE_FILE)
    summary = json.loads((out / BEST_FILE).read_text(encoding="utf-8"))
    if len(populations) != summary["generations_completed"]:
        raise ValueError(
            f"{out} holds {len(populations)} population snapshots, but {BEST_FILE} "
            f"reports {summary['generations_completed']} completed generations"
        )
    best = benchmark_from_record(summary["best"], config.dimension)
    return RunRecord(
        config=config,
        populations=populations,
        lineage=lineage,
        best_per_generation=list(summary["best_fitness_per_generation"]),
        best=best,
        evaluated_benchmarks=summary["evaluated_benchmarks"],
        inner_trials_total=summary["inner_trials_total"],
        aborted=summary.get("aborted", False),
        output_dir=str(out),
    )
