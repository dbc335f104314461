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

A run writes a directory: the config snapshot when it starts, then one
commit per completed generation (its population file, its lineage
events, and the best-so-far summary that commits both).  Opening a
directory clears what an earlier run wrote there, except a transcript.
Given the same config, seed, and a recorded transcript, a run
reproduces byte-identically.

One ``RunRecord`` holds a run, whether ``run`` builds it or
``load_run`` reads it back; its best member is derived from its
population snapshots, never stored beside them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NanFloat, raise_problems, read_jsonl, read_record, to_record
from .expressions import Binary, Constant, Expression, Variable, parse, render
from .fitness import BenchmarkEvaluation, FitnessConfig, evaluate_benchmark, prevalidate
from .llm import (
    AttemptsExhausted,
    ChatBackend,
    PromptSpec,
    RetryPolicy,
    TranscriptMissError,
    TransportError,
    generate_offspring,
)
from .optimizers import DeConfig, GaConfig

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
        if self.seed < 0:
            problems.append("seed: must be >= 0")
        raise_problems(problems)


@dataclass(frozen=True)
class Benchmark:
    """One individual: its rendered expression and its evaluated fitness,
    as one line of a population snapshot holds them."""

    id: int
    expression: str
    fitness: float
    rank_term: NanFloat
    penalty_term: NanFloat
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


@dataclass(frozen=True)
class RunSummary:
    """The run summary, ``best.json``, whose write commits a generation.

    ``load_run`` reads only its counts; the best member and its trace
    are derived from the snapshots.
    """

    best: Benchmark
    best_fitness_per_generation: tuple[float, ...]
    generations_completed: int
    evaluated_benchmarks: int
    inner_trials_total: int
    aborted: bool

    def __post_init__(self) -> None:
        if self.generations_completed < 1:
            raise_problems(["generations_completed: must be >= 1"])


@dataclass
class RunRecord:
    """One run: what ``run`` builds as it goes and ``load_run`` returns.

    ``populations`` holds one snapshot per completed generation; the best
    member and the per-generation best fitness are read from them.  The
    id counter, the per-text evaluation cache and the failed-attempt
    budget are the live engine's bookkeeping; a loaded run keeps their
    defaults, because no run file holds them yet.
    """

    config: EngineConfig
    populations: list[list[Benchmark]] = field(default_factory=list)
    lineage: list[LineageEvent] = field(default_factory=list)
    evaluated_benchmarks: int = 0
    inner_trials_total: int = 0
    next_id: int = 1
    failed_attempts: int = 0
    cache: dict[str, BenchmarkEvaluation] = field(default_factory=dict, compare=False, repr=False)

    @property
    def best(self) -> Benchmark:
        return _best_of(self.populations[-1])

    @property
    def best_per_generation(self) -> list[float]:
        return [_best_of(population).fitness for population in self.populations]

    def take_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out


def _best_of(population: list[Benchmark]) -> Benchmark:
    return min(population, key=lambda b: (b.fitness, b.id))


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


def _evaluate(record: RunRecord, expr: Expression, text: str) -> BenchmarkEvaluation:
    cached = record.cache.get(text)
    if cached is not None:
        return cached
    config = record.config
    evaluation = evaluate_benchmark(expr, config.fitness, ga_config=config.ga, de_config=config.de)
    record.cache[text] = evaluation
    record.evaluated_benchmarks += 1
    record.inner_trials_total += len(evaluation.a1_best) + len(evaluation.a2_best)
    return evaluation


def _admit(
    record: RunRecord,
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
    evaluation = _evaluate(record, expr, text)
    benchmark = Benchmark(
        id=record.take_id(),
        expression=text,
        fitness=evaluation.fitness,
        rank_term=evaluation.rank_term,
        penalty_term=evaluation.penalty_term,
        any_invalid=evaluation.any_invalid,
        origin=origin,
        parent_ids=parent_ids,
        generation_created=generation,
    )
    record.lineage.append(
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
    record: RunRecord,
    client: ChatBackend,
    origin: str,
    parents: list[Benchmark],
    generation: int,
) -> Benchmark | None:
    """The single offspring path: prompt with ``parents``, admit the child.

    Returns None when the offspring's attempts run out; they are charged
    against the run-wide budget, which raises EngineAbort when spent.
    """
    config = record.config
    spec = PromptSpec(
        kind=_PROMPT_KINDS[origin],
        dimension=config.dimension,
        a1=config.fitness.a1,
        a2=config.fitness.a2,
        examples=tuple(parent.expression for parent in parents),
    )
    try:
        result = generate_offspring(
            spec, client, config.retry, lambda expr: prevalidate(expr, config.fitness)
        )
    except AttemptsExhausted as err:
        record.failed_attempts += err.attempts
        if record.failed_attempts >= config.retry.global_failure_cap:
            raise EngineAbort(
                f"aborting run: {record.failed_attempts} failed generation attempts "
                f"(cap {config.retry.global_failure_cap}); last cause: {err.last_cause}"
            ) from err
        return None
    return _admit(
        record,
        result.expression,
        origin,
        parents,
        generation,
        attempts=result.attempts,
        identical=result.identical_to_parent,
    )


def initialize_population(record: RunRecord, client: ChatBackend) -> list[Benchmark]:
    """Seed member plus N-1 conditioned members, all evaluated.

    Member 1 is the fixed seed polynomial.  Each later member is
    generated from an initialization prompt whose example list is every
    previously accepted member, so the context grows as the population
    fills.
    """
    config = record.config
    population = [_admit(record, seed_expression(config.dimension), ORIGIN_SEED, [], 0)]
    while len(population) < config.population_size:
        child = _breed(record, client, ORIGIN_INIT, population, 0)
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
    record: RunRecord,
    population: list[Benchmark],
    client: ChatBackend,
    rng: np.random.Generator,
    generation: int,
) -> list[Benchmark]:
    """One generation: N offspring, then elitist selection from P union Q."""
    config = record.config
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
        child = _breed(record, client, origin, parents, generation)
        if child is not None:
            offspring.append(child)
    return select_survivors(population + offspring, config.population_size)


# ------------------------------------------------------------- persistence


def snapshot_filename(generation: int) -> str:
    return f"population.gen{generation}.jsonl"


def _write_atomic(path: Path, text: str) -> None:
    # a failure before the rename leaves the previous file whole
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _open_run_directory(config: EngineConfig) -> Path | None:
    """Make the run directory, clear it, and write the config snapshot.

    A reused directory keeps transcript.jsonl, which --replay may read,
    and loses everything an earlier run wrote, half-written temporaries
    included; other ``*.tmp`` files are not the run's and stay.  No
    ``output_dir`` keeps the run in memory and returns None.
    """
    if not config.output_dir:
        return None
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stale = [out / LINEAGE_FILE, out / BEST_FILE, *out.glob("population.gen*.jsonl")]
    stale += [out / f"{CONFIG_FILE}.tmp", out / f"{BEST_FILE}.tmp", *out.glob("population.gen*.jsonl.tmp")]
    for path in stale:
        path.unlink(missing_ok=True)
    _write_atomic(out / CONFIG_FILE, json.dumps(dataclasses.asdict(config), indent=2) + "\n")
    return out


def _write_best(out: Path, record: RunRecord, aborted: bool) -> None:
    summary = RunSummary(
        best=record.best,
        best_fitness_per_generation=tuple(record.best_per_generation),
        generations_completed=len(record.populations),
        evaluated_benchmarks=record.evaluated_benchmarks,
        inner_trials_total=record.inner_trials_total,
        aborted=aborted,
    )
    _write_atomic(out / BEST_FILE, json.dumps(to_record(summary), indent=2) + "\n")


def _commit_generation(out: Path, record: RunRecord, events: list[LineageEvent]) -> None:
    """Write the newest generation: its snapshot, atomically; its lineage
    ``events``, in one append; then the summary, which commits both."""
    population = record.populations[-1]
    lines = [json.dumps(to_record(b)) for b in population]
    _write_atomic(out / snapshot_filename(len(record.populations) - 1), "\n".join(lines) + "\n")
    with open(out / LINEAGE_FILE, "a", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(to_record(event)) + "\n" for event in events))
    _write_best(out, record, aborted=False)


def run(config: EngineConfig, client: ChatBackend) -> RunRecord:
    """Full run: initialization plus max_generations - 1 generation steps.

    Each generation is committed to the run directory as it completes,
    so an abort from a replay miss, a transport failure or an exhausted
    retry budget leaves every completed generation on disk with
    ``aborted`` set in the summary file; the unfinished generation
    writes nothing.
    """
    out = _open_run_directory(config)
    record = RunRecord(config)
    rng = np.random.default_rng(config.seed)
    committed = 0  # lineage events already written
    try:
        for generation in range(config.max_generations):
            if generation == 0:
                population = initialize_population(record, client)
            else:
                population = step_generation(record, population, client, rng, generation)
            record.populations.append(population)
            if out is not None:
                _commit_generation(out, record, record.lineage[committed:])
                committed = len(record.lineage)
    except (TranscriptMissError, TransportError, EngineAbort):
        if out is not None and record.populations:
            _write_best(out, record, aborted=True)
        raise
    return record


# ------------------------------------------------------------------ loading


def load_lineage(path: str | Path) -> list[LineageEvent]:
    # the log is appended to, so a crash can leave its last line torn
    return read_jsonl(path, "lineage", LineageEvent, torn_tail=True)


def load_population(path: str | Path, dimension: int) -> list[Benchmark]:
    # a member whose expression does not parse is a bad line too
    return read_jsonl(path, "benchmark", Benchmark, check=lambda b: parse(b.expression, dimension))


def load_run(directory: str | Path) -> RunRecord:
    """Rehydrate a persisted run directory into a RunRecord.

    The summary file is the commit point for snapshots and lineage:
    exactly the snapshots of the generations it reports are read, and a
    missing one, or one that does not hold ``population_size`` members,
    is an error; only the lineage events of those generations are kept.
    A higher-numbered snapshot or a later event, whose summary write
    never landed, is not part of the run and is ignored, and so is a
    torn final lineage line.  Of the summary only its counts are read;
    the best member and its trace come from the snapshots.  A problem of
    ``config.json`` or of the summary names its file.
    """
    out = Path(directory)
    config = read_record(EngineConfig, out / CONFIG_FILE)
    summary = read_record(RunSummary, out / BEST_FILE)
    record = RunRecord(
        config,
        evaluated_benchmarks=summary.evaluated_benchmarks,
        inner_trials_total=summary.inner_trials_total,
    )
    completed = summary.generations_completed
    for generation in range(completed):
        path = out / snapshot_filename(generation)
        population = load_population(path, config.dimension)
        if len(population) != config.population_size:
            raise ValueError(
                f"{path}: holds {len(population)} benchmarks; population_size is {config.population_size}"
            )
        record.populations.append(population)
    record.lineage = [e for e in load_lineage(out / LINEAGE_FILE) if e.generation < completed]
    return record
