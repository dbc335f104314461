"""Benchmark fitness: how strongly a function separates GA from DE.

A candidate benchmark is scored by running T seeded trials of each
algorithm and pooling the 2T best objective values into one ascending
ranking.  The fitness is the rank share of the target algorithm A1 plus
a penalty that discourages unboundedly negative landscapes:

    fitness = sum(rank(q_A1_i)) / sum(1..2T) + alpha * max(0, -min_i q_A1_i)

Lower is better; with all A1 trials strictly ahead the rank share
reaches its floor sum(1..T)/sum(1..2T) (about 0.2561 at T=20).  Ranking
is scale free, so only the ordering of outcomes matters.  A benchmark
that produces any invalid trial, or whose penalty overflows to an
infinite fitness, receives a large constant penalty instead.

Scoring may use a second process.  A ``TrialWorker``, opened in a
``with`` block, is a forked process that runs the target algorithm's
trials of each benchmark while this process runs the other algorithm's;
``evaluate_benchmark`` and ``run_trials`` take one, and without it they
run every trial here.  Trials are seeded per index, so the results are
the same either way.  A caller scoring a batch queues each benchmark's
job with the worker first, and the worker runs one job ahead.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import raise_problems
from .expressions import Expression, parse, render
from .kernels import compile_program, eval_program
from .optimizers import DeConfig, GaConfig, SearchSpace, TrialOutcome, run_lockstep

ALGORITHM_TAGS = ("GA", "DE")
_TAG_CODES = {"GA": 1, "DE": 2}


@dataclass(frozen=True)
class FitnessConfig:
    trials: int = 20
    alpha: float = 10.0
    invalid_penalty: float = 1e6
    a1: str = "GA"
    a2: str = "DE"
    base_seed: int = 0
    prevalidation_samples: int = 1000

    def __post_init__(self) -> None:
        problems = []
        if self.trials < 1:
            problems.append("trials: must be >= 1")
        if self.alpha < 0:
            problems.append("alpha: must be >= 0")
        if self.invalid_penalty <= 0:
            problems.append("invalid_penalty: must be positive")
        for name in ("a1", "a2"):
            if getattr(self, name) not in ALGORITHM_TAGS:
                problems.append(f"{name}: must be one of {', '.join(ALGORITHM_TAGS)}")
        if self.a1 == self.a2:
            problems.append("a2: must differ from a1")
        if self.prevalidation_samples < 1:
            problems.append("prevalidation_samples: must be >= 1")
        if self.base_seed < 0:
            problems.append("base_seed: must be >= 0")
        raise_problems(problems)


@dataclass(frozen=True)
class BenchmarkEvaluation:
    fitness: float
    rank_term: float
    penalty_term: float
    a1_best: tuple[float, ...]
    a2_best: tuple[float, ...]
    any_invalid: bool


# ------------------------------------------------------------------ ranking


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending 1-based ranks with ties sharing their average rank.

    A value whose ties fill sorted positions lo..hi-1 (0-based) gets the
    mean of ranks lo+1..hi, which is (lo + hi + 1) / 2.
    """
    values = np.asarray(values, dtype=np.float64)
    ordered = np.sort(values)
    lo = np.searchsorted(ordered, values, side="left")
    hi = np.searchsorted(ordered, values, side="right")
    return (lo + hi + 1) / 2.0


def pooled_rank_fitness(
    a1_values: Sequence[float],
    a2_values: Sequence[float],
    alpha: float,
) -> tuple[float, float, float]:
    """Returns (fitness, rank_term, penalty_term) for valid trial bests.

    The penalty activates only when A1's best trial value over all
    trials is negative.
    """
    a1 = np.asarray(a1_values, dtype=np.float64)
    a2 = np.asarray(a2_values, dtype=np.float64)
    if a1.size == 0 or a2.size == 0:
        raise ValueError("both algorithms need at least one trial value")
    if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
        raise ValueError("trial best values must be finite")
    pooled = np.concatenate([a1, a2])
    ranks = average_ranks(pooled)
    total = pooled.size * (pooled.size + 1) / 2.0
    rank_term = float(ranks[: a1.size].sum() / total)
    # Python floats overflow to inf without numpy's RuntimeWarning
    penalty_term = alpha * max(0.0, -float(a1.min()))
    return rank_term + penalty_term, rank_term, penalty_term


def rank_term_floor(trials: int) -> float:
    """Best achievable rank term: A1 sweeps ranks 1..T of the 2T pool."""
    top = trials * (trials + 1) / 2.0
    total = 2 * trials * (2 * trials + 1) / 2.0
    return top / total


# ------------------------------------------------------------ trial running


def derive_trial_seed(base_seed: int, tag: str, index: int) -> int:
    """Stable per-trial seed from (base seed, algorithm tag, trial index)."""
    words = np.random.SeedSequence([base_seed, _TAG_CODES[tag], index]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _trial_seeds(config: FitnessConfig, tag: str) -> list[int]:
    return [derive_trial_seed(config.base_seed, tag, i) for i in range(config.trials)]


@dataclass(frozen=True)
class TrialJob:
    """One algorithm's seeded trials of one expression, as a worker
    receives them: the expression goes as its text, because a compiled
    Program holds closures, which do not pickle."""

    text: str
    dimension: int
    space: SearchSpace
    algorithm: GaConfig | DeConfig
    seeds: tuple[int, ...]

    @classmethod
    def a1(
        cls,
        expr: Expression,
        config: FitnessConfig,
        space: SearchSpace | None = None,
        ga_config: GaConfig = GaConfig(),
        de_config: DeConfig = DeConfig(),
    ) -> "TrialJob":
        """The target algorithm's trials, as ``evaluate_benchmark`` with
        these arguments runs them."""
        algorithm = {"GA": ga_config, "DE": de_config}[config.a1]
        space = space if space is not None else SearchSpace(dimension=expr.dimension)
        return cls(render(expr), expr.dimension, space, algorithm, tuple(_trial_seeds(config, config.a1)))

    def run(self) -> list[TrialOutcome]:
        return run_lockstep(parse(self.text, self.dimension), self.space, self.algorithm, self.seeds)


class WorkerDied(RuntimeError):
    """The trial worker ended before it returned every result asked of it."""


def _serve(conn, parent_end) -> None:
    """The worker's loop: run each job it receives and send back its
    outcomes, until the sentinel None or the end of the parent's side."""
    import signal  # only the worker needs it

    parent_end.close()  # else the parent's death would not end recv
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    with conn:
        try:
            for job in iter(conn.recv, None):
                conn.send(job.run())
        except (EOFError, OSError):
            pass  # the parent is gone, and with it whoever would read a result


class TrialWorker:
    """A forked process that runs the target algorithm's trials, fed over
    one pipe, while ``run_trials`` runs the other algorithm's here.

    The target of its ``with`` block is the worker, or None when the
    platform has no ``fork`` or the affinity mask holds one CPU: scoring
    then stays in this process, with the same results.  ``taskset -c 0``
    therefore keeps one process.  Results are taken in the order their
    jobs were queued, and at most one job is sent ahead of the result
    being taken: a result can exceed the pipe's buffer, so with more
    jobs in flight both ends could block on a send.  Leaving the block
    cleanly sends the sentinel and joins the worker; an exception kills
    it first, so that an abort waits for no queued job.  A worker that
    dies raises WorkerDied where its result is taken.
    """

    def __init__(self) -> None:
        self._process = None
        self._conn = None
        self._queued: deque[TrialJob] = deque()  # not sent yet
        self._sent: deque[TrialJob] = deque()  # sent, result not taken

    def __enter__(self) -> "TrialWorker | None":
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if not hasattr(os, "fork") or (cpus or 1) < 2:
            return None
        # imported here: a command that scores nothing does not pay for it
        import multiprocessing

        # explicit, since the default start method is not fork everywhere;
        # spawn and forkserver would import numpy again in the worker
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(target=_serve, args=(child_end, self._conn), daemon=True)
        try:
            self._process.start()
        finally:
            child_end.close()  # else the worker's death would not end recv
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._process is None:
            return
        try:
            if exc_type is None and not self.pending:
                self._conn.send(None)
                self._process.join()
        except OSError:
            pass  # every result is in; a worker gone already is no failure
        finally:
            if self._process.exitcode is None:
                self._process.kill()
                self._process.join()
            self._conn.close()

    @property
    def pending(self) -> bool:
        return bool(self._queued or self._sent)

    def queue(self, job: TrialJob) -> None:
        self._queued.append(job)
        self._send_ahead()

    def take(self, job: TrialJob) -> list[TrialOutcome]:
        """The outcomes of ``job``, which must be the oldest queued."""
        if not self._sent or self._sent[0] != job:
            raise ValueError("trial results taken out of the order their jobs were queued")
        try:
            outcomes = self._conn.recv()
        except (EOFError, OSError) as err:
            raise WorkerDied("the trial worker died") from err
        self._sent.popleft()
        self._send_ahead()
        return outcomes

    def _send_ahead(self) -> None:
        while self._queued and len(self._sent) < 2:
            try:
                self._conn.send(self._queued[0])
            except OSError as err:
                raise WorkerDied("the trial worker died") from err
            self._sent.append(self._queued.popleft())


def run_trials(
    expr: Expression,
    config: FitnessConfig,
    space: SearchSpace,
    ga_config: GaConfig,
    de_config: DeConfig,
    worker: TrialWorker | None = None,
) -> dict[str, list[TrialOutcome]]:
    """All 2T seeded trials, keyed by algorithm tag, in trial order; the
    T trials of one algorithm run in lockstep.  With a worker, A1's
    trials run there while A2's run here."""
    program = compile_program(expr)
    configs = {"GA": ga_config, "DE": de_config}
    if worker is None:
        return {
            tag: run_lockstep(program, space, configs[tag], _trial_seeds(config, tag))
            for tag in (config.a1, config.a2)
        }
    job = TrialJob.a1(expr, config, space, ga_config, de_config)
    if not worker.pending:
        worker.queue(job)  # a caller scoring a batch queued it already
    a2 = run_lockstep(program, space, configs[config.a2], _trial_seeds(config, config.a2))
    return {config.a1: worker.take(job), config.a2: a2}


def evaluate_benchmark(
    expr: Expression,
    config: FitnessConfig = FitnessConfig(),
    space: SearchSpace | None = None,
    ga_config: GaConfig = GaConfig(),
    de_config: DeConfig = DeConfig(),
    worker: TrialWorker | None = None,
) -> BenchmarkEvaluation:
    """Score one benchmark, with A1's trials on ``worker`` if given.  An
    invalid trial, or a penalty that overflows to an infinite fitness,
    collapses to the flat penalty."""
    if space is None:
        space = SearchSpace(dimension=expr.dimension)
    outcomes = run_trials(expr, config, space, ga_config, de_config, worker)
    a1_best = tuple(o.best_value for o in outcomes[config.a1])
    a2_best = tuple(o.best_value for o in outcomes[config.a2])
    invalid = any(not o.valid for row in outcomes.values() for o in row)
    if not invalid:
        fitness, rank_term, penalty_term = pooled_rank_fitness(a1_best, a2_best, config.alpha)
        invalid = not math.isfinite(fitness)
    if invalid:
        fitness, rank_term, penalty_term = config.invalid_penalty, math.nan, math.nan
    return BenchmarkEvaluation(
        fitness=fitness,
        rank_term=rank_term,
        penalty_term=penalty_term,
        a1_best=a1_best,
        a2_best=a2_best,
        any_invalid=invalid,
    )


# -------------------------------------------------------------- validation


def prevalidate(expr: Expression, config: FitnessConfig = FitnessConfig()) -> bool:
    """True when the expression is finite at ``config.prevalidation_samples``
    uniform points of its search box, drawn from ``config.base_seed``.

    This is the acceptance gate for LLM-proposed formulas: a candidate
    enters the population only if it survives this sweep.
    """
    space = SearchSpace(dimension=expr.dimension)
    rng = np.random.default_rng(config.base_seed)
    X = rng.uniform(space.lower, space.upper, (config.prevalidation_samples, space.dimension))
    _, invalid = eval_program(compile_program(expr), X)
    return not invalid.any()
