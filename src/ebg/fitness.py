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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import raise_problems
from .expressions import Expression
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


def run_trials(
    expr: Expression,
    config: FitnessConfig,
    space: SearchSpace,
    ga_config: GaConfig,
    de_config: DeConfig,
) -> dict[str, list[TrialOutcome]]:
    """All 2T seeded trials, keyed by algorithm tag, in trial order; the
    T trials of one algorithm run in lockstep."""
    program = compile_program(expr)
    configs = {"GA": ga_config, "DE": de_config}
    return {
        tag: run_lockstep(
            program, space, configs[tag],
            [derive_trial_seed(config.base_seed, tag, i) for i in range(config.trials)],
        )
        for tag in (config.a1, config.a2)
    }


def evaluate_benchmark(
    expr: Expression,
    config: FitnessConfig = FitnessConfig(),
    space: SearchSpace | None = None,
    ga_config: GaConfig = GaConfig(),
    de_config: DeConfig = DeConfig(),
) -> BenchmarkEvaluation:
    """Score one benchmark.  An invalid trial, or a penalty that
    overflows to an infinite fitness, collapses to the flat penalty."""
    if space is None:
        space = SearchSpace(dimension=expr.dimension)
    outcomes = run_trials(expr, config, space, ga_config, de_config)
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
