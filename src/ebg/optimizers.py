"""Inner optimizers: a real-coded GA and differential evolution.

These are the two algorithms whose performance gap defines benchmark
fitness.  Both minimize over a box, evaluate whole populations through
the batch kernels, and abort a trial the moment any objective
evaluation is invalid (domain error, NaN, or infinity).

GA: binary tournament selection, simulated binary crossover (SBX),
per-variable polynomial mutation, (mu + lambda) survivor selection.
DE: rand/1 mutant, binomial crossover with a forced gene, greedy
one-to-one replacement when the trial is no worse than its target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import raise_problems
from .expressions import Expression
from .kernels import Program, compile_program, eval_program


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box, the same interval on every coordinate."""

    dimension: int
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.lower < self.upper:
            raise ValueError("lower bound must be strictly below upper bound")


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 1000
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    eta_crossover: float = 20.0
    eta_mutation: float = 20.0
    tournament_size: int = 2

    def __post_init__(self) -> None:
        problems = []
        if self.population < 2:
            problems.append("population: must be >= 2")
        if self.generations < 0:
            problems.append("generations: must be >= 0")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                problems.append(f"{name}: must lie in [0, 1]")
        for name in ("eta_crossover", "eta_mutation"):
            if getattr(self, name) <= 0:
                problems.append(f"{name}: must be positive")
        if self.tournament_size < 1:
            problems.append("tournament_size: must be >= 1")
        raise_problems(problems)


@dataclass(frozen=True)
class DeConfig:
    population: int = 50
    generations: int = 1000
    weight_f: float = 1.0
    crossover_cr: float = 0.8

    def __post_init__(self) -> None:
        problems = []
        if self.population < 4:
            problems.append("population: must be >= 4 for rand/1")
        if self.generations < 0:
            problems.append("generations: must be >= 0")
        if self.weight_f <= 0.0:
            problems.append("weight_f: must be positive")
        if not 0.0 <= self.crossover_cr <= 1.0:
            problems.append("crossover_cr: must lie in [0, 1]")
        raise_problems(problems)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one seeded optimizer trial.

    ``valid`` is False when some evaluation was invalid, in which case
    ``best_value`` is NaN.  ``best_trace`` holds the best-so-far value
    after initialization and after each completed generation.
    """

    best_value: float
    best_point: np.ndarray
    evaluations_used: int
    valid: bool
    best_trace: tuple[float, ...]


# ------------------------------------------------------------ GA operators


def sbx_spread(u: np.ndarray, eta: float) -> np.ndarray:
    """Spread factor beta from uniform draws; beta(0.5) == 1."""
    u = np.asarray(u, dtype=np.float64)
    exponent = 1.0 / (eta + 1.0)
    return np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)


def sbx_children(p1: np.ndarray, p2: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric SBX children; c1 + c2 == p1 + p2 holds per gene."""
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def sbx_pair(
    p1: np.ndarray, p2: np.ndarray, eta: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene SBX: each gene crosses with probability 0.5, else it is
    copied straight from the respective parent."""
    d = p1.shape[0]
    cross = rng.random(d) < 0.5
    beta = sbx_spread(rng.random(d), eta)
    a, b = sbx_children(p1, p2, beta)
    c1 = np.where(cross, a, p1)
    c2 = np.where(cross, b, p2)
    return c1, c2


def pm_delta(u: np.ndarray, eta: float) -> np.ndarray:
    """Polynomial-mutation offset in [-1, 1]; delta(0.5) == 0."""
    u = np.asarray(u, dtype=np.float64)
    exponent = 1.0 / (eta + 1.0)
    return np.where(
        u < 0.5,
        (2.0 * u) ** exponent - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** exponent,
    )


def polynomial_mutation(
    x: np.ndarray,
    eta: float,
    rate: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mutate each gene with probability ``rate``; negative offsets move
    toward the lower bound, positive ones toward the upper bound."""
    d = x.shape[0]
    mutate = rng.random(d) < rate
    u = rng.random(d)
    delta = pm_delta(u, eta)
    step = np.where(delta < 0.0, x - space.lower, space.upper - x)
    return np.where(mutate, x + delta * step, x)


def tournament_select(values: np.ndarray, size: int, rng: np.random.Generator) -> int:
    """Index of the best of ``size`` uniformly drawn contenders."""
    contenders = rng.integers(0, values.shape[0], size)
    return int(contenders[np.argmin(values[contenders])])


# ------------------------------------------------------------ DE operators


def de_combine(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, weight_f: float) -> np.ndarray:
    """rand/1 mutant: x1 + F (x2 - x3); callers clip to the box later."""
    return x1 + weight_f * (x2 - x3)


def binomial_crossover(
    target: np.ndarray, mutant: np.ndarray, cr: float, rng: np.random.Generator
) -> np.ndarray:
    """Gene-wise mix; one forced position guarantees the trial differs
    from its target in at least one gene even at cr == 0."""
    d = target.shape[0]
    take = rng.random(d) < cr
    take[int(rng.integers(0, d))] = True
    return np.where(take, mutant, target)


def _distinct_indices(rng: np.random.Generator, n: int, exclude: int, count: int) -> list[int]:
    picked: list[int] = []
    while len(picked) < count:
        c = int(rng.integers(0, n))
        if c != exclude and c not in picked:
            picked.append(c)
    return picked


# ---------------------------------------------------------------- run loops


def _as_program(objective: Expression | Program) -> Program:
    if isinstance(objective, Expression):
        return compile_program(objective)
    return objective


class _InvalidEvaluation(Exception):
    pass


def _evaluate_batch(program: Program, X: np.ndarray, counter: list[int]) -> np.ndarray:
    values, invalid = eval_program(program, X)
    counter[0] += X.shape[0]
    if invalid.any():
        raise _InvalidEvaluation
    return values


def _invalid_outcome(dimension: int, evaluations: int, trace: list[float]) -> TrialOutcome:
    return TrialOutcome(
        best_value=float("nan"),
        best_point=np.full(dimension, np.nan),
        evaluations_used=evaluations,
        valid=False,
        best_trace=tuple(trace),
    )


def run_ga(
    objective: Expression | Program,
    space: SearchSpace,
    config: GaConfig = GaConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded GA trial; deterministic for identical inputs."""
    program = _as_program(objective)
    if program.dimension != space.dimension:
        raise ValueError("objective dimension does not match the search space")
    rng = np.random.default_rng(seed)
    n, d = config.population, space.dimension
    counter = [0]
    trace: list[float] = []

    pop = rng.uniform(space.lower, space.upper, (n, d))
    try:
        values = _evaluate_batch(program, pop, counter)
    except _InvalidEvaluation:
        return _invalid_outcome(d, counter[0], trace)
    order = np.argsort(values, kind="stable")
    pop, values = pop[order], values[order]
    trace.append(float(values[0]))

    n_pairs = (n + 1) // 2
    for _ in range(config.generations):
        children = np.empty((2 * n_pairs, d))
        for k in range(n_pairs):
            i1 = tournament_select(values, config.tournament_size, rng)
            i2 = tournament_select(values, config.tournament_size, rng)
            if rng.random() < config.crossover_rate:
                c1, c2 = sbx_pair(pop[i1], pop[i2], config.eta_crossover, rng)
            else:
                c1, c2 = pop[i1].copy(), pop[i2].copy()
            children[2 * k] = polynomial_mutation(
                c1, config.eta_mutation, config.mutation_rate, space, rng
            )
            children[2 * k + 1] = polynomial_mutation(
                c2, config.eta_mutation, config.mutation_rate, space, rng
            )
        children = np.clip(children[:n], space.lower, space.upper)
        try:
            child_values = _evaluate_batch(program, children, counter)
        except _InvalidEvaluation:
            return _invalid_outcome(d, counter[0], trace)
        pooled = np.vstack([pop, children])
        pooled_values = np.concatenate([values, child_values])
        keep = np.argsort(pooled_values, kind="stable")[:n]
        pop, values = pooled[keep], pooled_values[keep]
        trace.append(float(values[0]))

    return TrialOutcome(
        best_value=float(values[0]),
        best_point=pop[0].copy(),
        evaluations_used=counter[0],
        valid=True,
        best_trace=tuple(trace),
    )


def run_de(
    objective: Expression | Program,
    space: SearchSpace,
    config: DeConfig = DeConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded DE trial; deterministic for identical inputs."""
    program = _as_program(objective)
    if program.dimension != space.dimension:
        raise ValueError("objective dimension does not match the search space")
    rng = np.random.default_rng(seed)
    n, d = config.population, space.dimension
    counter = [0]
    trace: list[float] = []

    pop = rng.uniform(space.lower, space.upper, (n, d))
    try:
        values = _evaluate_batch(program, pop, counter)
    except _InvalidEvaluation:
        return _invalid_outcome(d, counter[0], trace)
    trace.append(float(values.min()))

    for _ in range(config.generations):
        trials = np.empty_like(pop)
        for i in range(n):
            r1, r2, r3 = _distinct_indices(rng, n, i, 3)
            mutant = de_combine(pop[r1], pop[r2], pop[r3], config.weight_f)
            trials[i] = binomial_crossover(pop[i], mutant, config.crossover_cr, rng)
        trials = np.clip(trials, space.lower, space.upper)
        try:
            trial_values = _evaluate_batch(program, trials, counter)
        except _InvalidEvaluation:
            return _invalid_outcome(d, counter[0], trace)
        better = trial_values <= values
        pop[better] = trials[better]
        values[better] = trial_values[better]
        trace.append(float(values.min()))

    best = int(np.argmin(values))
    return TrialOutcome(
        best_value=float(values[best]),
        best_point=pop[best].copy(),
        evaluations_used=counter[0],
        valid=True,
        best_trace=tuple(trace),
    )
