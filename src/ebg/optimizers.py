"""Inner optimizers: a real-coded GA and differential evolution.

These are the two algorithms whose performance gap defines benchmark
fitness.  Both minimize over a box and share one trial loop,
``_run_trial``: it draws a uniform initial population, then per
generation asks the algorithm for a batch (its variation step), clips
it to the box, evaluates it in one kernel call, and hands it to the
algorithm's survivor rule.  The first batch holding an invalid point
(domain error, NaN, or infinity) freezes the trial: it is reported
invalid, the failing batch counts as evaluated, and the best-so-far
trace stops at the last completed generation.

GA: binary tournament selection, simulated binary crossover (SBX),
per-variable polynomial mutation, (mu + lambda) survivor selection.
DE: rand/1 mutant, binomial crossover with a forced gene, greedy
one-to-one replacement when the trial is no worse than its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _run_trial(
    objective: Expression | Program,
    space: SearchSpace,
    config: GaConfig | DeConfig,
    seed: int,
    vary: Callable[..., np.ndarray],
    survive: Callable[..., tuple[np.ndarray, np.ndarray]],
) -> TrialOutcome:
    """The loop both algorithms share: evaluate a batch, freeze or survive.

    Generation 0 evaluates a uniform population; each later generation
    evaluates ``vary(pop, values, rng)`` clipped to the box.  Survivors
    come from ``survive(pop, values, batch, batch_values)``.  The
    initial batch meets a placeholder population of +inf values, which
    every valid value beats.  The first batch with an invalid point
    freezes the trial: that batch still counts in ``evaluations_used``,
    and ``best_trace`` stops at the last completed generation.
    """
    program = compile_program(objective) if isinstance(objective, Expression) else objective
    if program.dimension != space.dimension:
        raise ValueError("objective dimension does not match the search space")
    rng = np.random.default_rng(seed)
    n, d = config.population, space.dimension
    pop, values = np.empty((n, d)), np.full(n, np.inf)
    trace: list[float] = []
    for generation in range(config.generations + 1):
        if generation == 0:
            batch = rng.uniform(space.lower, space.upper, (n, d))
        else:
            batch = np.clip(vary(pop, values, rng), space.lower, space.upper)
        batch_values, invalid = eval_program(program, batch)
        valid = not invalid.any()
        if not valid:
            break
        pop, values = survive(pop, values, batch, batch_values)
        trace.append(float(values.min()))
    best = int(np.argmin(values))
    return TrialOutcome(
        best_value=float(values[best]) if valid else float("nan"),
        best_point=pop[best].copy() if valid else np.full(d, np.nan),
        evaluations_used=n * (generation + 1),
        valid=valid,
        best_trace=tuple(trace),
    )


def run_ga(
    objective: Expression | Program,
    space: SearchSpace,
    config: GaConfig = GaConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded GA trial; deterministic for identical inputs."""
    n_pairs = (config.population + 1) // 2

    def vary(pop, values, rng):
        children = np.empty((2 * n_pairs, space.dimension))
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
        return children[: config.population]

    def survive(pop, values, children, child_values):
        # (mu + lambda) by a stable sort; it also orders the initial
        # population best first, and the tournaments index into that order
        pooled = np.vstack([pop, children])
        pooled_values = np.concatenate([values, child_values])
        keep = np.argsort(pooled_values, kind="stable")[: config.population]
        return pooled[keep], pooled_values[keep]

    return _run_trial(objective, space, config, seed, vary, survive)


def run_de(
    objective: Expression | Program,
    space: SearchSpace,
    config: DeConfig = DeConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded DE trial; deterministic for identical inputs."""
    n = config.population

    def vary(pop, values, rng):
        trials = np.empty_like(pop)
        for i in range(n):
            r1, r2, r3 = _distinct_indices(rng, n, i, 3)
            mutant = de_combine(pop[r1], pop[r2], pop[r3], config.weight_f)
            trials[i] = binomial_crossover(pop[i], mutant, config.crossover_cr, rng)
        return trials

    def survive(pop, values, trials, trial_values):
        # greedy one-to-one replacement when the trial is no worse
        better = trial_values <= values
        pop[better] = trials[better]
        values[better] = trial_values[better]
        return pop, values

    return _run_trial(objective, space, config, seed, vary, survive)
