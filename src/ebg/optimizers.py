"""Inner optimizers: a real-coded GA and differential evolution.

These are the two algorithms whose performance gap defines benchmark
fitness.  Both minimize over a box and share one trial loop,
``run_lockstep``, which runs the seeded trials of one algorithm side by
side.  It draws a uniform initial population per trial, then per
generation asks the algorithm for each running trial's batch (its
variation step), clips the batches to the box, evaluates all of them in
one kernel call, and hands each trial its slice for the algorithm's
survivor rule.  The first batch holding an invalid point (domain error,
NaN, or infinity) freezes its trial: it is reported invalid, the failing
batch counts as evaluated, the best-so-far trace stops at the last
completed generation, and the trial's rows leave later kernel calls.
``run_ga`` and ``run_de`` are the one-seed case.

GA: binary tournament selection, simulated binary crossover (SBX),
per-variable polynomial mutation, (mu + lambda) survivor selection.
DE: rand/1 mutant, binomial crossover with a forced gene, greedy
one-to-one replacement when the trial is no worse than its target.

Variation works on the whole ``(n, d)`` population at once: the
operators accept leading batch axes, so one generation is a few numpy
calls with no Python loop over pairs or individuals.  Each trial draws
from its own ``Generator`` in the order a lone run of it would, and the
kernel works point by point, so a trial's outcome does not depend on
the trials run beside it.  Variation and survival still run once per
trial; only the kernel call is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """Per-gene SBX over matching rows of ``p1`` and ``p2``: each gene
    crosses with probability 0.5, else it is copied straight from the
    respective parent."""
    cross = rng.random(p1.shape) < 0.5
    beta = sbx_spread(rng.random(p1.shape), eta)
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
    mutate = rng.random(x.shape) < rate
    u = rng.random(x.shape)
    delta = pm_delta(u, eta)
    step = np.where(delta < 0.0, x - space.lower, space.upper - x)
    return np.where(mutate, x + delta * step, x)


def tournament_select(
    values: np.ndarray, shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Index of the best of ``shape[-1]`` uniformly drawn contenders, one
    per leading position; a tie goes to the contender drawn first."""
    contenders = rng.integers(0, values.shape[0], shape)
    best = np.argmin(values[contenders], axis=-1)
    return np.take_along_axis(contenders, best[..., None], axis=-1)[..., 0]


# ------------------------------------------------------------ DE operators


def de_combine(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, weight_f: float) -> np.ndarray:
    """rand/1 mutant: x1 + F (x2 - x3); callers clip to the box later."""
    return x1 + weight_f * (x2 - x3)


def binomial_crossover(
    target: np.ndarray, mutant: np.ndarray, cr: float, rng: np.random.Generator
) -> np.ndarray:
    """Gene-wise mix per row; one forced position guarantees each trial
    differs from its target in at least one gene even at cr == 0."""
    d = target.shape[-1]
    forced = rng.integers(0, d, target.shape[:-1])
    take = (rng.random(target.shape) < cr) | (np.arange(d) == forced[..., None])
    return np.where(take, mutant, target)


def rand1_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """``(3, n)`` donor indices r1, r2, r3 for every target i, all four
    distinct.  Each is drawn among the indices still free and then
    stepped past the taken ones in ascending order, which keeps the
    ordered triples uniform."""
    taken = np.arange(n)[:, None]
    draws = rng.integers(0, [n - 1, n - 2, n - 3], (n, 3))
    for k in range(3):
        r = draws[:, k]
        for excluded in np.sort(taken, axis=1).T:
            r += r >= excluded
        taken = np.column_stack([taken, r])
    return taken[:, 1:].T


# ---------------------------------------------------------------- run loops


def _ga_rules(config: GaConfig, space: SearchSpace):
    """The GA's variation step and (mu + lambda) survivor rule."""
    n_pairs = (config.population + 1) // 2

    def vary(pop, values, rng):
        parents = pop[tournament_select(values, (2 * n_pairs, config.tournament_size), rng)]
        c1, c2 = sbx_pair(parents[:n_pairs], parents[n_pairs:], config.eta_crossover, rng)
        crossed = np.tile(rng.random((n_pairs, 1)) < config.crossover_rate, (2, 1))
        children = np.where(crossed, np.vstack([c1, c2]), parents)[: config.population]
        return polynomial_mutation(children, config.eta_mutation, config.mutation_rate, space, rng)

    def survive(pop, values, children, child_values):
        # (mu + lambda) by a stable sort; it also orders the initial
        # population best first, and the tournaments index into that order
        pooled = np.vstack([pop, children])
        pooled_values = np.concatenate([values, child_values])
        keep = np.argsort(pooled_values, kind="stable")[: config.population]
        return pooled[keep], pooled_values[keep]

    return vary, survive


def _de_rules(config: DeConfig):
    """DE's rand/1 binomial variation step and greedy replacement rule."""
    n = config.population

    def vary(pop, values, rng):
        r1, r2, r3 = rand1_indices(n, rng)
        mutants = de_combine(pop[r1], pop[r2], pop[r3], config.weight_f)
        return binomial_crossover(pop, mutants, config.crossover_cr, rng)

    def survive(pop, values, trials, trial_values):
        # greedy one-to-one replacement when the trial is no worse
        better = trial_values <= values
        pop[better] = trials[better]
        values[better] = trial_values[better]
        return pop, values

    return vary, survive


def run_lockstep(
    objective: Expression | Program,
    space: SearchSpace,
    config: GaConfig | DeConfig,
    seeds: Sequence[int],
) -> list[TrialOutcome]:
    """Seeded trials of the algorithm ``config`` configures, in seed order.

    Generation 0 evaluates a uniform population per trial; each later
    generation evaluates ``vary(pop, values, rng)`` clipped to the box.
    Survivors come from ``survive(pop, values, batch, batch_values)``.
    The initial batch meets a placeholder population of +inf values,
    which every valid value beats.  The batches of one generation go
    through one kernel call, and the values and invalid mask are split
    back per trial.  The first batch with an invalid point freezes its
    trial: that batch still counts in ``evaluations_used``, the trial's
    rows leave later calls, and ``best_trace`` stops at the last
    completed generation.
    """
    program = compile_program(objective) if isinstance(objective, Expression) else objective
    if program.dimension != space.dimension:
        raise ValueError("objective dimension does not match the search space")
    vary, survive = _ga_rules(config, space) if isinstance(config, GaConfig) else _de_rules(config)
    n, d = config.population, space.dimension
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pops = [np.empty((n, d)) for _ in seeds]
    values = [np.full(n, np.inf) for _ in seeds]
    traces: list[list[float]] = [[] for _ in seeds]
    running = list(range(len(seeds)))
    for generation in range(config.generations + 1):
        if not running:
            break
        if generation == 0:
            batch = np.concatenate([rngs[t].uniform(space.lower, space.upper, (n, d)) for t in running])
        else:
            varied = [vary(pops[t], values[t], rngs[t]) for t in running]
            batch = np.clip(np.concatenate(varied), space.lower, space.upper)
        batch_values, invalid = eval_program(program, batch)
        failed = invalid.reshape(len(running), n).any(axis=1)
        for k in np.flatnonzero(~failed):
            t, rows = running[k], slice(k * n, (k + 1) * n)
            pops[t], values[t] = survive(pops[t], values[t], batch[rows], batch_values[rows])
            traces[t].append(float(values[t].min()))
        running = [t for t, stop in zip(running, failed) if not stop]
    outcomes = []
    for t in range(len(seeds)):
        valid = len(traces[t]) == config.generations + 1
        best = int(np.argmin(values[t]))
        outcomes.append(TrialOutcome(
            best_value=float(values[t][best]) if valid else float("nan"),
            best_point=pops[t][best].copy() if valid else np.full(d, np.nan),
            evaluations_used=n * (len(traces[t]) + (not valid)),
            valid=valid,
            best_trace=tuple(traces[t]),
        ))
    return outcomes


def run_ga(
    objective: Expression | Program,
    space: SearchSpace,
    config: GaConfig = GaConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded GA trial; deterministic for identical inputs."""
    return run_lockstep(objective, space, config, [seed])[0]


def run_de(
    objective: Expression | Program,
    space: SearchSpace,
    config: DeConfig = DeConfig(),
    seed: int = 0,
) -> TrialOutcome:
    """One seeded DE trial; deterministic for identical inputs."""
    return run_lockstep(objective, space, config, [seed])[0]
