from __future__ import annotations

import os
import signal
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from ebg import optimizers
from ebg.expressions import parse
from ebg.fitness import (
    BenchmarkEvaluation,
    FitnessConfig,
    TrialJob,
    TrialWorker,
    average_ranks,
    derive_trial_seed,
    evaluate_benchmark,
    pooled_rank_fitness,
    prevalidate,
    rank_term_floor,
    run_trials,
)
from ebg.optimizers import DeConfig, GaConfig, SearchSpace, run_de, run_ga

TINY_GA = GaConfig(population=10, generations=3)
TINY_DE = DeConfig(population=10, generations=3)


# ------------------------------------------------------------------ ranking


def test_average_ranks_plain_and_ties():
    assert np.array_equal(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])
    assert np.array_equal(average_ranks([1.0, 1.0, 2.0]), [1.5, 1.5, 3.0])
    assert np.array_equal(average_ranks([5.0, 5.0, 5.0, 5.0]), [2.5, 2.5, 2.5, 2.5])


def test_pooled_rank_fitness_hand_cases():
    # a1 = (1, 2), a2 = (3, 4): ranks 1 + 2 over sum(1..4) = 0.3
    fitness, rank_term, penalty = pooled_rank_fitness([1.0, 2.0], [3.0, 4.0], alpha=10.0)
    assert fitness == pytest.approx(0.3, abs=1e-15)
    assert penalty == 0.0

    # negative best activates the penalty: 1/3 + 10 * 0.5
    fitness, rank_term, penalty = pooled_rank_fitness([-0.5], [1.0], alpha=10.0)
    assert fitness == pytest.approx(1.0 / 3.0 + 5.0, abs=1e-12)
    assert penalty == pytest.approx(5.0, abs=1e-15)

    # complete tie: both trials share rank 1.5 -> 1.5 / 3
    fitness, rank_term, penalty = pooled_rank_fitness([1.0], [1.0], alpha=10.0)
    assert fitness == pytest.approx(0.5, abs=1e-15)


def test_rank_term_floor_t20():
    assert abs(rank_term_floor(20) - 210.0 / 820.0) <= 1e-12


def test_dominant_case_reaches_floor():
    a1 = np.arange(1.0, 21.0)
    a2 = np.arange(100.0, 120.0)
    fitness, rank_term, _ = pooled_rank_fitness(a1, a2, alpha=10.0)
    assert rank_term == pytest.approx(210.0 / 820.0, abs=1e-15)
    assert fitness == rank_term


def test_rank_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        _, r_ab, _ = pooled_rank_fitness(a, b, alpha=0.0)
        _, r_ba, _ = pooled_rank_fitness(b, a, alpha=0.0)
        assert abs((r_ab + r_ba) - 1.0) <= 1e-12


def test_rank_term_is_scale_free():
    rng = np.random.default_rng(9)
    a = rng.normal(size=7)
    b = rng.normal(size=7)
    _, base, _ = pooled_rank_fitness(a, b, alpha=0.0)
    for transform in (lambda v: 3.0 * v + 2.0, np.exp, lambda v: v**3):
        _, moved, _ = pooled_rank_fitness(transform(a), transform(b), alpha=0.0)
        assert moved == pytest.approx(base, abs=1e-12)


def test_penalty_activates_only_for_negative_best():
    _, _, p0 = pooled_rank_fitness([0.0, 2.0], [1.0], alpha=10.0)
    assert p0 == 0.0
    _, _, p1 = pooled_rank_fitness([0.0, -2.0], [1.0], alpha=10.0)
    assert p1 == 20.0


def test_pooled_rank_fitness_validation():
    with pytest.raises(ValueError):
        pooled_rank_fitness([], [1.0], alpha=1.0)
    with pytest.raises(ValueError):
        pooled_rank_fitness([np.nan], [1.0], alpha=1.0)


# ------------------------------------------------------------- trial seeds


def test_derive_trial_seed_stable_and_distinct():
    assert derive_trial_seed(0, "GA", 0) == derive_trial_seed(0, "GA", 0)
    seeds = {
        derive_trial_seed(base, tag, i)
        for base in (0, 1)
        for tag in ("GA", "DE")
        for i in range(5)
    }
    assert len(seeds) == 20


# ------------------------------------------------------- evaluate_benchmark


def test_evaluate_benchmark_constant_is_half():
    config = FitnessConfig(trials=3, alpha=10.0)
    result = evaluate_benchmark(parse("1", 5), config, ga_config=TINY_GA, de_config=TINY_DE)
    assert isinstance(result, BenchmarkEvaluation)
    assert not result.any_invalid
    assert result.fitness == pytest.approx(0.5, abs=1e-15)
    assert result.penalty_term == 0.0
    assert result.a1_best == (1.0, 1.0, 1.0)


def test_evaluate_benchmark_domain_error_gets_flat_penalty():
    config = FitnessConfig(trials=2, invalid_penalty=1e6)
    result = evaluate_benchmark(parse("sqrt(x[0])", 5), config, ga_config=TINY_GA, de_config=TINY_DE)
    assert result.any_invalid
    assert result.fitness == 1e6
    assert np.isnan(result.rank_term)


def test_overflowing_penalty_gets_flat_penalty():
    # every trial is valid, but alpha * 1e308-sized values overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = evaluate_benchmark(
            parse("-1e308*x[0]", 2),
            FitnessConfig(trials=2),
            ga_config=GaConfig(generations=3),
            de_config=DeConfig(generations=3),
        )
    assert result.fitness == FitnessConfig().invalid_penalty
    assert np.isnan(result.rank_term) and np.isnan(result.penalty_term)
    assert result.any_invalid


def test_evaluate_benchmark_deterministic():
    config = FitnessConfig(trials=4)
    expr = parse("x[0]**2 + sin(x[1])", 5)
    first = evaluate_benchmark(expr, config, ga_config=TINY_GA, de_config=TINY_DE)
    second = evaluate_benchmark(expr, config, ga_config=TINY_GA, de_config=TINY_DE)
    assert first == second


def test_run_trials_shape_and_budget():
    config = FitnessConfig(trials=3)
    outcomes = run_trials(parse("x[0]**2", 2), config, SearchSpace(2), TINY_GA, TINY_DE)
    assert set(outcomes) == {"GA", "DE"}
    assert all(len(v) == 3 for v in outcomes.values())
    for row in outcomes.values():
        for outcome in row:
            assert outcome.evaluations_used == 10 + 3 * 10


@pytest.mark.parametrize("text", ["x[0]**2 + x[1]**2", "sqrt(x[0] + 0.99) + x[1]**2"])
def test_run_trials_match_single_seed_runs(text, monkeypatch):
    # trials that freeze part-way (the sqrt term turns invalid below
    # x[0] = -0.99) must leave the trials beside them unchanged
    expr = parse(text, 2)
    space = SearchSpace(2)
    config = FitnessConfig(trials=5, base_seed=2)
    ga = GaConfig(population=20, generations=30)
    de = DeConfig(population=8, generations=30)
    points = []
    kernel = optimizers.eval_program

    def counting(program, X):
        points.append(X.shape[0])
        return kernel(program, X)

    monkeypatch.setattr(optimizers, "eval_program", counting)
    outcomes = run_trials(expr, config, space, ga, de)
    assert sum(points) == sum(o.evaluations_used for row in outcomes.values() for o in row)

    for tag, run_one, cfg in (("GA", run_ga, ga), ("DE", run_de, de)):
        for i, got in enumerate(outcomes[tag]):
            alone = run_one(expr, space, cfg, derive_trial_seed(config.base_seed, tag, i))
            assert got.valid == alone.valid
            assert got.evaluations_used == alone.evaluations_used
            assert got.best_trace == alone.best_trace
            assert np.array_equal(got.best_value, alone.best_value, equal_nan=True)
            assert np.array_equal(got.best_point, alone.best_point, equal_nan=True)
    if "sqrt" in text:
        frozen = [o for o in outcomes["DE"] if not o.valid]
        assert len({o.evaluations_used for o in frozen}) > 1  # at different generations
        assert any(o.valid for o in outcomes["GA"]) and not all(o.valid for o in outcomes["GA"])


def test_run_trials_share_one_kernel_call_per_generation(monkeypatch):
    # the trials of one algorithm run in lockstep: a generation is one
    # kernel call over the rows of the trials still running, and a frozen
    # trial's rows leave every call after its failing batch
    expr = parse("sqrt(x[0] + 0.99) + x[1]**2", 2)
    config = FitnessConfig(trials=5, base_seed=2)
    ga = GaConfig(population=20, generations=30)
    de = DeConfig(population=8, generations=30)
    rows = []
    kernel = optimizers.eval_program

    def counting(program, X):
        rows.append(X.shape[0])
        return kernel(program, X)

    monkeypatch.setattr(optimizers, "eval_program", counting)
    outcomes = run_trials(expr, config, SearchSpace(2), ga, de)
    for tag, population in ((config.a1, ga.population), (config.a2, de.population)):
        # batches per trial: its completed generations plus a failing one
        batches = [o.evaluations_used // population for o in outcomes[tag]]
        calls, rows = rows[: max(batches)], rows[max(batches):]
        assert len(calls) == max(batches)  # the deepest generation reached + 1
        assert all(r % population == 0 for r in calls)
        assert calls == [population * sum(b > g for b in batches) for g in range(len(calls))]
    assert rows == []
    assert max(o.evaluations_used for o in outcomes["DE"]) < de.population * (de.generations + 1)
    assert len({o.evaluations_used for o in outcomes["GA"]}) > 1  # one frozen, others full


# ------------------------------------------------------------ trial worker


@pytest.fixture
def worker():
    with TrialWorker() as opened:
        if opened is None:
            pytest.skip("the affinity mask holds one CPU, so there is no worker")
        yield opened


WORKER_CASES = {
    "sphere": ("x[0]**2 + x[1]**2 + x[2]**2", FitnessConfig(trials=4)),
    # trials freeze part-way: the sqrt turns invalid below x[0] = -0.99
    "freezing": ("sqrt(x[0] + 0.99) + x[1]**2", FitnessConfig(trials=5, base_seed=2)),
    "one-trial": ("x[0]**2 + sin(x[1])", FitnessConfig(trials=1)),
    "de-first": ("x[0]**2 + abs(x[1] - x[2])", FitnessConfig(trials=4, a1="DE", a2="GA")),
}


@pytest.mark.parametrize("text, config", WORKER_CASES.values(), ids=WORKER_CASES)
def test_worker_gives_the_in_process_evaluation(worker, text, config):
    expr = parse(text, 3)
    ga, de = GaConfig(population=12, generations=25), DeConfig(population=8, generations=25)
    alone = evaluate_benchmark(expr, config, ga_config=ga, de_config=de)
    beside = evaluate_benchmark(expr, config, ga_config=ga, de_config=de, worker=worker)
    assert repr(beside) == repr(alone)
    assert not worker.pending
    if text.startswith("sqrt"):
        assert alone.any_invalid


def test_worker_runs_a_queued_batch_in_order(worker):
    exprs = [parse(text, 3) for text, _ in WORKER_CASES.values()]
    config = FitnessConfig(trials=3)
    for expr in exprs:
        worker.queue(TrialJob.a1(expr, config, ga_config=TINY_GA, de_config=TINY_DE))
    batch = [evaluate_benchmark(e, config, ga_config=TINY_GA, de_config=TINY_DE, worker=worker) for e in exprs]
    alone = [evaluate_benchmark(e, config, ga_config=TINY_GA, de_config=TINY_DE) for e in exprs]
    assert repr(batch) == repr(alone)


def test_worker_refuses_a_result_taken_out_of_order(worker):
    config = FitnessConfig(trials=2)
    first, second = (parse(text, 2) for text in ("x[0]**2", "x[1]**2"))
    worker.queue(TrialJob.a1(first, config, ga_config=TINY_GA, de_config=TINY_DE))
    with pytest.raises(ValueError, match="out of the order"):
        evaluate_benchmark(second, config, ga_config=TINY_GA, de_config=TINY_DE, worker=worker)


def test_worker_returns_a_trial_result_larger_than_the_pipe_buffer(worker):
    # 20 traces of 2001 values pickle to about 360 kB
    expr = parse("x[0]**2 + x[1]**2", 2)
    config = FitnessConfig(trials=20)
    ga, de = GaConfig(population=4, generations=2000), DeConfig(population=4, generations=2000)
    job = TrialJob.a1(expr, config, ga_config=ga, de_config=de)
    worker.queue(job)
    assert repr(worker.take(job)) == repr(job.run())


@dataclass(frozen=True)
class _Echo:
    """A stub job whose payload and result both exceed the pipe buffer."""

    index: int
    payload: bytes = bytes(100_000)

    def run(self):
        return self.index, self.payload * 3


@dataclass(frozen=True)
class _Sleep:
    seconds: float

    def run(self):
        time.sleep(self.seconds)


class _Stuck(Exception):
    pass


def _raise_stuck(signum, frame):
    raise _Stuck


@pytest.fixture
def deadline():
    """Fails a test that blocks for 60 s instead of hanging the run."""
    previous = signal.signal(signal.SIGALRM, _raise_stuck)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_sixty_queued_jobs_past_the_pipe_buffer_finish(worker, deadline):
    # queued all at once, 6 MB of jobs and 18 MB of results: only one
    # job goes ahead of the result being taken, so no send blocks both ends
    jobs = [_Echo(i) for i in range(60)]
    for job in jobs:
        worker.queue(job)
    taken = [worker.take(job) for job in jobs]
    assert [index for index, _ in taken] == list(range(60))
    assert all(len(payload) == 300_000 for _, payload in taken)


def test_an_exception_kills_the_worker_without_waiting_for_its_jobs(deadline):
    started = time.perf_counter()
    with pytest.raises(_Stuck):
        with TrialWorker() as opened:
            if opened is None:
                pytest.skip("the affinity mask holds one CPU, so there is no worker")
            for _ in range(3):
                opened.queue(_Sleep(30.0))
            raise _Stuck
    assert time.perf_counter() - started < 10
    assert opened._process.exitcode == -signal.SIGKILL


def test_one_cpu_keeps_scoring_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with TrialWorker() as opened:
        assert opened is None


# ------------------------------------------------------------- prevalidate


def test_prevalidate_examples():
    assert prevalidate(parse("x[0]**2", 5))
    assert not prevalidate(parse("sqrt(x[0])", 5))
    assert prevalidate(parse("sqrt(abs(x[0]))", 5))


def test_fitness_config_validation():
    with pytest.raises(ValueError):
        FitnessConfig(trials=0)
    with pytest.raises(ValueError):
        FitnessConfig(a1="GA", a2="GA")
    with pytest.raises(ValueError):
        FitnessConfig(a1="PSO")
    with pytest.raises(ValueError):
        FitnessConfig(invalid_penalty=0.0)
