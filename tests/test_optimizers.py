from __future__ import annotations

import numpy as np
import pytest

from ebg.expressions import evaluate, parse
from ebg.optimizers import (
    DeConfig,
    GaConfig,
    SearchSpace,
    binomial_crossover,
    de_combine,
    pm_delta,
    polynomial_mutation,
    run_de,
    run_ga,
    sbx_children,
    sbx_pair,
    sbx_spread,
    tournament_select,
)

SPACE5 = SearchSpace(dimension=5)
SPHERE = parse("x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2", 5)


# ------------------------------------------------------------------ SBX


def test_sbx_spread_hand_value():
    # u = 0.8, eta = 20: beta = (1 / (2 * 0.2)) ** (1/21)
    beta = float(sbx_spread(np.array([0.8]), 20.0)[0])
    assert beta == pytest.approx((1.0 / 0.4) ** (1.0 / 21.0), abs=1e-15)
    c1, c2 = sbx_children(np.array([0.0]), np.array([1.0]), np.array([beta]))
    assert c1[0] == pytest.approx(-0.0223, abs=1e-4)
    assert c2[0] == pytest.approx(1.0223, abs=1e-4)


def test_sbx_beta_one_reproduces_parents():
    p1 = np.array([0.3, -0.7, 0.1])
    p2 = np.array([-0.2, 0.4, 0.9])
    beta = sbx_spread(np.full(3, 0.5), 20.0)
    assert np.all(beta == 1.0)
    c1, c2 = sbx_children(p1, p2, beta)
    assert np.array_equal(c1, p1) and np.array_equal(c2, p2)


def test_sbx_mean_preservation():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        p1 = rng.uniform(-1, 1, 5)
        p2 = rng.uniform(-1, 1, 5)
        c1, c2 = sbx_pair(p1, p2, 20.0, rng)
        assert np.all(np.abs((c1 + c2) - (p1 + p2)) <= 1e-9)


# ------------------------------------------------------- polynomial mutation


def test_pm_delta_hand_value():
    # u = 0.9, eta = 20: delta = 1 - (2 * 0.1) ** (1/21) ~ 0.0737
    delta = float(pm_delta(np.array([0.9]), 20.0)[0])
    assert delta == pytest.approx(1.0 - 0.2 ** (1.0 / 21.0), abs=1e-15)
    assert delta == pytest.approx(0.0737, abs=1e-4)
    # gene at 0 in [-1, 1] moves to delta * (upper - x) = delta
    assert 0.0 + delta * (1.0 - 0.0) == pytest.approx(0.0738, abs=1e-4)


def test_pm_delta_midpoint_is_zero():
    assert float(pm_delta(np.array([0.5]), 20.0)[0]) == 0.0


def test_pm_zero_rate_is_identity():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 8)
    space = SearchSpace(dimension=8)
    y = polynomial_mutation(x, 20.0, 0.0, space, rng)
    assert np.array_equal(y, x)


def test_pm_respects_box_without_clipping():
    rng = np.random.default_rng(2)
    space = SearchSpace(dimension=6)
    for _ in range(500):
        x = rng.uniform(-1, 1, 6)
        y = polynomial_mutation(x, 20.0, 1.0, space, rng)
        assert np.all(y >= space.lower) and np.all(y <= space.upper)


# ------------------------------------------------------------------ DE ops


def test_de_combine_degenerate_difference():
    x1 = np.array([0.1, -0.2, 0.5])
    x2 = np.array([0.9, 0.9, 0.9])
    assert np.array_equal(de_combine(x1, x2, x2, 1.0), x1)


def test_de_combine_formula():
    x1, x2, x3 = np.zeros(2), np.array([1.0, 2.0]), np.array([0.5, 0.5])
    assert np.allclose(de_combine(x1, x2, x3, 0.5), [0.25, 0.75])


def test_binomial_crossover_cr_zero_changes_one_gene():
    rng = np.random.default_rng(3)
    for _ in range(200):
        target = np.zeros(7)
        mutant = np.ones(7)
        trial = binomial_crossover(target, mutant, 0.0, rng)
        assert int((trial != target).sum()) == 1


def test_binomial_crossover_cr_one_takes_mutant():
    rng = np.random.default_rng(4)
    target, mutant = np.zeros(5), np.arange(1.0, 6.0)
    assert np.array_equal(binomial_crossover(target, mutant, 1.0, rng), mutant)


def test_tournament_select_prefers_lower_value():
    values = np.array([5.0, 1.0, 3.0])
    rng = np.random.default_rng(5)
    picks = {tournament_select(values, 3, rng) for _ in range(50)}
    # drawing 3 contenders often includes index 1, which must then win
    assert 1 in picks
    hits = [tournament_select(values, 30, np.random.default_rng(s)) for s in range(10)]
    assert all(h == 1 for h in hits)


# ------------------------------------------------------------------ run_ga


def test_run_ga_sphere_converges():
    config = GaConfig(population=30, generations=100)
    outcome = run_ga(SPHERE, SPACE5, config, seed=1)
    assert outcome.valid
    assert outcome.best_value <= 1e-2
    assert outcome.evaluations_used == 30 + 100 * 30
    assert len(outcome.best_trace) == 101
    assert np.all(outcome.best_point >= -1) and np.all(outcome.best_point <= 1)


def test_run_ga_trace_monotone_and_consistent():
    outcome = run_ga(SPHERE, SPACE5, GaConfig(population=20, generations=40), seed=7)
    trace = np.array(outcome.best_trace)
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] == outcome.best_value
    ref = evaluate(SPHERE, outcome.best_point)
    assert ref.ok and abs(ref.value - outcome.best_value) <= 1e-12


def test_run_ga_deterministic():
    config = GaConfig(population=16, generations=25)
    a = run_ga(SPHERE, SPACE5, config, seed=11)
    b = run_ga(SPHERE, SPACE5, config, seed=11)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_trace == b.best_trace


def test_run_ga_constant_objective():
    outcome = run_ga(parse("1", 2), SearchSpace(2), GaConfig(population=8, generations=3), seed=0)
    assert outcome.valid and outcome.best_value == 1.0


def test_run_ga_invalid_objective_aborts():
    outcome = run_ga(parse("sqrt(x[0])", 3), SearchSpace(3), GaConfig(population=20, generations=10), seed=0)
    assert not outcome.valid
    assert np.isnan(outcome.best_value)
    assert outcome.evaluations_used == 20  # aborted on the initial batch


# ------------------------------------------------------------------ run_de


def test_run_de_sphere_converges():
    outcome = run_de(SPHERE, SPACE5, DeConfig(population=30, generations=100), seed=1)
    assert outcome.valid
    assert outcome.best_value <= 1e-2
    assert outcome.evaluations_used == 30 + 100 * 30


def test_run_de_linear_reaches_corner():
    # table-default DE pushed along a single coordinate finds the corner
    outcome = run_de(parse("x[0]", 5), SPACE5, DeConfig(population=50, generations=200), seed=3)
    assert outcome.valid
    assert abs(outcome.best_value - (-1.0)) <= 1e-3


def test_run_de_trace_monotone_and_deterministic():
    config = DeConfig(population=20, generations=30)
    a = run_de(SPHERE, SPACE5, config, seed=9)
    b = run_de(SPHERE, SPACE5, config, seed=9)
    trace = np.array(a.best_trace)
    assert np.all(np.diff(trace) <= 0)
    assert a.best_value == b.best_value and a.best_trace == b.best_trace


def test_run_de_invalid_objective_aborts():
    outcome = run_de(parse("sqrt(x[1])", 2), SearchSpace(2), DeConfig(population=10, generations=5), seed=2)
    assert not outcome.valid and np.isnan(outcome.best_value)


# ------------------------------------------------------ freeze accounting


def test_frozen_trials_count_the_failing_batch():
    # sqrt(x[0] + 0.99) is invalid only on the strip x[0] < -0.99, which
    # the initial population mostly misses and later batches may reach
    objective = parse("x[0] + sqrt(x[0] + 0.99)", 2)
    runs = {
        20: [run_ga(objective, SearchSpace(2), GaConfig(population=20, generations=30), seed=s)
             for s in range(10)],
        10: [run_de(objective, SearchSpace(2), DeConfig(population=10, generations=30), seed=s)
             for s in range(10)],
    }
    for population, outcomes in runs.items():
        assert any(not o.valid and len(o.best_trace) >= 1 for o in outcomes)
        for o in outcomes:
            # every completed generation plus, when frozen, the batch that failed
            batches = len(o.best_trace) + (0 if o.valid else 1)
            assert o.evaluations_used == population * batches
            assert o.valid == np.isfinite(o.best_value)
            assert o.valid == bool(np.all(np.isfinite(o.best_point)))


# ------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        DeConfig(population=3)
    with pytest.raises(ValueError):
        DeConfig(crossover_cr=-0.1)
    with pytest.raises(ValueError):
        SearchSpace(dimension=2, lower=1.0, upper=-1.0)


def test_run_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        run_ga(parse("x[0]", 2), SearchSpace(dimension=3))
