from __future__ import annotations

import numpy as np
import pytest

from ebg import analysis
from ebg.analysis import (
    CurvatureFeatures,
    InvalidSamplePoint,
    OperatorStats,
    SobolResult,
    curvature_features,
    levenshtein,
    mds_embed,
    operator_stats,
    pairwise_levenshtein,
    sobol_indices,
)
from ebg.engine import Benchmark, EngineConfig, run
from ebg.expressions import evaluate, parse
from ebg.kernels import compile_program
from ebg.fitness import FitnessConfig
from ebg.optimizers import DeConfig, GaConfig
from helpers import FormulaBackend, levenshtein_bruteforce, levenshtein_table, random_expression

PINNED_SEED = 49


# ------------------------------------------------------------------- Sobol


def test_sobol_single_variable_function():
    result = sobol_indices(parse("x[0]", 3), base_samples=1024, seed=PINNED_SEED)
    assert abs(result.first_order[0] - 1.0) <= 0.02
    assert abs(result.total_order[0] - 1.0) <= 0.02
    for i in (1, 2):
        assert abs(result.first_order[i]) <= 0.02
        assert abs(result.total_order[i]) <= 0.02


def test_sobol_additive_function_splits_variance():
    result = sobol_indices(parse("x[0] + x[1]", 2), base_samples=1024, seed=PINNED_SEED)
    for i in range(2):
        assert abs(result.first_order[i] - 0.5) <= 0.05
        assert abs(result.total_order[i] - 0.5) <= 0.05
    # Var(x0 + x1) over U[-1,1]^2 is 2/3
    assert abs(result.total_variance - 2.0 / 3.0) <= 0.05
    # non-interacting: first-order indices sum to about one
    assert sum(result.first_order) <= 1.0 + 0.1


def test_sobol_pure_interaction_function():
    result = sobol_indices(parse("x[0]*x[1]", 2), base_samples=1024, seed=PINNED_SEED)
    for i in range(2):
        assert abs(result.first_order[i]) <= 0.05
        assert abs(result.total_order[i] - 1.0) <= 0.05
    assert abs(result.total_variance - 1.0 / 9.0) <= 0.02


def test_sobol_first_order_bounded_by_total_order():
    for text in ("x[0] + x[1]*x[2]", "sin(x[0]) + x[1]**2", "abs(x[0]*x[1]) + x[2]"):
        result = sobol_indices(parse(text, 3), base_samples=1024, seed=PINNED_SEED)
        for s, st in zip(result.first_order, result.total_order):
            assert s <= st + 0.05


def test_sobol_deterministic_given_seed():
    a = sobol_indices(parse("x[0]*x[1]", 2), base_samples=256, seed=3)
    b = sobol_indices(parse("x[0]*x[1]", 2), base_samples=256, seed=3)
    assert a == b


def test_sobol_rejects_constant_output():
    with pytest.raises(ValueError, match="variance"):
        sobol_indices(parse("2", 2), base_samples=64, seed=0)


def test_sobol_aborts_on_invalid_sample():
    with pytest.raises(InvalidSamplePoint) as err:
        sobol_indices(parse("sqrt(x[0])", 2), base_samples=64, seed=0)
    assert err.value.cause == "sqrt-of-negative"
    assert err.value.point.shape == (2,)


@pytest.mark.parametrize(
    "text, bad, cause",
    [
        ("x[1]/x[0]", [0.0, 1.0], "div-by-zero"),
        ("x[0]**0.5", [-0.5, 0.0], "fractional-power-of-negative"),
        ("x[0]**-1", [0.0, 0.0], "zero-to-negative-power"),
        ("sqrt(x[0])", [-0.5, 0.0], "sqrt-of-negative"),
        ("sinh(1000*x[0])", [1.0, 0.0], "infinite"),
        ("x[0] + x[1]", [0.0, np.nan], "nan"),  # only a NaN coordinate makes a NaN
    ],
)
def test_analysis_error_names_reference_cause(text, bad, cause):
    expr = parse(text, 2)
    X = np.array([[0.5, 0.25], bad, [-0.5, 0.0]])
    with pytest.raises(InvalidSamplePoint) as err:
        analysis._eval_or_raise(expr, compile_program(expr), X)
    assert np.array_equal(err.value.point, X[1], equal_nan=True)
    assert err.value.cause == evaluate(expr, X[1]).cause == cause


def test_sobol_validates_base_samples():
    with pytest.raises(ValueError):
        sobol_indices(parse("x[0]", 1), base_samples=1)


# --------------------------------------------------------------- curvature


def test_curvature_anisotropic_quadratic_condition():
    expr = parse("x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + 100*x[4]**2", 5)
    for seed in (0, 1, 2):
        features = curvature_features(expr, sample_points=100, seed=seed)
        assert abs(features.hessian_cond_lower_quartile - 100.0) <= 1.0


def test_curvature_isotropic_quadratic_condition_is_one():
    features = curvature_features(parse("x[0]**2 + x[1]**2", 2), sample_points=50, seed=1)
    assert features.hessian_cond_lower_quartile == pytest.approx(1.0, abs=1e-6)
    assert features.sample_count == 50
    assert features.skipped_count == 0


def test_curvature_linear_function_skips_all_points():
    with pytest.raises(ValueError, match="usable"):
        curvature_features(parse("x[0]", 2), sample_points=10, seed=0)


def test_curvature_counts_skipped_partial_domain():
    features = curvature_features(parse("sqrt(x[0]) + x[1]**2", 2), sample_points=50, seed=0)
    assert features.skipped_count > 0
    assert features.sample_count + features.skipped_count == 50
    assert features.sample_count >= 4


def test_curvature_features_are_ratios_of_magnitudes():
    features = curvature_features(parse("x[0]**2 + 3*x[1]**2", 2), sample_points=20, seed=5)
    assert features.grad_ratio_median >= 1.0
    assert features.hessian_cond_lower_quartile >= 1.0
    assert features.hessian_cond_lower_quartile == pytest.approx(3.0, rel=1e-4)


@pytest.mark.parametrize("n, d, seed", [(4, 1, 0), (10, 3, 1), (100, 5, 2), (37, 8, 9)])
def test_curvature_sample_is_latin_hypercube(n, d, seed):
    unit = analysis._latin_hypercube(n, d, seed)
    assert unit.shape == (n, d)
    assert ((unit >= 0.0) & (unit < 1.0)).all()
    strata = np.floor(n * unit).astype(int)
    for axis in range(d):
        assert sorted(strata[:, axis]) == list(range(n))
    assert np.array_equal(unit, analysis._latin_hypercube(n, d, seed))


def test_curvature_validates_sample_points():
    with pytest.raises(ValueError):
        curvature_features(parse("x[0]**2", 1), sample_points=3)


# -------------------------------------------------------------- Levenshtein


def test_levenshtein_known_cases():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0


def test_levenshtein_matches_bruteforce_and_metric_axioms():
    rng = np.random.default_rng(7)
    alphabet = "abc"
    strings = [
        "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        for _ in range(30)
    ]
    for s in strings:
        assert levenshtein(s, s) == 0
    for _ in range(60):
        a, b, c = (strings[int(i)] for i in rng.integers(0, len(strings), 3))
        dab = levenshtein(a, b)
        assert dab == levenshtein_bruteforce(a, b)
        assert dab == levenshtein(b, a)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)


def _expression_texts(rng, count, shortest, longest):
    texts = []
    while len(texts) < count:
        text = str(random_expression(rng, 5, 7))
        if shortest <= len(text) <= longest:
            texts.append(text)
    return texts


def test_levenshtein_matches_full_table_on_long_and_edge_strings():
    texts = _expression_texts(np.random.default_rng(11), 200, 40, 200)
    pairs = list(zip(texts[::2], texts[1::2]))
    edges = ["", "x", "y", "é", "∑x", "x∑", texts[0], texts[0][::-1], texts[0][1:]]
    pairs += [(a, b) for a in edges for b in edges]
    for a, b in pairs:
        assert levenshtein(a, b) == levenshtein_table(a, b) == levenshtein(b, a), (a, b)

    sample = texts[:12] + edges
    D = pairwise_levenshtein(sample)
    assert D.dtype == np.float64
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            if i != j:
                assert D[i, j] == levenshtein(a, b)


def test_pairwise_levenshtein_matrix():
    D = pairwise_levenshtein(["kitten", "sitting", ""])
    assert D[0, 1] == 3
    assert D[0, 2] == 6
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0)


# --------------------------------------------------------------------- MDS


def test_mds_collinear_points():
    D = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    Y = mds_embed(D, 2)
    R = np.sqrt(((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
    assert np.abs(R - D).max() <= 1e-9


def test_mds_unit_square():
    s = np.sqrt(2.0)
    D = np.array([[0, 1, 1, s], [1, 0, s, 1], [1, s, 0, 1], [s, 1, 1, 0]])
    Y = mds_embed(D, 2)
    R = np.sqrt(((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
    assert np.abs(R - D).max() <= 1e-6


def test_mds_reconstructs_random_planar_configurations():
    rng = np.random.default_rng(11)
    for _ in range(5):
        P = rng.normal(size=(6, 2))
        D = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(-1))
        Y = mds_embed(D, 2)
        R = np.sqrt(((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
        assert np.abs(R - D).max() <= 1e-6


def test_mds_zero_matrix_maps_to_origin():
    Y = mds_embed(np.zeros((3, 3)), 2)
    assert np.all(Y == 0.0)


def test_mds_sign_convention_is_deterministic():
    D = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    Y = mds_embed(D, 2)
    for axis in range(2):
        column = Y[:, axis]
        if np.any(column != 0):
            assert column[np.argmax(np.abs(column))] > 0


def test_mds_input_validation():
    with pytest.raises(ValueError):
        mds_embed(np.ones((2, 3)))
    bad_symmetry = np.array([[0, 1], [2, 0]], dtype=float)
    with pytest.raises(ValueError):
        mds_embed(bad_symmetry)
    negative = np.array([[0, -1], [-1, 0]], dtype=float)
    with pytest.raises(ValueError):
        mds_embed(negative)
    diag = np.array([[1, 1], [1, 1]], dtype=float)
    with pytest.raises(ValueError):
        mds_embed(diag)


# ------------------------------------------------------------ lineage stats


def _event(child, kind, parents=(), identical=False):
    return Benchmark(
        id=child,
        expression="x[0]",
        fitness=0.5,
        rank_term=0.5,
        penalty_term=0.0,
        any_invalid=False,
        origin=kind,
        parent_ids=tuple(parents),
        generation_created=0,
        attempts=1,
        identical=identical,
    )


def test_operator_stats_seed_only():
    stats = operator_stats([_event(1, "seed")], best_id=1)
    assert stats == OperatorStats(individuals=1, operations=0, crossover_ratio=0.0, ratio_defined=False)


def test_operator_stats_mutation_chain():
    lineage = [_event(1, "seed"), _event(2, "mutation", (1,)), _event(3, "mutation", (2,))]
    stats = operator_stats(lineage, best_id=3)
    assert stats.individuals == 3
    assert stats.operations == 2
    assert stats.crossover_ratio == 0.0
    assert stats.ratio_defined


def test_operator_stats_crossover_of_seed_and_init():
    lineage = [
        _event(1, "seed"),
        _event(2, "init_llm", (1,)),
        _event(3, "crossover", (1, 2)),
    ]
    stats = operator_stats(lineage, best_id=3)
    assert stats.individuals == 3
    assert stats.operations == 1
    assert stats.crossover_ratio == 1.0


def test_operator_stats_excludes_identical_events_from_counts():
    lineage = [
        _event(1, "seed"),
        _event(2, "mutation", (1,), identical=True),
        _event(3, "mutation", (2,)),
    ]
    stats = operator_stats(lineage, best_id=3)
    assert stats.individuals == 3
    assert stats.operations == 1


def test_operator_stats_unknown_id():
    with pytest.raises(ValueError):
        operator_stats([_event(1, "seed")], best_id=99)


def test_operator_stats_unknown_parent_id():
    lineage = [_event(1, "seed"), _event(2, "mutation", (99,))]
    with pytest.raises(ValueError, match="unknown benchmark id 99"):
        operator_stats(lineage, best_id=2)


def test_operator_stats_tree_invariant_on_run():
    config = EngineConfig(
        population_size=4,
        max_generations=3,
        dimension=3,
        fitness=FitnessConfig(trials=2, prevalidation_samples=32),
        ga=GaConfig(population=6, generations=4),
        de=DeConfig(population=6, generations=4),
    )
    record = run(config, FormulaBackend())
    stats = operator_stats(record.lineage, record.best.id)
    assert 0.0 <= stats.crossover_ratio <= 1.0
    assert stats.individuals >= stats.operations + 1
