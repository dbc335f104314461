"""Output checks that hold for any correct version of the program.

None of them compares against a stored fitness value: those change
whenever the optimizers draw their random numbers differently.  They
compare the program with itself (two passes), with its own scalar
reference evaluator, with invariants of the method, or with an
independent computation written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# first order may exceed total order by sampling error: by at most
# SOBOL_SIGMAS standard deviations of the estimator's difference, measured
# over SOBOL_RESEEDS reseeded estimates, and never by less than the floor
SOBOL_TOLERANCE = 0.05
SOBOL_SIGMAS = 4.0
SOBOL_RESEEDS = 8


def kernel_matches_reference(expr, X: np.ndarray) -> list[str]:
    """Kernel values and validity agree point by point with the scalar
    reference ``expressions.evaluate``."""
    from ebg import expressions, kernels

    values, second = kernels.eval_program(kernels.compile_program(expr), X)
    invalid = np.asarray(second) != 0
    problems = []
    for p, x in enumerate(X):
        ref = expressions.evaluate(expr, list(x))
        if ref.ok == bool(invalid[p]):
            problems.append(f"{expr}: kernel validity differs from reference at {list(x)}")
        elif ref.ok and not math.isclose(values[p], ref.value, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{expr}: kernel {values[p]!r} != reference {ref.value!r} at {list(x)}")
        if len(problems) >= 3:
            break
    return problems


def sample_points(rng: np.random.Generator, n: int, dimension: int) -> np.ndarray:
    """Uniform box points plus points on the edges of the invalid region
    of ``sqrt(x[i] + 0.99)``-style terms."""
    X = rng.uniform(-1.0, 1.0, (n, dimension))
    X[: n // 4, :] = np.where(rng.random((n // 4, dimension)) < 0.5, -0.99, X[: n // 4, :])
    X[: n // 8, 0] = -0.995
    return X


def fitness_in_range(fitness: float, rank_term, penalty_term, any_invalid: bool,
                     trials: int, invalid_penalty: float) -> list[str]:
    """A valid score is its rank term plus penalty, the rank term within
    [floor(T), 1 - floor(T)]; an invalid one is the flat penalty."""
    from ebg.fitness import rank_term_floor

    if any_invalid:
        if fitness != invalid_penalty:
            return [f"invalid benchmark scored {fitness}, not the penalty"]
        return []
    floor = rank_term_floor(trials)
    problems = []
    if not floor - 1e-12 <= rank_term <= 1.0 - floor + 1e-12:
        problems.append(f"rank term {rank_term} outside [{floor}, {1 - floor}]")
    if penalty_term < 0 or not math.isclose(fitness, rank_term + penalty_term, rel_tol=1e-12):
        problems.append(f"fitness {fitness} is not rank term plus penalty")
    return problems


def sobol_tolerance(expr) -> tuple[np.ndarray, list[str]]:
    """Per-variable tolerance for first order <= total order, and the
    problems found on the way.

    The two indices come from separate Monte Carlo estimators, so for a
    variable without interactions, where they are equal, either one comes
    out larger about half of the time.  The spread of their difference is
    measured over reseeded estimates; the mean difference of those must
    itself not be above zero by more than its standard error allows."""
    from ebg.analysis import sobol_indices

    diffs = np.array([np.subtract(r.first_order, r.total_order)
                      for r in (sobol_indices(expr, seed=s) for s in range(1, SOBOL_RESEEDS + 1))])
    sd = diffs.std(axis=0, ddof=1)
    tolerance = np.maximum(SOBOL_TOLERANCE, SOBOL_SIGMAS * sd)
    mean = diffs.mean(axis=0)
    limit = SOBOL_SIGMAS * sd / math.sqrt(SOBOL_RESEEDS) + 1e-9
    problems = [f"{expr}: first order exceeds total order by {m:.4g} on average over "
                f"{SOBOL_RESEEDS} seeds for x[{i}] (limit {lim:.4g})"
                for i, (m, lim) in enumerate(zip(mean, limit)) if m > lim]
    return tolerance, problems


def sobol_ordered(path: Path, tolerance: np.ndarray) -> list[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return [
        f"{path}: first order {s} exceeds total order {st} by more than {tol:.4g}"
        for s, st, tol in zip(data["first_order"], data["total_order"], tolerance)
        if s > st + tol
    ]


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by a row recurrence solved with a running
    minimum: the insertion chain along a row is a prefix-min scan."""
    if not a or not b:
        return max(len(a), len(b))
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    cols = np.arange(len(b) + 1)
    row = cols.copy()
    for i, ch in enumerate(a, start=1):
        sub = row[:-1] + (bv != ord(ch))
        best = np.empty_like(row)
        best[0] = i
        best[1:] = np.minimum(row[1:] + 1, sub)
        row = np.minimum.accumulate(best - cols) + cols
    return int(row[-1])


def distances_match(distances_csv: Path, texts: dict[int, str], rng: np.random.Generator,
                    pairs: int = 6) -> list[str]:
    with open(distances_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        return [f"{distances_csv} is empty"]
    problems = []
    for k in rng.choice(len(rows), min(pairs, len(rows)), replace=False):
        row = rows[int(k)]
        a, b = texts[int(row["id_a"])], texts[int(row["id_b"])]
        if int(row["distance"]) != edit_distance(a, b):
            problems.append(f"distance {row['id_a']}-{row['id_b']} is {row['distance']}, "
                            f"expected {edit_distance(a, b)}")
    return problems


def tree_digest(directory: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """sha256 of every file below ``directory``, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
