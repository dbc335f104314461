"""Landscape and lineage analysis for generated benchmarks.

Three families of tools live here.  Global sensitivity: Sobol' first
and total order indices from a Saltelli sampling scheme.  Local
curvature: finite-difference gradient and Hessian summaries over a
Latin hypercube, with the stencils of all sample points evaluated in
one kernel call.  Lineage: Levenshtein distances between expression
strings, a classical MDS embedding of those distances, and operator
usage counts along an individual's ancestry.

Everything is numpy, deterministic given a seed, and returns plain
data; no figures are rendered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import raise_problems
from .engine import ORIGIN_CROSSOVER, ORIGIN_MUTATION, LineageEvent
from .expressions import Expression, evaluate
from .kernels import compile_program, eval_program
from .optimizers import SearchSpace

DEGENERATE_MAGNITUDE = 1e-12


class InvalidSamplePoint(ValueError):
    """An analysis sample hit an undefined region of the expression."""

    def __init__(self, point: np.ndarray, cause: str):
        coords = ", ".join(f"{v:.6g}" for v in np.asarray(point))
        super().__init__(f"invalid evaluation ({cause}) at point [{coords}]")
        self.point = np.asarray(point)
        self.cause = cause


@dataclass(frozen=True)
class AnalysisConfig:
    """Sample counts, finite-difference steps and seed of ``ebg analyze``."""

    sobol_base_samples: int = 1024
    curvature_points: int = 100
    fd_step_gradient: float = 1e-5
    fd_step_hessian: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if self.sobol_base_samples < 2:
            problems.append("sobol_base_samples: must be >= 2")
        if self.curvature_points < 4:
            problems.append("curvature_points: must be >= 4")
        for name in ("fd_step_gradient", "fd_step_hessian"):
            if getattr(self, name) <= 0:
                problems.append(f"{name}: must be positive")
        if self.seed < 0:
            problems.append("seed: must be >= 0")
        raise_problems(problems)


# ------------------------------------------------------------ Sobol indices


@dataclass(frozen=True)
class SobolResult:
    first_order: tuple[float, ...]
    total_order: tuple[float, ...]
    total_variance: float
    base_samples: int


def _eval_or_raise(expr: Expression, program, X: np.ndarray) -> np.ndarray:
    """Values at X; the first invalid point raises with its reference cause."""
    values, invalid = eval_program(program, X)
    if invalid.any():
        point = X[int(np.argmax(invalid))]
        raise InvalidSamplePoint(point, evaluate(expr, point).cause)
    return values


def sobol_indices(
    expr: Expression,
    space: SearchSpace | None = None,
    base_samples: int = AnalysisConfig.sobol_base_samples,
    seed: int = 0,
) -> SobolResult:
    """Saltelli-scheme first/total order indices over the uniform box.

    Two independent base matrices A and B are drawn uniformly; the
    cross matrices A_B^(i) swap one column of A for B's.  First-order
    indices use the covariance estimator mean(fB (fABi - fA)) / V and
    total-order indices use 0.5 mean((fA - fABi)^2) / V, with outputs
    centered by the pooled mean of fA and fB.  Costs (D + 2) x
    base_samples evaluations; any invalid evaluation aborts.
    """
    if space is None:
        space = SearchSpace(dimension=expr.dimension)
    AnalysisConfig(sobol_base_samples=base_samples)  # range check
    d = space.dimension
    rng = np.random.default_rng(seed)
    A = rng.uniform(space.lower, space.upper, (base_samples, d))
    B = rng.uniform(space.lower, space.upper, (base_samples, d))
    program = compile_program(expr)
    f_a = _eval_or_raise(expr, program, A)
    f_b = _eval_or_raise(expr, program, B)
    pooled = np.concatenate([f_a, f_b])
    mean = pooled.mean()
    variance = float(np.mean((pooled - mean) ** 2))
    if variance <= 0.0:
        raise ValueError("constant output: total variance is zero")
    f_a = f_a - mean
    f_b = f_b - mean
    first = np.empty(d)
    total = np.empty(d)
    for i in range(d):
        AB = A.copy()
        AB[:, i] = B[:, i]
        f_ab = _eval_or_raise(expr, program, AB) - mean
        first[i] = np.mean(f_b * (f_ab - f_a)) / variance
        total[i] = 0.5 * np.mean((f_a - f_ab) ** 2) / variance
    return SobolResult(
        first_order=tuple(float(v) for v in first),
        total_order=tuple(float(v) for v in total),
        total_variance=variance,
        base_samples=base_samples,
    )


# -------------------------------------------------------- curvature features


@dataclass(frozen=True)
class CurvatureFeatures:
    grad_ratio_median: float
    hessian_cond_lower_quartile: float
    sample_count: int
    skipped_count: int
    fd_step_gradient: float
    fd_step_hessian: float


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d with exactly one in each stratum [k/n, (k+1)/n) per axis."""
    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.repeat(np.arange(n)[:, None], d, axis=1), axis=0)
    return (strata + rng.random((n, d))) / n


def _stencil_offsets(d: int, h_grad: float, h_hess: float) -> np.ndarray:
    """Offsets of one gradient-plus-Hessian stencil, shape (1 + 4d + 2d(d-1), d).

    Rows: the centre; per axis i, +h_grad, -h_grad, +h_hess, -h_hess
    along i; per pair i < j, h_hess steps with signs (+,+), (+,-),
    (-,+), (-,-) on (i, j).
    """
    axial = np.eye(d)[:, None, :] * np.array([h_grad, -h_grad, h_hess, -h_hess])[:, None]
    i, j = np.triu_indices(d, 1)
    pairs = np.zeros((i.size, 4, d))
    pairs[np.arange(i.size), :, i] = h_hess * np.array([1.0, 1.0, -1.0, -1.0])
    pairs[np.arange(i.size), :, j] = h_hess * np.array([1.0, -1.0, 1.0, -1.0])
    return np.concatenate([np.zeros((1, d)), axial.reshape(-1, d), pairs.reshape(-1, d)])


def curvature_features(
    expr: Expression,
    space: SearchSpace | None = None,
    sample_points: int = AnalysisConfig.curvature_points,
    fd_step_gradient: float = AnalysisConfig.fd_step_gradient,
    fd_step_hessian: float = AnalysisConfig.fd_step_hessian,
    seed: int = 0,
) -> CurvatureFeatures:
    """Median gradient anisotropy and lower-quartile Hessian condition.

    Sample points come from a Latin hypercube over the box, drawn from
    ``default_rng(seed)``.  At each point the gradient and Hessian are
    estimated by central differences; the gradient feature is
    max|g_i| / min|g_i| and the Hessian feature is max|lambda| /
    min|lambda| of the symmetric Hessian estimate.  The stencils of all
    points are evaluated in one kernel call.  Points with a magnitude
    below 1e-12 in either minimum, with any invalid stencil evaluation,
    or with a gradient or Hessian estimate that overflowed, are skipped
    and counted.
    """
    if space is None:
        space = SearchSpace(dimension=expr.dimension)
    AnalysisConfig(  # range check
        curvature_points=sample_points,
        fd_step_gradient=fd_step_gradient,
        fd_step_hessian=fd_step_hessian,
    )
    d = space.dimension
    unit = _latin_hypercube(sample_points, d, seed)
    X = space.lower + unit * (space.upper - space.lower)
    offsets = _stencil_offsets(d, fd_step_gradient, fd_step_hessian)
    stencils = (X[:, None, :] + offsets).reshape(-1, d)
    values, invalid = eval_program(compile_program(expr), stencils)
    values = values.reshape(sample_points, -1)[~invalid.reshape(sample_points, -1).any(axis=1)]
    k = values.shape[0]
    f0 = values[:, :1]
    gp, gm, hp, hm = values[:, 1 : 1 + 4 * d].reshape(k, d, 4).transpose(2, 0, 1)
    i, j = np.triu_indices(d, 1)
    fpp, fpm, fmp, fmm = values[:, 1 + 4 * d :].reshape(k, i.size, 4).transpose(2, 0, 1)
    # finite stencil values can still overflow in the differences
    with np.errstate(over="ignore", invalid="ignore"):
        grad = (gp - gm) / (2.0 * fd_step_gradient)
        hess = np.zeros((k, d, d))
        hess[:, np.arange(d), np.arange(d)] = (hp - 2.0 * f0 + hm) / fd_step_hessian**2
        hess[:, i, j] = hess[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * fd_step_hessian**2)
    finite = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    grad_mag = np.abs(grad[finite])
    eig_mag = np.abs(np.linalg.eigvalsh(hess[finite]))
    grad_min = grad_mag.min(axis=1)
    eig_min = eig_mag.min(axis=1)
    usable = (grad_min >= DEGENERATE_MAGNITUDE) & (eig_min >= DEGENERATE_MAGNITUDE)
    ratios = grad_mag.max(axis=1)[usable] / grad_min[usable]
    conditions = eig_mag.max(axis=1)[usable] / eig_min[usable]
    skipped = sample_points - ratios.size
    if ratios.size < 4:
        raise ValueError(
            f"only {ratios.size} usable sample points ({skipped} skipped); need at least 4"
        )
    return CurvatureFeatures(
        grad_ratio_median=float(np.median(ratios)),
        hessian_cond_lower_quartile=float(np.percentile(conditions, 25)),
        sample_count=ratios.size,
        skipped_count=skipped,
        fd_step_gradient=fd_step_gradient,
        fd_step_hessian=fd_step_hessian,
    )


# ------------------------------------------------------- string distances


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row dynamic program.

    Each cell is the cheapest of a deletion (``up + 1``), an insertion
    (the cell to its left plus one) and a substitution or match
    (``diagonal`` plus one on a mismatch), picked with two ``<``
    comparisons on local ints: in CPython that costs about half of a
    ``min()`` call over the three sums.
    """
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        cell = i
        for cb, up, diagonal in zip(b, previous[1:], previous):
            cell += 1
            up += 1
            if up < cell:
                cell = up
            if ca != cb:
                diagonal += 1
            if diagonal < cell:
                cell = diagonal
            current.append(cell)
        previous = current
    return previous[-1]


def pairwise_levenshtein(texts: list[str]) -> np.ndarray:
    n = len(texts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = levenshtein(texts[i], texts[j])
    return out


def mds_embed(distances: np.ndarray, k: int = 2) -> np.ndarray:
    """Classical (Torgerson) MDS of a symmetric distance matrix.

    Double-centers -0.5 D^2, takes the top-k positive eigenpairs, and
    scales eigenvectors by the square root of their eigenvalues.
    Missing positive eigenvalues zero-pad the remaining axes.  Each
    axis's sign is fixed so its largest-magnitude coordinate is
    positive, which makes the embedding deterministic.
    """
    D = np.asarray(distances, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(D, D.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(D < 0):
        raise ValueError("distances must be nonnegative")
    if not np.allclose(np.diag(D), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    n = D.shape[0]
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * J @ (D**2) @ J
    eigenvalues, eigenvectors = np.linalg.eigh(B)
    order = np.argsort(eigenvalues)[::-1]
    coords = np.zeros((n, k))
    for axis, idx in enumerate(order[:k]):
        value = eigenvalues[idx]
        if value <= 0.0:
            continue
        coords[:, axis] = eigenvectors[:, idx] * np.sqrt(value)
    for axis in range(k):
        column = coords[:, axis]
        anchor = int(np.argmax(np.abs(column)))
        if column[anchor] < 0:
            coords[:, axis] = -column
    return coords


# ---------------------------------------------------------- lineage counts


@dataclass(frozen=True)
class OperatorStats:
    individuals: int
    operations: int
    crossover_ratio: float
    ratio_defined: bool


def operator_stats(lineage: list[LineageEvent], best_id: int) -> OperatorStats:
    """Ancestry counts for one individual.

    Walks parent edges of crossover and mutation events only; seed and
    initialization members are terminal ancestors.  Events whose
    offspring text was identical to a prompt example are excluded from
    the operation counts, matching how lineage statistics discount
    no-op generations, though their edges are still traversed.  An id
    on the walk that no event created raises ValueError.
    """
    events = {event.child_id: event for event in lineage}
    visited: set[int] = set()
    frontier = [best_id]
    crossover = 0
    mutation = 0
    while frontier:
        node = frontier.pop()
        if node in visited:
            continue
        if node not in events:
            raise ValueError(f"unknown benchmark id {node}")
        visited.add(node)
        event = events[node]
        if event.kind not in (ORIGIN_CROSSOVER, ORIGIN_MUTATION):
            continue
        if not event.identical:
            if event.kind == ORIGIN_CROSSOVER:
                crossover += 1
            else:
                mutation += 1
        frontier.extend(event.parent_ids)
    operations = crossover + mutation
    return OperatorStats(
        individuals=len(visited),
        operations=operations,
        crossover_ratio=crossover / operations if operations else 0.0,
        ratio_defined=operations > 0,
    )
