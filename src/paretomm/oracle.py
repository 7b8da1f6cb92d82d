"""Brute-force checks: grids, finite differences, closed forms.

Finite differences check the implicit-derivative formula, lattice search
checks preference optimality, and the shared-Hessian closed form checks the
inner solver.  None of them uses the outer loop, its surrogate or its
certificate, but lattice search and the hull check do solve x*(beta) with
the solver's own Newton ``solve_x_star``, to a gradient tolerance of 1e-12
scaled up by the problem's smoothness constant and minimizer magnitude.
That tolerance sits above the rounding floor, so a lattice point usually
stops one Newton step earlier than a solve down to the floor would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError
from .manifold import solve_x_star
from .problem import ObjectiveSet, ProblemInstance
from .simplex import SimplexPoint, min_norm_over_simplex

DEFAULT_SAMPLING_SEED = 0xC0FFEE
_LATTICE_LIMIT = 10**7


def tangent_directions(n: int) -> np.ndarray:
    """Rows (e_i - e_n) / 2 for i < n: unit-l1-radius moves inside the simplex."""
    dirs = np.zeros((max(n - 1, 0), n))
    for i in range(n - 1):
        dirs[i, i] = 0.5
        dirs[i, n - 1] = -0.5
    return dirs


def finite_difference_jacobian(
    fn: Callable[[SimplexPoint], np.ndarray], beta: SimplexPoint, h: float = 1e-5
) -> np.ndarray:
    """Central differences of a vector map along the simplex tangent directions.

    Requires an interior base point (all weights >= 2h) so the stencil stays
    inside the simplex.  Returns a d x (n-1) matrix of tangent derivatives.
    """
    w = beta.weights
    if np.min(w) < 2.0 * h:
        raise InvalidArgumentError("beta too close to the boundary for the stencil")
    dirs = tangent_directions(w.size)
    cols = []
    for t in dirs:
        fp = fn(SimplexPoint(w + h * t))
        fm = fn(SimplexPoint(w - h * t))
        cols.append((np.asarray(fp, float) - np.asarray(fm, float)) / (2.0 * h))
    if not cols:
        return np.zeros((np.asarray(fn(beta), float).size, 0))
    return np.column_stack(cols)


def _newton_tolerance(F: ObjectiveSet) -> float:
    """1e-12 * max(1, L) * max(1, largest |minimizer entry|): above the gradient's rounding floor."""
    return 1e-12 * max(1.0, F.L) * max(1.0, float(np.abs(F.minimizers).max()))


def lattice_size(m: int, n: int) -> int:
    return comb(m + n - 1, n - 1)


def simplex_lattice(m: int, n: int) -> np.ndarray:
    """Lexicographic (lattice_size, n) integer counts summing to m, one row per weight vector.

    Stars and bars: the gaps between n - 1 bars placed among m + n - 1 slots.
    """
    total = lattice_size(m, n)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + n - 1), n - 1)),
        dtype=np.int64,
        count=total * (n - 1),
    ).reshape(total, n - 1)
    return np.diff(bars, axis=1, prepend=-1, append=m + n - 1) - 1


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    best_beta: SimplexPoint
    best_x: np.ndarray
    f_star_min: float
    f_star_max: float
    count: int
    rows: Optional[list] = None  # (beta, x, f0) triples when collected


def grid_search_preference_opt(
    problem: ProblemInstance, resolution: int, collect: bool = False
) -> GridSearchResult:
    """Evaluate the preference at every lattice weight vector.

    Inner solves use Newton at ``_newton_tolerance(problem.F)``.  Returns
    the minimizing weights plus the observed min and max preference values
    over the lattice; ``collect=True`` additionally keeps every (beta, x, f0)
    row.
    """
    if resolution < 1:
        raise InvalidArgumentError("resolution must be at least 1")
    F = problem.F
    n = F.n
    if n > 4:
        raise SizeLimitError("lattice search supports at most four objectives")
    total = lattice_size(resolution, n)
    if total > _LATTICE_LIMIT:
        raise SizeLimitError(f"lattice has {total} points, above the {_LATTICE_LIMIT} cap")
    best = (np.inf, None, None)
    f_min, f_max = np.inf, -np.inf
    rows = [] if collect else None
    x_warm = None
    tol = _newton_tolerance(F)
    for counts in simplex_lattice(resolution, n):
        beta = SimplexPoint(counts / resolution)
        point = solve_x_star(F, beta, tol_grad=tol, x0=x_warm)
        x_warm = point.x
        value = problem.f0.value(point.x)
        f_min = min(f_min, value)
        f_max = max(f_max, value)
        if value < best[0]:
            best = (value, beta, point.x)
        if rows is not None:
            rows.append((beta, point.x, value))
    return GridSearchResult(
        best_beta=best[1],
        best_x=best[2],
        f_star_min=float(f_min),
        f_star_max=float(f_max),
        count=total,
        rows=rows,
    )


def random_simplex_points(n: int, count: int, seed: int = DEFAULT_SAMPLING_SEED):
    """Reproducible uniform (Dirichlet) samples for randomized spot checks."""
    rng = np.random.default_rng(seed)
    return [SimplexPoint(rng.dirichlet(np.ones(n))) for _ in range(count)]


@dataclass(frozen=True)
class HullCheckReport:
    solve_pass: int
    solve_fail: int
    stationarity_pass: int
    stationarity_fail: int

    @property
    def all_passed(self) -> bool:
        return self.solve_fail == 0 and self.stationarity_fail == 0


def hull_pareto_check(
    F: ObjectiveSet, samples: int, seed: int = DEFAULT_SAMPLING_SEED
) -> HullCheckReport:
    """Closed-form check for shared-Hessian quadratics.

    The stationary set is exactly the convex hull of the quadratic centers:
    solved minimizers must match the weighted center combination, and every
    hull point must make the smallest scalarized gradient vanish.
    """
    probe = np.zeros(F.dim)
    H0 = F.objectives[0].hess(probe)
    scale = max(1.0, float(np.abs(H0).max()))
    for f in F.objectives[1:]:
        if np.max(np.abs(f.hess(probe) - H0)) > 1e-10 * scale:
            raise InvalidArgumentError("objectives do not share a Hessian")
    rng = np.random.default_rng(seed)
    centers = F.minimizers
    solve_pass = solve_fail = stat_pass = stat_fail = 0
    tol = _newton_tolerance(F)
    for _ in range(samples):
        beta = SimplexPoint(rng.dirichlet(np.ones(F.n)))
        point = solve_x_star(F, beta, tol_grad=tol)
        target = beta.weights @ centers
        if np.linalg.norm(point.x - target) <= 1e-8:
            solve_pass += 1
        else:
            solve_fail += 1
        y = SimplexPoint(rng.dirichlet(np.ones(F.n))).weights @ centers
        _, gap = min_norm_over_simplex(F.jacobian_T(y))
        if gap <= 1e-8:
            stat_pass += 1
        else:
            stat_fail += 1
    return HullCheckReport(solve_pass, solve_fail, stat_pass, stat_fail)
