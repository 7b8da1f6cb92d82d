"""Brute-force checks: grids, finite differences, closed forms.

Finite differences check the implicit-derivative formula, lattice search
checks preference optimality, and the shared-Hessian closed form checks the
inner solver; with a quadratic preference that closed form also gives the
exact preference optimum, for any number of objectives.  None of them uses
the outer loop, its surrogate or its certificate.  Lattice search solves
x*(beta) with the solver's own Newton ``solve_x_star``, to a gradient
tolerance of 1e-12 scaled up by the problem's smoothness constant and
minimizer magnitude; that tolerance sits above the rounding floor.  When
the objective set stacks every objective as a built-in quadratic
f_i(x) = 0.5 (x - z_i)^T H_i (x - z_i) (``ObjectiveSet.family`` with no
log-cosh weight), lattice search instead solves
(sum_i beta_i H_i) x = sum_i beta_i H_i z_i directly, one batched linear
solve per block of lattice points, and hands every point whose scalarized
gradient norm misses that tolerance back to Newton, warm-started at the
previous point.  So the contract is "Newton at that tolerance" either way.
A built-in quadratic preference (``family_of``) is then evaluated by one
einsum per block.  Hand-written functions, and copies whose callables or
minimizer hint were replaced, are always evaluated as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, SizeLimitError
from .manifold import solve_x_star
from .problem import Family, ObjectiveSet, ProblemInstance, SmoothFunction, family_of
from .simplex import SimplexPoint, min_norm_over_simplex

_LATTICE_LIMIT = 10**7
_BLOCK_ROWS = 4096  # weight vectors per batched solve: peak memory O(block * d^2)


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


def _lattice_blocks(m: int, n: int, rows: int):
    """Lexicographic integer counts summing to m, as (<= rows, n) arrays in order.

    Stars and bars: the gaps between n - 1 bars placed among m + n - 1
    slots.  One combinations iterator feeds every block, so no block holds
    more than ``rows`` weight vectors.
    """
    bars = itertools.chain.from_iterable(itertools.combinations(range(m + n - 1), n - 1))
    total = lattice_size(m, n)
    for start in range(0, total, rows):
        k = min(rows, total - start)
        block = np.fromiter(itertools.islice(bars, k * (n - 1)), dtype=np.int64, count=k * (n - 1))
        yield np.diff(block.reshape(k, n - 1), axis=1, prepend=-1, append=m + n - 1) - 1


def _quadratic(family: Optional[Family]) -> Optional[Family]:
    """``family`` when it is a quadratic one (no log-cosh weight), else None."""
    return family if family is not None and family.c is None else None


def _x_star_rows(
    F: ObjectiveSet,
    quad: Optional[Family],
    W: np.ndarray,
    A: np.ndarray,
    tol: float,
    x_prev: Optional[np.ndarray] = None,
) -> np.ndarray:
    """x*(beta) for each row of the weight matrix W, as an (len(W), d) array.

    Row i of W is ``SimplexPoint(A[i]).weights``.  For a quadratic set
    (``quad`` its stacked ``F.family``) one batched linear solve gives every
    row.  A row whose scalarized gradient norm is not <= tol (NaN
    included), every row of a block whose solve is singular and every row
    of a non-quadratic set (``quad`` None) is re-solved in order by
    ``solve_x_star(F, SimplexPoint(A[i]), tol)``, warm-started at the
    previous row's x, or at ``x_prev`` for the first row.
    """
    X = np.full((len(W), F.dim), np.nan)
    residual = np.full(len(W), np.nan)
    if quad is not None:
        H, z = quad.H, quad.z
        rhs = np.einsum("ijk,ik->ij", H, z)
        try:
            X = np.linalg.solve(np.einsum("bi,ijk->bjk", W, H), (W @ rhs)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
        G = sum(W[:, i, None] * ((X - z[i]) @ H[i].T) for i in range(F.n))
        residual = np.linalg.norm(G, axis=1)  # an overflow to inf sends the row to Newton
    for i in np.flatnonzero(~(residual <= tol)):
        x0 = X[i - 1] if i else x_prev
        X[i] = solve_x_star(F, SimplexPoint(A[i]), tol_grad=tol, x0=x0).x
    return X


def _preference_values(f0: SmoothFunction, X: np.ndarray, batched: bool) -> np.ndarray:
    """f0 at each row of X; one einsum when ``batched`` and f0 is a quadratic ``Family``.

    Without ``batched`` every row is ``f0.value``, as in the Newton loop.
    """
    quad = _quadratic(family_of(f0)) if batched else None
    if quad is None:
        return np.array([f0.value(x) for x in X])
    D = X - quad.z
    return 0.5 * np.einsum("bi,bi->b", D, D @ quad.H.T)


@dataclass(eq=False)
class GridSearchResult:
    """The best lattice point and its x*(beta), the range of f0 over the lattice, and the lattice size."""

    best_beta: SimplexPoint
    best_x: np.ndarray
    f_star_min: float
    f_star_max: float
    count: int
    # when collected, a read-only (count, n + d + 1) array in lattice
    # order whose columns are the weights, x*(beta) and f0
    rows: Optional[np.ndarray] = None


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in a Newton re-solve or NumericalFailureError
def grid_search_preference_opt(
    problem: ProblemInstance, resolution: int, collect: bool = False
) -> GridSearchResult:
    """Evaluate the preference at every lattice weight vector.

    A quadratic objective set is solved directly, one batched linear solve
    per block of lattice points; Newton at ``_newton_tolerance(problem.F)``
    re-solves every point that solve leaves above that tolerance, and every
    point of a non-quadratic set (see the module docstring).  Returns the
    minimizing weights plus the observed min and max preference values over
    the lattice; ``collect=True`` additionally keeps every point's weights,
    x and f0 as one row of ``rows``.  Raises ``NumericalFailureError`` when
    f0 is not finite at any lattice point.
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
    quad = _quadratic(F.family)
    tol = _newton_tolerance(F)
    best = (np.inf, None, None)
    f_min, f_max = np.inf, -np.inf
    rows = np.empty((total, n + F.dim + 1)) if collect else None
    x_prev = None
    blocks = _lattice_blocks(resolution, n, _BLOCK_ROWS)
    for start, counts in zip(range(0, total, _BLOCK_ROWS), blocks):
        A = counts / resolution
        W = A / A.sum(axis=1, keepdims=True)  # bit for bit SimplexPoint(A[i]).weights
        X = _x_star_rows(F, quad, W, A, tol, x_prev)
        x_prev = X[-1]
        values = _preference_values(problem.f0, X, quad is not None)
        f_min = min(f_min, float(np.fmin.reduce(values)))
        f_max = max(f_max, float(np.fmax.reduce(values)))
        lower = np.flatnonzero(values < best[0])
        if lower.size:
            i = lower[np.argmin(values[lower])]
            best = (values[i], counts[i], X[i])
        if rows is not None:
            rows[start : start + len(A)] = np.hstack([W, X, values[:, None]])
    if best[1] is None:
        raise NumericalFailureError("f0 is not finite at any lattice point")
    if rows is not None:
        rows.setflags(write=False)
    return GridSearchResult(
        best_beta=SimplexPoint(best[1] / resolution),
        best_x=best[2],
        f_star_min=float(f_min),
        f_star_max=float(f_max),
        count=total,
        rows=rows,
    )


def shared_hessian_optimum(problem: ProblemInstance):
    """Exact global minimum of f0(x*(beta)) over the simplex, for any n.

    Needs a stacked quadratic objective set (``F.family`` with no log-cosh
    weight) whose Hessians agree with the first to 1e-10 relative, so
    x*(beta) = Z^T beta with Z the stacked centres, and a quadratic
    preference family 0.5 (x - z0)^T P (x - z0) with P = L L^T.  Since the
    weights sum to one, f0(x*(beta)) = 0.5 ||L^T (Z^T - z0 1^T) beta||^2,
    whose minimum over the simplex is one ``min_norm_over_simplex`` solve.
    Returns ``(SimplexPoint, f*)``; raises ``InvalidArgumentError`` on any
    other problem.
    """
    quad = _quadratic(problem.F.family)
    if quad is None:
        raise InvalidArgumentError("objectives are not all quadratics")
    H = quad.H
    if np.max(np.abs(H - H[0])) > 1e-10 * max(1.0, float(np.abs(H[0]).max())):
        raise InvalidArgumentError("objectives do not share a Hessian")
    preference = _quadratic(family_of(problem.f0))
    if preference is None:
        raise InvalidArgumentError("needs a quadratic preference")
    eigs, V = np.linalg.eigh(preference.H)
    LT = np.sqrt(np.maximum(eigs, 0.0))[:, None] * V.T
    beta, norm = min_norm_over_simplex(LT @ (quad.z - preference.z).T)
    return beta, 0.5 * norm**2
