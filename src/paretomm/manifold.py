"""Parametrization of the Pareto manifold by the simplex.

For each weight vector beta the scalarized objective has a unique minimizer
x*(beta); the pairs (x*(beta), beta) sweep out the manifold of Pareto
stationary points.  This module provides the inner solver for x*(beta), the
exact derivative of the map (an SPD solve against the objective Jacobian),
its computable estimate at off-manifold points, and the error bound that
controls how far the estimated gradient of the pulled-back preference can be
from the true one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import BudgetExceededError, NumericalFailureError
from .problem import ObjectiveSet, ProblemInstance, SmoothFunction, scalarize
from .simplex import SimplexPoint


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A pair (x, beta) with the cached scalarized-gradient norm at x."""

    x: np.ndarray
    beta: SimplexPoint
    residual: float

    @classmethod
    def from_x_beta(cls, F: ObjectiveSet, x: np.ndarray, beta: SimplexPoint) -> "ManifoldPoint":
        x = np.asarray(x, dtype=float)
        res = float(np.linalg.norm(scalarize(F, beta).grad(x)))
        return cls(x=x, beta=beta, residual=res)


@dataclass(frozen=True, eq=False)
class Jacobian:
    """d x n derivative of the weight-to-minimizer map, exact or estimated."""

    matrix: np.ndarray
    kind: str  # "exact" | "estimated"


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    x: np.ndarray
    grad_norm: float
    iterations: int


def spd_solve(H: np.ndarray, B: np.ndarray, mu_floor: float) -> np.ndarray:
    """Solve H X = B by Cholesky, failing hard if H is not SPD above mu_floor/2.

    A curvature floor below half the declared strong convexity constant
    indicates a violated assumption rather than bad luck, so it raises.
    """
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    try:
        if mu_floor > 0:
            cho_factor(H - 0.5 * mu_floor * np.eye(d), lower=True)
        factor = cho_factor(H, lower=True)
    except LinAlgError as exc:
        raise NumericalFailureError(
            f"Hessian not positive definite above {0.5 * mu_floor:.3e}"
        ) from exc
    return cho_solve(factor, B)


def minimize_function(
    f: SmoothFunction,
    x0: np.ndarray,
    tol_grad: float,
    max_iters: int = 200_000,
    newton: bool = False,
    trace_values: Optional[list] = None,
) -> MinimizeResult:
    """Minimize a strongly convex function to gradient norm <= tol_grad.

    Default is fixed-step gradient descent with step 1/L.  ``newton=True``
    switches to a backtracking Newton method for high-precision solves.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = f.grad(x)
    gn = float(np.linalg.norm(g))
    if not np.isfinite(gn):
        raise NumericalFailureError("non-finite gradient at the starting point")
    best_x, best_gn = x.copy(), gn
    for it in range(max_iters):
        if gn <= tol_grad:
            return MinimizeResult(x=x, grad_norm=gn, iterations=it)
        if trace_values is not None:
            trace_values.append(f.value(x))
        if newton:
            H = f.hess(x)
            p = -spd_solve(H, g, f.mu or 0.0)
            slope = float(g @ p)
            fx = f.value(x)
            noise = 1e-14 * (1.0 + abs(fx))  # sufficient-decrease test drowns near the floor
            t = 1.0
            while t > 1e-14 and f.value(x + t * p) > fx + 1e-4 * t * slope + noise:
                t *= 0.5
            x = x + t * p
        else:
            x = x - g / f.L
        g = f.grad(x)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn) or not np.all(np.isfinite(x)):
            raise NumericalFailureError("non-finite iterate in the inner solver")
        if gn < best_gn:
            best_x, best_gn = x.copy(), gn
    if best_gn <= tol_grad:
        return MinimizeResult(x=best_x, grad_norm=best_gn, iterations=max_iters)
    raise BudgetExceededError(
        f"inner solver stopped at gradient norm {best_gn:.3e} (target {tol_grad:.3e})",
        best=best_x,
        metric=best_gn,
    )


def solve_x_star(
    F: ObjectiveSet,
    beta: SimplexPoint,
    tol_grad: float,
    max_iters: int = 200_000,
    x0: Optional[np.ndarray] = None,
    newton: bool = False,
) -> ManifoldPoint:
    """Minimize the scalarization for beta, warm-started when x0 is given.

    The default start is the beta-weighted average of the cached objective
    minimizers, which is exact for shared-Hessian quadratics.
    """
    f_beta = scalarize(F, beta)
    if x0 is None:
        x0 = f_beta.minimizer_hint
    res = minimize_function(f_beta, x0, tol_grad, max_iters=max_iters, newton=newton)
    return ManifoldPoint(x=res.x, beta=beta, residual=res.grad_norm)


def grad_x_star_exact(F: ObjectiveSet, point: ManifoldPoint) -> Jacobian:
    """Derivative of the weight-to-minimizer map at an on-manifold point.

    Computes -(hess f_beta(x))^{-1} @ jacobian_T(x) via an SPD factorization.
    The caller vouches that ``point.residual`` is small enough for the point
    to be treated as on-manifold.
    """
    J = grad_x_star_estimate(F, point.x, point.beta)
    return Jacobian(matrix=J.matrix, kind="exact")


def grad_x_star_estimate(F: ObjectiveSet, x: np.ndarray, beta: SimplexPoint) -> Jacobian:
    """The same formula evaluated at an arbitrary x, used as a proxy off-manifold."""
    x = np.asarray(x, dtype=float)
    H = scalarize(F, beta).hess(x)
    M = -spd_solve(H, F.jacobian_T(x), F.mu)
    return Jacobian(matrix=M, kind="estimated")


def err_grad_f0(problem: ProblemInstance, x: np.ndarray, beta: SimplexPoint) -> float:
    """Bound on the estimation error of the pulled-back preference gradient.

    (1/mu) * (M1/(2 M0) * ||grad f0(x)|| + L0 * M0) * ||grad f_beta(x)||.
    Zero by convention when M0 = 0: the manifold is then a single point and
    every term is analytically zero.
    """
    b = problem.bundle
    if b.M0 == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    g0 = float(np.linalg.norm(problem.f0.grad(x)))
    res = float(np.linalg.norm(scalarize(problem.F, beta).grad(x)))
    ratio = b.M1 / (2.0 * b.M0)
    return (ratio * g0 + problem.f0.L * b.M0) * res / problem.F.mu
