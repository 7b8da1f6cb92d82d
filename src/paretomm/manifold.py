"""Parametrization of the Pareto manifold by the simplex.

For each weight vector beta the scalarized objective has a unique minimizer
x*(beta); the pairs (x*(beta), beta) sweep out the manifold of Pareto
stationary points.  This module provides the Newton inner solver for
x*(beta), the exact derivative of the map (an SPD solve against the
objective Jacobian), its computable estimate at off-manifold points, and the
error bound that controls how far the estimated gradient of the pulled-back
preference can be from the true one.

Every Hessian solve goes through ``spd_solve``.  It factors once where the
objective set's ``hess_floor`` has already decided its Cholesky test of the
floor mu/2 (see ``ObjectiveSet``), and twice elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailureError
from .problem import ObjectiveSet, ProblemInstance, SmoothFunction, scalarize, weighted_sum
from .simplex import _EPS, SimplexPoint


def stable_norm(v: np.ndarray) -> float:
    """Euclidean norm by ``math.hypot``, which rescales, so entries near 1e300 do not overflow."""
    return math.hypot(*np.ravel(v).tolist())


def residual_floor(F: ObjectiveSet, jacobian_T: np.ndarray, beta: SimplexPoint) -> float:
    """Rounding error the computed residual ||sum_i beta_i grad f_i(x)|| may carry.

    Each grad f_i(x) is evaluated to about (n + d) * kappa machine epsilons
    of its size, so the weighted sum can cancel far below its exact value.
    ``jacobian_T`` is ``F.jacobian_T(x)``, whose columns are the gradients.
    """
    sizes = np.abs(jacobian_T).sum(axis=0)  # ||grad f_i(x)||_1
    return (F.n + F.dim) * F.kappa * _EPS * float(sizes @ beta.weights)


@dataclass(eq=False)
class ManifoldPoint:
    """A pair (x, beta) with the cached scalarized-gradient norm at x."""

    x: np.ndarray
    beta: SimplexPoint
    residual: float

    @classmethod
    def from_x_beta(cls, F: ObjectiveSet, x: np.ndarray, beta: SimplexPoint) -> "ManifoldPoint":
        x = np.asarray(x, dtype=float)
        res = stable_norm(scalarize(F, beta).grad(x))
        return cls(x=x, beta=beta, residual=res)


@dataclass(eq=False)
class Jacobian:
    """d x n derivative of the weight-to-minimizer map, exact or estimated.

    ``adjoint`` is hess f_beta(x)^{-1} v for the vector v passed as
    ``grad_x_star_estimate``'s ``adjoint_of``, else None.
    """

    matrix: np.ndarray
    adjoint: Optional[np.ndarray] = None


@dataclass(eq=False)
class MinimizeResult:
    """The last Newton iterate, its gradient norm, and the number of Newton steps taken."""

    x: np.ndarray
    grad_norm: float
    iterations: int


def spd_solve(
    H: np.ndarray, B: np.ndarray, mu_floor: float, *, known_floor: float = -math.inf
) -> np.ndarray:
    """Solve H X = B, failing hard if H is not SPD above mu_floor/2.

    A curvature floor below half the declared strong convexity constant
    indicates a violated assumption rather than bad luck, so it raises, as
    does a non-finite entry in H or B.  The floor is checked by a Cholesky
    factorization of H - (mu_floor/2) I before the LU solve.  Both checks
    of H are skipped when mu_floor/2 lies below ``known_floor``, the
    ``hess_floor`` of the set whose family formed H: the test then passes,
    and H is finite because B, the gradients at the same x, is.
    """
    H = np.asarray(H, dtype=float)
    B = np.asarray(B, dtype=float)
    covered = 0.5 * mu_floor < known_floor
    if not (np.isfinite(B).all() and (covered or np.isfinite(H).all())):
        raise NumericalFailureError("non-finite Hessian or right-hand side in an SPD solve")
    try:
        if not covered:
            np.linalg.cholesky(H - 0.5 * mu_floor * np.eye(H.shape[0]))
        return np.linalg.solve(H, B)
    except np.linalg.LinAlgError:
        raise NumericalFailureError(f"Hessian not positive definite above {0.5 * mu_floor:.3e}") from None


def minimize_function(f: SmoothFunction, x0: np.ndarray, tol_grad: float) -> MinimizeResult:
    """Minimize a strongly convex function to gradient norm <= tol_grad or the rounding floor.

    Damped Newton: each step solves H p = -g with ``spd_solve`` and halves
    the step until the Armijo test holds, so a strongly convex quadratic is
    solved in one step.  The solve tests the floor f.mu/2 unless f is a
    ``scalarize`` result whose set's ``hess_floor`` already covers it.  A
    step is taken only when the trial point lowers the smallest f or the
    smallest gradient norm seen so far; when it lowers neither, the solve is
    at the rounding floor and returns the current iterate, whose
    ``grad_norm`` may then exceed tol_grad.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = f.grad(x)
    gn = stable_norm(g)
    if not np.isfinite(gn):
        raise NumericalFailureError("non-finite gradient at the starting point")
    fx = f.value(x)
    f_low, gn_low = fx, gn
    it = 0
    while gn > tol_grad:
        p = -spd_solve(f.hess(x), g, f.mu or 0.0, known_floor=f._hess_floor)
        slope = float(g @ p)
        noise = 1e-14 * (1.0 + abs(fx))  # sufficient-decrease test drowns near the floor
        t = 1.0
        while True:
            x_trial = x + t * p
            f_trial = f.value(x_trial)
            if t <= 1e-14 or f_trial <= fx + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        g_trial = f.grad(x_trial)
        gn_trial = stable_norm(g_trial)
        if not (np.isfinite(gn_trial) and np.isfinite(f_trial) and np.all(np.isfinite(x_trial))):
            raise NumericalFailureError("non-finite iterate in the inner solver")
        if not (f_trial < f_low or gn_trial < gn_low):
            break
        x, fx, g, gn = x_trial, f_trial, g_trial, gn_trial
        f_low, gn_low = min(f_low, fx), min(gn_low, gn)
        it += 1
    return MinimizeResult(x=x, grad_norm=gn, iterations=it)


def solve_x_star(
    F: ObjectiveSet,
    beta: SimplexPoint,
    tol_grad: float,
    x0: Optional[np.ndarray] = None,
    newton: bool = False,
) -> ManifoldPoint:
    """Minimize the scalarization for beta by Newton, warm-started when x0 is given.

    The default start is the beta-weighted average of the cached objective
    minimizers, which is exact for shared-Hessian quadratics.  The solve
    stops at tol_grad or at the rounding floor (see ``minimize_function``),
    so the returned point's ``residual``, the scalarized gradient norm at
    its x and the same number ``ManifoldPoint.from_x_beta`` computes, may
    exceed tol_grad.  ``newton`` is accepted for compatibility and ignored.
    """
    f_beta = scalarize(F, beta)
    if x0 is None:
        x0 = f_beta.minimizer_hint
    res = minimize_function(f_beta, x0, tol_grad)
    return ManifoldPoint(x=res.x, beta=beta, residual=res.grad_norm)


def grad_x_star_exact(F: ObjectiveSet, point: ManifoldPoint) -> Jacobian:
    """Derivative of the weight-to-minimizer map at an on-manifold point.

    Computes -(hess f_beta(x))^{-1} @ jacobian_T(x) with ``spd_solve``: one
    LU factorization, after a Cholesky test of the floor mu/2 unless
    ``F.hess_floor`` already covers it.  The caller vouches that
    ``point.residual`` is small enough for the point to be treated as
    on-manifold.
    """
    return grad_x_star_estimate(F, point.x, point.beta)


def grad_x_star_estimate(
    F: ObjectiveSet,
    x: np.ndarray,
    beta: SimplexPoint,
    jacobian_T: Optional[np.ndarray] = None,
    hessians: Optional[np.ndarray] = None,
    adjoint_of: Optional[np.ndarray] = None,
) -> Jacobian:
    """The same formula evaluated at an arbitrary x, used as a proxy off-manifold.

    ``jacobian_T`` is ``F.jacobian_T(x)`` and ``hessians`` the (n, d, d)
    stack ``F._hessians(x)`` when the caller already has them.  A vector
    ``adjoint_of`` rides along as one more right-hand-side column of the
    same solve, and the result's ``adjoint`` is hess f_beta(x)^{-1} of it.
    ``hessians`` must be the set's own, since ``F.hess_floor`` vouches for
    their weighted sum.
    """
    x = np.asarray(x, dtype=float)
    if jacobian_T is None:
        jacobian_T = F.jacobian_T(x)
    H = weighted_sum(beta.weights, F._hessians(x) if hessians is None else hessians)
    cols = (jacobian_T,) if adjoint_of is None else (jacobian_T, adjoint_of[:, None])
    X = spd_solve(H, np.concatenate(cols, axis=1), F.mu, known_floor=F.hess_floor)
    return Jacobian(matrix=-X[:, : F.n], adjoint=None if adjoint_of is None else X[:, -1])


def err_grad_f0(
    problem: ProblemInstance,
    x: np.ndarray,
    beta: SimplexPoint,
    grad_f0_norm: Optional[float] = None,
    residual: Optional[float] = None,
) -> float:
    """Bound on the estimation error of the pulled-back preference gradient.

    (1/mu) * (M1/(2 M0) * ||grad f0(x)|| + L0 * M0) * r, where r bounds
    ||grad f_beta(x)||: its computed value plus ``residual_floor``, since
    the computed value can cancel below the exact one.  Zero by convention
    when M0 = 0: the manifold is then a single point and every term is
    analytically zero.  ``grad_f0_norm`` and ``residual`` (that bound, floor
    included) are passed when the caller already has them.
    """
    b = problem.bundle
    if b.M0 == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    if grad_f0_norm is None:
        grad_f0_norm = stable_norm(problem.f0.grad(x))
    if residual is None:
        F = problem.F
        residual = stable_norm(scalarize(F, beta).grad(x))
        residual += residual_floor(F, F.jacobian_T(x), beta)
    ratio = b.M1 / (2.0 * b.M0)
    return (ratio * grad_f0_norm + problem.f0.L * b.M0) * residual / problem.F.mu
