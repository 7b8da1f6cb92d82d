"""Independent output checks, computed with numpy from the problem spec alone.

Nothing here calls the program under test: gradients, Hessians, the Newton
re-solve of x*(beta), the exact implicit Jacobian, the min-norm point and
the navigation projection are all recomputed from the spec's (H, z, c)
terms, so a defect in the program's own evaluation cannot hide itself.
Each check returns ``(ok, detail)`` and never raises for a bad output.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import nnls

from workloads import entry_terms

NEWTON_TOL = 1e-12
COLLINEARITY_TOL = 1e-6  # radians: the navigation baseline's stopping test


class SpecModel:
    """Objectives f_i = 0.5 (x-z)^T H (x-z) + c sum log cosh(x-z) and f0."""

    def __init__(self, spec: dict):
        terms = [entry_terms(e) for e in spec["objectives"]]
        self.H = np.array([t[0] for t in terms])
        self.z = np.array([t[1] for t in terms])
        self.c = np.array([t[2] for t in terms])
        self.H0, self.z0, c0 = entry_terms(spec["preference"])
        if c0 != 0.0:
            raise ValueError("checks assume a quadratic preference")

    def grads(self, x) -> np.ndarray:
        """n x d matrix whose rows are grad f_i(x)."""
        D = x - self.z
        return np.einsum("nij,nj->ni", self.H, D) + self.c[:, None] * np.tanh(D)

    def values(self, x) -> np.ndarray:
        D = x - self.z
        a = np.abs(D)
        log_cosh = a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
        return 0.5 * np.einsum("ni,nij,nj->n", D, self.H, D) + self.c * log_cosh.sum(axis=1)

    def hess(self, beta, x) -> np.ndarray:
        sech2 = 1.0 / np.cosh(x - self.z) ** 2
        return np.einsum("n,nij->ij", beta, self.H) + np.diag((beta * self.c) @ sech2)

    def f0(self, x) -> float:
        d = x - self.z0
        return 0.5 * float(d @ self.H0 @ d)

    def grad_f0(self, x) -> np.ndarray:
        return self.H0 @ (x - self.z0)

    def x_star(self, beta) -> np.ndarray:
        """Damped Newton on sum_i beta_i f_i to gradient norm NEWTON_TOL."""
        x = beta @ self.z
        for _ in range(100):
            g = beta @ self.grads(x)
            if np.linalg.norm(g) <= NEWTON_TOL:
                return x
            p = -cho_solve(cho_factor(self.hess(beta, x)), g)
            fx = float(beta @ self.values(x))
            slack = 1e-14 * (1.0 + abs(fx))  # decrease test drowns near the floor
            t = 1.0
            while t > 1e-12 and float(beta @ self.values(x + t * p)) > fx + 1e-4 * t * float(g @ p) + slack:
                t *= 0.5
            x = x + t * p
        raise ArithmeticError("oracle Newton did not reach its tolerance")


def l1_gap(v, beta) -> float:
    """l1-normalized stationarity gap of v at beta over the simplex."""
    free = beta > 1e-14
    return max(0.0, 0.5 * (float(np.max(v[free])) - float(np.min(v))))


def check_mm(model: SpecModel, params: dict, result):
    """Certified, residual within eps, and exact-Jacobian gap within eps0."""
    if result.status != "certified" or not result.certificate.passed:
        return False, f"status {result.status}"
    beta = np.asarray(result.point.beta.weights, float)
    x = np.asarray(result.point.x, float)
    residual = float(np.linalg.norm(beta @ model.grads(x)))
    if not residual <= params["eps"]:
        return False, f"residual {residual:.3e} > eps {params['eps']:.1e}"
    xs = model.x_star(beta)
    J = -cho_solve(cho_factor(model.hess(beta, xs)), model.grads(xs).T)
    gap = l1_gap(J.T @ model.grad_f0(xs), beta)
    if not gap <= params["eps0"]:
        return False, f"exact gap {gap:.3e} > eps0 {params['eps0']:.1e}"
    return True, f"residual {residual:.2e} gap {gap:.2e}"


def check_grid(model: SpecModel, params: dict, result):
    """Full lattice visited and the best preference value reproduces."""
    n = model.z.shape[0]
    expected = comb(params["resolution"] + n - 1, n - 1)
    if result.count != expected or len(result.rows) != expected:
        return False, f"count {result.count}, rows {len(result.rows)}, expected {expected}"
    best = np.asarray(result.best_beta.weights, float)
    f_best = model.f0(model.x_star(best))
    if not abs(f_best - result.f_star_min) <= 1e-8 * (1.0 + abs(f_best)):
        return False, f"best f0 {result.f_star_min!r} re-solves to {f_best!r}"
    return True, f"{expected} points, best f0 {f_best:.6g}"


def min_norm(Gt) -> float:
    """min over the simplex of ||Gt beta|| via NNLS on [Gt; 1^T] y ~ e_last."""
    d, n = Gt.shape
    A = np.vstack([Gt, np.ones((1, n))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    y, _ = nnls(A, b)
    return float(np.linalg.norm(Gt @ (y / y.sum())))


def png_direction(G, g0, c) -> np.ndarray:
    """Projection of g0 onto {v : G v >= c}, through its dual NNLS."""
    R = np.linalg.cholesky(G @ G.T).T  # G G^T = R^T R
    b = G @ g0 - c
    lam, _ = nnls(R, -solve_triangular(R, b, trans="T"))
    return g0 + G.T @ lam


def check_png(model: SpecModel, params: dict, result):
    """Stationary, and the returned point passes the stopping test."""
    if result.status != "stationary":
        return False, f"status {result.status}"
    x = np.asarray(result.point, float)
    G = model.grads(x)
    m = min_norm(G.T)
    g0 = model.grad_f0(x)
    v = png_direction(G, g0, params["c"])
    cross = np.linalg.norm(np.outer(v, -g0) - np.outer(-g0, v)) / np.sqrt(2.0)
    angle = float(np.arctan2(cross, float(v @ -g0)))
    if not (m <= params["eps_stop"] and angle <= COLLINEARITY_TOL):
        return False, f"min-norm {m:.3e}, angle {angle:.3e}"
    return True, f"min-norm {m:.2e} angle {angle:.2e}"


CHECKS = {"mm": check_mm, "grid": check_grid, "png": check_png}


def check(op, output):
    """Check one operation's output; an exception output fails the check."""
    if isinstance(output, BaseException):
        return False, f"{type(output).__name__}: {output}"
    try:
        return CHECKS[op.kind](SpecModel(op.spec), op.params, output)
    except (ArithmeticError, ValueError, RuntimeError, np.linalg.LinAlgError, AttributeError, TypeError) as exc:
        return False, f"check could not evaluate the output: {type(exc).__name__}: {exc}"
