"""Simplex geometry: projection, stationarity gaps, and quadratic minimization.

The simplex is treated as a metric space under the l1 norm.  Stationarity of
a smooth function at beta is measured by the l1-normalized gap
max(0, sup_{beta'} -v^T (beta' - beta) / ||beta' - beta||_1), which reduces
to a maximum over the vertices.  Each isotropic quadratic surrogate is
minimized exactly by one Euclidean projection of its unconstrained step
(Duchi et al., ICML 2008); nothing is iterated to a tolerance.  The
minimum-norm point of a polytope is one nonnegative least-squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Convex-weight vector: finite nonnegative entries, rescaled to sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise InvalidArgumentError("weights must be a nonempty vector")
        lo = w.min()
        if lo < -1e-9:
            raise InvalidArgumentError(f"negative weight {lo}")
        w = np.maximum(w, 0.0)
        with np.errstate(over="ignore"):
            s = w.sum()
        if not math.isfinite(s):  # a NaN or inf entry, or an overflowing sum
            raise InvalidArgumentError("weights must be finite with a finite sum")
        if s <= 0:
            raise InvalidArgumentError("weights sum to zero")
        w /= s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "SimplexPoint":
        return SimplexPoint(np.full(n, 1.0 / n))

    @staticmethod
    def vertex(n: int, j: int) -> "SimplexPoint":
        w = np.zeros(n)
        w[j] = 1.0
        return SimplexPoint(w)


def project_to_simplex(y: np.ndarray) -> SimplexPoint:
    """Euclidean projection onto the simplex by sort and threshold.

    y is first shifted by its maximum, which leaves the projection unchanged
    and keeps the leading threshold test exact (0 - (0 - 1) = 1 > 0) when
    the entries dwarf 1.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise InvalidArgumentError("y must be a nonempty vector")
    y = y - np.max(y)
    u = np.sort(y)[::-1]
    cumsum = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    cond = u - (cumsum - 1.0) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = (cumsum[rho] - 1.0) / (rho + 1.0)
    return SimplexPoint(np.maximum(y - tau, 0.0))


def l1_stationarity_gap(v: np.ndarray, beta: SimplexPoint) -> float:
    """Smallest eps with -v^T (beta' - beta) <= eps ||beta' - beta||_1 on the simplex.

    The feasible directions form the cone {u : sum u = 0, u_j >= 0 where
    beta_j = 0}; on its unit l1 ball the extreme points are (e_i - e_j)/2
    with j restricted to the positive coordinates, so the supremum is a
    maximum over coordinate pairs.  A NaN in v, or an inf - inf difference,
    gives NaN, never 0, so no certificate passes on it.
    """
    v = np.asarray(v, dtype=float)
    w = beta.weights
    if v.shape != w.shape:
        raise InvalidArgumentError("v and beta dimensions disagree")
    free = w > 1e-14  # nonempty: the weights are finite and sum to one
    gap = 0.5 * (float(np.max(v[free])) - float(np.min(v)))
    return float(np.maximum(0.0, gap))  # unlike max(), keeps a NaN gap NaN


def _project_tangent_cone(q: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Project q onto {u : sum u = 0, u_i >= 0 for i in active}.

    The projection is u = q - tau on the free coordinates and
    max(q - tau, 0) on the active ones, where tau zeroes the decreasing
    piecewise-linear sum of u.  On the piece where the k largest active
    values exceed tau the root is tau_k = (sum of free q + those k values)
    / (free count + k), and each tau_k is at most the true root, so tau is
    the largest of them.
    """
    free = ~active
    m = int(free.sum())
    if m == 0:
        return np.zeros(q.size)  # the cone is {0}
    sums = q[free].sum() + np.concatenate(([0.0], np.cumsum(np.sort(q[active])[::-1])))
    tau = float(np.max(sums / (m + np.arange(sums.size))))
    u = q - tau
    u[active] = np.maximum(u[active], 0.0)
    return u


def l2_tangent_gap(v: np.ndarray, beta: SimplexPoint) -> float:
    """Norm of the negative gradient projected onto the tangent cone at beta."""
    v = np.asarray(v, dtype=float)
    w = beta.weights
    active = w <= 1e-14
    proj = _project_tangent_cone(-v, active)
    return float(np.linalg.norm(proj))


@dataclass(frozen=True, eq=False)
class SimplexQuadratic:
    """Isotropic quadratic in relative form around its anchor.

    value(beta') = linear^T (beta' - anchor) + 0.5 * curvature * ||beta' - anchor||_2^2
    """

    anchor: SimplexPoint
    linear: np.ndarray
    curvature: float

    def __post_init__(self):
        if self.curvature <= 0:
            raise InvalidArgumentError("curvature must be positive")
        lin = np.asarray(self.linear, dtype=float)
        if lin.shape != self.anchor.weights.shape:
            raise InvalidArgumentError("linear term and anchor dimensions disagree")
        object.__setattr__(self, "linear", lin)

    def value_at(self, beta: SimplexPoint) -> float:
        d = beta.weights - self.anchor.weights
        return float(self.linear @ d) + 0.5 * self.curvature * float(d @ d)

    def grad_at(self, beta: SimplexPoint) -> np.ndarray:
        return self.linear + self.curvature * (beta.weights - self.anchor.weights)


def minimize_quadratic_over_simplex(Q: SimplexQuadratic, tol_gap: float):
    """Exact minimizer: one projection of the unconstrained step from the anchor.

    The quadratic is isotropic, so its minimizer over the simplex is
    project(anchor - linear / curvature).  Its l2 tangent-cone gap is zero
    in exact arithmetic, so it meets any positive ``tol_gap`` and is
    returned with gap 0.0 (the l2 gap dominates the l1 gap).  Returns
    ``(point, achieved_gap)``.
    """
    if tol_gap <= 0:
        raise InvalidArgumentError("tol_gap must be positive")
    return project_to_simplex(Q.anchor.weights - Q.linear / Q.curvature), 0.0


def min_norm_over_simplex(G: np.ndarray):
    """Minimize ||G beta||_2 over the simplex, exactly, by one NNLS solve.

    ``G`` is d x n.  With y = s * beta >= 0, ||[G; 1^T] y - e_{d+1}||^2 =
    s^2 ||G beta||^2 + (s - 1)^2, whose minimum over s is increasing in
    ||G beta||; so the nonnegative least-squares solution y gives the
    minimizer beta = y / sum(y) (Lawson and Hanson, ch. 23).  Returns
    ``(SimplexPoint, norm)``.
    """
    from scipy.optimize import nnls  # deferred: slow to import; most commands never need it

    G = np.atleast_2d(np.asarray(G, dtype=float))
    d, n = G.shape
    if n == 0:
        raise InvalidArgumentError("G must have at least one column")
    target = np.zeros(d + 1)
    target[d] = 1.0
    y, _ = nnls(np.vstack([G, np.ones(n)]), target)
    beta = SimplexPoint(y)
    return beta, float(np.linalg.norm(G @ beta.weights))
