"""Simplex geometry: projection, stationarity gaps, and quadratic minimization.

The simplex is treated as a metric space under the l1 norm.  Stationarity of
a smooth function at beta is measured by the l1-normalized gap
max(0, sup_{beta'} -v^T (beta' - beta) / ||beta' - beta||_1), which reduces
to a maximum over the vertices.  An isotropic quadratic surrogate is
minimized exactly by one Euclidean projection of its unconstrained step
(Duchi et al., ICML 2008), and a strictly convex one with a metric by
a finite primal active-set method, which restarts once at the projection
of an isotropic step when a step is first blocked; nothing is iterated to
a tolerance.  The minimum-norm point of a polytope is one nonnegative
least-squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError


@dataclass(eq=False)
class SimplexPoint:
    """Convex-weight vector: finite nonnegative entries, rescaled to sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidArgumentError("weights must be a nonempty vector")
        lo = w.min()
        if lo < -1e-9:
            raise InvalidArgumentError(f"negative weight {lo}")
        np.maximum(w, 0.0, out=w)
        with np.errstate(over="ignore"):
            s = w.sum()
        if not math.isfinite(s):  # a NaN or inf entry, or an overflowing sum
            raise InvalidArgumentError("weights must be finite with a finite sum")
        if s <= 0:
            raise InvalidArgumentError("weights sum to zero")
        w /= s
        w.setflags(write=False)
        self.weights = w

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


def _threshold(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the simplex, as an array.

    Sort and threshold (Duchi et al., ICML 2008).  y is first shifted by its
    maximum, which leaves the projection unchanged and keeps the leading
    threshold test exact (0 - (0 - 1) = 1 > 0) when the entries dwarf 1.  A
    -inf entry gets weight 0; NaN or +inf is rejected.
    """
    top = np.max(y)  # NaN if any entry is NaN
    if not math.isfinite(top):
        raise InvalidArgumentError("y must have a finite largest entry (no NaN or +inf)")
    y = y - top
    u = np.sort(y)[::-1]
    if u[-1] == -np.inf:  # weight 0; dropped so the threshold test forms no -inf - -inf
        u = u[u > -np.inf]
    cumsum = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    cond = u - (cumsum - 1.0) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = (cumsum[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


def project_to_simplex(y: np.ndarray) -> SimplexPoint:
    """Euclidean projection onto the simplex by sort and threshold (``_threshold``)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise InvalidArgumentError("y must be a nonempty vector")
    return SimplexPoint(_threshold(y))


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
    """Project q onto {u : sum u = 0, u_i >= 0 for i in active}, some i not in active.

    The projection is u = q - tau on the free coordinates and
    max(q - tau, 0) on the active ones, where tau zeroes the decreasing
    piecewise-linear sum of u.  On the piece where the k largest active
    values exceed tau the root is tau_k = (sum of free q + those k values)
    / (free count + k), and each tau_k is at most the true root, so tau is
    the largest of them.
    """
    free = ~active
    m = int(free.sum())
    sums = q[free].sum() + np.concatenate(([0.0], np.cumsum(np.sort(q[active])[::-1])))
    tau = float(np.max(sums / (m + np.arange(sums.size))))
    u = q - tau
    u[active] = np.maximum(u[active], 0.0)
    return u


def l2_tangent_gap(v: np.ndarray, beta: SimplexPoint) -> float:
    """Norm of the negative gradient projected onto the tangent cone at beta."""
    v = np.asarray(v, dtype=float)
    w = beta.weights
    active = w <= 1e-14  # not every weight: they sum to one
    proj = _project_tangent_cone(-v, active)
    return float(np.linalg.norm(proj))


@dataclass(eq=False)
class SimplexQuadratic:
    """Quadratic in relative form around its anchor, with an optional metric.

    value(beta') = linear^T d + 0.5 * d^T (metric + curvature * I) d, d = beta' - anchor;
    without a metric the model is isotropic.  ``metric`` is an n x n
    symmetric matrix with metric + curvature * I positive definite.
    """

    anchor: SimplexPoint
    linear: np.ndarray
    curvature: float
    metric: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.curvature <= 0:
            raise InvalidArgumentError("curvature must be positive")
        lin = np.asarray(self.linear, dtype=float)
        if lin.shape != self.anchor.weights.shape:
            raise InvalidArgumentError("linear term and anchor dimensions disagree")
        self.linear = lin

    def value_at(self, beta: SimplexPoint) -> float:
        d = beta.weights - self.anchor.weights
        value = float(self.linear @ d) + 0.5 * self.curvature * float(d @ d)
        return value if self.metric is None else value + 0.5 * float(d @ self.metric @ d)

    def grad_at(self, beta: SimplexPoint) -> np.ndarray:
        d = beta.weights - self.anchor.weights
        grad = self.linear + self.curvature * d
        return grad if self.metric is None else grad + self.metric @ d


def _active_set_minimizer(Q: SimplexQuadratic) -> np.ndarray:
    """Weights minimizing a metric model over the simplex by a primal active-set method.

    Nocedal and Wright (2006), section 16.5, started at the anchor a with
    its zero weights as the working set W.  Each iteration minimizes the
    model on the face {sum b = 1, b_W = 0} by one solve against the free
    block of A = metric + curvature * I: A_FF y = lam 1 + (A a - g)_F, so
    y = lam A_FF^-1 1 + A_FF^-1 (A a - g)_F with the multiplier lam making
    sum y = 1, and both right-hand sides are fixed for the call.  A step
    to y that another weight blocks adds that weight to W; an unblocked
    step ends the search unless some weight in W has a negative multiplier
    (grad_i - lam), which is then freed.  A freed weight whose next face
    minimizer does not raise it had a multiplier negative by rounding alone,
    and the point is returned as it is.

    Blocked steps zero one weight per solve, so the first blocked step
    instead restarts the search once, at the projection of the isotropic
    step a - g / (tr(A) / n), with that point's zero weights as W (the
    active-set guess of More and Toraldo, 1991); the freed weight's marker
    belongs to the old face and is cleared.  With one restart the method
    stays finite, with no tolerance; ``NumericalFailureError`` if rounding
    makes it cycle.
    """
    a, g = Q.anchor.weights, Q.linear
    n = a.size
    A = Q.metric + Q.curvature * np.eye(n)
    rhs = np.stack((np.ones(n), A @ a - g), axis=1)
    b = a.copy()
    free = b > 0.0
    freed = -1
    restarted = False
    for _ in range(4 * n + 4):
        idx = np.flatnonzero(free)
        if idx.size == n:
            u, w = np.linalg.solve(A, rhs).T
        else:
            u, w = np.linalg.solve(A[idx][:, idx], rhs[idx]).T
        lam = (1.0 - w.sum()) / u.sum()
        y = lam * u + w
        if freed >= 0 and not y[np.searchsorted(idx, freed)] > 0.0:
            return b
        falling = y < 0.0
        if falling.any():
            if not restarted:
                restarted = True
                b = _threshold(a - g / (np.trace(A) / n))
                free = b > 0.0
            else:
                bf = b[idx]
                ratios = bf[falling] / (bf[falling] - y[falling])
                j = int(np.argmin(ratios))
                b[idx] = np.maximum(bf + ratios[j] * (y - bf), 0.0)
                b[idx[falling][j]] = 0.0
                free[idx[falling][j]] = False
            freed = -1
            continue
        b[idx] = y
        if free.all():
            return b
        held = np.flatnonzero(~free)
        multipliers = A[held] @ b - rhs[held, 1] - lam
        if multipliers.min() >= 0.0:
            return b
        freed = int(held[np.argmin(multipliers)])
        free[freed] = True
    raise NumericalFailureError("the simplex QP's active set cycled")


def minimize_quadratic_over_simplex(Q: SimplexQuadratic, tol_gap: float):
    """Exact minimizer of the model over the simplex.

    An isotropic model is minimized by one projection of the unconstrained
    step, project(anchor - linear / curvature); a metric model by the
    active-set method of ``_active_set_minimizer``, numpy alone, which
    restarts once, at its first blocked step, from the projection of the
    isotropic step anchor - linear / (curvature + tr(metric) / n).  The
    exact minimizer's l2 tangent-cone gap is zero, so it meets any positive
    ``tol_gap`` and is returned with gap 0.0 (the l2 gap dominates the l1
    gap).  Returns ``(point, achieved_gap)``.
    """
    if tol_gap <= 0:
        raise InvalidArgumentError("tol_gap must be positive")
    if Q.metric is None:
        return project_to_simplex(Q.anchor.weights - Q.linear / Q.curvature), 0.0
    return SimplexPoint(_active_set_minimizer(Q)), 0.0


_EPS = float(np.finfo(float).eps)
_NNLS_PASSES = 3  # column additions per column before the solve gives up (Lawson and Hanson's 3n)


def _nnls_lift(top: np.ndarray, last) -> np.ndarray:
    """Nonnegative u minimizing ||[top; last] u - e_{d+1}||_2, ``top`` d x n.

    The min-norm point and the least-distance program both reduce to it
    (Lawson and Hanson, 1974, ch. 23).  Solved by their active-set
    algorithm NNLS on the columns of E = [top; last] scaled to a largest
    entry of 1, which only rescales u.  Each pass frees the column with the
    largest dual value w = E^T (e_{d+1} - E u) above its rounding, solves
    least squares on the free columns, and while a free weight comes out
    nonpositive, steps towards that solution until the first weight reaches
    0, fixes it and solves again.  A column whose own weight comes out
    nonpositive when it is freed had a positive w by rounding alone, and it
    is passed over until u moves.  ``NumericalFailureError`` on non-finite
    data or after 3n passes.
    """
    d, n = top.shape
    E = np.empty((d + 1, n))
    E[:d] = top
    E[d] = last
    if not np.isfinite(E).all():
        raise NumericalFailureError("NNLS solve failed: non-finite data")
    scale = np.abs(E).max(axis=0)
    E /= scale
    target = np.zeros(d + 1)
    target[d] = 1.0
    u = np.zeros(n)
    free = []  # the free columns, in order of entry
    w = E[d].copy()  # E^T e_{d+1}, at u = 0
    tol = 10.0 * max(d + 1, n) * _EPS
    for _ in range(_NNLS_PASSES * n + 1):
        w[free] = -np.inf
        j = int(w.argmax())
        if not w[j] > tol * (1.0 + u.sum()):  # the rounding of w grows with that of E u
            return u / scale
        free.append(j)
        z = np.linalg.lstsq(E[:, free], target, rcond=None)[0]
        if not z[-1] > 0.0:
            free.pop()
            w[j] = 0.0
            continue
        uf = u[free]
        while (z <= 0.0).any():
            out = np.flatnonzero(z <= 0.0)
            ratios = uf[out] / (uf[out] - z[out])
            k = int(ratios.argmin())
            uf += ratios[k] * (z - uf)
            uf[out[k]] = 0.0
            kept = uf > 0.0
            free = [i for i, keep in zip(free, kept.tolist()) if keep]
            uf = uf[kept]
            z = np.linalg.lstsq(E[:, free], target, rcond=None)[0]
        u[:] = 0.0
        u[free] = z
        w = E.T.dot(target - E.dot(u))
    raise NumericalFailureError(f"NNLS solve failed: no solution within {_NNLS_PASSES * n} passes")


def min_norm_over_simplex(G: np.ndarray):
    """Minimize ||G beta||_2 over the simplex, exactly, by one NNLS solve.

    ``G`` is d x n.  With y = s * beta >= 0, ||[G; 1^T] y - e_{d+1}||^2 =
    s^2 ||G beta||^2 + (s - 1)^2, whose minimum over s is increasing in
    ||G beta||; so the nonnegative least-squares solution y (``_nnls_lift``)
    gives the minimizer beta = y / sum(y) (Lawson and Hanson, ch. 23).
    Returns ``(SimplexPoint, norm)``.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.shape[1] == 0:
        raise InvalidArgumentError("G must have at least one column")
    y = _nnls_lift(G, 1.0)
    if not y.sum() > 0:  # the solve underflows to y = 0 on columns near the float range
        raise NumericalFailureError("min-norm solve lost every weight; G is too large")
    beta = SimplexPoint(y)
    v = G.dot(beta.weights)
    return beta, math.sqrt(v.dot(v))  # np.linalg.norm(v) bit for bit, without its overhead
