"""First-order baseline dynamics and the counterexample constructions.

Contains the constrained projection vector used by Pareto-navigating
gradient descent, its descent loop with the collinearity stopping test, the
genericity diagnostics, and the constructor that turns any preference-generic
gradient tuple into a shared-Hessian instance whose optimum is the origin --
demonstrating that no nontrivial first-order test of the gradients alone can
be necessary for optimality.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, InvalidArgumentError, NumericalFailureError
from .problem import (
    ObjectiveSet,
    ProblemInstance,
    SmoothFunction,
    quadratic_from_hessian,
    weighted_sum,
)
from .simplex import _EPS, _nnls_lift, min_norm_over_simplex

COLLINEARITY_TOL = 1e-6  # radians; the stopping test has no canonical tolerance


@dataclass
class PngConfig:
    """PNG parameters: the margin c in grad f_i^T v >= c, the step size, eps_stop and the iteration budget."""

    c: float
    step: float
    eps_stop: float
    max_iters: int

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.c, self.step, self.eps_stop, self.max_iters)):
            raise InvalidArgumentError("PNG parameters must be numbers, not booleans")
        if not isinstance(self.max_iters, numbers.Integral):
            raise InvalidArgumentError("max_iters must be an integer")
        if not all(0 < v < np.inf for v in (self.c, self.step, self.eps_stop)) or self.max_iters <= 0:
            raise InvalidArgumentError("all PNG parameters must be finite and positive")


def _png_face_solve(G, h, active):
    # The least-distance step w on the face of the rows A = ``active``:
    # w = G_A^T mu with (G_A G_A^T) mu = h_A, the rows of G_A scaled to a
    # largest entry of 1 (the same halfspaces), and lam the multipliers of
    # the unscaled rows, 0 off A.  Returns (w, lam) when they pass the KKT
    # test (lam >= 0, G w >= h off A, 1 + ||w||^2 < 1e12), else None; a
    # singular G_A raises ``LinAlgError``.  One row takes vector arithmetic.
    lam = np.zeros(h.size)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        w = np.zeros(G.shape[1])
    elif idx.size == 1:
        i = idx[0]
        s = np.abs(G[i]).max()
        g = G[i] / s
        mu = h[i] / s / g.dot(g)
        lam[i] = mu / s
        w = g * mu
    else:
        GA = G[idx]
        s = np.abs(GA).max(axis=1)
        GA /= s[:, None]
        mu = np.linalg.solve(GA.dot(GA.T), h[idx] / s)
        lam[idx] = mu / s
        w = GA.T.dot(mu)
    if lam.min() >= 0.0 and w.dot(w) < 1e12 - 1.0 and ((G.dot(w) >= h) | active).all():
        return w, lam
    return None


def _png_vector_from_grads(G: np.ndarray, g0: np.ndarray, c: float, active=False):
    # v = g0 + w with w the least-distance solution of G w >= h = c - G g0:
    # the face solve on its active set A passes the KKT test
    # (``_png_face_solve``).  ``active`` guesses A (the last iterate's; no
    # row by default).  A singular guess, or one that fails the test, leaves
    # A to the NNLS of [G^T; h^T] u ~ e_{d+1} (Lawson and Hanson, ch. 23),
    # whose face {u > 0} must pass the same test, else the halfspaces are
    # infeasible.  The NNLS residual has squared norm 1 - h^T u =
    # 1 / (1 + ||w||^2), 0 exactly on infeasible halfspaces and rounded by
    # about 1e-16 |h|^T u: below 1e-12 (the test's 1e12 cut), or with more
    # than d free columns, which solve the (d + 1)-row lifted system
    # exactly, it cannot be told from 0.  h is finite exactly when G and g0
    # are and G g0 does not overflow.  Returns (v, lam).
    h = c - G.dot(g0)
    if not np.isfinite(h).all():
        raise NumericalFailureError("non-finite gradient or constraint level")
    try:
        face = _png_face_solve(G, h, active)
    except np.linalg.LinAlgError:  # a singular face: not the active set
        face = None
    if face is None:
        u = _nnls_lift(G.T, h)
        if 1.0 - h.dot(u) > 1e-12 and np.count_nonzero(u) <= G.shape[1]:
            try:
                face = _png_face_solve(G, h, u > 0.0)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"projection face solve failed: {exc}") from exc
        if face is None:
            raise InfeasibleError("constraint halfspaces have empty intersection")
    return g0 + face[0], face[1]


def png_vector(F: ObjectiveSet, f0: SmoothFunction, x: np.ndarray, c: float) -> np.ndarray:
    """Project grad f0(x) onto {v : grad f_i(x)^T v >= c for all i}.

    Solved exactly as a least-distance program: a nonnegative least-squares
    solve in the n constraint multipliers finds the active constraints, and
    v is the projection onto their face; raises ``InfeasibleError`` when the
    halfspaces have empty intersection.
    """
    if c <= 0:
        raise InvalidArgumentError("c must be positive")
    x = np.asarray(x, dtype=float)
    return _png_vector_from_grads(F.jacobian_T(x).T, f0.grad(x), c)[0]


def _min_norm_lower_bound(G: np.ndarray, u: np.ndarray) -> float:
    """A lower bound on ``min_norm_over_simplex(G.T)[1]`` from a unit vector u.

    ``G`` is n x d, one gradient g_i a row.  For beta on the simplex,
    ||sum_i beta_i g_i|| >= <sum_i beta_i g_i, u> >= min_i <g_i, u> = l
    (min-norm duality; Gilbert 1966, Wolfe 1976), with equality when u is
    the direction of the min-norm point.  Returned less a margin of
    4 (n + d + 4) eps ||G||_F (||G||_F bounds every ||g_i||), which covers
    the rounding of l, of u's unit norm, and of the weights and the norm
    that the min-norm solve computes: so it is at most the computed value,
    not only the exact one.  The margin is inf, and the
    bound -inf, when ||G||_F^2 overflows.
    """
    n, d = G.shape
    e = G.ravel()
    # lists and ndarray.dot, not ndarray.min and norm: G is tiny and this runs on most iterates
    return min(G.dot(u).tolist()) - 4.0 * (n + d + 4) * _EPS * math.sqrt(e.dot(e))


@dataclass(eq=False)
class PngResult:
    """A PNG run: its iterates, the final point, how it ended, and its iteration count."""

    trajectory: np.ndarray  # (T, d)
    point: np.ndarray
    status: str  # "stationary" | "stalled" (the polish at the band failed) | "budget-exceeded"
    iterations: int


class _PngState:
    """One PNG iterate: its gradients and what the loop reads of them.

    Built once per point, from the previous iterate ``prev`` if any, with
    the projection vector ``v`` and the constraints' multipliers ``lam``
    (``_png_vector_from_grads``, tried first on the face of prev's active
    set {lam > 0}), the collinearity residual ``residual`` =
    v/|v| + grad f0/|grad f0|, zero exactly where v is anti-collinear with
    grad f0, and the angle between v and -grad f0, read from it as
    ``angle`` = 2 atan2(|residual|, |v/|v| - grad f0/|grad f0||), accurate
    on all of [0, pi] (Kahan 2006).  ``v`` is None where the halfspaces are
    infeasible; ``residual`` is None and ``angle`` is pi there and where
    grad f0 = 0.  Only ``m`` (the smallest scalarized gradient norm, one
    min-norm NNLS solve, which also sets its weights ``beta``) is computed
    on first read: the descent loop reads it only where the angle already
    qualifies.  A gradient that is not finite, or a G g0 that overflows,
    raises ``NumericalFailureError``.

    ``u`` is the unit direction of the last min-norm point of the run: this
    state's own once ``m`` is read, else prev's.
    ``m_exceeds`` solves for m only when the duality bound of ``u``
    (``_min_norm_lower_bound``) does not exceed the level.  The bound is at
    most the computed m, so the outcome is the one the solve would give.
    """

    def __init__(self, F, f0, x, c, prev=None):
        self.x = np.asarray(x, dtype=float)
        self._G = F.jacobian_T(self.x).T
        self._g0 = f0.grad(self.x)
        self.u = None if prev is None else prev.u
        active = False if prev is None or prev.v is None else prev.lam > 0.0
        try:
            self.v, self.lam = _png_vector_from_grads(self._G, self._g0, c, active)
        except InfeasibleError:
            self.v = None
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"{exc} at x={self.x.tolist()}") from None
        ng = math.sqrt(self._g0 @ self._g0)
        if self.v is None or ng == 0.0:
            self.residual, self.angle = None, math.pi
        else:
            a, b = self.v / math.sqrt(self.v @ self.v), self._g0 / ng
            self.residual, diff = a + b, a - b
            self.angle = 2.0 * math.atan2(math.sqrt(self.residual @ self.residual), math.sqrt(diff @ diff))

    @cached_property
    def m(self) -> float:
        beta, m = min_norm_over_simplex(self._G.T)
        self.beta = beta.weights
        if m > 0.0:
            self.u = self._G.T.dot(beta.weights) / m
        return m

    def m_exceeds(self, level: float) -> bool:
        """Whether m > level, without the min-norm solve when the duality bound of ``u`` decides it."""
        if "m" not in self.__dict__ and self.u is not None and _min_norm_lower_bound(self._G, self.u) > level:
            return True
        return self.m > level


def _unit_jacobian(w, dw):
    """Jacobian of w / |w|, given the Jacobian dw of w."""
    n = math.sqrt(w @ w)
    return (dw - np.outer(w, w @ dw) / (n * n)) / n


def _direction_jacobian(Hs, H0, state):
    """Jacobian of ``residual`` on the piece of the state's active set A = {lam > 0}.

    ``Hs`` stacks the objectives' Hessians and ``H0`` is that of f0.  On the
    piece, v = g0 + G_A^T lam_A with G_A v = c, so
    dv = M - pinv(G_A) (G_A M + V_A) with M = H0 + sum_i lam_i Hs_i and V_A
    the rows v^T Hs_i, i in A.
    """
    A = state.lam > 0.0
    GA = state._G[A]
    M = H0 + weighted_sum(state.lam, Hs)
    dv = M - np.linalg.pinv(GA) @ (GA @ M + Hs[A] @ state.v)
    return _unit_jacobian(state.v, dv) + _unit_jacobian(state._g0, H0)


def _m_gradient(Hs, state):
    """grad m = sum_i beta_i Hs_i u by the envelope theorem, exact where beta is unique.

    ``Hs`` stacks the objectives' Hessians at the state.  At m = 0, m is at
    its minimum and 0 is a subgradient.
    """
    if state.m == 0.0:
        return np.zeros(state.x.size)
    return weighted_sum(state.beta, Hs).dot(state.u)


def _polish_to_stationary(F, f0, state, config):
    """Correct the descent's state near the band onto the stationary set by Gauss-Newton.

    The fixed-step iteration provably cannot land in the joint target set
    (the two-active steps conserve the quantity whose zero level is the
    collinearity set, and the set is microscopically thin transversally),
    so once the descent enters the band near the Pareto set the stationary
    point is located by a Gauss-Newton corrector (Allgower and Georg 2003,
    ch. 2) on R(x) = (v/|v| + g0/|g0|, (m - level)/level), the state's
    ``residual`` and the m row.  R is zero exactly where v is anti-collinear
    with grad f0 and m is at the level; the stopping test reads its angle
    from the same residual.  R is smooth through the collinearity set; it
    has kinks only where the least-distance problem's active set changes.
    Both Jacobian blocks are exact: the direction rows on the state's
    active-set piece (``_direction_jacobian``), the m row by the envelope
    theorem (``_m_gradient``).  The level is
    max(0.7 eps_stop, m/2): from far above the band each step aims only to
    halve m, so that it does not jump onto the branch where v is parallel
    to +grad f0, a local minimum of |R|.  Each ``lstsq`` step is halved
    until |R| falls, each trial guessing the previous one's active set.
    The polish owns the stopping test: it returns ``state.x`` itself when
    the state passes it, else a point that passes it, or None, which ends
    the run ``stalled``, when 40 halvings do not lower |R| or 50 steps do
    not pass the test.  Each state has a residual: the descent polishes at
    angles up to 1 only, and only trials with one are accepted.
    """
    target = 0.7 * config.eps_stop
    for _ in range(50):
        if state.angle <= COLLINEARITY_TOL and state.m <= config.eps_stop:
            return state.x
        level = max(target, 0.5 * state.m)
        r = np.append(state.residual, state.m / level - 1.0)
        Hs = F._hessians(state.x)
        J = np.vstack([_direction_jacobian(Hs, f0.hess(state.x), state), _m_gradient(Hs, state) / level])
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        cand = state
        for _ in range(40):
            cand = _PngState(F, f0, state.x + step, config.c, cand)
            rc = cand.residual
            if rc is not None and rc @ rc + (cand.m / level - 1.0) ** 2 < r @ r:
                break
            step *= 0.5
        else:
            return None
        state = cand
    return None


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a non-finite gradient
def png_descent(
    F: ObjectiveSet, f0: SmoothFunction, x0: np.ndarray, config: PngConfig
) -> PngResult:
    """Iterate x <- x - step * v until the stationarity test fires.

    The test requires the projection vector to be anti-collinear with
    grad f0 (within ``COLLINEARITY_TOL``) while the smallest scalarized
    gradient norm is at or below ``eps_stop``.  Each iterate meets the
    band test first (angle at most 1 radian, m at most twice the band width
    max(eps_stop, 0.02 F.r)), which every stationary iterate passes.  At
    the first iterate in the band, one Gauss-Newton polish makes the
    stopping test and ends the run: ``stationary`` at its point, which the
    trajectory gains only when the polish moved, or ``stalled`` at that
    iterate.  The band test reads m through ``_PngState.m_exceeds``, which
    skips most min-norm solves far from the band and leaves every iterate
    as solving for m would.
    An x0 that is not a finite vector of shape (d,) raises
    ``InvalidArgumentError``; a gradient that overflows along the way raises
    ``NumericalFailureError``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (F.dim,):
        raise InvalidArgumentError(f"x0 has shape {x0.shape}, expected ({F.dim},)")
    if not np.isfinite(x0).all():
        raise InvalidArgumentError("x0 must be finite")
    state = _PngState(F, f0, x0, config.c)
    traj = [state.x.copy()]
    band = max(config.eps_stop, 0.02 * max(F.r, 1e-6))
    for it in range(config.max_iters):
        # the band test reads m last, and through its duality bound: most
        # iterates never need the min-norm solve
        if state.angle <= 1.0 and not state.m_exceeds(2.0 * band):
            polished = _polish_to_stationary(F, f0, state, config)
            if polished is None:
                return PngResult(np.array(traj), state.x, "stalled", it)
            if polished is not state.x:
                traj.append(polished)
            return PngResult(np.array(traj), polished, "stationary", it)
        if state.v is None:
            raise InfeasibleError(
                f"projection subproblem infeasible at iteration {it}; "
                f"x={state.x.tolist()}"
            )
        state = _PngState(F, f0, state.x - config.step * state.v, config.c, state)
        traj.append(state.x.copy())
    return PngResult(np.array(traj), state.x, "budget-exceeded", config.max_iters)


def is_pareto_generic(vectors: Sequence[np.ndarray]) -> bool:
    """Zero is a convex combination of the vectors and their rank is n - 1."""
    V = np.array([np.asarray(v, dtype=float) for v in vectors])
    n = V.shape[0]
    if n < 2:
        raise InvalidArgumentError("need at least two vectors")
    svals = np.linalg.svd(V, compute_uv=False)
    scale = float(svals[0]) if svals[0] > 0 else 1.0
    rank = int(np.sum(svals > 1e-10 * scale))
    if rank != n - 1:
        return False
    _, value = min_norm_over_simplex(V.T)
    return value <= 1e-10 * scale


def is_preference_generic(v0: np.ndarray, vectors: Sequence[np.ndarray]) -> bool:
    """Pareto genericity of the objective gradients plus v0 outside their span."""
    v0 = np.asarray(v0, dtype=float)
    V = np.array([np.asarray(v, dtype=float) for v in vectors])
    n, d = V.shape
    if not (1 < n <= d):
        raise InvalidArgumentError(f"need 1 < n <= d, got n={n}, d={d}")
    if not is_pareto_generic(V):
        return False
    coeffs, *_ = np.linalg.lstsq(V.T, v0, rcond=None)
    residual = v0 - V.T @ coeffs
    return float(np.linalg.norm(residual)) > 1e-10 * float(np.linalg.norm(v0))


def sample_preference_generic(rng: np.random.Generator, d: int, n: int):
    """Draw a well-conditioned preference-generic tuple (v0, [v1..vn])."""
    if not (1 < n <= d):
        raise InvalidArgumentError(f"need 1 < n <= d, got n={n}, d={d}")
    while True:
        V = rng.normal(size=(n - 1, d))
        w = rng.dirichlet(np.ones(n)) + 0.05
        w /= w.sum()
        vn = -(w[:-1] @ V) / w[-1]
        vs = np.vstack([V, vn])
        svals = np.linalg.svd(vs, compute_uv=False)
        if svals[max(0, n - 2)] < 0.1 * svals[0]:
            continue  # nearly rank-deficient draw; would ill-condition the build
        v0 = rng.normal(size=d)
        coeffs, *_ = np.linalg.lstsq(vs.T, v0, rcond=None)
        residual = v0 - vs.T @ coeffs
        if np.linalg.norm(residual) < 0.3 * np.linalg.norm(v0):
            continue
        if is_preference_generic(v0, vs):
            return v0, [vs[i] for i in range(n)]


def rotation_map(v0: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Positive-definite map sending span(v1..vn) into the hyperplane normal to v0.

    Built from projections: Pi_V + Pi_{V-perp} Pi_{U-perp} with U the span of
    the vectors and V the orthogonal complement of v0.  Positive definite as
    a quadratic form (not symmetric in general).
    """
    v0 = np.asarray(v0, dtype=float)
    d = v0.size
    U = np.array([np.asarray(v, dtype=float) for v in vectors]).T  # (d, n)
    left, svals, _ = np.linalg.svd(U, full_matrices=False)
    rank = int(np.sum(svals > 1e-12 * max(svals[0], 1e-300)))
    Bu = left[:, :rank]
    P_Uperp = np.eye(d) - Bu @ Bu.T
    u0 = v0 / np.linalg.norm(v0)
    P_Vperp = np.outer(u0, u0)
    P_V = np.eye(d) - P_Vperp
    return P_V + P_Vperp @ P_Uperp


@dataclass(eq=False)
class ImpossibilityInstance:
    """A problem whose objective gradients at the origin are prescribed while 0 is preference optimal."""

    problem: ProblemInstance
    hessian: np.ndarray  # shared symmetric Hessian of the objectives
    centers: np.ndarray  # (n, d) quadratic centers, the Pareto hull vertices
    v0: np.ndarray
    gradients: np.ndarray  # (n, d) prescribed objective gradients at the origin


def build_impossibility_instance(vs: Sequence[np.ndarray]) -> ImpossibilityInstance:
    """Instance matching prescribed gradients at 0 while 0 is preference optimal.

    Input is (v0, v1, ..., vn).  The preference is 0.5 * ||x + v0||^2 and the
    objectives are shared-Hessian quadratics 0.5 (x - z_i)^T H (x - z_i) with
    z_i = -H^{-1} v_i, so grad f_i(0) = v_i exactly.  The Hessian is the
    inverse Gram form of the rotation map: G = R^T R is symmetric positive
    definite and still sends span(v_i) into the hyperplane normal to v0
    (R^T acts as the identity there), hence every hull vertex satisfies
    v0^T z_i = 0 and the origin minimizes the preference over the hull.
    """
    vs = [np.asarray(v, dtype=float) for v in vs]
    if len(vs) < 3:
        raise InvalidArgumentError("need v0 plus at least two objective gradients")
    v0, vectors = vs[0], vs[1:]
    if not is_preference_generic(v0, vectors):
        raise InvalidArgumentError("input gradients are not preference generic")
    R = rotation_map(v0, vectors)
    G = R.T @ R
    H = np.linalg.inv(G)
    H = 0.5 * (H + H.T)
    centers = np.array([-G @ v for v in vectors])
    objectives = [quadratic_from_hessian(H, z) for z in centers]
    f0 = quadratic_from_hessian(np.eye(v0.size), -v0)
    F = ObjectiveSet.from_objectives(objectives)
    problem = ProblemInstance.create(F, f0)
    return ImpossibilityInstance(
        problem=problem,
        hessian=H,
        centers=centers,
        v0=v0,
        gradients=np.array(vectors),
    )
