"""Majorization-minimization over the Pareto manifold.

Each outer iteration builds a quadratic model of the pulled-back
preference around the current pair (x, beta), damped by sigma I
(Levenberg-Marquardt; projected Newton as in Bertsekas, 1982, and the
proximal Newton-type methods of Lee, Sun and Saunders, 2014).  Its metric
is, on the first trial, the exact Hessian of beta -> f0(x*(beta)) on the
simplex's tangent plane, P (B0 + S) P with P = I - 1 1^T / n: the
Gauss-Newton metric B0 = J^T hess f0(x) J, with J the implicit derivative
of the minimizer map, plus the curvature S of x*(beta) itself.  When that
Hessian is not positive definite, and on every later trial, it is B0.
The model is minimized over the simplex exactly, by a primal active-set
method, then the scalarized problem is re-solved at the new weights to a
gradient norm proportional to eps.  Newton starts that solve at the tangent
prediction x + J (beta_new - beta) (an Euler predictor with a Newton
corrector; Allgower and Georg, 2003, ch. 2); for shared-Hessian quadratics
x*(beta) is affine, so the prediction is exact.  sigma is found by
backtracking (Beck and Teboulle, 2009; Nesterov, 2013) from a ratio
rho = sigma / tr(B0) carried across steps, the Levenberg-Marquardt update
(More, 1978) read as a trust-region ratio rule (Nocedal and Wright, 2006,
Algorithm 4.1).  rho starts at 1e-2 and becomes each accepted step's
sigma / tr(B0).  A step after one accepted at its first trial tries rho / 4
first and, if that is rejected, rho; every later rejection doubles sigma.
A trial is accepted when the new point lowers f0 and lies under the
model, up to the rounding slack of the two inexact points.  The bundle
constant mu_g caps sigma; at the cap the model is the isotropic upper
bound with curvature mu_g, and the step is taken untested, so the
worst-case rate is that of the fixed-mu_g method.  A new point whose
residual is above eps has its weights replaced by the min-norm weights at
its x when that lowers the residual.  A point is certified stationary when
its residual, its estimated-gradient gap, and the gradient-estimation error
bound are all within their budgets; none of them reads the model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, NumericalFailureError
from .manifold import (
    ManifoldPoint,
    err_grad_f0,
    grad_x_star_estimate,
    residual_floor,
    solve_x_star,
    stable_norm,
)
from .problem import ProblemInstance, is_real
from .simplex import (
    SimplexPoint,
    SimplexQuadratic,
    l1_stationarity_gap,
    min_norm_over_simplex,
    minimize_quadratic_over_simplex,
)

# Lowest damping sigma, relative to mu_g: a floor on the start rule.
_MIN_CURVATURE = 1e-12
# The damping ratio sigma / tr(B0) a run starts from, and the factor that
# shrinks it after a step accepted at its first trial.
_START_RATIO = 1e-2
_SHRINK = 0.25
# Consecutive steps that leave the residual above eps and f0 within the
# anchor's rounding slack before a run is stopped as stalled.
_STALL_STEPS = 5


@dataclass(eq=False)
class SurrogateState:
    """Quadratic upper bound in relative form around its anchor.

    ``linear`` is the estimated gradient of the pulled-back preference at the
    anchor; ``curvature`` is the bundle constant mu_g, the cap on the
    backtracked damping of each outer step; ``err_term`` bounds the gap
    between the estimated and true gradients, computed from the anchor's
    residual plus its rounding floor.  ``grad_f0_norm`` and
    ``jacobian_T`` are ||grad f0(x)|| and the objective Jacobian at the
    anchor, the inputs ``compute_c1_c2`` needs.  The absolute value at the
    anchor is unknown (it contains the preference at the exact scalarized
    minimizer), so only offsets from the anchor are exposed.
    ``residual_floor`` is the rounding error the anchor's residual may carry.
    ``x_star_jacobian`` is the d x n implicit derivative J = dx*/dbeta
    estimated at the anchor; it gives each step's Gauss-Newton metric
    J^T hess f0(x) J, and each trial's x*(beta) solve starts at the
    tangent prediction x + J (beta_new - beta).  ``hessians`` is the
    (n, d, d) stack of objective Hessians at the anchor and ``adjoint`` is
    p = hess f_beta(x)^{-1} grad f0(x), from the same solve as J: with J
    they give the curvature of x*(beta) that ``_exact_metric`` adds.
    """

    anchor: ManifoldPoint
    linear: np.ndarray
    curvature: float
    err_term: float
    grad_f0_norm: float
    jacobian_T: np.ndarray
    residual_floor: float
    x_star_jacobian: np.ndarray
    hessians: np.ndarray
    adjoint: np.ndarray

    def relative_value(self, beta: SimplexPoint) -> float:
        """Model value at beta (curvature mu_g, an upper bound) minus the unknown anchor constant."""
        d = beta.weights - self.anchor.beta.weights
        return float(self.linear @ d) + 0.5 * self.curvature * float(d @ d) + self.err_term


def build_surrogate(problem: ProblemInstance, point: ManifoldPoint) -> SurrogateState:
    """Surrogate at ``point``; its error bound uses ``point.residual`` plus its rounding floor."""
    F = problem.F
    JT = F.jacobian_T(point.x)
    g0 = problem.f0.grad(point.x)
    g0n = stable_norm(g0)
    Hs = F._hessians(point.x)
    J = grad_x_star_estimate(F, point.x, point.beta, jacobian_T=JT, hessians=Hs, adjoint_of=g0)
    floor = residual_floor(F, JT, point.beta)
    return SurrogateState(
        anchor=point,
        linear=J.matrix.T @ g0,
        curvature=problem.bundle.mu_g,
        err_term=err_grad_f0(problem, point.x, point.beta, g0n, point.residual + floor),
        grad_f0_norm=g0n,
        jacobian_T=JT,
        residual_floor=floor,
        x_star_jacobian=J.matrix,
        hessians=Hs,
        adjoint=J.adjoint,
    )


@dataclass
class SolverConfig:
    """Outer-loop tolerances and the outer iteration budget.

    Requires 0 < eps <= eps0^2 <= 1 and max_outer >= 0, each a real number
    and not a boolean.  The convergence constants c1/c2 are not settable:
    ``compute_c1_c2`` evaluates them at every iterate.  The scalarized
    solves always use Newton's method, which stops at its target or at the
    rounding floor, so they take no budget; ``newton_inner`` is accepted
    for compatibility and ignored.
    """

    eps0: float
    eps: float
    alpha: float = 0.5
    max_outer: int = 100_000
    newton_inner: bool = False

    def __post_init__(self):
        if not all(is_real(v) for v in (self.eps0, self.eps, self.alpha, self.max_outer)):
            raise ConfigurationError("eps0, eps, alpha and max_outer must be real numbers, not booleans")
        if not (0.0 < self.eps0 <= 1.0):
            raise ConfigurationError("requires 0 < eps0 <= 1")
        if not (0.0 < self.eps <= self.eps0**2):
            raise ConfigurationError("requires 0 < eps <= eps0^2")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("requires alpha in (0, 1)")
        if not isinstance(self.max_outer, numbers.Integral) or self.max_outer < 0:
            raise ConfigurationError("requires an integer max_outer >= 0")


@dataclass
class StationarityCertificate:
    """The three verified quantities and their budgets.

    ``residual`` is the computed scalarized gradient norm plus its rounding
    floor (``SurrogateState.residual_floor``), a bound on the exact value.
    """

    residual: float
    gap: float
    err: float
    eps: float
    gap_budget: float
    err_budget: float

    @property
    def passed(self) -> bool:
        """All three legs within budget; false if any entry is negative or non-finite."""
        return (
            all(math.isfinite(v) and v >= 0.0 for v in vars(self).values())
            and self.residual <= self.eps
            and self.gap <= self.gap_budget
            and self.err <= self.err_budget
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _certificate(surrogate, eps0, eps, alpha) -> StationarityCertificate:
    """The certificate at the surrogate's anchor: residual plus its rounding floor
    within eps, l1 gap of ``linear`` within alpha * eps0, err bound within (1 - alpha) * eps0."""
    return StationarityCertificate(
        residual=surrogate.anchor.residual + surrogate.residual_floor,
        gap=l1_stationarity_gap(surrogate.linear, surrogate.anchor.beta),
        err=surrogate.err_term,
        eps=eps,
        gap_budget=alpha * eps0,
        err_budget=(1.0 - alpha) * eps0,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflowing gradient raises NumericalFailureError
def compute_c1_c2(
    problem: ProblemInstance,
    x: np.ndarray,
    grad_f0_norm: Optional[float] = None,
    jacobian_T: Optional[np.ndarray] = None,
):
    """Largest constants satisfying the two convergence-proof constraints.

    Evaluated with the gradient norms at the current iterate; the caller
    may pass ||grad f0(x)|| and ``F.jacobian_T(x)`` when it already has them
    (``SurrogateState`` carries both).  Degenerate instances (single
    objective or coincident minimizers, mu_g = 0) get (1, 1) since the
    outer problem is trivial there.  Both constants are at most 1; a
    non-finite Jacobian, or data extreme enough to underflow either to 0 or
    to make it NaN, raises ``NumericalFailureError``, since a zero tolerance
    can never be met.
    """
    b = problem.bundle
    if b.mu_g == 0.0 or b.M0 == 0.0:
        return 1.0, 1.0
    F = problem.F
    x = np.asarray(x, dtype=float)
    g0n = grad_f0_norm
    if g0n is None:
        g0n = stable_norm(problem.f0.grad(x))
    if jacobian_T is None:
        jacobian_T = F.jacobian_T(x)
    if not np.isfinite(jacobian_T).all():
        raise NumericalFailureError("convergence constants unusable: the Jacobian is not finite")
    gFn = float(np.linalg.svd(jacobian_T, compute_uv=False)[0])  # ||J||_2; LAPACK rescales
    ratio = b.M1 / (2.0 * b.M0)
    mixed = (ratio * g0n + problem.f0.L * b.M0) / F.mu
    t1 = 2.0 + 6.0 * F.kappa * (g0n / F.mu) / b.mu_g
    t2 = 12.0 * mixed * gFn / b.mu_g
    c1 = 1.0 / max(t1, t2)
    c2 = 1.0 / max(1.0, 2.0 * mixed * max(2.0, b.mu_g / c1**2)) if c1**2 > 0.0 else 0.0
    if not (c1 > 0.0 and c2 > 0.0):
        raise NumericalFailureError(f"convergence constants unusable: c1={c1:.3e}, c2={c2:.3e}")
    return c1, c2


@dataclass(eq=False)
class TraceRecord:
    """One outer iterate.

    ``curvature`` and ``trials`` describe the step that produced it: the
    accepted damping sigma (mu_g for the isotropic step at the cap) and the
    x*(beta) solves it took, rejected trials included; row 0, the solved
    start, has mu_g and 1 solve.  A step accepted at its first trial was
    tested against the exact-Hessian model P (B0 + S) P + sigma I when that
    Hessian is positive definite, and any other against B0 + sigma I.
    Below the cap sigma is the run's carried ratio times tr(B0), clipped,
    and grown per rejected trial as ``_outer_step`` describes.  Neither is
    in the CSV.
    """

    k: int
    beta: np.ndarray
    x: np.ndarray
    residual: float
    f0_value: float
    gap: float
    err: float
    certified: bool
    c1: float
    c2: float
    curvature: float
    trials: int


class IterateTrace(list):
    """The ``TraceRecord`` of every outer iterate of one run, in order."""

    def f0_values(self) -> np.ndarray:
        return np.array([r.f0_value for r in self])


@dataclass(eq=False)
class PmmResult:
    """The final point of a run, its trace, how it ended, and the certificate at that point."""

    point: ManifoldPoint
    trace: IterateTrace
    status: str  # "certified" | "budget-exceeded"
    certificate: StationarityCertificate


def _rounding_slack(problem: ProblemInstance, point: ManifoldPoint, grad_f0_norm: float) -> float:
    """Bound on |f0(x) - f0(x*(beta))| at a point with residual r.

    Strong convexity puts x within r/mu of x*(beta), and f0 is L0-smooth.
    """
    dist = point.residual / problem.F.mu
    return grad_f0_norm * dist + 0.5 * problem.f0.L * dist**2


def _positive_definite(M, floor) -> bool:
    """Whether M + floor * I, or every matrix of a stack M, has a finite Cholesky factor."""
    try:
        factor = np.linalg.cholesky(M + floor * np.eye(M.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _start_damping(B0, cap, ratio=_START_RATIO):
    """First trial sigma of a step and whether B0 passed the Cholesky test: ``(sigma, convex)``.

    sigma is ratio * tr(B0), clipped to [1e-12 * cap, cap], with ``ratio``
    the damping ratio the run carries, 1e-2 at its first step (see
    ``_outer_step``).  It is the cap, and ``convex`` False, when B0 +
    1e-12 * cap * I is not positive definite (f0 is not convex along J at
    the anchor) or not finite: no damped model below the cap is then convex.
    """
    floor = _MIN_CURVATURE * cap
    if not _positive_definite(B0, floor):
        return cap, False
    return min(max(ratio * float(np.trace(B0)), floor), cap), True


def _exact_metric(F, surrogate, B0):
    """Hessian of the pulled-back preference beta -> f0(x*(beta)) on the simplex's tangent plane.

    That is P (B0 + S) P, with P = I - 1 1^T / n and S the term
    sum_m d_m f0 hess x*_m that the Gauss-Newton metric B0 leaves out.
    Differentiating sum_i beta_i grad f_i(x*) = 0 twice gives
    S_kj = -p^T (H_k J e_j + H_j J e_k) - sum_l tau_l p_l (J e_k)_l (J e_j)_l,
    with H_k the objective Hessians, p = hess f_beta(x)^{-1} grad f0(x)
    (``surrogate.hessians`` and ``surrogate.adjoint``) and tau the diagonal
    third derivative of the scalarization: 0 for quadratics and
    -2 sum_i beta_i c_i sech^2(x - z_i) tanh(x - z_i) for the log-cosh
    family.  A set without a family whose L_H > 0 has no known third
    derivative, and gets B0 itself.
    """
    fam = F.family
    if fam is None and F.L_H > 0.0:
        return B0
    J, p = surrogate.x_star_jacobian, surrogate.adjoint
    # ndarray.dot, not @: these products are tiny and dot dispatches faster
    A = surrogate.hessians.dot(p).dot(J)  # A_kj = p^T H_k J e_j
    M = B0 - A - A.T
    if fam is not None and fam.c is not None:
        t = np.tanh(surrogate.anchor.x - fam.z)  # sech^2 = 1 - tanh^2, which cannot overflow
        tau = -2.0 * ((surrogate.anchor.beta.weights * fam.c) @ ((1.0 - t * t) * t))
        M -= (J.T * (tau * p)).dot(J)
    P = np.eye(F.n) - 1.0 / F.n
    return P.dot(M).dot(P)


def _outer_step(problem, surrogate, f0_anchor, tol_gap, tol_grad, ratio, shrink):
    """One backtracked projected-Newton MM step from the surrogate's anchor.

    With d = beta' - beta, each trial minimizes the model
    m_sigma(beta') = linear^T d + 0.5 d^T (G + sigma I) d exactly over the
    simplex.  B0 = J^T hess f0(x) J is the Gauss-Newton metric at the
    anchor, built once per step from the implicit derivative J.  The first
    trial takes G = P (B0 + S) P, the exact Hessian on the tangent plane
    (``_exact_metric``, built only for a first trial below the cap), when
    it and B0 are positive definite above 1e-12 mu_g and n <= d + 1; every
    other trial takes G = B0.  sigma starts at ``ratio`` * tr(B0), or at
    ratio / 4 * tr(B0) when ``shrink`` (the previous step was accepted at
    its first trial), clipped to [1e-12 * mu_g, mu_g].  A rejected shrunk
    trial is retried at 4 times its sigma, ratio * tr(B0) unless clipped,
    and any other rejection doubles sigma, with G switching to B0, until
    the new point does not raise f0 and its f0 rise is within m_sigma plus
    the err bound and the rounding slack of both points.  At the cap mu_g
    the model is the isotropic upper bound linear^T d + 0.5 mu_g ||d||^2
    and the step is taken untested; ``_start_damping`` starts there when
    B0 + 1e-12 mu_g I is not positive definite.
    Each trial's x*(beta) solve starts at the anchor's tangent prediction
    x + J (beta - beta_anchor).  Returns ``(point, f0 value, sigma, trials,
    slack, ratio)``, with ``slack`` the anchor's rounding slack and
    ``ratio`` the accepted sigma / tr(B0) for the next step; ``ratio`` is
    returned as given when tr(B0) <= 0 or B0 fails the Cholesky test.
    """
    F, anchor, cap = problem.F, surrogate.anchor, surrogate.curvature
    J = surrogate.x_star_jacobian
    B0 = J.T @ (problem.f0.hess(anchor.x) @ J)
    trace_B0 = float(np.trace(B0))
    sigma, convex = _start_damping(B0, cap, _SHRINK * ratio if shrink else ratio)
    metric = B0
    # Along ker J, which meets the tangent plane when n - 1 > d, x*(beta) is
    # flat to second order: the exact Hessian is then singular there at best.
    if sigma < cap and F.n <= F.dim + 1:
        exact = _exact_metric(F, surrogate, B0)
        if _positive_definite(exact, _MIN_CURVATURE * cap):
            metric = exact
    slack = _rounding_slack(problem, anchor, surrogate.grad_f0_norm)
    trials = 0
    while True:
        beta = anchor.beta
        if cap > 0.0:  # mu_g = 0 when the minimizers coincide
            Q = SimplexQuadratic(
                anchor=beta, linear=surrogate.linear, curvature=sigma, metric=metric if sigma < cap else None
            )
            beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=tol_gap)
        # The solved point's residual is the scalarized gradient norm at
        # (x, beta), so it anchors the next surrogate as it is.
        x0 = anchor.x + J @ (beta.weights - anchor.beta.weights)
        point = solve_x_star(F, beta, tol_grad=tol_grad, x0=x0)
        trials += 1
        f0_value = problem.f0.value(point.x)
        if sigma >= cap:
            break
        rise = f0_value - f0_anchor
        bound = Q.value_at(beta) + surrogate.err_term + slack  # cap > 0 here: Q is this trial's model
        bound += _rounding_slack(problem, point, stable_norm(problem.f0.grad(point.x)))
        if rise <= 0.0 and rise <= bound:
            break
        growth = 1.0 / _SHRINK if shrink and trials == 1 else 2.0  # a rejected shrunk trial retries at ratio
        sigma, metric = min(growth * sigma, cap), B0
    if convex and trace_B0 > 0.0:
        ratio = sigma / trace_B0
    return point, f0_value, sigma, trials, slack, ratio


def _reweighted(F, point):
    """``point`` with its weights replaced by the min-norm weights at its x, if that lowers the residual.

    The weights minimize ||G(x) beta|| over the simplex, G(x) the d x n
    objective Jacobian (``min_norm_over_simplex``).  A step can end where
    the model's linear term vanishes, at f0's centre, on a float x whose
    weights leave a residual above eps; the weights that suit that x exactly
    then let it certify.  A min-norm solve that fails, on gradients that
    are not finite or near the float range, keeps the point.
    """
    try:
        beta, _ = min_norm_over_simplex(F.jacobian_T(point.x))
    except NumericalFailureError:
        return point
    candidate = ManifoldPoint.from_x_beta(F, point.x, beta)
    return candidate if candidate.residual < point.residual else point


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in NumericalFailureError or a failed check
def pmm_solve(
    problem: ProblemInstance,
    config: SolverConfig,
    init: Optional[tuple] = None,
) -> PmmResult:
    """Run the outer majorize-minimize loop until certification or budget.

    ``init`` optionally supplies (x0, beta0), with n weights and a finite
    length-d x0 (``InvalidArgumentError`` otherwise); the defaults are uniform
    weights and the weight-averaged objective minimizers.  Row 0 of the
    trace is x*(beta0), solved by Newton from x0 to c2 * eps like every
    later point (c2 from ``compute_c1_c2`` at x0).  Each step minimizes a
    quadratic model in the metric G + sigma I (see ``_outer_step``): G is
    the exact Hessian of the pulled-back preference on the tangent plane
    for the first trial when it is positive definite, and the Gauss-Newton
    metric B0 otherwise.  sigma starts at rho * tr(B0), clipped to
    [1e-12 * mu_g, mu_g], with the ratio rho carried across steps: 1e-2 at
    the first step, then each accepted step's sigma / tr(B0).  After a step
    accepted at its first trial the next tries rho / 4 first and rho
    second; every other failed descent or upper-bound test doubles sigma,
    with G switching to B0.  At the cap mu_g the isotropic step is taken
    untested, as in the fixed-mu_g method.  A new point whose residual is
    above eps takes the min-norm weights at its x when they give a lower
    residual (``_reweighted``), before the stall test below.
    The certificate never reads the model.  Stationarity is checked every
    iteration, so a certifiable iterate ends the run as soon as it appears.
    Each x*(beta) solve may stop at its rounding floor above its target;
    the run continues from that point and the certificate judges it like
    any other.  A residual rounding floor above eps, which no point can get
    under, raises ``NumericalFailureError``; so does a point whose residual
    and gap legs pass while that floor alone puts the err bound above
    (1 - alpha) * eps0; so does a stall, 5 consecutive steps whose new point
    has a residual above eps while f0 moves by no more than the anchor's
    rounding slack; and so do the other numerical failures of the
    sub-solvers.
    """
    F = problem.F
    x0, beta0 = (None, SimplexPoint.uniform(F.n)) if init is None else init
    beta = beta0 if isinstance(beta0, SimplexPoint) else SimplexPoint(np.asarray(beta0, float))
    if beta.n != F.n:
        raise InvalidArgumentError(f"beta0 has {beta.n} weights, expected {F.n}")
    x = np.asarray(x0, dtype=float) if x0 is not None else beta.weights @ F.minimizers
    if x.shape != (F.dim,):
        raise InvalidArgumentError(f"x0 has shape {x.shape}, expected ({F.dim},)")
    if x0 is not None and not np.isfinite(x).all():
        raise InvalidArgumentError("x0 must be finite")
    trace = IterateTrace()
    tube = problem.bundle.R_bound + 2.0 * config.eps / F.mu + 1e-9

    point = solve_x_star(F, beta, tol_grad=compute_c1_c2(problem, x)[1] * config.eps, x0=x)
    f0_value = problem.f0.value(point.x)
    curvature, trials, stalls = problem.bundle.mu_g, 1, 0
    ratio = _START_RATIO
    for k in range(config.max_outer + 1):
        surrogate = build_surrogate(problem, point)
        cert = _certificate(surrogate, config.eps0, config.eps, config.alpha)
        c1, c2 = compute_c1_c2(problem, point.x, surrogate.grad_f0_norm, surrogate.jacobian_T)
        trace.append(
            TraceRecord(
                k=k,
                beta=point.beta.weights.copy(),
                x=point.x.copy(),
                residual=point.residual,
                f0_value=f0_value,
                gap=cert.gap,
                err=cert.err,
                certified=cert.passed,
                c1=c1,
                c2=c2,
                curvature=curvature,
                trials=trials,
            )
        )
        if cert.passed:
            return PmmResult(point=point, trace=trace, status="certified", certificate=cert)
        if k == config.max_outer:
            break
        if not np.all(np.isfinite(surrogate.linear)) or not np.isfinite(surrogate.err_term):
            raise NumericalFailureError(
                f"non-finite surrogate at outer iteration {k}; assumptions violated"
            )
        if surrogate.residual_floor > config.eps:
            floor = surrogate.residual_floor
            raise NumericalFailureError(f"eps is below the residual's rounding floor {floor:.3e}")
        if cert.residual <= cert.eps and cert.gap <= cert.gap_budget:
            err_floor = err_grad_f0(
                problem, point.x, point.beta, surrogate.grad_f0_norm, surrogate.residual_floor
            )
            if err_floor > cert.err_budget:
                raise NumericalFailureError(
                    f"the err bound's rounding floor {err_floor:.3e} is above its budget "
                    f"{cert.err_budget:.3e}"
                )
        f0_anchor = f0_value
        point, f0_value, curvature, trials, slack, ratio = _outer_step(
            problem, surrogate, f0_anchor, c1 * config.eps0, c2 * config.eps, ratio, k > 0 and trials == 1
        )
        if point.residual > config.eps:
            point = _reweighted(F, point)
        stalled = point.residual > config.eps and abs(f0_value - f0_anchor) <= slack
        stalls = stalls + 1 if stalled else 0
        if stalls == _STALL_STEPS:
            raise NumericalFailureError(
                f"stalled: residual {point.residual:.3e} stays above eps and f0 has not moved "
                f"beyond its rounding slack for {_STALL_STEPS} steps"
            )
        if float(np.linalg.norm(point.x - trace[0].x)) > tube:  # tube around the solved start
            raise NumericalFailureError(
                "iterate left the Pareto neighborhood; declared constants look wrong"
            )
    return PmmResult(point=point, trace=trace, status="budget-exceeded", certificate=cert)
