"""Majorization-minimization over the Pareto manifold.

Each outer iteration builds an isotropic quadratic upper bound for the
pulled-back preference around the current pair (x, beta), minimizes it over
the simplex exactly by one Euclidean projection, then re-solves the
scalarized problem at the new weights to a gradient norm proportional to
eps.  A point is certified stationary when its residual, its
estimated-gradient gap, and the gradient-estimation error bound are all
within their budgets.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import BudgetExceededError, ConfigurationError, InvalidArgumentError, NumericalFailureError
from .manifold import (
    ManifoldPoint,
    err_grad_f0,
    grad_x_star_estimate,
    solve_x_star,
)
from .problem import ProblemInstance
from .simplex import (
    SimplexPoint,
    SimplexQuadratic,
    l1_stationarity_gap,
    minimize_quadratic_over_simplex,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class SurrogateState:
    """Quadratic upper bound in relative form around its anchor.

    ``linear`` is the estimated gradient of the pulled-back preference at the
    anchor; ``curvature`` is the bundle constant mu_g; ``err_term`` bounds the
    gap between the estimated and true gradients.  ``grad_f0_norm`` and
    ``jacobian_T`` are ||grad f0(x)|| and the objective Jacobian at the
    anchor, the inputs ``compute_c1_c2`` needs.  The absolute value at the
    anchor is unknown (it contains the preference at the exact scalarized
    minimizer), so only offsets from the anchor are exposed.
    """

    anchor: ManifoldPoint
    linear: np.ndarray
    curvature: float
    err_term: float
    grad_f0_norm: float
    jacobian_T: np.ndarray

    def relative_value(self, beta: SimplexPoint) -> float:
        """Upper-bound value at beta minus the unknown anchor constant."""
        d = beta.weights - self.anchor.beta.weights
        return float(self.linear @ d) + 0.5 * self.curvature * float(d @ d) + self.err_term


def build_surrogate(problem: ProblemInstance, point: ManifoldPoint) -> SurrogateState:
    """Surrogate at ``point``; its error bound uses ``point.residual``."""
    JT = problem.F.jacobian_T(point.x)
    g0 = problem.f0.grad(point.x)
    g0n = float(scipy.linalg.norm(g0, check_finite=False))  # BLAS nrm2: no overflow at 1e300
    J = grad_x_star_estimate(problem.F, point.x, point.beta, jacobian_T=JT)
    return SurrogateState(
        anchor=point,
        linear=J.matrix.T @ g0,
        curvature=problem.bundle.mu_g,
        err_term=err_grad_f0(problem, point.x, point.beta, g0n, point.residual),
        grad_f0_norm=g0n,
        jacobian_T=JT,
    )


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop tolerances and budgets.

    Requires 0 < eps <= eps0^2 <= 1 and max_outer >= 0.  The convergence
    constants c1/c2 are not settable: ``compute_c1_c2`` evaluates them at
    every iterate.  The scalarized solves always use Newton's method;
    ``newton_inner`` is accepted for compatibility and ignored.
    """

    eps0: float
    eps: float
    alpha: float = 0.5
    max_outer: int = 100_000
    max_inner_x: int = 200_000
    newton_inner: bool = False

    def __post_init__(self):
        if not (0.0 < self.eps0 <= 1.0):
            raise ConfigurationError("requires 0 < eps0 <= 1")
        if not (0.0 < self.eps <= self.eps0**2):
            raise ConfigurationError("requires 0 < eps <= eps0^2")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("requires alpha in (0, 1)")
        if self.max_outer < 0:
            raise ConfigurationError("requires max_outer >= 0")


@dataclass(frozen=True)
class StationarityCertificate:
    """The three verified quantities and their budgets."""

    residual: float
    gap: float
    err: float
    eps: float
    gap_budget: float
    err_budget: float

    @property
    def passed(self) -> bool:
        """All three legs within budget; false if any entry is negative or non-finite."""
        values = (self.residual, self.gap, self.err, self.eps, self.gap_budget, self.err_budget)
        return (
            all(math.isfinite(v) and v >= 0.0 for v in values)
            and self.residual <= self.eps
            and self.gap <= self.gap_budget
            and self.err <= self.err_budget
        )

    def as_dict(self) -> dict:
        return {
            "residual": self.residual,
            "gap": self.gap,
            "err": self.err,
            "eps": self.eps,
            "gap_budget": self.gap_budget,
            "err_budget": self.err_budget,
            "passed": self.passed,
        }


def _certificate(surrogate, eps0, eps, alpha) -> StationarityCertificate:
    return StationarityCertificate(
        residual=surrogate.anchor.residual,
        gap=l1_stationarity_gap(surrogate.linear, surrogate.anchor.beta),
        err=surrogate.err_term,
        eps=eps,
        gap_budget=alpha * eps0,
        err_budget=(1.0 - alpha) * eps0,
    )


def verify_preference_stationarity(
    problem: ProblemInstance,
    point: ManifoldPoint,
    eps0: float,
    eps: float,
    alpha: float = 0.5,
):
    """Check the three-part certificate at (x, beta).

    (i) the scalarized gradient norm at x is at most eps, (ii) the
    l1-normalized gap of the estimated pulled-back gradient at beta is at
    most alpha * eps0, and (iii) the gradient-estimation error bound is at
    most (1 - alpha) * eps0.  Returns ``(bool, certificate)``.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError("requires alpha in (0, 1)")
    surrogate = build_surrogate(problem, point)
    cert = _certificate(surrogate, eps0, eps, alpha)
    return cert.passed, cert


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
    outer problem is trivial there.  Both constants are at most 1; data
    extreme enough to underflow either to 0, or to make it NaN, raises
    ``NumericalFailureError``, since a zero tolerance can never be met.
    """
    b = problem.bundle
    if b.mu_g == 0.0 or b.M0 == 0.0:
        return 1.0, 1.0
    F = problem.F
    x = np.asarray(x, dtype=float)
    g0n = grad_f0_norm
    if g0n is None:
        g0n = float(scipy.linalg.norm(problem.f0.grad(x), check_finite=False))
    if jacobian_T is None:
        jacobian_T = F.jacobian_T(x)
    gFn = math.sqrt(float(np.linalg.eigvalsh(jacobian_T.T @ jacobian_T)[-1]))  # ||J||_2
    ratio = b.M1 / (2.0 * b.M0)
    mixed = (ratio * g0n + problem.f0.L * b.M0) / F.mu
    t1 = 2.0 + 6.0 * F.L * g0n / (F.mu**2 * b.mu_g)
    t2 = 12.0 * mixed * gFn / b.mu_g
    c1 = 1.0 / max(t1, t2)
    c2 = 1.0 / max(1.0, 2.0 * mixed * max(2.0, b.mu_g / c1**2)) if c1**2 > 0.0 else 0.0
    if not (c1 > 0.0 and c2 > 0.0):
        raise NumericalFailureError(f"convergence constants unusable: c1={c1:.3e}, c2={c2:.3e}")
    return c1, c2


@dataclass(frozen=True, eq=False)
class TraceRecord:
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


@dataclass
class IterateTrace:
    """Append-only per-iteration records of one outer run."""

    records: list = field(default_factory=list)

    def append(self, record: TraceRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def f0_values(self) -> np.ndarray:
        return np.array([r.f0_value for r in self.records])

    def write_csv(self, stream):
        n = self.records[0].beta.size
        d = self.records[0].x.size
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(trace_header(n, d))
        for r in self.records:
            writer.writerow(
                [r.k]
                + [f"{v:.17g}" for v in r.beta]
                + [f"{v:.17g}" for v in r.x]
                + [f"{r.residual:.17g}", f"{r.f0_value:.17g}", f"{r.gap:.17g}", f"{r.err:.17g}"]
                + [int(r.certified)]
            )


def trace_header(n: int, d: int) -> list:
    return (
        ["k"]
        + [f"beta_{i}" for i in range(n)]
        + [f"x_{i}" for i in range(d)]
        + ["residual", "f0", "gap", "err", "certified"]
    )


@dataclass(frozen=True, eq=False)
class PmmResult:
    point: ManifoldPoint
    trace: IterateTrace
    status: str  # "certified" | "budget-exceeded"
    certificate: StationarityCertificate


def pmm_solve(
    problem: ProblemInstance,
    config: SolverConfig,
    init: Optional[tuple] = None,
) -> PmmResult:
    """Run the outer majorize-minimize loop until certification or budget.

    ``init`` optionally supplies (x0, beta0), with n weights and a length-d
    x0 (``InvalidArgumentError`` otherwise); the defaults are uniform
    weights and the weight-averaged objective minimizers.  Stationarity is
    checked every iteration, so a certifiable iterate ends the run as soon
    as it appears.  Sub-solver failures propagate with the trace attached.
    """
    F = problem.F
    n = F.n
    if init is not None:
        x0, beta0 = init
        beta = beta0 if isinstance(beta0, SimplexPoint) else SimplexPoint(np.asarray(beta0, float))
        if beta.n != n:
            raise InvalidArgumentError(f"beta0 has {beta.n} weights, expected {n}")
        x = np.asarray(x0, dtype=float) if x0 is not None else beta.weights @ F.minimizers
        if x.shape != (F.dim,):
            raise InvalidArgumentError(f"x0 has shape {x.shape}, expected ({F.dim},)")
    else:
        beta = SimplexPoint.uniform(n)
        x = beta.weights @ F.minimizers
    trace = IterateTrace()
    tube = problem.bundle.R_bound + 2.0 * config.eps / F.mu + 1e-9
    x_ref = None  # first solved iterate, anchor of the runtime tube check

    point = ManifoldPoint.from_x_beta(F, x, beta)
    try:
        for k in range(config.max_outer + 1):
            surrogate = build_surrogate(problem, point)
            cert = _certificate(surrogate, config.eps0, config.eps, config.alpha)
            c1, c2 = compute_c1_c2(problem, point.x, surrogate.grad_f0_norm, surrogate.jacobian_T)
            trace.append(
                TraceRecord(
                    k=k,
                    beta=beta.weights.copy(),
                    x=point.x.copy(),
                    residual=point.residual,
                    f0_value=problem.f0.value(point.x),
                    gap=cert.gap,
                    err=cert.err,
                    certified=cert.passed,
                    c1=c1,
                    c2=c2,
                )
            )
            if cert.passed:
                logger.info("certified at outer iteration %d", k)
                return PmmResult(point=point, trace=trace, status="certified", certificate=cert)
            if k == config.max_outer:
                break
            if not np.all(np.isfinite(surrogate.linear)) or not np.isfinite(surrogate.err_term):
                raise NumericalFailureError(
                    f"non-finite surrogate at outer iteration {k}; assumptions violated"
                )
            if surrogate.curvature > 0.0:  # mu_g = 0 when the minimizers coincide
                Q = SimplexQuadratic(
                    anchor=beta, linear=surrogate.linear, curvature=surrogate.curvature
                )
                beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=c1 * config.eps0)
            logger.debug(
                "outer %d: residual=%.3e gap=%.3e err=%.3e f0=%.8f",
                k,
                point.residual,
                cert.gap,
                cert.err,
                trace.records[-1].f0_value,
            )
            # The solved point's residual is the scalarized gradient norm at
            # (x, beta), so it anchors the next surrogate as it is.
            point = solve_x_star(
                F, beta, tol_grad=c2 * config.eps, max_iters=config.max_inner_x, x0=point.x
            )
            if x_ref is None:
                x_ref = point.x.copy()
            elif float(np.linalg.norm(point.x - x_ref)) > tube:
                raise NumericalFailureError(
                    "iterate left the Pareto neighborhood; declared constants look wrong"
                )
    except BudgetExceededError as exc:
        exc.trace = trace
        raise
    return PmmResult(point=point, trace=trace, status="budget-exceeded", certificate=cert)
