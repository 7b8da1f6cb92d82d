"""Majorization-minimization over the Pareto manifold.

Each outer iteration builds a quadratic upper bound for the pulled-back
preference around the current pair (x, beta), minimizes it over the simplex
to a stationarity gap proportional to eps0, then re-solves the scalarized
problem at the new weights to a gradient norm proportional to eps.  A point
is certified stationary when its residual, its estimated-gradient gap, and
the gradient-estimation error bound are all within their budgets.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ConfigurationError, NumericalFailureError
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
    gap between the estimated and true gradients.  The absolute value at the
    anchor is unknown (it contains the preference at the exact scalarized
    minimizer), so only offsets from the anchor are exposed.
    """

    anchor: ManifoldPoint
    linear: np.ndarray
    curvature: float
    err_term: float

    def relative_value(self, beta: SimplexPoint) -> float:
        """Upper-bound value at beta minus the unknown anchor constant."""
        d = beta.weights - self.anchor.beta.weights
        return float(self.linear @ d) + 0.5 * self.curvature * float(d @ d) + self.err_term


def build_surrogate(problem: ProblemInstance, point: ManifoldPoint) -> SurrogateState:
    J = grad_x_star_estimate(problem.F, point.x, point.beta)
    linear = J.matrix.T @ problem.f0.grad(point.x)
    return SurrogateState(
        anchor=point,
        linear=linear,
        curvature=problem.bundle.mu_g,
        err_term=err_grad_f0(problem, point.x, point.beta),
    )


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop tolerances and budgets.

    Requires 0 < eps <= eps0^2 <= 1.  ``c1``/``c2`` default to automatic
    per-iterate evaluation of the convergence constants; fixing them
    overrides that.  ``newton_inner`` switches the scalarized solves to the
    high-precision Newton mode otherwise reserved for oracles.
    """

    eps0: float
    eps: float
    alpha: float = 0.5
    max_outer: int = 100_000
    max_inner_x: int = 200_000
    c1: Optional[float] = None
    c2: Optional[float] = None
    newton_inner: bool = False

    def __post_init__(self):
        if not (0.0 < self.eps0 <= 1.0):
            raise ConfigurationError("requires 0 < eps0 <= 1")
        if not (0.0 < self.eps <= self.eps0**2):
            raise ConfigurationError("requires 0 < eps <= eps0^2")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("requires alpha in (0, 1)")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigurationError(f"{name} must be positive when fixed")


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
        return (
            self.residual <= self.eps
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


def _certificate(problem, surrogate, eps0, eps, alpha) -> StationarityCertificate:
    point = surrogate.anchor
    if point.beta.n == 1:
        gap = 0.0
    else:
        gap = l1_stationarity_gap(surrogate.linear, point.beta)
    return StationarityCertificate(
        residual=point.residual,
        gap=gap,
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
    cert = _certificate(problem, surrogate, eps0, eps, alpha)
    return cert.passed, cert


def compute_c1_c2(problem: ProblemInstance, x: np.ndarray):
    """Largest constants satisfying the two convergence-proof constraints.

    Evaluated with the gradient norms at the current iterate; degenerate
    instances (single objective or coincident minimizers, mu_g = 0) get
    (1, 1) since the outer problem is trivial there.
    """
    b = problem.bundle
    if b.mu_g == 0.0 or b.M0 == 0.0:
        return 1.0, 1.0
    F = problem.F
    x = np.asarray(x, dtype=float)
    g0n = float(np.linalg.norm(problem.f0.grad(x)))
    gFn = float(np.linalg.norm(F.jacobian_T(x), 2))
    ratio = b.M1 / (2.0 * b.M0)
    mixed = (ratio * g0n + problem.f0.L * b.M0) / F.mu
    t1 = 2.0 + 6.0 * F.L * g0n / (F.mu**2 * b.mu_g)
    t2 = 12.0 * mixed * gFn / b.mu_g
    c1 = 1.0 / max(t1, t2)
    c2 = 1.0 / max(1.0, 2.0 * mixed * max(2.0, b.mu_g / c1**2))
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

    ``init`` optionally supplies (x0, beta0); the defaults are uniform
    weights and the weight-averaged objective minimizers.  Stationarity is
    checked every iteration, so a certifiable iterate ends the run as soon
    as it appears.  Sub-solver failures propagate with the trace attached.
    """
    F = problem.F
    n = F.n
    if init is not None:
        x0, beta0 = init
        beta = beta0 if isinstance(beta0, SimplexPoint) else SimplexPoint(np.asarray(beta0, float))
        x = np.asarray(x0, dtype=float) if x0 is not None else beta.weights @ F.minimizers
    else:
        beta = SimplexPoint.uniform(n)
        x = beta.weights @ F.minimizers
    trace = IterateTrace()
    tube = problem.bundle.R_bound + 2.0 * config.eps / F.mu + 1e-9
    x_ref = None  # first solved iterate, anchor of the runtime tube check

    try:
        for k in range(config.max_outer + 1):
            point = ManifoldPoint.from_x_beta(F, x, beta)
            surrogate = build_surrogate(problem, point)
            cert = _certificate(problem, surrogate, config.eps0, config.eps, config.alpha)
            if config.c1 is not None and config.c2 is not None:
                c1, c2 = config.c1, config.c2
            else:
                c1, c2 = compute_c1_c2(problem, x)
                if config.c1 is not None:
                    c1 = config.c1
                if config.c2 is not None:
                    c2 = config.c2
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
            if n > 1 and surrogate.curvature > 0.0:
                Q = SimplexQuadratic(
                    anchor=beta, linear=surrogate.linear, curvature=surrogate.curvature
                )
                beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=c1 * config.eps0)
            inner = solve_x_star(
                F,
                beta,
                tol_grad=c2 * config.eps,
                max_iters=config.max_inner_x,
                x0=x,
                newton=config.newton_inner,
            )
            x = inner.x
            if x_ref is None:
                x_ref = x.copy()
            elif float(np.linalg.norm(x - x_ref)) > tube:
                raise NumericalFailureError(
                    "iterate left the Pareto neighborhood; declared constants look wrong"
                )
            logger.debug(
                "outer %d: residual=%.3e gap=%.3e err=%.3e f0=%.8f",
                k,
                point.residual,
                cert.gap,
                cert.err,
                trace.records[-1].f0_value,
            )
    except BudgetExceededError as exc:
        exc.trace = trace
        raise
    point = ManifoldPoint.from_x_beta(F, x, beta)
    _, cert = verify_preference_stationarity(
        problem, point, config.eps0, config.eps, config.alpha
    )
    return PmmResult(point=point, trace=trace, status="budget-exceeded", certificate=cert)
