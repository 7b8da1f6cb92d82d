"""Problem instances: smooth functions, objective sets, and derived constants.

An objective set holds n strongly convex objectives together with the
smoothness bundle (mu, L, L_H, r) that every solver bound is computed from.
The preference function is a separate smooth function with its own gradient
Lipschitz constant L0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError

# Lipschitz constant of d/dt sech^2(t), attained at t = atanh(1/sqrt(3)).
LOG_COSH_HESS_LIPSCHITZ = 4.0 / (3.0 * np.sqrt(3.0))


@dataclass(frozen=True, eq=False)
class SmoothFunction:
    """Twice-differentiable scalar function on R^d with declared constants.

    ``mu``/``L``/``L_H`` are the strong convexity, gradient-Lipschitz and
    Hessian-Lipschitz constants; ``None`` means undeclared.  Declared
    constants are trusted (analytic families compute them exactly) and only
    spot-checked by the test suite.  ``minimizer_hint`` is the exact minimizer
    of an objective, and the Newton warm start of a scalarization.
    ``family`` is ``(H, c)`` when the function is exactly
    0.5 (x - z)^T H (x - z) + c * sum_i log cosh(x_i - z_i) with z the
    minimizer hint, as the built-in families record it; ``ObjectiveSet``
    evaluates such objectives as stacked arrays.  It is not an ``__init__``
    field, so ``dataclasses.replace`` drops it from the copy.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    mu: Optional[float] = None
    L: Optional[float] = None
    L_H: Optional[float] = None
    minimizer_hint: Optional[np.ndarray] = None
    family: Optional[tuple] = field(default=None, init=False)


def quadratic_from_hessian(H: np.ndarray, z: np.ndarray) -> SmoothFunction:
    """Quadratic f(x) = 0.5 * (x - z)^T H (x - z) with the given Hessian H.

    ``H`` must be square, match ``z``, be symmetric to 1e-12 relative and
    positive definite: lambda_min(H) > 1e-24 * lambda_max(H).  ``grad`` and
    ``hess`` use ``H`` itself; mu = lambda_min(H), L = lambda_max(H), L_H = 0.
    """
    H = np.array(H, dtype=float)
    z = np.array(z, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidArgumentError(f"H must be square, got shape {H.shape}")
    if H.shape[0] != z.shape[0]:
        raise InvalidArgumentError("H and z dimensions disagree")
    if not np.allclose(H, H.T, atol=1e-12 * max(1.0, np.abs(H).max())):
        raise InvalidArgumentError("H must be symmetric")
    eigs = np.linalg.eigvalsh(H)
    if not eigs[0] > 1e-24 * eigs[-1]:
        raise InvalidArgumentError("H is not positive definite")

    def value(x):
        d = np.asarray(x, dtype=float) - z
        return 0.5 * float(d @ (H @ d))

    def grad(x):
        return H @ (np.asarray(x, dtype=float) - z)

    def hess(x):
        return H

    f = SmoothFunction(
        dim=z.shape[0],
        value=value,
        grad=grad,
        hess=hess,
        mu=float(eigs[0]),
        L=float(eigs[-1]),
        L_H=0.0,
        minimizer_hint=z.copy(),
    )
    object.__setattr__(f, "family", (H, 0.0))
    return f


def make_quadratic(A: np.ndarray, z: np.ndarray) -> SmoothFunction:
    """``quadratic_from_hessian(A^T A, z)``: f(x) = 0.5 * ||A (x - z)||^2.

    ``A`` must be square and full rank: smallest singular value > 1e-12 times the largest.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {A.shape}")
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise InvalidArgumentError("A is rank deficient")
    return quadratic_from_hessian(A.T @ A, z)


def _log_cosh(t: np.ndarray) -> np.ndarray:
    # log cosh(t) = |t| + log1p(exp(-2|t|)) - log 2, stable for large |t|
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def make_log_cosh_quadratic(H: np.ndarray, z: np.ndarray, c: float) -> SmoothFunction:
    """Quadratic plus c * sum_i log cosh(x_i - z_i); still minimized at z.

    The perturbation is convex with Hessian diag(sech^2), so
    mu = lambda_min(H), L = lambda_max(H) + c, and the Hessian is Lipschitz
    with constant c * 4/(3*sqrt(3)).
    """
    if c < 0:
        raise InvalidArgumentError("c must be nonnegative")
    base = quadratic_from_hessian(H, z)
    z = base.minimizer_hint

    def value(x):
        return base.value(x) + c * float(np.sum(_log_cosh(np.asarray(x, dtype=float) - z)))

    def grad(x):
        return base.grad(x) + c * np.tanh(np.asarray(x, dtype=float) - z)

    def hess(x):
        with np.errstate(over="ignore"):  # cosh overflows past |t| ~ 710, its square past ~355
            sech2 = 1.0 / np.cosh(np.asarray(x, dtype=float) - z) ** 2
        return base.hess(x) + c * np.diag(sech2)

    f = SmoothFunction(
        dim=base.dim,
        value=value,
        grad=grad,
        hess=hess,
        mu=base.mu,
        L=base.L + c,
        L_H=c * LOG_COSH_HESS_LIPSCHITZ,
        minimizer_hint=z.copy(),
    )
    object.__setattr__(f, "family", (base.family[0], float(c)))
    return f


# Non-quadratic families referenced by problem files, called with the
# loader-checked H and z and a dict of the other (finite scalar) parameters.
BUILTIN_FUNCTIONS = {
    "log_cosh_quadratic": lambda H, z, p: make_log_cosh_quadratic(H, z, p.get("c", 1.0)),
}


def norm_1_2(M: np.ndarray) -> float:
    """l1 -> l2 operator norm of a d x n matrix: the largest column l2 norm."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(M, axis=0)))


@dataclass(frozen=True, eq=False)
class ObjectiveSet:
    """The n objectives with their shared constant bundle and exact minimizer hints.

    When every objective records its ``family``, ``hessians`` stacks the
    (n, d, d) H_i and ``log_cosh`` the (n,) c_i (None when every c_i is 0),
    and the values, gradients and Hessians of all objectives are array
    expressions in x - minimizers.  Otherwise both are None and each
    objective is called in turn.  The stacked gradients keep the centred
    form H_i (x - z_i) and round exactly as each objective's own ``grad``.
    """

    objectives: tuple
    mu: float
    L: float
    L_H: float
    minimizers: np.ndarray  # (n, d)
    r: float
    hessians: Optional[np.ndarray] = None
    log_cosh: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.objectives)

    @property
    def dim(self) -> int:
        return self.objectives[0].dim

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def _values(self, x: np.ndarray) -> np.ndarray:
        """(n,) values f_i(x)."""
        if self.hessians is None:
            return np.array([f.value(x) for f in self.objectives])
        D = np.asarray(x, dtype=float) - self.minimizers
        v = 0.5 * np.matmul(D[:, None, :], np.matmul(self.hessians, D[:, :, None]))[:, 0, 0]
        if self.log_cosh is not None:
            v += self.log_cosh * _log_cosh(D).sum(axis=1)
        return v

    def _gradients(self, x: np.ndarray) -> np.ndarray:
        """(n, d) rows grad f_i(x); the matmul rounds as each H_i @ (x - z_i) does."""
        if self.hessians is None:
            return np.array([f.grad(x) for f in self.objectives])
        D = np.asarray(x, dtype=float) - self.minimizers
        G = np.matmul(self.hessians, D[:, :, None])[:, :, 0]
        if self.log_cosh is not None:
            G += self.log_cosh[:, None] * np.tanh(D)
        return G

    def _hessians(self, x: np.ndarray) -> np.ndarray:
        """(n, d, d) Hessians of f_i at x."""
        if self.hessians is None:
            return np.array([f.hess(x) for f in self.objectives])
        if self.log_cosh is None:
            return self.hessians
        with np.errstate(over="ignore"):  # cosh overflows past |t| ~ 710, its square past ~355
            sech2 = 1.0 / np.cosh(np.asarray(x, dtype=float) - self.minimizers) ** 2
        return self.hessians + self.log_cosh[:, None, None] * (sech2[:, :, None] * np.eye(self.dim))

    def jacobian_T(self, x: np.ndarray) -> np.ndarray:
        """Transposed objective Jacobian: C-contiguous d x n matrix with columns grad f_i(x)."""
        return np.ascontiguousarray(self._gradients(x).T)

    @classmethod
    def from_objectives(cls, objectives: Sequence[SmoothFunction]) -> "ObjectiveSet":
        objectives = tuple(objectives)
        if len(objectives) < 1:
            raise InvalidArgumentError("need at least one objective")
        d = objectives[0].dim
        for i, f in enumerate(objectives):
            if f.dim != d:
                raise InvalidArgumentError(f"objective {i} has dim {f.dim}, expected {d}")
            if f.mu is None or f.L is None or f.L_H is None:
                raise ConfigurationError(f"objective {i} is missing declared constants")
            if not (0 < f.mu <= f.L):
                raise ConfigurationError(f"objective {i} must have 0 < mu <= L")
        mu = min(f.mu for f in objectives)
        L = max(f.L for f in objectives)
        L_H = max(f.L_H for f in objectives)
        for i, f in enumerate(objectives):
            m = f.minimizer_hint
            if m is None or not np.linalg.norm(f.grad(m)) <= 1e-10 * L:
                raise ConfigurationError(f"objective {i}: minimizer_hint is not its minimizer")
        minimizers = np.array([f.minimizer_hint for f in objectives])
        minimizers.setflags(write=False)
        # sqrt of the batched dot products rounds as np.linalg.norm(a - b) does
        r = 0.0
        for a in minimizers:
            D = minimizers - a
            r = max(r, float(np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).max())))
        hessians = log_cosh = None
        if all(f.family is not None for f in objectives):
            hessians = np.array([f.family[0] for f in objectives])
            hessians.setflags(write=False)
            c = np.array([f.family[1] for f in objectives])
            c.setflags(write=False)
            log_cosh = c if c.any() else None
        return cls(
            objectives=objectives, mu=mu, L=L, L_H=L_H, minimizers=minimizers, r=r,
            hessians=hessians, log_cosh=log_cosh,
        )


@dataclass(frozen=True)
class ConstantBundle:
    """Solver constants derived from (mu, L, L_H, r, L0).

    R_bound = sqrt(kappa) * r bounds the diameter of the set of scalarized
    minimizers; M0 and M1 are the Lipschitz constants of the weight-to-
    minimizer map and of its derivative; mu_g = n * L0 * M1 is the curvature
    of the quadratic upper bounds used by the outer solver.
    """

    R_bound: float
    M0: float
    M1: float
    mu_g: float


def derive_constants(F: ObjectiveSet, f0: SmoothFunction) -> ConstantBundle:
    """Evaluate the constant formulas; deterministic in the declared inputs."""
    if f0.L is None:
        raise ConfigurationError("preference function is missing its gradient Lipschitz constant")
    kappa = F.kappa
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.sqrt(kappa) * F.r
            M0 = kappa * R
            M1 = 2.0 * kappa**2 * R * (1.0 + F.L_H * R / F.mu)
            mu_g = F.n * f0.L * M1
    except OverflowError as exc:
        raise InvalidArgumentError(f"constants: the derived bundle overflows ({exc})") from exc
    if not np.all(np.isfinite([R, M0, M1, mu_g])):
        raise InvalidArgumentError("constants: the derived bundle is not finite")
    return ConstantBundle(R_bound=float(R), M0=float(M0), M1=float(M1), mu_g=float(mu_g))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Objectives plus a preference function and the derived constant bundle."""

    F: ObjectiveSet
    f0: SmoothFunction
    bundle: ConstantBundle

    @classmethod
    def create(cls, F: ObjectiveSet, f0: SmoothFunction) -> "ProblemInstance":
        if f0.dim != F.dim:
            raise InvalidArgumentError(
                f"preference dim {f0.dim} does not match objective dim {F.dim}"
            )
        return cls(F=F, f0=f0, bundle=derive_constants(F, f0))


def scalarize(F: ObjectiveSet, beta) -> SmoothFunction:
    """Convex combination sum_i beta_i f_i with the bundle constants of F.

    ``value``, ``grad`` and ``hess`` weight the set's stacked evaluations
    of all objectives at once.  ``grad`` adds the weighted gradients in
    objective order, so it rounds exactly as the running sum
    sum_i beta_i grad f_i(x); ``value`` and ``hess`` are one contraction
    each and agree with that sum to rounding.
    """
    w = np.asarray(getattr(beta, "weights", beta), dtype=float)
    if w.shape != (F.n,):
        raise InvalidArgumentError(f"beta has {w.shape} weights, expected ({F.n},)")

    def value(x):
        return float(w @ F._values(x))

    def grad(x):
        return np.cumsum(w[:, None] * F._gradients(x), axis=0)[-1]

    def hess(x):
        return (w @ F._hessians(x).reshape(F.n, -1)).reshape(F.dim, F.dim)

    return SmoothFunction(
        dim=F.dim,
        value=value,
        grad=grad,
        hess=hess,
        mu=F.mu,
        L=F.L,
        L_H=F.L_H,
        minimizer_hint=w @ F.minimizers,
    )
