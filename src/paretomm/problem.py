"""Problem instances: smooth functions, objective sets, and derived constants.

An objective set holds n strongly convex objectives together with the
smoothness bundle (mu, L, L_H, r) that every solver bound is computed from.
The preference function is a separate smooth function with its own gradient
Lipschitz constant L0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError

# Lipschitz constant of d/dt sech^2(t), attained at t = atanh(1/sqrt(3)).
LOG_COSH_HESS_LIPSCHITZ = 4.0 / (3.0 * np.sqrt(3.0))


@dataclass(eq=False)
class Family:
    """f(x) = 0.5 (x - z)^T H (x - z) + c * sum_i log cosh(x_i - z_i), minimized at z with f(z) = 0.

    A built-in function holds H (d, d), z (d,) and a 0-d c; an objective
    set stacks n of them as H (n, d, d), z (n, d) and c (n,).  ``c`` is None
    when every weight is 0: a quadratic.  ``values``, ``gradients`` and
    ``hessians`` broadcast over that leading stack axis.  The gradient keeps
    the centred form H (x - z), whose matrix-vector product rounds the same
    stacked or not.
    """

    H: np.ndarray
    z: np.ndarray
    c: Optional[np.ndarray] = None

    def values(self, x: np.ndarray):
        D = np.asarray(x, dtype=float) - self.z
        v = 0.5 * np.matmul(D[..., None, :], np.matmul(self.H, D[..., None]))[..., 0, 0]
        if self.c is not None:  # log cosh(t) = |t| + log1p(exp(-2|t|)) - log 2, stable for large |t|
            a = np.abs(D)
            v = v + self.c * (a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)).sum(axis=-1)
        return v

    def gradients(self, x: np.ndarray) -> np.ndarray:
        D = np.asarray(x, dtype=float) - self.z
        G = np.matmul(self.H, D[..., None])[..., 0]
        if self.c is not None:
            G = G + self.c[..., None] * np.tanh(D)
        return G

    def hessians(self, x: np.ndarray) -> np.ndarray:
        if self.c is None:
            return self.H
        with np.errstate(over="ignore"):  # cosh overflows past |t| ~ 710, its square past ~355
            sech2 = 1.0 / np.cosh(np.asarray(x, dtype=float) - self.z) ** 2
        return self.H + self.c[..., None, None] * (sech2[..., :, None] * np.eye(self.H.shape[-1]))


@dataclass(eq=False)
class SmoothFunction:
    """Twice-differentiable scalar function on R^d with declared constants.

    ``mu``/``L``/``L_H`` are the strong convexity, gradient-Lipschitz and
    Hessian-Lipschitz constants; ``None`` means undeclared.  Declared
    constants are trusted (analytic families compute them exactly) and only
    spot-checked by the test suite.  ``minimizer_hint`` is the exact minimizer
    of an objective, and the Newton warm start of a scalarization.
    ``family`` is the ``Family`` whose methods a built-in function's
    ``value``, ``grad`` and ``hess`` are; ``family_of`` reads it only while
    they still are and the hint is still its centre z, so a
    ``dataclasses.replace`` copy that swaps either is evaluated as it is.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    mu: Optional[float] = None
    L: Optional[float] = None
    L_H: Optional[float] = None
    minimizer_hint: Optional[np.ndarray] = None
    family: Optional[Family] = None


def family_of(f: SmoothFunction) -> Optional[Family]:
    """``f.family`` while f evaluates by it and is hinted at its centre z, else None."""
    fam = f.family
    if fam is None or (f.value, f.grad, f.hess) != (fam.values, fam.gradients, fam.hessians):
        return None
    return fam if np.array_equal(f.minimizer_hint, fam.z) else None


def quadratic_from_hessian(H: np.ndarray, z: np.ndarray) -> SmoothFunction:
    """Quadratic f(x) = 0.5 * (x - z)^T H (x - z) with the given Hessian H.

    ``H`` and ``z`` must be finite, ``H`` square, ``z`` a vector of its
    order, and ``H`` symmetric to 1e-12 relative and positive definite:
    lambda_min(H) > 1e-24 * lambda_max(H).  ``grad`` and ``hess`` use
    ``H`` itself; mu = lambda_min(H), L = lambda_max(H), L_H = 0.
    """
    return make_log_cosh_quadratic(H, z, 0.0)


def make_quadratic(A: np.ndarray, z: np.ndarray) -> SmoothFunction:
    """``quadratic_from_hessian(A^T A, z)``: f(x) = 0.5 * ||A (x - z)||^2.

    ``A`` must be finite, square and full rank: smallest singular value > 1e-12 times the largest.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():  # NaN makes the SVD raise LinAlgError
        raise InvalidArgumentError("A must be finite")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {A.shape}")
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise InvalidArgumentError("A is rank deficient")
    return quadratic_from_hessian(A.T @ A, z)


def make_log_cosh_quadratic(H: np.ndarray, z: np.ndarray, c: float) -> SmoothFunction:
    """Quadratic plus c * sum_i log cosh(x_i - z_i); still minimized at z.

    ``H`` and ``z`` are checked as in ``quadratic_from_hessian``, and c is
    a finite real number >= 0, not a boolean or an array.  The
    perturbation is convex with Hessian diag(sech^2), so mu = lambda_min(H),
    L = lambda_max(H) + c, and the Hessian is Lipschitz with constant
    c * 4/(3*sqrt(3)).
    """
    H = np.array(H, dtype=float)
    z = np.array(z, dtype=float)
    if not (np.isfinite(H).all() and np.isfinite(z).all()):
        raise InvalidArgumentError("H and z must be finite")
    if isinstance(c, bool) or not isinstance(c, numbers.Real):  # np.bool_ is not Real
        raise InvalidArgumentError(f"c must be a real number, got {type(c).__name__}")
    if not np.isfinite(c):
        raise InvalidArgumentError("c must be finite")
    if c < 0:
        raise InvalidArgumentError("c must be nonnegative")
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidArgumentError(f"H must be square, got shape {H.shape}")
    if z.shape != (H.shape[0],):
        raise InvalidArgumentError("H and z dimensions disagree")
    if np.abs(H - H.T).max() > 1e-12 * max(1.0, np.abs(H).max()):
        raise InvalidArgumentError("H must be symmetric")
    eigs = np.linalg.eigvalsh(H)
    if not eigs[0] > 1e-24 * eigs[-1]:
        raise InvalidArgumentError("H is not positive definite")
    family = Family(H, z, np.array(float(c)) if c else None)
    return SmoothFunction(
        dim=z.shape[0],
        value=family.values,
        grad=family.gradients,
        hess=family.hessians,
        mu=float(eigs[0]),
        L=float(eigs[-1]) + c,
        L_H=c * LOG_COSH_HESS_LIPSCHITZ,
        minimizer_hint=z.copy(),
        family=family,
    )


def norm_1_2(M: np.ndarray) -> float:
    """l1 -> l2 operator norm of a d x n matrix: the largest column l2 norm."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(M, axis=0)))


@dataclass(eq=False)
class ObjectiveSet:
    """The n objectives with their shared constant bundle and exact minimizer hints.

    When ``family_of`` reads every objective, ``family`` stacks them (see
    ``Family``, with z the minimizers), and the values, gradients and
    Hessians of all objectives are array expressions in x - minimizers.
    Otherwise it is None and each objective is called in turn.  The stacked
    gradients round exactly as each objective's own ``grad``.
    """

    objectives: tuple
    mu: float
    L: float
    L_H: float
    minimizers: np.ndarray  # (n, d)
    r: float
    family: Optional[Family] = None

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
        if self.family is None:
            return np.array([f.value(x) for f in self.objectives])
        return self.family.values(x)

    def _gradients(self, x: np.ndarray) -> np.ndarray:
        """(n, d) rows grad f_i(x)."""
        if self.family is None:
            return np.array([f.grad(x) for f in self.objectives])
        return self.family.gradients(x)

    def _hessians(self, x: np.ndarray) -> np.ndarray:
        """(n, d, d) Hessians of f_i at x."""
        if self.family is None:
            return np.array([f.hess(x) for f in self.objectives])
        return self.family.hessians(x)

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
        with np.errstate(over="ignore"):  # centres far apart give r = inf, which the bundle rejects
            for a in minimizers:
                D = minimizers - a
                r = max(r, float(np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).max())))
        family = None
        families = [family_of(f) for f in objectives]
        if all(fam is not None for fam in families):
            H = np.array([fam.H for fam in families])
            H.setflags(write=False)
            c = np.array([0.0 if fam.c is None else fam.c for fam in families])
            c.setflags(write=False)
            family = Family(H, minimizers, c if c.any() else None)
        return cls(
            objectives=objectives, mu=mu, L=L, L_H=L_H, minimizers=minimizers, r=r, family=family
        )


@dataclass
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
    kappa = np.float64(F.kappa)  # numpy floats overflow to inf where Python's ** raises
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.sqrt(kappa) * F.r
        M0 = kappa * R
        M1 = 2.0 * kappa**2 * R * (1.0 + F.L_H * R / F.mu)
        mu_g = F.n * f0.L * M1
    if not np.all(np.isfinite([R, M0, M1, mu_g])):
        raise InvalidArgumentError("constants: the derived bundle is not finite")
    return ConstantBundle(R_bound=float(R), M0=float(M0), M1=float(M1), mu_g=float(mu_g))


@dataclass(eq=False)
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


def weighted_sum(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i w_i stack[i], as one contraction over the leading axis (for a Hessian stack, (n, d, d))."""
    return (w @ stack.reshape(w.size, -1)).reshape(stack.shape[1:])


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
        return weighted_sum(w, F._hessians(x))

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
