import itertools
import sys
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paretomm import (
    InvalidArgumentError,
    NumericalFailureError,
    SimplexPoint,
    SimplexQuadratic,
    StationarityCertificate,
    l1_stationarity_gap,
    l2_tangent_gap,
    min_norm_over_simplex,
    minimize_quadratic_over_simplex,
    project_to_simplex,
)
from paretomm.simplex import _project_tangent_cone


def random_simplex(rng, n):
    return SimplexPoint(rng.dirichlet(np.ones(n)))


class TestSimplexPoint:
    def test_renormalizes(self):
        p = SimplexPoint(np.array([2.0, 2.0]))
        np.testing.assert_allclose(p.weights, [0.5, 0.5])
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint(np.array([1.0, -0.5]))

    @pytest.mark.parametrize(
        "w", [[1.0, np.nan], [np.inf, 1.0], [1e308, 1e308]], ids=["nan", "inf", "overflowing-sum"]
    )
    def test_rejects_non_finite(self, w):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SimplexPoint(np.array(w))

    @pytest.mark.parametrize(
        "w, match",
        [([], "nonempty vector"), ([[0.5, 0.5]], "nonempty vector"), ([0.0, 0.0], "sum to zero")],
        ids=["empty", "matrix", "zeros"],
    )
    def test_rejects_malformed(self, w, match):
        with pytest.raises(InvalidArgumentError, match=match):
            SimplexPoint(np.array(w))

    def test_immutable(self):
        p = SimplexPoint.uniform(3)
        with pytest.raises(ValueError):
            p.weights[0] = 2.0


class TestProjection:
    def test_interior_shift(self):
        p = project_to_simplex(np.array([0.2, 0.3]))
        np.testing.assert_allclose(p.weights, [0.45, 0.55], atol=1e-15)

    def test_member_fixed(self, rng):
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            np.testing.assert_allclose(project_to_simplex(w).weights, w, atol=1e-15)

    def test_clamping_case(self):
        p = project_to_simplex(np.array([2.0, -1.0]))
        np.testing.assert_allclose(p.weights, [1.0, 0.0], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            project_to_simplex(np.array([]))

    @pytest.mark.parametrize("y", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, -np.inf]],
                             ids=["posinf", "nan", "all-neginf"])
    def test_no_finite_maximum_rejected(self, y):
        with pytest.raises(InvalidArgumentError):
            project_to_simplex(np.array(y))

    def test_neginf_entry_gets_zero_weight(self):
        p = project_to_simplex(np.array([1.0, -np.inf, 0.5]))
        np.testing.assert_array_equal(p.weights, [0.75, 0.0, 0.25])

    @pytest.mark.parametrize("scale", [1e16, 6.25e148, 1e300])
    def test_entries_dwarfing_one(self, scale):
        # the "- 1" of the threshold test is lost to rounding at this scale
        p = project_to_simplex(np.array([-scale, scale]))
        np.testing.assert_array_equal(p.weights, [0.0, 1.0])
        p = project_to_simplex(np.array([scale, scale, -scale]))
        np.testing.assert_array_equal(p.weights, [0.5, 0.5, 0.0])

    def test_optimality_brute_force(self, rng):
        # projection is at least as close as 100 random simplex points
        for _ in range(100):
            n = int(rng.integers(2, 6))
            y = rng.normal(size=n) * 2
            p = project_to_simplex(y)
            dist = np.linalg.norm(p.weights - y)
            for _ in range(100):
                q = rng.dirichlet(np.ones(n))
                assert dist <= np.linalg.norm(q - y) + 1e-12


class TestL1Gap:
    def test_zero_gradient(self, rng):
        beta = random_simplex(rng, 4)
        assert l1_stationarity_gap(np.zeros(4), beta) == 0.0

    def test_vertex_base_point(self):
        gap = l1_stationarity_gap(np.array([-1.0, 0.0]), SimplexPoint(np.array([0.0, 1.0])))
        assert gap == pytest.approx(0.5)

    def test_balanced_gradient(self):
        gap = l1_stationarity_gap(np.array([1.0, 1.0]), SimplexPoint(np.array([0.5, 0.5])))
        assert gap == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "v", [[np.nan, 0.0], [0.0, np.nan], [np.inf, np.inf], [-np.inf, -np.inf]]
    )
    def test_non_finite_gradient_is_not_stationary(self, v):
        gap = l1_stationarity_gap(np.array(v), SimplexPoint(np.array([0.5, 0.5])))
        assert np.isnan(gap)
        cert = StationarityCertificate(
            residual=0.0, gap=gap, err=0.0, eps=1.0, gap_budget=1.0, err_budget=1.0
        )
        assert not cert.passed

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dimensions disagree"):
            l1_stationarity_gap(np.zeros(3), SimplexPoint.uniform(2))

    def test_soundness_property(self, rng):
        # -v^T (b' - b) <= (gap + tol) * ||b' - b||_1 for random triples
        for _ in range(200):
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n)
            beta = random_simplex(rng, n)
            gap = l1_stationarity_gap(v, beta)
            other = random_simplex(rng, n)
            diff = other.weights - beta.weights
            assert -v @ diff <= (gap + 1e-12) * np.abs(diff).sum()


class TestQuadraticSolver:
    @pytest.mark.parametrize(
        "linear, curvature, match",
        [
            (np.zeros(2), 0.0, "curvature must be positive"),
            (np.zeros(2), -1.0, "curvature must be positive"),
            (np.zeros(3), 1.0, "dimensions disagree"),
        ],
        ids=["zero-curvature", "negative-curvature", "long-linear"],
    )
    def test_invalid_model_rejected(self, linear, curvature, match):
        with pytest.raises(InvalidArgumentError, match=match):
            SimplexQuadratic(anchor=SimplexPoint.uniform(2), linear=linear, curvature=curvature)

    @pytest.mark.parametrize("tol_gap", [0.0, -1e-12])
    def test_nonpositive_tolerance_rejected(self, tol_gap):
        Q = SimplexQuadratic(anchor=SimplexPoint.uniform(2), linear=np.zeros(2), curvature=1.0)
        with pytest.raises(InvalidArgumentError, match="tol_gap must be positive"):
            minimize_quadratic_over_simplex(Q, tol_gap=tol_gap)

    def test_zero_linear_returns_anchor(self):
        anchor = SimplexPoint(np.array([0.3, 0.7]))
        Q = SimplexQuadratic(anchor=anchor, linear=np.zeros(2), curvature=1.0)
        beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        np.testing.assert_allclose(beta.weights, anchor.weights, rtol=0.0, atol=1e-15)
        assert gap == 0.0

    def test_projected_step_to_vertex(self):
        # anchor (1/2,1/2), v=(1,-1), C=1: lands on (0,1) with zero gap
        Q = SimplexQuadratic(
            anchor=SimplexPoint(np.array([0.5, 0.5])),
            linear=np.array([1.0, -1.0]),
            curvature=1.0,
        )
        beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        np.testing.assert_allclose(beta.weights, [0.0, 1.0], atol=1e-15)
        assert gap <= 1e-12
        grad = Q.grad_at(beta)
        np.testing.assert_allclose(grad, [0.5, -0.5], atol=1e-15)

    def test_interior_minimizer(self):
        Q = SimplexQuadratic(
            anchor=SimplexPoint(np.array([0.5, 0.5])),
            linear=np.array([0.1, -0.1]),
            curvature=1.0,
        )
        beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        np.testing.assert_allclose(beta.weights, [0.4, 0.6], atol=1e-12)
        assert gap <= 1e-12

    def test_l1_gap_met_at_return(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            Q = SimplexQuadratic(
                anchor=random_simplex(rng, n),
                linear=rng.normal(size=n),
                curvature=float(rng.uniform(0.5, 5.0)),
            )
            beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-9)
            assert l1_stationarity_gap(Q.grad_at(beta), beta) <= 1e-9

    def test_tolerance_below_rounding_returns_exact_minimizer(self):
        # a tolerance below rounding resolution still gets the exact
        # minimizer, reported with gap 0.0; its recomputed gap is rounding
        # noise
        Q = SimplexQuadratic(
            anchor=SimplexPoint(np.array([0.9, 0.1])),
            linear=np.array([5.0, -5.0]),
            curvature=1000.0,
        )
        beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-300)
        np.testing.assert_allclose(beta.weights, [0.895, 0.105], atol=1e-14)
        assert gap == 0.0
        assert l2_tangent_gap(Q.grad_at(beta), beta) <= 1e-12

    def test_descent_lemma(self, rng):
        # when the solver moves distance t from the anchor, the value drops
        # by at least 0.5 * C * t^2
        for _ in range(200):
            n = int(rng.integers(2, 5))
            Q = SimplexQuadratic(
                anchor=random_simplex(rng, n),
                linear=rng.normal(size=n) * 2,
                curvature=float(rng.uniform(0.5, 5.0)),
            )
            beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
            t = np.linalg.norm(beta.weights - Q.anchor.weights)
            if t > 0:
                drop = Q.value_at(beta) - Q.value_at(Q.anchor)
                assert drop <= -0.5 * Q.curvature * t**2 + 1e-10

    def test_approx_stationary_iterate_near_minimizer(self, rng):
        # an iterate with l2 tangent gap eps sits within eps/C of the minimizer
        for _ in range(200):
            n = int(rng.integers(2, 5))
            Q = SimplexQuadratic(
                anchor=random_simplex(rng, n),
                linear=rng.normal(size=n),
                curvature=float(rng.uniform(0.5, 5.0)),
            )
            star, _ = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
            hat = random_simplex(rng, n)
            eps = l2_tangent_gap(Q.grad_at(hat), hat)
            assert np.linalg.norm(hat.weights - star.weights) <= eps / Q.curvature + 1e-9


def _brute_force_minimum(anchor, linear, A):
    """Least model value over the simplex: every support's KKT system, solved and kept if feasible."""
    n = anchor.size
    best = np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            S = list(support)
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = A[np.ix_(S, S)]
            K[:size, size] = K[size, :size] = 1.0
            rhs = np.append(A[S] @ anchor - linear[S], 1.0)
            beta = np.zeros(n)
            beta[S] = np.linalg.solve(K, rhs)[:size]
            if beta.min() >= -1e-12:
                d = beta - anchor
                best = min(best, float(linear @ d) + 0.5 * float(d @ A @ d))
    return best


class TestMetricQuadratic:
    """The Gauss-Newton model linear^T d + 0.5 d^T (metric + curvature I) d, minimized by active sets."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        rank=st.integers(0, 6),
        curvature=st.sampled_from([1e-6, 1e-2, 1.0, 100.0]),
        scale=st.sampled_from([1e-3, 1.0, 100.0]),
        zeros=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_support_enumeration(self, n, rank, curvature, scale, zeros, seed):
        # a metric of rank below n is singular; a large linear term puts the
        # optimum on a vertex or an edge, and zero anchor weights start the
        # working set nonempty
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(min(rank, n), n))
        metric = R.T @ R
        w = rng.dirichlet(np.ones(n))
        w[rng.permutation(n)[: min(zeros, n - 1)]] = 0.0
        Q = SimplexQuadratic(SimplexPoint(w), rng.normal(size=n) * scale, curvature, metric)
        blocked = {name: None for name in [*sys.modules, "scipy"] if name.split(".")[0] == "scipy"}
        with mock.patch.dict(sys.modules, blocked):  # any scipy import raises
            beta, gap = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        assert gap == 0.0
        A = metric + curvature * np.eye(n)
        best = _brute_force_minimum(Q.anchor.weights, Q.linear, A)
        tol = 1e-9 * (1.0 + scale + float(np.abs(A).max()))
        assert abs(Q.value_at(beta) - best) <= tol

    def test_restart_cuts_the_solves_from_a_uniform_anchor(self, monkeypatch):
        # from the uniform anchor the optimum zeroes 8 of 12 weights; walking
        # there one blocking weight at a time takes 9 KKT solves, restarting at
        # the projected isotropic step takes 2
        rng = np.random.default_rng(10)
        R = rng.normal(size=(4, 12))
        Q = SimplexQuadratic(SimplexPoint.uniform(12), rng.normal(size=12), 0.1, R.T @ R)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
        beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        assert 2 <= len(calls) <= 3
        assert int((beta.weights == 0.0).sum()) >= 7
        best = _brute_force_minimum(Q.anchor.weights, Q.linear, Q.metric + Q.curvature * np.eye(12))
        assert abs(Q.value_at(beta) - best) <= 1e-12

    def test_restart_after_a_freed_weight(self):
        # the first solve frees weight 0 and the second is blocked: the restart
        # moves to another face, where the freed weight's marker no longer
        # applies; keeping it there returns the restart point, 0.37 above the minimum
        rng = np.random.default_rng(50)
        R = rng.normal(size=(8, 8))
        w = rng.dirichlet(np.ones(8))
        w[rng.permutation(8)[:5]] = 0.0
        Q = SimplexQuadratic(SimplexPoint(w), rng.normal(size=8), 1e-2, R.T @ R)
        beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        best = _brute_force_minimum(Q.anchor.weights, Q.linear, Q.metric + Q.curvature * np.eye(8))
        assert abs(Q.value_at(beta) - best) <= 1e-12

    def test_exact_on_a_two_weight_line(self):
        # along d = t (1, -1) the model is 0.5 t^2 (4 + 2 * 0.5) - 2 t, minimized at t = 0.4,
        # where the gradient vanishes
        Q = SimplexQuadratic(
            anchor=SimplexPoint(np.array([0.5, 0.5])),
            linear=np.array([-1.0, 1.0]),
            curvature=0.5,
            metric=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        beta, _ = minimize_quadratic_over_simplex(Q, tol_gap=1e-12)
        np.testing.assert_allclose(beta.weights, [0.9, 0.1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(Q.grad_at(beta), [0.0, 0.0], atol=1e-15)


class TestMinNormOverSimplex:
    def test_matches_sampling_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            G = rng.normal(size=(3, n))
            _, val = min_norm_over_simplex(G)
            for _ in range(300):
                w = rng.dirichlet(np.ones(n))
                assert val <= np.linalg.norm(G @ w) + 1e-10

    def test_exact_zero_for_balanced_columns(self):
        G = np.column_stack([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        beta, val = min_norm_over_simplex(G)
        assert val <= 1e-14
        np.testing.assert_allclose(beta.weights, [0.5, 0.5], atol=1e-12)


    @pytest.mark.parametrize(
        "G, error, match",
        [
            ([[1.0, np.nan], [0.0, 1.0]], NumericalFailureError, "non-finite data"),
            (np.zeros((2, 0)), InvalidArgumentError, "at least one column"),
            # the solve underflows to no weight at all on columns near the float range
            ([[1e300, 1e300], [1e300, -1e300]], NumericalFailureError, "lost every weight"),
        ],
        ids=["nan-column", "no-columns", "near-float-range"],
    )
    def test_invalid_columns_rejected(self, G, error, match):
        with pytest.raises(error, match=match):
            min_norm_over_simplex(np.array(G))


class TestSolverKKTProperties:
    """KKT conditions of the exact sub-solvers, up to 16 coordinates."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 16).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.float64, n, elements=st.floats(-10, 10)),
                hnp.arrays(np.bool_, n),
            )
        )
    )
    def test_tangent_cone_projection(self, case):
        q, active = case
        assume(not active.all())
        u = _project_tangent_cone(q, active)
        tol = 1e-12 * (1.0 + np.abs(q).sum())
        # feasible: zero sum, nonnegative on the active coordinates
        assert abs(u.sum()) <= tol
        assert np.all(u[active] >= -tol)
        # q - u = tau * 1 - lam with lam >= 0 on the active coordinates and
        # lam_i u_i = 0: constant on free coordinates and on active ones
        # with u_i > 0, no larger than that constant on the rest
        s = q - u
        tau = s[~active].mean()
        support = ~active | (u > tol)
        np.testing.assert_allclose(s[support], tau, rtol=0, atol=tol)
        assert np.all(s[active] <= tau + tol)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 16)).flatmap(
            lambda dn: hnp.arrays(np.float64, dn, elements=st.floats(-10, 10))
        )
    )
    # scipy 1.17.1's nnls returns a lifted solution that breaks its own KKT
    # conditions here, beta = (0.235, 0, 0.765) at norm 3.340 against 3.1199 at e0
    @example(np.array([[0.0, 0.5, -1.5599511170415852]] + 4 * [[-1.5599511170415852] * 3]))
    # here its solution meets w = E^T (E y - e_{d+1}) >= 0 but has w_3 = 0.089
    # on the support: beta = (0, 0.675, 0.325) at norm 5.601 against 5.529
    @example(np.array([[0.0, 0.0, -2.764365495516218]] + 4 * [[-2.764365495516218] * 3]))
    def test_min_norm_point(self, G):
        beta, _ = min_norm_over_simplex(G)
        w = beta.weights
        # the gradient G^T G beta is minimal on beta's support, no smaller off it
        grad = G.T @ (G @ w)
        tol = 1e-9 * (1.0 + np.linalg.norm(G) ** 2)
        assert np.all(grad[w > 0] <= grad.min() + tol)
