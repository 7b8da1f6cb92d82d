import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretomm import (
    InfeasibleError,
    InvalidArgumentError,
    NumericalFailureError,
    ObjectiveSet,
    PngConfig,
    build_impossibility_instance,
    is_pareto_generic,
    is_preference_generic,
    min_norm_over_simplex,
    png_descent,
    png_vector,
    quadratic_from_hessian,
    sample_preference_generic,
)
from paretomm import baselines, simplex
from paretomm.baselines import COLLINEARITY_TOL, _PngState, rotation_map
from paretomm.problem_io import png_counterexample_problem, problem_from_spec, random_problem_spec

from conftest import random_logcosh_problem

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _ulp_start(coordinate, k):
    x = np.array([0.2, 0.9])
    x[coordinate] += k * np.spacing(x[coordinate])  # the spacing is the same on both sides of 0.2 and 0.9
    return x


# PNG starts on png-example: ulp neighbours of the benchmark's (0.2, 0.9),
# which take its 769 iterations, and seeded uniform starts in [0, 0.4] x [0.6, 1.2]
_rng = np.random.default_rng(0)
UNIFORM_STARTS = np.column_stack([_rng.uniform(0.0, 0.4, 30), _rng.uniform(0.6, 1.2, 30)])
NEAR_BENCHMARK_STARTS = [
    pytest.param(_ulp_start(i, k), 769, id=f"ulp-{'xy'[i]}{k:+d}")
    for i, k in ((0, -3), (0, 7), (0, 10), (1, -9), (1, -5), (1, -1), (1, 1), (1, 4), (1, 9))
] + [pytest.param(UNIFORM_STARTS[i], None, id=f"uniform-{i}") for i in (0, 1, 4, 17, 20, 26, 27, 28, 29)]


def dual_projected_gradient_png(G, g0, c, iters=40_000):
    """Independent check: maximize the dual of the projection problem.

    The dual of min 0.5||g0 - v||^2 over {G v >= c} is concave in the
    multipliers lam >= 0 with v = g0 + G^T lam; projected gradient ascent
    with momentum converges for feasible problems.
    """
    n = G.shape[0]
    lam = np.zeros(n)
    prev = lam.copy()
    lip = max(np.linalg.norm(G @ G.T, 2), 1e-12)
    step = 1.0 / lip
    for k in range(iters):
        mom = lam + (k / (k + 3.0)) * (lam - prev)
        grad = c - G @ (g0 + G.T @ mom)
        prev = lam
        lam = np.maximum(mom + step * grad, 0.0)
    return g0 + G.T @ lam


class TestPngVector:
    def test_unconstrained_when_already_feasible(self, png_instance):
        # far from the stationary set the raw preference gradient satisfies
        # all alignment constraints
        x = np.array([5.0, 5.0])
        v = png_vector(png_instance.F, png_instance.f0, x, c=0.01)
        np.testing.assert_allclose(v, png_instance.f0.grad(x), atol=1e-12)

    def test_both_active_in_conflict_region(self, png_instance):
        # near the stationary segment both constraints bind and the vertex
        # solution satisfies grad f_i(x)^T v = c exactly, hence e1^T H v = 0
        H = np.array([[1.0, 1.0], [1.0, 2.0]])
        x = np.array([0.6, 0.2])
        c = 0.01
        v = png_vector(png_instance.F, png_instance.f0, x, c)
        for f in png_instance.F.objectives:
            assert f.grad(x) @ v == pytest.approx(c, abs=1e-10)
        assert E1 @ (H @ v) == pytest.approx(0.0, abs=1e-10)

    def test_single_halfspace_projection(self):
        from paretomm import ObjectiveSet, make_quadratic

        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), -E1)])
        f0 = make_quadratic(np.eye(2), np.zeros(2))
        # at x = 0: grad f1 = e1, grad f0 = 0, constraint e1^T v >= 1
        v = png_vector(F, f0, np.zeros(2), c=1.0)
        np.testing.assert_allclose(v, E1, atol=1e-12)

    def test_infeasible_opposing_gradients(self, identity_pair):
        # on the stationary segment the two gradients are antiparallel
        with pytest.raises(InfeasibleError):
            png_vector(identity_pair.F, identity_pair.f0, np.array([0.2, 0.0]), c=1.0)

    @pytest.mark.parametrize("c", [0.0, -0.01])
    def test_nonpositive_margin_rejected(self, png_instance, c):
        with pytest.raises(InvalidArgumentError, match="c must be positive"):
            png_vector(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), c)

    def test_no_size_limit(self, identity_pair):
        from paretomm import ObjectiveSet, make_quadratic

        objs = [make_quadratic(np.eye(2), np.array([np.cos(t), np.sin(t)])) for t in np.linspace(0, 1, 21)]
        F = ObjectiveSet.from_objectives(objs)
        x, c = np.array([3.0, 3.0]), 0.1
        v = png_vector(F, identity_pair.f0, x, c)
        G = F.jacobian_T(x).T
        assert np.min(G @ v - c) >= -1e-9
        v_dual = dual_projected_gradient_png(G, identity_pair.f0.grad(x), c)
        assert np.linalg.norm(v - v_dual) <= 1e-6 * max(1.0, np.linalg.norm(v))

    def test_nnls_iteration_limit_is_a_numerical_failure(self, png_instance, monkeypatch):
        # with no pass allowed, any solve that must free a column hits the cap
        monkeypatch.setattr(simplex, "_NNLS_PASSES", 0)
        x = np.array([0.2, 0.9])
        with pytest.raises(NumericalFailureError, match="NNLS"):
            min_norm_over_simplex(png_instance.F.jacobian_T(x))
        with pytest.raises(NumericalFailureError, match="NNLS"):
            png_vector(png_instance.F, png_instance.f0, x, 0.01)

    @staticmethod
    def _badly_scaled_draw(index):
        # rows scaled across twelve decades, n 6, d 4; draw ``index`` (0-based) of default_rng(0)
        n, d = 6, 4
        draws = np.random.default_rng(0)
        for _ in range(index + 1):
            G = 10 ** draws.uniform(-6, 6, (n, 1)) * draws.normal(size=(n, d))
            g0 = draws.normal(size=d)
            c = 10 ** draws.uniform(-3, 0)
        F = ObjectiveSet.from_objectives([quadratic_from_hessian(np.eye(d), -g) for g in G])
        return F, quadratic_from_hessian(np.eye(d), -g0), np.zeros(d), c

    def test_badly_scaled_rows_are_solved_past_scipys_default_limit(self):
        # scipy's nnls stopped this draw at its default limit of 3n iterations
        F, f0, x, c = self._badly_scaled_draw(21201)
        G = F.jacobian_T(x).T
        v = png_vector(F, f0, x, c)
        assert np.all(G @ v - c >= -1e-12 * (np.abs(G) @ np.abs(v) + c))

    @pytest.mark.parametrize("index", [14355, 19516])
    def test_ill_conditioned_draws_meet_every_constraint(self, index):
        # v read off the lifted NNLS residual, -r[d] ~ 2e-11, broke G v >= c
        # here by 0.0099 at c 0.519 and by 3.13 at c 0.316; the solve on the
        # active rows meets every constraint to 1e-12 relative
        F, f0, x, c = self._badly_scaled_draw(index)
        G = F.jacobian_T(x).T
        v = png_vector(F, f0, x, c)
        assert np.all(G @ v - c >= -1e-12 * (np.abs(G) @ np.abs(v) + c))

    @pytest.mark.parametrize("index", [8615, 13602, 14053, 14726, 15116, 15225])
    def test_empty_halfspaces_are_infeasible(self, index):
        # the NNLS frees d + 1 = 5 columns here, so the lifted system is
        # solved exactly and its residual is 0 up to rounding, whether or
        # not 1 - h^T u reads above 1e-12; where it did, the face solve on
        # those rows broke G v >= c by 0.05 to 1.0 of |G_i| |v| + c, and a
        # linear program finds no point in the halfspaces
        F, f0, x, c = self._badly_scaled_draw(index)
        with pytest.raises(InfeasibleError):
            png_vector(F, f0, x, c)

    def test_singular_guessed_face_falls_through_to_the_nnls(self, monkeypatch):
        # rows 0 and 1 are equal, so the guessed face's Gram matrix is
        # singular; the NNLS finds the one-row face instead
        G = np.array([[1.0, 0.5], [1.0, 0.5], [-0.3, 1.0]])
        g0, c = np.array([-1.0, -0.2]), 0.1
        calls = []

        def counted(top, last):
            calls.append(1)
            return simplex._nnls_lift(top, last)

        monkeypatch.setattr(baselines, "_nnls_lift", counted)
        v, lam = baselines._png_vector_from_grads(G, g0, c, np.array([True, True, False]))
        assert len(calls) == 1
        v_none, lam_none = baselines._png_vector_from_grads(G, g0, c)
        np.testing.assert_array_equal(v, v_none)
        np.testing.assert_array_equal(lam, lam_none)
        np.testing.assert_allclose(v, [-0.04, 0.28], atol=1e-15)

    def test_kkt_against_dual_ascent(self, rng, png_instance):
        checked = 0
        while checked < 10:
            x = rng.normal(size=2) * 1.5
            if abs(x[1]) < 0.3:
                continue  # keep the dual well conditioned away from the segment
            G = png_instance.F.jacobian_T(x).T
            g0 = png_instance.f0.grad(x)
            c = float(rng.uniform(0.005, 0.05))
            try:
                v = png_vector(png_instance.F, png_instance.f0, x, c)
            except InfeasibleError:
                continue
            v_dual = dual_projected_gradient_png(G, g0, c)
            assert np.linalg.norm(v - v_dual) <= 1e-6 * max(1.0, np.linalg.norm(v))
            assert np.min(G @ v - c) >= -1e-9
            checked += 1


class TestNnlsAgainstScipy:
    """The numpy NNLS reductions meet their KKT conditions and agree with scipy's ``nnls``."""

    @staticmethod
    def _lifted(top, last):
        # scipy's solution of [top; last] u ~ e_{d+1}, with a generous iteration limit
        from scipy.optimize import nnls

        E = np.vstack([top, last])
        target = np.zeros(E.shape[0])
        target[-1] = 1.0
        u = nnls(E, target, maxiter=50 * E.shape[1])[0]
        return u, E @ u - target

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        decades=st.sampled_from([0.0, 3.0]),
    )
    def test_png_vector(self, n, d, seed, decades):
        # rows scaled across up to six decades; the constraints G v >= c at
        # x = 0, where the objectives 0.5 |x + g_i|^2 have gradients g_i
        rng = np.random.default_rng(seed)
        G = 10 ** rng.uniform(-decades, decades, (n, 1)) * rng.normal(size=(n, d))
        g0 = rng.normal(size=d)
        c = 10 ** rng.uniform(-3, 0)
        F = ObjectiveSet.from_objectives([quadratic_from_hessian(np.eye(d), -g) for g in G])
        f0 = quadratic_from_hessian(np.eye(d), -g0)
        _, r = self._lifted(G.T, c - G @ g0)
        if -r[d] <= 1e-6:  # infeasible, or |v - g0| of 1e3 and more: scipy's v loses digits
            return
        v = png_vector(F, f0, np.zeros(d), c)
        np.testing.assert_allclose(v, g0 - r[:d] / r[d], rtol=1e-8, atol=1e-8 * np.linalg.norm(g0))
        _, lam = baselines._png_vector_from_grads(G, g0, c)
        # the levels c - G g0 carry the rounding of G g0
        scale = np.abs(G) @ (np.abs(v) + np.abs(g0)) + c
        slack = G @ v - c
        assert lam.min() >= 0.0
        assert np.all(slack >= -1e-12 * scale)
        assert np.all(np.abs(slack[lam > 0]) <= 1e-10 * scale[lam > 0])
        atol = 1e-10 * (np.abs(G).T @ lam + np.abs(g0)).max()
        np.testing.assert_allclose(v, g0 + G.T @ lam, rtol=0, atol=atol)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        decades=st.sampled_from([0.0, 3.0]),
    )
    def test_min_norm_over_simplex(self, n, d, seed, decades):
        # columns scaled across up to six decades
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(d, n)) * 10 ** rng.uniform(-decades, decades, n)
        beta, m = min_norm_over_simplex(G)
        w = beta.weights
        grad = G.T @ (G @ w)
        size = np.abs(G).max() ** 2
        assert np.all(grad[w > 0] <= grad.min() + 1e-9 * size)
        y, _ = self._lifted(G, np.ones(n))
        assert m <= np.linalg.norm(G @ (y / y.sum())) + 1e-12 * np.abs(G).max()


class TestPngState:
    @pytest.mark.parametrize("instance", ["png_instance", "identity_pair"])
    def test_reads_equal_their_definitions(self, instance, rng, request):
        # (0, 1) is the preference centre, where grad f0 = 0
        problem = request.getfixturevalue(instance)
        F, f0 = problem.F, problem.f0
        points = [rng.normal(size=2) for _ in range(20)] + [np.array([0.2, 0.0]), np.array([0.0, 1.0])]
        infeasible = 0
        for x in points:
            for c in (0.01, 1.0):
                state = _PngState(F, f0, x, c)
                assert state.m == min_norm_over_simplex(F.jacobian_T(x))[1]
                try:
                    v = png_vector(F, f0, x, c)
                except InfeasibleError:
                    assert state.v is None and state.residual is None and state.angle == np.pi
                    infeasible += 1
                    continue
                np.testing.assert_array_equal(state.v, v)
                g0 = f0.grad(x)
                if not g0.any():
                    assert state.residual is None and state.angle == np.pi
                    continue
                np.testing.assert_array_equal(state.residual, v / np.linalg.norm(v) + g0 / np.linalg.norm(g0))
                cross = v[0] * g0[1] - v[1] * g0[0]
                assert abs(state.angle - np.arctan2(abs(cross), -(v @ g0))) <= 1e-15
        assert infeasible > 0

    def test_non_finite_gradient_raises_when_built(self, png_instance):
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError):
            _PngState(png_instance.F, png_instance.f0, np.array([1e308, 1e308]), 0.01)

    def test_m_gradient_is_zero_at_an_objective_minimizer(self, png_instance):
        # the minimizer's gradient column is exactly 0, so m = 0 and 0 is a subgradient
        x = png_instance.F.minimizers[0]
        state = _PngState(png_instance.F, png_instance.f0, x, 0.01)
        assert state.m == 0.0
        grad = baselines._m_gradient(png_instance.F._hessians(x), state)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_descent_skips_unread_min_norm_solves(self, png_instance, monkeypatch):
        calls = {"min_norm": 0, "png_vector": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(baselines, "min_norm_over_simplex",
                            counted("min_norm", baselines.min_norm_over_simplex))
        monkeypatch.setattr(baselines, "_png_vector_from_grads",
                            counted("png_vector", baselines._png_vector_from_grads))
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=100_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stationary"
        # the loop reads m only near the band or where the step may be capped
        assert 0 < 2 * calls["min_norm"] < calls["png_vector"]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 6),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 6.0),
        spread=st.floats(1e-3, 1.0),
    )
    def test_min_norm_bound_is_at_most_the_computed_value(self, n, d, seed, log_scale, spread):
        # gradients around a shared offset, so that the min-norm value is
        # often far from 0; u drawn at random, at the min-norm direction u*
        # and a rounding-sized tilt off it, where the bound is tightest
        rng = np.random.default_rng(seed)
        G = (rng.normal(size=d) * rng.uniform(0.0, 3.0) + spread * rng.normal(size=(n, d))) * 10.0**log_scale
        beta, m = min_norm_over_simplex(G.T)
        u = rng.normal(size=d)
        assert baselines._min_norm_lower_bound(G, u / np.linalg.norm(u)) <= m
        frobenius = math.sqrt(float((G * G).sum()))
        if m <= 1e-3 * frobenius:
            return  # u* is then mostly the solve's rounding
        u_star = G.T @ beta.weights / m
        tilted = u_star + 1e-15 * rng.normal(size=d)
        for u in (u_star, tilted / np.linalg.norm(tilted)):
            assert baselines._min_norm_lower_bound(G, u) <= m
        if abs(log_scale) <= 1.0:
            # equal to m up to the min-norm solve's own accuracy: it accepts
            # the NNLS weights within a KKT tolerance, not at their optimum
            assert m - baselines._min_norm_lower_bound(G, u_star) <= 1e-10 * frobenius

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["png-example", "log-cosh"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
    )
    def test_m_gradient_is_the_envelope_gradient(self, family, seed, scale):
        # grad m = sum_i beta_i hess f_i(x) u against central differences of
        # m, where m > 0 and beta is unique: two distinct gradients, or three
        # affinely independent ones in three dimensions
        rng = np.random.default_rng(seed)
        if family == "png-example":
            problem = png_counterexample_problem()
        else:
            problem = random_logcosh_problem(rng, d=3, n=3, c=1.0)
        F, f0 = problem.F, problem.f0
        x = scale * rng.normal(size=F.dim)
        state = _PngState(F, f0, x, 0.01)
        size = np.abs(state._G).max()
        differences = state._G[1:] - state._G[0]
        if state.m <= 1e-3 * size or np.linalg.matrix_rank(differences, tol=1e-3 * size) < F.n - 1:
            return
        h = 1e-6
        fd = [
            (_PngState(F, f0, x + e, 0.01).m - _PngState(F, f0, x - e, 0.01).m) / (2.0 * h)
            for e in h * np.eye(F.dim)
        ]
        grad = baselines._m_gradient(F._hessians(x), state)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6 * np.abs(F._hessians(x)).max())

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["png-example", "log-cosh"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
        c=st.floats(0.01, 2.0),
    )
    # x_2 = 7.6e-5 and lam ~ 1e8: a plain central difference at h = 1e-7
    # is off by 3.1e-5 there, above the 2.65e-5 allowed
    @example(family="png-example", seed=13589, scale=0.25, c=1.0)
    def test_direction_jacobian_matches_central_differences(self, family, seed, scale, c):
        # exact on the piece of the state's active set, so compared only
        # where every probe keeps that set: a difference across a change of
        # the set straddles a kink of v.  The central differences at steps
        # h and 2h are extrapolated to h = 0 (Richardson).
        rng = np.random.default_rng(seed)
        if family == "png-example":
            problem = png_counterexample_problem()
        else:
            problem = random_logcosh_problem(rng, d=3, n=3, c=1.0)
        F, f0 = problem.F, problem.f0
        x = scale * rng.normal(size=F.dim)
        state = _PngState(F, f0, x, c)
        h = 1e-6
        steps = np.concatenate([k * h * np.eye(F.dim) for k in (1.0, -1.0, 2.0, -2.0)])
        probes = [_PngState(F, f0, x + e, c) for e in steps]
        if any(p.v is None or not np.array_equal(p.lam > 0, state.lam > 0) for p in [state] + probes):
            return
        r = np.split(np.column_stack([p.residual for p in probes]), 4, axis=1)
        fd = (4.0 * (r[0] - r[1]) / (2.0 * h) - (r[2] - r[3]) / (4.0 * h)) / 3.0
        jac = baselines._direction_jacobian(F._hessians(x), f0.hess(x), state)
        np.testing.assert_allclose(jac, fd, rtol=1e-4, atol=1e-5 * np.abs(jac).max())

    def test_skipping_by_the_bound_leaves_the_descent_unchanged(self, png_instance, monkeypatch):
        calls = [0]
        solve = baselines.min_norm_over_simplex

        def counted(G):
            calls[0] += 1
            return solve(G)

        monkeypatch.setattr(baselines, "min_norm_over_simplex", counted)
        bound = baselines._min_norm_lower_bound
        x0 = np.array([0.2, 0.9])
        for eps_stop, iterations in ((1e-1, 701), (1e-2, 769), (1e-3, 769), (3e-4, 769)):
            config = PngConfig(c=0.01, step=0.05, eps_stop=eps_stop, max_iters=100_000)
            runs, counts = [], []
            for skip in (True, False):
                monkeypatch.setattr(baselines, "_min_norm_lower_bound", bound if skip else lambda G, u: -math.inf)
                calls[0] = 0
                runs.append(png_descent(png_instance.F, png_instance.f0, x0, config))
                counts.append(calls[0])
            on, off = runs
            assert on.status == off.status == "stationary"
            assert on.iterations == off.iterations == iterations
            assert on.trajectory.tobytes() == off.trajectory.tobytes()
            assert on.point.tobytes() == off.point.tobytes()
            assert counts[0] < counts[1]
            if eps_stop == 1e-3:  # the benchmark's configuration: 26 solves against 749
                assert counts[0] <= 160 and counts[1] >= 400


class TestPngDescent:
    def test_counterexample_avoids_optimum(self, png_instance):
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=100_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stationary"
        assert np.linalg.norm(res.point - E1) <= 0.05
        assert np.linalg.norm(res.point) >= 0.5

    def test_identity_variant_reaches_optimum(self, identity_pair):
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-2, max_iters=100_000)
        res = png_descent(identity_pair.F, identity_pair.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stationary"
        assert np.linalg.norm(res.point) <= 0.05

    def test_stationary_start_returns_immediately(self, identity_pair):
        eps = 1e-2
        config = PngConfig(c=0.05, step=0.05, eps_stop=eps, max_iters=100)
        x0 = np.array([0.0, 0.9 * eps])
        res = png_descent(identity_pair.F, identity_pair.f0, x0, config)
        assert res.status == "stationary"
        assert res.iterations == 0
        assert len(res.trajectory) == 1
        np.testing.assert_allclose(res.point, x0)

    def test_start_near_band_is_polished_to_exact_test(self, png_instance):
        # the first step from (0.9, 0.1) crosses the thin collinearity set
        # inside the band, and the descent must still return a point that
        # passes the exact stopping test
        config = PngConfig(c=0.01, step=0.05, eps_stop=0.1, max_iters=100_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.9, 0.1]), config)
        assert res.status == "stationary"
        _, min_norm = min_norm_over_simplex(png_instance.F.jacobian_T(res.point))
        assert min_norm <= config.eps_stop
        v = png_vector(png_instance.F, png_instance.f0, res.point, config.c)
        descent = -png_instance.f0.grad(res.point)
        cosang = v @ descent / (np.linalg.norm(v) * np.linalg.norm(descent))
        assert np.arccos(np.clip(cosang, -1.0, 1.0)) <= COLLINEARITY_TOL

    def test_failed_polish_ends_the_run_stalled(self, png_instance, monkeypatch):
        # the first polish, at the band entry of the descent from (0.2, 0.9),
        # is made to fail; the run ends there at once
        calls = []

        def fails(F, f0, state, config):
            calls.append(state.x.copy())

        monkeypatch.setattr(baselines, "_polish_to_stationary", fails)
        config = PngConfig(c=0.01, step=0.05, eps_stop=3e-4, max_iters=100_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stalled"
        assert len(calls) == 1
        assert res.iterations == 769
        assert len(res.trajectory) == 770
        np.testing.assert_array_equal(res.trajectory[-1], calls[0])
        np.testing.assert_array_equal(res.point, calls[0])

    def test_unreachable_eps_stop_ends_stalled_at_band_entry(self, png_instance):
        # eps_stop 1e-8 is out of reach at c = 0.01, so the polish fails: the
        # run ends where it enters the band instead of spending max_iters
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-8, max_iters=200_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stalled"
        assert res.iterations == 769
        np.testing.assert_array_equal(res.trajectory[-1], res.point)

    def test_benchmark_configuration_is_stationary_at_band_entry(self, png_instance):
        # the PNG run of the benchmark's validate workload; its first polish
        # succeeds, so the run ends stationary, not stalled, at 769 iterations
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=100_000)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "stationary"
        assert res.iterations == 769
        state = _PngState(png_instance.F, png_instance.f0, res.point, config.c)
        assert state.angle <= COLLINEARITY_TOL and state.m <= config.eps_stop
        # the angle is read from the residual, not from an arccos, which
        # reads 0 here
        v, g0 = state.v, png_instance.f0.grad(res.point)
        angle = np.arctan2(abs(v[0] * g0[1] - v[1] * g0[0]), -(v @ g0))
        assert 1e-10 < angle < 2e-10
        assert abs(state.angle - angle) <= 1e-15

    @pytest.mark.parametrize("x0, iterations", NEAR_BENCHMARK_STARTS)
    def test_first_polish_does_not_hinge_on_the_last_bit(self, png_instance, x0, iterations):
        # the polish corrects a smooth residual: so starts a few ulp apart
        # all end stationary at the first band iterate, and the uniform ones too
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=1500)
        res = png_descent(png_instance.F, png_instance.f0, x0, config)
        assert res.status == "stationary"
        if iterations is not None:
            assert res.iterations == iterations

    @pytest.mark.parametrize("k, iterations", [(9, 70), (35, None)])
    def test_random_quadratic_is_polished_at_band_entry(self, k, iterations):
        # instance 9 of this seeded suite leaves the band soon after it
        # enters it, and instance 35 reaches the band only by full-length
        # steps near the Pareto set: neither ends within the budget unless
        # the polish runs at the first band iterate and no step is shortened.
        # Instance 35's count is not pinned: it is the rounding of its
        # projections (from about iteration 350 a difference in the last bit
        # grows tenfold every four steps, and the correctly rounded
        # projection takes 1247), so it can move with the numpy or BLAS build
        draws = np.random.default_rng(5)
        for i in range(k + 1):
            d = int(draws.integers(2, 4))
            n = int(draws.integers(2, min(d, 3) + 1))
            spec = random_problem_spec(draws, d, n, shared_hessian=bool(i % 2))
            x0 = draws.normal(size=d) * 1.5
        problem = problem_from_spec(spec)
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-2, max_iters=2000)
        res = png_descent(problem.F, problem.f0, x0, config)
        assert res.status == "stationary"
        if iterations is not None:
            assert res.iterations == iterations
        state = _PngState(problem.F, problem.f0, res.point, config.c)
        assert state.angle <= COLLINEARITY_TOL and state.m <= config.eps_stop

    def test_float_budget_rejected(self):
        with pytest.raises(InvalidArgumentError, match="max_iters"):
            PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=1e5)

    @pytest.mark.parametrize(
        "field, value",
        [("c", True), ("step", True), ("eps_stop", True), ("max_iters", True),
         ("c", "1"), ("step", None), ("eps_stop", 1e-3 + 0j)],
        ids=["c", "step", "eps_stop", "max_iters", "string-c", "none-step", "complex-eps_stop"],
    )
    def test_booleans_rejected(self, field, value):
        # True compares as 1 and passes the range checks; the others would fail inside a
        # comparison with a TypeError
        params = {"c": 0.01, "step": 0.05, "eps_stop": 1e-3, "max_iters": 100, field: value}
        with pytest.raises(InvalidArgumentError, match="not booleans"):
            PngConfig(**params)

    @pytest.mark.parametrize("x0", [[0.2], [0.2, 0.9, 0.0], [[0.2, 0.9]]],
                             ids=["short", "long", "row"])
    def test_x0_shape_checked(self, png_instance, x0):
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=100)
        with pytest.raises(InvalidArgumentError, match=r"x0 has shape .*, expected \(2,\)"):
            png_descent(png_instance.F, png_instance.f0, np.array(x0), config)

    def test_budget_status(self, png_instance):
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=3)
        res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
        assert res.status == "budget-exceeded"
        assert len(res.trajectory) == 4

    def test_decreasing_eps_approaches_vertex(self, png_instance):
        dists_to_e1 = []
        for eps_stop in (1e-1, 1e-2, 1e-3):
            config = PngConfig(c=0.01, step=0.05, eps_stop=eps_stop, max_iters=100_000)
            res = png_descent(png_instance.F, png_instance.f0, np.array([0.2, 0.9]), config)
            assert res.status == "stationary"
            assert np.linalg.norm(res.point) >= 0.5
            dists_to_e1.append(np.linalg.norm(res.point - E1))
        assert dists_to_e1[0] >= dists_to_e1[1] - 1e-9
        assert dists_to_e1[1] >= dists_to_e1[2] - 1e-9


class TestGenericity:
    def test_opposing_pair_is_pareto_generic(self):
        assert is_pareto_generic([E1, -E1])

    def test_positive_orthant_pair_is_not(self):
        assert not is_pareto_generic([E1, E2])

    def test_rank_deficient_triple_is_not(self):
        assert not is_pareto_generic([E1, -E1, E1])

    def test_preference_generic_orthogonal(self):
        assert is_preference_generic(E2, [E1, -E1])

    def test_preference_in_span_rejected(self):
        assert not is_preference_generic(E1, [E1, -E1])

    def test_gate_on_pareto_genericity(self):
        assert not is_preference_generic(E2, [E1, E2])

    def test_dimension_preconditions(self):
        with pytest.raises(InvalidArgumentError):
            is_preference_generic(np.ones(2), [E1, -E1, E2])  # n > d

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda rng: is_pareto_generic([E1]), "need at least two vectors"),
            (lambda rng: sample_preference_generic(rng, 2, 3), "need 1 < n <= d"),
            (lambda rng: sample_preference_generic(rng, 2, 1), "need 1 < n <= d"),
            (lambda rng: build_impossibility_instance([E2, E1]), "v0 plus at least two"),
        ],
        ids=["pareto-one-vector", "sampler-n-above-d", "sampler-one-vector", "instance-one-gradient"],
    )
    def test_too_few_or_too_many_vectors_rejected(self, rng, call, match):
        with pytest.raises(InvalidArgumentError, match=match):
            call(rng)

    def test_sampler_produces_generic_tuples(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, min(d, 4) + 1))
            v0, vs = sample_preference_generic(rng, d, n)
            assert is_preference_generic(v0, vs)


class TestImpossibilityInstance:
    def test_worked_planar_example(self):
        inst = build_impossibility_instance([E2, E1, -E1])
        np.testing.assert_allclose(inst.hessian, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sorted(map(tuple, inst.centers)), [(-1.0, 0.0), (1.0, 0.0)])
        np.testing.assert_allclose(inst.problem.f0.grad(np.zeros(2)), E2, atol=1e-12)

    def test_gradient_of_preference_at_origin(self, rng):
        v0, vs = sample_preference_generic(rng, 4, 3)
        inst = build_impossibility_instance([v0] + list(vs))
        np.testing.assert_allclose(inst.problem.f0.grad(np.zeros(4)), v0, atol=1e-12)

    def test_origin_in_hull_and_first_order_optimal(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, min(d, 4) + 1))
            v0, vs = sample_preference_generic(rng, d, n)
            inst = build_impossibility_instance([v0] + list(vs))
            # prescribed gradients are met exactly
            for f, v in zip(inst.problem.F.objectives, inst.gradients):
                assert np.linalg.norm(f.grad(np.zeros(d)) - v) <= 1e-10
            # Hessian is positive definite
            assert np.linalg.eigvalsh(inst.hessian)[0] > 0
            # the origin is a convex combination of the centers
            _, gap = min_norm_over_simplex(inst.problem.F.jacobian_T(np.zeros(d)))
            assert gap <= 1e-8
            # first-order optimality over the hull
            for _ in range(50):
                w = rng.dirichlet(np.ones(n))
                z = w @ inst.centers
                assert inst.v0 @ z >= -1e-10

    def test_rotation_lemma_properties(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, min(d, 4) + 1))
            v0, vs = sample_preference_generic(rng, d, n)
            R = rotation_map(v0, vs)
            sym_eigs = np.linalg.eigvalsh(0.5 * (R + R.T))
            assert sym_eigs[0] > 0
            u0 = v0 / np.linalg.norm(v0)
            for u in vs:
                assert abs(u0 @ (R @ u)) <= 1e-10 * max(1.0, np.linalg.norm(u))

    def test_non_generic_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_impossibility_instance([E1, E1, -E1])  # v0 in span

    def test_pmm_finds_the_origin(self, rng):
        # the constructed instance is solvable: the solver certifies a point
        # at the designated optimum
        from paretomm import SolverConfig, pmm_solve

        v0, vs = sample_preference_generic(rng, 3, 2)
        inst = build_impossibility_instance([v0] + list(vs))
        result = pmm_solve(inst.problem, SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True))
        assert result.status == "certified"
        gap_dir = result.point.x @ inst.v0 / np.linalg.norm(inst.v0)
        assert gap_dir >= -1e-4  # never below the supporting hyperplane
