import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretomm import (
    ManifoldPoint,
    NumericalFailureError,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    SmoothFunction,
    SolverConfig,
    build_surrogate,
    err_grad_f0,
    grad_x_star_estimate,
    grad_x_star_exact,
    make_log_cosh_quadratic,
    make_quadratic,
    minimize_function,
    norm_1_2,
    pmm_solve,
    quadratic_from_hessian,
    scalarize,
    solve_x_star,
)
from paretomm import manifold
from paretomm.manifold import spd_solve, stable_norm
from paretomm.oracle import finite_difference_jacobian, tangent_directions
from paretomm.problem_io import (
    identity_pair_spec,
    png_counterexample_spec,
    problem_from_spec,
    random_problem_spec,
)
from conftest import random_logcosh_problem, random_quadratic_problem

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def exact_manifold_point(F, beta):
    return solve_x_star(F, beta, tol_grad=1e-11 * max(1.0, F.L), newton=True)


class TestSolveXStar:
    def test_identity_weighted_average(self, identity_pair):
        beta = SimplexPoint(np.array([0.25, 0.75]))
        pt = solve_x_star(identity_pair.F, beta, tol_grad=1e-10)
        np.testing.assert_allclose(pt.x, [0.5, 0.0], atol=1e-9)

    def test_single_objective_returns_minimizer(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E2)])
        pt = solve_x_star(F, SimplexPoint(np.array([1.0])), tol_grad=1e-12)
        np.testing.assert_allclose(pt.x, E2, atol=1e-11)

    def test_shared_hessian_balanced(self, png_instance):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = solve_x_star(png_instance.F, beta, tol_grad=1e-12)
        np.testing.assert_allclose(pt.x, np.zeros(2), atol=1e-11)

    def test_residual_cached_consistently(self, rng):
        problem = random_quadratic_problem(rng)
        beta = SimplexPoint(rng.dirichlet(np.ones(3)))
        pt = solve_x_star(problem.F, beta, tol_grad=1e-8)
        recomputed = np.linalg.norm(scalarize(problem.F, beta).grad(pt.x))
        assert abs(pt.residual - recomputed) <= 1e-12

    def test_monotone_descent_and_iteration_bound(self, rng):
        tol = 1e-9
        quad = scalarize(random_quadratic_problem(rng).F, SimplexPoint(rng.dirichlet(np.ones(3))))
        res = minimize_function(quad, rng.normal(size=3) * 3, tol)
        assert res.iterations == 1 and res.grad_norm <= tol

        F = random_logcosh_problem(rng, d=3, n=3, c=2.0).F
        f_beta = scalarize(F, SimplexPoint(rng.dirichlet(np.ones(3))))
        values = []

        def grad(x):  # called at x0 and once at each accepted iterate
            values.append(f_beta.value(x))
            return f_beta.grad(x)

        x0 = rng.normal(size=3) * 5
        res = minimize_function(dataclasses.replace(f_beta, grad=grad), x0, tol)
        assert res.grad_norm <= tol
        values = np.array(values)
        assert np.all(np.diff(values) <= 1e-14 * (1.0 + np.abs(values[:-1])))
        r0 = np.linalg.norm(f_beta.grad(x0))
        gd_bound = 2.0 * F.kappa * np.log(max(r0 / tol, np.e))
        assert res.iterations <= 0.2 * gd_bound

    @pytest.mark.parametrize("start", ["hint", "off"])
    def test_target_below_rounding_floor_stops_at_floor(self, start):
        # With centres near 1e4 the gradient rounds to ~1e-13, far above the
        # target: the solve stops at the floor instead of iterating on.
        spec = identity_pair_spec()
        for entry in spec["objectives"] + [spec["preference"]]:
            entry["z"] = [v + 1e4 for v in entry["z"]]
        F = problem_from_spec(spec).F
        beta = SimplexPoint(np.array([0.3, 0.7]))
        f_beta = scalarize(F, beta)
        x0 = f_beta.minimizer_hint if start == "hint" else np.array([5.0, 5.0]) + 1e4
        res = minimize_function(f_beta, x0, 1e-20)
        assert res.iterations <= 10
        assert 0.0 < res.grad_norm < 1e-11
        assert res.grad_norm == ManifoldPoint.from_x_beta(F, res.x, beta).residual
        pt = solve_x_star(F, beta, tol_grad=1e-20, x0=x0)
        assert pt.residual == ManifoldPoint.from_x_beta(F, pt.x, beta).residual

    def test_armijo_halves_overshooting_newton_steps(self):
        # far from z the log-cosh term is almost linear and the Hessian almost
        # 0.01, so the full Newton step from x0 = 10 lands near -100
        f = make_log_cosh_quadratic(np.array([[0.01]]), np.array([0.0]), 1.0)
        calls = []

        def value(x):  # at x0 and at every trial point of the line search
            calls.append(float(x[0]))
            return f.value(x)

        res = minimize_function(dataclasses.replace(f, value=value), np.array([10.0]), 1e-12)
        assert res.grad_norm <= 1e-12 and abs(res.x[0]) <= 1e-12
        assert len(calls) > res.iterations + 1  # some step was halved

    def test_non_finite_gradient_fails(self):
        bad = SmoothFunction(
            dim=1,
            value=lambda x: float("nan"),
            grad=lambda x: np.array([float("nan")]),
            hess=lambda x: np.array([[1.0]]),
            mu=1.0,
            L=1.0,
            L_H=0.0,
        )
        with pytest.raises(NumericalFailureError):
            minimize_function(bad, np.zeros(1), 1e-8)

    def test_overflowing_newton_step_fails(self):
        # grad 1e300 against curvature 1e-10: the Newton step overflows to inf
        f = SmoothFunction(
            dim=1,
            value=lambda x: 0.0,
            grad=lambda x: np.array([1e300]),
            hess=lambda x: np.array([[1e-10]]),
            mu=1e-10,
            L=1e-10,
            L_H=0.0,
        )
        with pytest.raises(NumericalFailureError, match="non-finite iterate"):
            minimize_function(f, np.zeros(1), 1e-8)


class TestStableNorm:
    def test_huge_entries_do_not_overflow(self):
        assert stable_norm(np.array([1e300, 1e300])) == 1.4142135623730951e300

    def test_non_finite_entries(self):
        assert np.isnan(stable_norm(np.array([np.nan, 1.0])))
        # hypot returns inf for any infinite entry, even beside a NaN
        assert stable_norm(np.array([np.nan, np.inf])) == np.inf

    @pytest.mark.parametrize("g0", [[np.nan, 1.0], [np.nan, np.inf], [np.inf, 1.0]])
    def test_non_finite_starting_gradient_fails(self, g0):
        f = SmoothFunction(
            dim=2,
            value=lambda x: 0.0,
            grad=lambda x: np.array(g0),
            hess=lambda x: np.eye(2),
            mu=1.0,
            L=1.0,
            L_H=0.0,
        )
        with pytest.raises(NumericalFailureError, match="starting point"):
            minimize_function(f, np.zeros(2), 1e-8)


def _spd(d, seed, eigs_max):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = rng.uniform(1.0, eigs_max, size=d)
    H = (Q * eigs) @ Q.T
    return 0.5 * (H + H.T), float(np.min(eigs)), rng


class TestSpdSolve:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), eigs_max=st.floats(1.0, 1e4))
    def test_matches_dense_solve(self, d, seed, eigs_max):
        H, lam_min, rng = _spd(d, seed, eigs_max)
        B = rng.normal(size=(d, 3))
        X = spd_solve(H, B, mu_floor=lam_min)
        ref = np.linalg.solve(H, B)
        assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)
        x = spd_solve(H, B[:, 0], mu_floor=lam_min)
        assert np.linalg.norm(x - ref[:, 0]) <= 1e-10 * np.linalg.norm(ref[:, 0])

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), eigs_max=st.floats(1.0, 1e4))
    def test_floor_violation_raises(self, d, seed, eigs_max):
        H, lam_min, rng = _spd(d, seed, eigs_max)
        with pytest.raises(NumericalFailureError):
            spd_solve(H, rng.normal(size=d), mu_floor=2.5 * lam_min)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        in_rhs=st.booleans(),
    )
    def test_non_finite_input_raises(self, d, seed, bad, in_rhs):
        H, lam_min, rng = _spd(d, seed, 10.0)
        B = rng.normal(size=(d, 2))
        i, j = rng.integers(d, size=2)
        if in_rhs:
            B[i, j % 2] = bad
        else:
            H[i, j] = bad
        with pytest.raises(NumericalFailureError):
            spd_solve(H, B, mu_floor=lam_min)


@pytest.fixture
def spd_calls(monkeypatch):
    """Counts the ``spd_solve`` calls and the ``np.linalg.cholesky`` calls made inside them."""
    calls = {"solves": 0, "choleskys": 0}
    solve, cholesky = manifold.spd_solve, np.linalg.cholesky

    def counted_cholesky(M):
        calls["choleskys"] += 1
        return cholesky(M)

    def counted(*args, **kwargs):
        calls["solves"] += 1
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", counted_cholesky)
            return solve(*args, **kwargs)

    monkeypatch.setattr(manifold, "spd_solve", counted)
    return calls


def _log_cosh_spec(seed):
    spec = random_problem_spec(np.random.default_rng(seed), 3, 3)
    spec["objectives"] = [
        {"kind": "builtin", "name": "log_cosh_quadratic", "params": {"H": e["H"], "z": e["z"], "c": 1.0}}
        for e in spec["objectives"]
    ]
    return spec


class TestHessFloor:
    """An objective set's ``hess_floor`` replaces the Cholesky test only where it proves it passes."""

    # A log-cosh set without a family has no third derivative for the exact
    # metric (see ``pmm._exact_metric``), so its run is compared with the
    # family set whose floor is switched off instead of with a hand-wrapped copy.
    @pytest.mark.parametrize(
        "spec, config, kept",
        [
            (png_counterexample_spec(), SolverConfig(eps0=1e-3, eps=1e-6), "hand-wrapped"),
            (png_counterexample_spec(), SolverConfig(eps0=1e-3, eps=1e-6), "floor-off"),
            (_log_cosh_spec(5), SolverConfig(eps0=1e-2, eps=1e-4), "floor-off"),
        ],
        ids=["png-example-hand-wrapped", "png-example-floor-off", "log-cosh-floor-off"],
    )
    def test_family_set_skips_only_the_test(self, spec, config, kept, spd_calls):
        problem = problem_from_spec(spec)
        F = problem.F
        assert F.family is not None and 0.5 * F.mu < F.hess_floor < F.mu
        if kept == "hand-wrapped":
            G = ObjectiveSet.from_objectives([dataclasses.replace(f, family=None) for f in F.objectives])
            assert G.family is None
        else:
            G = dataclasses.replace(F)
            G.hess_floor = -np.inf
        assert G.hess_floor == -np.inf
        runs = []
        for p in (problem, ProblemInstance.create(G, problem.f0)):
            spd_calls.update(solves=0, choleskys=0)
            runs.append((pmm_solve(p, config), dict(spd_calls)))
        (a, a_calls), (b, b_calls) = runs
        assert a.status == b.status == "certified" and len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            for field in dataclasses.fields(ra):
                va, vb = getattr(ra, field.name), getattr(rb, field.name)
                assert np.asarray(va).tobytes() == np.asarray(vb).tobytes(), field.name
        assert a.point.x.tobytes() == b.point.x.tobytes()
        assert a_calls == {"solves": b_calls["solves"], "choleskys": 0}
        assert b_calls["choleskys"] == b_calls["solves"] > 0

    def test_raised_mu_keeps_the_test(self):
        problem = problem_from_spec(png_counterexample_spec())
        F = problem.F
        raised = [dataclasses.replace(f, mu=2.5) for f in F.objectives]
        for G in (dataclasses.replace(F, objectives=raised), ObjectiveSet.from_objectives(raised)):
            assert G.mu == 2.5 and G.hess_floor == F.hess_floor
            with pytest.raises(
                NumericalFailureError, match=r"^Hessian not positive definite above 1\.250e\+00$"
            ):
                pmm_solve(ProblemInstance.create(G, problem.f0), SolverConfig(eps0=1e-3, eps=1e-6))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 8),
        n=st.integers(1, 5),
        decades=st.floats(0.0, 14.0),
        c=st.sampled_from([0.0, 0.5, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_floor_test_passes_just_below_hess_floor(self, d, n, decades, c, seed):
        rng = np.random.default_rng(seed)
        objectives = []
        for _ in range(n):
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            H = (Q * 10.0 ** rng.uniform(0.0, decades, size=d)) @ Q.T
            objectives.append(make_log_cosh_quadratic(0.5 * (H + H.T), rng.normal(size=d), c))
        F = ObjectiveSet.from_objectives(objectives)
        if not F.hess_floor > 0.0:
            return
        t = np.nextafter(F.hess_floor, -np.inf)
        # the vertex of the flattest objective, far from every centre, is
        # where the weighted Hessian comes closest to the family's lambda_min
        flattest = SimplexPoint.vertex(n, int(np.argmin(F.family.bounds[:, 0])))
        points = [(flattest, np.full(d, 1e3))]
        points += [(SimplexPoint(rng.dirichlet(np.ones(n))), rng.normal(size=d) * 3.0) for _ in range(4)]
        for beta, x in points:
            np.linalg.cholesky(scalarize(F, beta).hess(x) - t * np.eye(d))

    def test_replace_derives_the_floor_again(self, png_instance):
        F = png_instance.F
        assert dataclasses.replace(F).hess_floor == F.hess_floor
        unstacked = [dataclasses.replace(f, family=None) for f in F.objectives]
        assert dataclasses.replace(F, objectives=unstacked).hess_floor == -np.inf

    def test_raw_weights_keep_the_test(self, png_instance):
        F = png_instance.F
        assert scalarize(F, SimplexPoint.uniform(2))._hess_floor == F.hess_floor
        assert scalarize(F, np.array([2.0, -1.0]))._hess_floor == -np.inf

    def test_kappa_beyond_the_margin_keeps_the_test(self, spd_calls):
        H = np.diag([1.0, 1e-15])
        F = ObjectiveSet.from_objectives([quadratic_from_hessian(H, z) for z in (E1, -E1)])
        assert F.family is not None and F.hess_floor < 0.5 * F.mu
        beta = SimplexPoint(np.array([0.25, 0.75]))
        grad_x_star_estimate(F, E2, beta)
        solve_x_star(F, beta, tol_grad=1e-12, x0=E2)
        assert spd_calls["choleskys"] == spd_calls["solves"] >= 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("instance", ["png-example", "log-cosh"])
    def test_non_finite_x_raises(self, instance, bad, png_instance):
        if instance == "png-example":
            F = png_instance.F
        else:
            F = problem_from_spec(_log_cosh_spec(5)).F
        assert 0.5 * F.mu < F.hess_floor
        x = np.zeros(F.dim)
        x[-1] = bad
        beta = SimplexPoint.uniform(F.n)
        # inf - inf in the scalarized gradient's running sum is numpy's "invalid"
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailureError):
                grad_x_star_estimate(F, x, beta)
            with pytest.raises(NumericalFailureError):
                minimize_function(scalarize(F, beta), x, tol_grad=1e-8)


class TestExactJacobian:
    def test_identity_columns_are_center_offsets(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = exact_manifold_point(identity_pair.F, beta)
        J = grad_x_star_exact(identity_pair.F, pt)
        np.testing.assert_allclose(J.matrix, np.column_stack([-E1, E1]), atol=1e-10)

    def test_single_objective_zero_column(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E2)])
        pt = exact_manifold_point(F, SimplexPoint(np.array([1.0])))
        J = grad_x_star_exact(F, pt)
        np.testing.assert_allclose(J.matrix, np.zeros((2, 1)), atol=1e-10)

    def test_shared_hessian_independent_of_hessian(self, png_instance, identity_pair):
        beta = SimplexPoint(np.array([0.3, 0.7]))
        for problem in (png_instance, identity_pair):
            pt = exact_manifold_point(problem.F, beta)
            J = grad_x_star_exact(problem.F, pt)
            expected = np.column_stack([m - pt.x for m in problem.F.minimizers])
            np.testing.assert_allclose(J.matrix, expected, atol=1e-9)

    def test_indefinite_hessian_rejected(self):
        flipped = SmoothFunction(
            dim=2,
            value=lambda x: 0.5 * float(x @ np.diag([1.0, -1.0]) @ x),
            grad=lambda x: np.diag([1.0, -1.0]) @ x,
            hess=lambda x: np.diag([1.0, -1.0]),
            mu=1.0,
            L=1.0,
            L_H=0.0,
            minimizer_hint=np.zeros(2),
        )
        F = ObjectiveSet.__new__(ObjectiveSet)
        object.__setattr__(F, "objectives", (flipped,))
        object.__setattr__(F, "mu", 1.0)
        object.__setattr__(F, "L", 1.0)
        object.__setattr__(F, "L_H", 0.0)
        object.__setattr__(F, "minimizers", np.zeros((1, 2)))
        object.__setattr__(F, "r", 0.0)
        pt = ManifoldPoint(x=np.zeros(2), beta=SimplexPoint(np.array([1.0])), residual=0.0)
        with pytest.raises(NumericalFailureError):
            grad_x_star_exact(F, pt)

    def test_matches_finite_difference_oracle(self, rng):
        problems = [
            random_quadratic_problem(rng, d=3, n=3),
            random_quadratic_problem(rng, d=2, n=2, shared=True),
            random_logcosh_problem(rng),
        ]
        for problem in problems:
            F = problem.F
            dirs = tangent_directions(F.n)
            for _ in range(5):
                w = rng.dirichlet(np.ones(F.n)) * 0.8 + 0.1 / F.n
                beta = SimplexPoint(w / w.sum())
                pt = exact_manifold_point(F, beta)
                J = grad_x_star_exact(F, pt)
                fd = finite_difference_jacobian(
                    lambda b: solve_x_star(F, b, tol_grad=1e-12, newton=True, x0=pt.x).x,
                    beta,
                )
                projected = np.column_stack([J.matrix @ t for t in dirs])
                err = np.linalg.norm(fd - projected)
                assert err <= 1e-5 * max(1.0, np.linalg.norm(projected))

    def test_lipschitz_norm_bound(self, rng):
        problem = random_quadratic_problem(rng, d=3, n=3)
        for _ in range(100):
            beta = SimplexPoint(rng.dirichlet(np.ones(3)))
            pt = exact_manifold_point(problem.F, beta)
            J = grad_x_star_exact(problem.F, pt)
            assert norm_1_2(J.matrix) <= problem.bundle.M0 + 1e-6


class TestEstimatedJacobian:
    def test_coincides_on_manifold(self, rng):
        problem = random_quadratic_problem(rng)
        beta = SimplexPoint(rng.dirichlet(np.ones(3)))
        pt = exact_manifold_point(problem.F, beta)
        exact = grad_x_star_exact(problem.F, pt)
        est = grad_x_star_estimate(problem.F, pt.x, beta)
        np.testing.assert_allclose(est.matrix, exact.matrix, atol=1e-10)

    def test_identity_hessian_closed_form(self, identity_pair):
        x = np.array([0.3, -0.4])
        beta = SimplexPoint(np.array([0.6, 0.4]))
        est = grad_x_star_estimate(identity_pair.F, x, beta)
        expected = np.column_stack([m - x for m in identity_pair.F.minimizers])
        np.testing.assert_allclose(est.matrix, expected, atol=1e-12)

    def test_error_bound_and_constant_forms_agree(self, rng):
        # the bound constant (1/mu) * M1/(2 M0) equals (L/mu^2)(1 + L_H R/mu)
        for problem in (random_quadratic_problem(rng), random_logcosh_problem(rng)):
            F, b = problem.F, problem.bundle
            m_form = b.M1 / (2.0 * b.M0) / F.mu
            proof_form = (F.L / F.mu**2) * (1.0 + F.L_H * b.R_bound / F.mu)
            assert m_form == pytest.approx(proof_form, rel=1e-12)
            for _ in range(50):
                beta = SimplexPoint(rng.dirichlet(np.ones(F.n)))
                pt = exact_manifold_point(F, beta)
                x = pt.x + rng.normal(size=F.dim) * rng.uniform(0, 0.5)
                est = grad_x_star_estimate(F, x, beta)
                exact = grad_x_star_exact(F, pt)
                residual = np.linalg.norm(scalarize(F, beta).grad(x))
                lhs = norm_1_2(est.matrix - exact.matrix)
                assert lhs <= m_form * residual + 1e-9


class TestErrGradF0:
    def test_zero_on_manifold(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = exact_manifold_point(identity_pair.F, beta)
        assert err_grad_f0(identity_pair, pt.x, beta) <= 1e-12

    def test_hand_evaluated_value(self, identity_pair):
        # mu=1, M0=2, M1=4 so M1/(2 M0)=1; residual 0.1; ||grad f0|| = sqrt(1.01)
        beta = SimplexPoint(np.array([0.5, 0.5]))
        x = np.array([0.1, 0.0])
        expected = (np.sqrt(1.01) + 2.0) * 0.1
        assert err_grad_f0(identity_pair, x, beta) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3004987562, abs=1e-9)

    def test_single_objective_convention(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
        from paretomm import ProblemInstance

        problem = ProblemInstance.create(F, make_quadratic(np.eye(2), E2))
        assert err_grad_f0(problem, np.array([3.0, 3.0]), SimplexPoint(np.array([1.0]))) == 0.0

    def test_huge_preference_gradient_stays_finite(self):
        # ||grad f0|| is about 1e300, so its square overflows; the bound must not
        spec = png_counterexample_spec()
        spec["preference"] = {"kind": "quadratic", "H": [[1e300, 0.0], [0.0, 1e300]], "z": [0.0, 1.0]}
        problem = problem_from_spec(spec)
        beta = SimplexPoint(np.array([0.5, 0.5]))
        x = np.array([0.1, 0.0])
        err = err_grad_f0(problem, x, beta)
        assert np.isfinite(err)
        assert err == build_surrogate(problem, ManifoldPoint.from_x_beta(problem.F, x, beta)).err_term

    def test_true_gradient_sandwich(self, rng):
        # the estimated pullback gradient is within err_grad_f0 of the true one
        for problem in (random_quadratic_problem(rng), random_logcosh_problem(rng)):
            F = problem.F
            for _ in range(30):
                beta = SimplexPoint(rng.dirichlet(np.ones(F.n)))
                pt = exact_manifold_point(F, beta)
                x = pt.x + rng.normal(size=F.dim) * rng.uniform(0, 0.3)
                true_grad = grad_x_star_exact(F, pt).matrix.T @ problem.f0.grad(pt.x)
                est_grad = grad_x_star_estimate(F, x, beta).matrix.T @ problem.f0.grad(x)
                lhs = norm_1_2((true_grad - est_grad).reshape(1, -1).T)
                assert lhs <= err_grad_f0(problem, x, beta) + 1e-9
