import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretomm import (
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
    ManifoldPoint,
    NumericalFailureError,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    SmoothFunction,
    SolverConfig,
    StationarityCertificate,
    build_surrogate,
    compute_c1_c2,
    err_grad_f0,
    grid_search_preference_opt,
    make_quadratic,
    manifold,
    min_norm_over_simplex,
    pmm_solve,
    shared_hessian_optimum,
    solve_x_star,
)
from paretomm.pmm import _certificate, _exact_metric, _reweighted, _rounding_slack, _start_damping
from paretomm.problem_io import (
    png_counterexample_spec,
    problem_from_spec,
    random_problem_spec,
    triangle_spec,
)
from conftest import random_quadratic_problem, random_logcosh_problem

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def oracle_point(problem, beta, scale=1e-12):
    return solve_x_star(problem.F, beta, tol_grad=scale * max(1.0, problem.F.L), newton=True)


class TestSolverConfig:
    def test_accepts_boundary(self):
        SolverConfig(eps0=1e-3, eps=1e-6)

    def test_rejects_eps_above_eps0_squared(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(eps0=1e-3, eps=1e-5)

    def test_rejects_eps0_above_one(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(eps0=2.0, eps=1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(eps0=1e-2, eps=1e-5, alpha=1.0)

    def test_rejects_negative_max_outer(self):
        with pytest.raises(ConfigurationError, match="max_outer"):
            SolverConfig(eps0=1e-2, eps=1e-5, max_outer=-1)

    def test_rejects_float_max_outer(self):
        with pytest.raises(ConfigurationError, match="integer max_outer"):
            SolverConfig(eps0=1e-3, eps=1e-6, max_outer=1e5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps0": True, "eps": 0.5},
            {"eps0": np.True_, "eps": 0.5},
            {"eps0": 1.0, "eps": True},
            {"eps0": 1e-3, "eps": 1e-6, "max_outer": True},
        ],
        ids=["eps0", "numpy-eps0", "eps", "max_outer"],
    )
    def test_rejects_booleans(self, kwargs):
        # each compares as the number 1 and passes every range check
        with pytest.raises(ConfigurationError, match="not booleans"):
            SolverConfig(**kwargs)


class TestBuildSurrogate:
    def test_orthogonal_preference_gives_zero_linear(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = oracle_point(identity_pair, beta)
        surr = build_surrogate(identity_pair, pt)
        np.testing.assert_allclose(surr.linear, np.zeros(2), atol=1e-11)
        assert surr.err_term <= 1e-11
        assert surr.curvature == pytest.approx(identity_pair.bundle.mu_g)

    def test_err_term_vanishes_on_manifold(self, rng):
        problem = random_quadratic_problem(rng)
        beta = SimplexPoint(rng.dirichlet(np.ones(3)))
        pt = oracle_point(problem, beta)
        surr = build_surrogate(problem, pt)
        assert surr.err_term <= 1e-9

    @pytest.mark.parametrize("maker", ["identity", "random", "logcosh"])
    def test_majorizes_true_values(self, rng, maker, identity_pair):
        # oracle check: relative surrogate values dominate relative true
        # pullback values, at on-manifold and off-manifold anchors
        if maker == "identity":
            problem = identity_pair
        elif maker == "random":
            problem = random_quadratic_problem(rng, d=2, n=2)
        else:
            problem = random_logcosh_problem(rng, c=0.2)
        scale = 3e-11 if maker == "logcosh" else 1e-12
        n = problem.F.n
        anchors = []
        beta0 = SimplexPoint(rng.dirichlet(np.ones(n)))
        exact = oracle_point(problem, beta0, scale)
        anchors.append(exact)
        x_off = exact.x + rng.normal(size=problem.F.dim) * 1e-4
        anchors.append(ManifoldPoint.from_x_beta(problem.F, x_off, beta0))
        for anchor in anchors:
            surr = build_surrogate(problem, anchor)
            f0_anchor = problem.f0.value(oracle_point(problem, anchor.beta, scale).x)
            for _ in range(200):
                beta = SimplexPoint(rng.dirichlet(np.ones(n)))
                true_rel = problem.f0.value(oracle_point(problem, beta, scale).x) - f0_anchor
                assert surr.relative_value(beta) >= true_rel - 1e-9


class TestVerify:
    def test_exact_optimum_passes(self, identity_pair):
        pt = oracle_point(identity_pair, SimplexPoint(np.array([0.5, 0.5])))
        cert = _certificate(build_surrogate(identity_pair, pt), 1e-3, 1e-6, 0.5)
        assert cert.passed
        assert cert.gap <= 1e-11
        assert cert.err <= 1e-11

    def test_residual_gate(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = ManifoldPoint.from_x_beta(identity_pair.F, np.array([0.5, 0.5]), beta)
        cert = _certificate(build_surrogate(identity_pair, pt), 1e-3, 1e-6, 0.5)
        assert not cert.passed
        assert cert.residual > 1e-6

    def test_png_vertex_not_stationary(self, png_instance):
        # at x = e1, beta = (0,1) a descent direction toward the other
        # vertex exists, so verification fails for small eps0
        beta = SimplexPoint(np.array([0.0, 1.0]))
        pt = ManifoldPoint.from_x_beta(png_instance.F, E1, beta)
        assert pt.residual <= 1e-12
        cert = _certificate(build_surrogate(png_instance, pt), 1e-3, 1e-6, 0.5)
        assert not cert.passed
        assert cert.gap == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("field", ["residual", "gap", "err", "eps", "gap_budget", "err_budget"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1e-3])
    def test_bad_number_never_passes(self, field, bad):
        good = dict(residual=0.0, gap=0.0, err=0.0, eps=1e-6, gap_budget=5e-4, err_budget=5e-4)
        assert StationarityCertificate(**good).passed
        cert = StationarityCertificate(**{**good, field: bad})
        assert not cert.passed
        assert cert.as_dict()["passed"] is False


class TestComputeC1C2:
    def test_hand_example_all_ones(self):
        # with every constant equal to one and vanishing gradients the first
        # constraint reads c1 * 2 <= 1 and then c2 * 8 <= 1
        problem = ProblemInstance.__new__(ProblemInstance)
        F = ObjectiveSet.__new__(ObjectiveSet)
        zero = np.zeros(1)
        f = make_quadratic(np.eye(1), zero)
        object.__setattr__(F, "objectives", (f, f))
        object.__setattr__(F, "mu", 1.0)
        object.__setattr__(F, "L", 1.0)
        object.__setattr__(F, "L_H", 0.0)
        object.__setattr__(F, "minimizers", np.zeros((2, 1)))
        object.__setattr__(F, "r", 0.0)
        from paretomm import ConstantBundle, SmoothFunction

        f0 = SmoothFunction(
            dim=1,
            value=lambda x: 0.0,
            grad=lambda x: np.zeros(1),
            hess=lambda x: np.zeros((1, 1)),
            mu=0.0,
            L=1.0,
            L_H=0.0,
        )
        object.__setattr__(problem, "F", F)
        object.__setattr__(problem, "f0", f0)
        object.__setattr__(
            problem, "bundle", ConstantBundle(R_bound=1.0, M0=1.0, M1=1.0, mu_g=1.0)
        )
        c1, c2 = compute_c1_c2(problem, np.zeros(1))
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(0.125)

    def test_positive_and_bounded_on_run(self, png_instance):
        config = SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.8, 0.2])))
        c1s = [r.c1 for r in result.trace]
        c2s = [r.c2 for r in result.trace]
        assert min(c1s) > 0 and min(c2s) > 0
        assert max(c1s) <= 1.0 and max(c2s) <= 1.0

    def test_preference_scaling_never_increases_c1(self, rng, identity_pair):
        # doubling the preference function doubles both its Lipschitz
        # constant and its gradient norms; c1 must not increase
        import dataclasses

        problem = identity_pair
        doubled_f0 = dataclasses.replace(
            problem.f0,
            value=lambda x, _f=problem.f0.value: 2.0 * _f(x),
            grad=lambda x, _g=problem.f0.grad: 2.0 * _g(x),
            hess=lambda x, _h=problem.f0.hess: 2.0 * _h(x),
            L=2.0 * problem.f0.L,
        )
        doubled = ProblemInstance.create(problem.F, doubled_f0)
        for _ in range(20):
            x = rng.normal(size=2)
            c1, _ = compute_c1_c2(problem, x)
            c1d, _ = compute_c1_c2(doubled, x)
            assert c1d <= c1 + 1e-12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_jacobian_raises(self, bad):
        # the SVD raises LinAlgError on a NaN entry and returns a NaN norm
        # on an inf one, which max(t1, t2) would drop
        problem = problem_from_spec(triangle_spec())
        x = np.array([0.5, 0.5])
        jacobian_T = problem.F.jacobian_T(x)
        jacobian_T[0, 1] = bad
        with pytest.raises(NumericalFailureError, match="Jacobian is not finite"):
            compute_c1_c2(problem, x, jacobian_T=jacobian_T)

    def test_overflowing_gradients_raise(self):
        # Hessians 1e300 I centred at (+-1e10, 0): both gradients at the
        # origin overflow, so no finite constant describes the point
        q = lambda z: {"kind": "quadratic", "H": [[1e300, 0.0], [0.0, 1e300]], "z": z}
        problem = problem_from_spec({
            "dimension": 2,
            "objectives": [q([1e10, 0.0]), q([-1e10, 0.0])],
            "preference": {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]], "z": [0.0, 1.0]},
        })
        with pytest.raises(NumericalFailureError):
            compute_c1_c2(problem, np.zeros(2))


class TestPmmSolve:
    def test_counterexample_default_init_certifies_at_origin(self, png_instance):
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        result = pmm_solve(png_instance, config)
        assert result.status == "certified"
        assert np.linalg.norm(result.point.x) <= 1e-3

    def test_counterexample_far_init(self, png_instance):
        config = SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.85, 0.15])))
        assert result.status == "certified"
        assert np.linalg.norm(result.point.x) <= 1e-2
        f0s = result.trace.f0_values()
        assert np.all(np.diff(f0s) <= 1e-10)

    def test_single_objective_immediate(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
        problem = ProblemInstance.create(F, make_quadratic(np.eye(2), E2))
        result = pmm_solve(problem, SolverConfig(eps0=1e-3, eps=1e-6))
        assert result.status == "certified"
        assert len(result.trace) == 1
        np.testing.assert_allclose(result.point.x, E1, atol=1e-9)

    def test_identity_pair_uniform_init_immediate(self, identity_pair):
        result = pmm_solve(identity_pair, SolverConfig(eps0=1e-3, eps=1e-6))
        assert result.status == "certified"
        assert len(result.trace) == 1
        np.testing.assert_allclose(result.point.beta.weights, [0.5, 0.5])

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_small_alpha_certifies(self, alpha):
        # every step is the exact projection, so a small gap budget does not
        # stall beta at an uncertified anchor
        problem = problem_from_spec(triangle_spec())
        config = SolverConfig(eps0=0.1, eps=0.01, alpha=alpha, max_outer=3000)
        result = pmm_solve(problem, config)
        assert result.status == "certified"
        assert result.certificate.gap <= alpha * config.eps0

    @pytest.mark.parametrize(
        "init",
        [(None, [1.0]), (None, [0.2, 0.3, 0.5]), ([0.0, 0.0, 0.0], [0.5, 0.5])],
        ids=["short-beta0", "long-beta0", "long-x0"],
    )
    def test_init_dimensions_checked(self, png_instance, init):
        with pytest.raises(InvalidArgumentError):
            pmm_solve(png_instance, SolverConfig(eps0=1e-3, eps=1e-6), init=init)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_x0_rejected(self, png_instance, value):
        with pytest.raises(InvalidArgumentError, match="x0 must be finite"):
            pmm_solve(png_instance, SolverConfig(eps0=1e-3, eps=1e-6), init=([0.0, value], [0.5, 0.5]))

    def test_budget_exceeded_status(self, png_instance):
        # this run certifies at step 2, so one step leaves it uncertified
        config = SolverConfig(eps0=1e-3, eps=1e-6, max_outer=1, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.9, 0.1])))
        assert result.status == "budget-exceeded"
        assert len(result.trace) == 2

    def test_descent_or_certify(self, png_instance):
        # every outer step either improves the oracle pullback value by the
        # guaranteed margin or ends certified
        config = SolverConfig(eps0=3e-2, eps=9e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.75, 0.25])))
        assert result.status == "certified"
        mu_g = png_instance.bundle.mu_g
        values = [
            png_instance.f0.value(oracle_point(png_instance, SimplexPoint(r.beta)).x)
            for r in result.trace
        ]
        for k in range(len(values) - 1):
            c1 = result.trace[k].c1
            margin = 0.5 * c1**2 * config.eps0**2 / mu_g
            certified_next = result.trace[k + 1].certified
            assert values[k + 1] - values[k] <= -margin + 1e-8 or certified_next

    def test_iteration_bound_from_oracle_range(self, png_instance):
        from paretomm import grid_search_preference_opt

        config = SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.8, 0.2])))
        assert result.status == "certified"
        grid = grid_search_preference_opt(png_instance, 200)
        c1_min = min(r.c1 for r in result.trace)
        bound = (
            2.0
            * png_instance.bundle.mu_g
            * (grid.f_star_max - grid.f_star_min)
            / (c1_min**2 * config.eps0**2)
        )
        assert len(result.trace) - 1 <= bound

    def test_random_instances_certify_consistent_with_oracle(self, rng):
        from paretomm import grid_search_preference_opt

        for shared in (True, False):
            problem = random_quadratic_problem(rng, d=3, n=3, shared=shared)
            eps0 = 3e-2
            result = pmm_solve(
                problem, SolverConfig(eps0=eps0, eps=eps0**2, newton_inner=True)
            )
            assert result.status == "certified"
            grid = grid_search_preference_opt(problem, 60)
            final = problem.f0.value(result.point.x)
            assert grid.f_star_min <= final + 2 * eps0 * (2.0 / 60) + 1e-9

    @pytest.mark.parametrize("instance", ["triangle", "log-cosh"])
    def test_trace_residuals_reuse_solved_points(self, instance, rng):
        if instance == "triangle":
            problem = problem_from_spec(triangle_spec())
        else:
            problem = random_logcosh_problem(rng, d=3, n=3, c=1.0)
        configs = [
            SolverConfig(eps0=1e-2, eps=1e-4, max_outer=150, newton_inner=flag)
            for flag in (False, True)
        ]
        traces = [pmm_solve(problem, config).trace for config in configs]
        for r in traces[0]:
            assert r.residual == ManifoldPoint.from_x_beta(problem.F, r.x, r.beta).residual
        assert len(traces[0]) == len(traces[1]) > 1
        for a, b in zip(*traces):
            assert np.array_equal(a.beta, b.beta) and np.array_equal(a.x, b.x)
            assert (a.residual, a.f0_value, a.gap, a.err, a.certified, a.c1, a.c2) == (
                b.residual, b.f0_value, b.gap, b.err, b.certified, b.c1, b.c2
            )

    def test_first_row_is_the_solved_start(self):
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        result = pmm_solve(problem_from_spec(triangle_spec()), config)
        # the raw start beta0 . minimizers has residual 0.48 here
        assert result.trace[0].residual <= config.eps

    @pytest.mark.parametrize("start", [1e4, 1e8])
    def test_far_x0_only_starts_the_first_solve(self, start):
        # At x0 = (1e8, 1e8) the raw point's residual rounding floor is 2.8e-6,
        # above eps; x0 is only where Newton starts, so the run takes the
        # default start's steps.
        problem = problem_from_spec(triangle_spec())
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        base = pmm_solve(problem, config)
        result = pmm_solve(problem, config, init=(np.full(2, start), SimplexPoint.uniform(3)))
        assert result.status == "certified"
        assert len(result.trace) == len(base.trace)

    def test_iterate_outside_declared_tube_fails(self, png_instance):
        # a Pareto-set radius far below the true one (about 1) puts the first
        # step's point outside the tube around the solved start
        bundle = dataclasses.replace(png_instance.bundle, R_bound=1e-6)
        problem = dataclasses.replace(png_instance, bundle=bundle)
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        with pytest.raises(NumericalFailureError, match="Pareto neighborhood"):
            pmm_solve(problem, config, init=(None, np.array([0.9, 0.1])))

    def test_certified_point_near_oracle_minimizer(self, png_instance):
        config = SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.7, 0.3])))
        assert result.status == "certified"
        star = oracle_point(png_instance, result.point.beta)
        assert np.linalg.norm(result.point.x - star.x) <= config.eps / png_instance.F.mu


def closed_form_check(spec, beta, x):
    """Residual at x and exact-Jacobian l1 gap at x*(beta) of a quadratic spec, by numpy alone.

    x*(beta) solves (sum b_i H_i) x = sum b_i H_i z_i; its Jacobian column i
    is -H_beta^{-1} H_i (x* - z_i); the gap is the smallest eps with
    -v^T (beta' - beta) <= eps ||beta' - beta||_1 over the simplex, for
    v = J^T grad f0(x*), i.e. the largest (v_j - v_i) / 2 with beta_j > 0.
    """
    Hs = [np.array(e["H"], float) for e in spec["objectives"]]
    zs = [np.array(e["z"], float) for e in spec["objectives"]]
    H0, z0 = np.array(spec["preference"]["H"], float), np.array(spec["preference"]["z"], float)
    H_beta = sum(b * H for b, H in zip(beta, Hs))
    residual = float(np.linalg.norm(sum(b * H @ (x - z) for b, H, z in zip(beta, Hs, zs))))
    x_star = np.linalg.solve(H_beta, sum(b * H @ z for b, H, z in zip(beta, Hs, zs)))
    grads = np.column_stack([H @ (x_star - z) for H, z in zip(Hs, zs)])
    v = -np.linalg.solve(H_beta, grads).T @ (H0 @ (x_star - z0))
    gap = max((v[j] - v[i]) / 2.0 for j in range(len(v)) if beta[j] > 0 for i in range(len(v)))
    return residual, gap


def _transformed_triangle(shift=0.0, h_scale=1.0):
    spec = triangle_spec()
    for entry in spec["objectives"] + [spec["preference"]]:
        entry["H"] = (np.array(entry["H"]) * h_scale).tolist()
        entry["z"] = (np.array(entry["z"]) + shift).tolist()
    return spec


def exact_residual_squared(spec, beta, x):
    """||sum_i beta_i H_i (x - z_i)||^2 of a quadratic spec, in rationals at the given floats."""
    x = [Fraction(v) for v in np.asarray(x).tolist()]
    g = [Fraction(0)] * len(x)
    for b, entry in zip(np.asarray(beta).tolist(), spec["objectives"]):
        D = [xa - Fraction(za) for xa, za in zip(x, entry["z"])]
        for a, row in enumerate(entry["H"]):
            g[a] += Fraction(b) * sum(Fraction(h) * t for h, t in zip(row, D))
    return sum(v * v for v in g)


class TestRoundingFloor:
    """Inner targets c2 * eps below the gradient's rounding floor still certify."""

    def test_shifted_centres_take_the_unshifted_steps(self):
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        base = pmm_solve(problem_from_spec(triangle_spec()), config)
        spec = _transformed_triangle(shift=1e4)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        assert len(result.trace) == len(base.trace)
        np.testing.assert_allclose(result.point.beta.weights, base.point.beta.weights, atol=1e-12)
        residual, gap = closed_form_check(spec, result.point.beta.weights, result.point.x)
        assert residual <= config.eps and gap <= config.eps0

    def test_far_shifted_centres_certify_soundly(self):
        # At shift 1e10 x sits at its rounding floor, so the steps may differ
        # from the unshifted run's; the certified point must still be stationary.
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        spec = _transformed_triangle(shift=1e10)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        residual, gap = closed_form_check(spec, result.point.beta.weights, result.point.x)
        assert residual <= config.eps and gap <= config.eps0

    def test_unreachable_eps_stops_as_stalled(self):
        # Two of the triangle's objectives, the second centred at (2, 1), and
        # the preference centred at (1.5, 0), all shifted by 1e11: the residual
        # at the floats near the optimum stays above eps = 1e-8 (it ends near
        # 1e-5, with the weights that suit x) and f0 only moves within its
        # slack, so no step can certify; the run must stop within 50 steps
        # instead of spending its whole budget
        spec = _transformed_triangle(shift=1e11)
        spec["objectives"] = spec["objectives"][:2]
        spec["objectives"][1]["z"] = [2.0 + 1e11, 1.0 + 1e11]
        spec["preference"]["z"] = [1.5 + 1e11, 1e11]
        with pytest.raises(NumericalFailureError, match="stalled"):
            pmm_solve(problem_from_spec(spec), SolverConfig(eps0=1e-3, eps=1e-8, max_outer=50))

    def test_optimum_on_the_float_grid_certifies_at_tight_eps(self):
        # The triangle's optimum is f0's centre, a float point even at shift
        # 1e11, where the weights that suit x make the exact residual about
        # 1e-16: eps = 1e-8 is reachable, and the certified point's residual,
        # computed in rationals at the floats the run used, is within it
        config = SolverConfig(eps0=1e-3, eps=1e-8, max_outer=50)
        spec = _transformed_triangle(shift=1e11)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        residual2 = exact_residual_squared(spec, result.point.beta.weights, result.point.x)
        assert residual2 <= Fraction(config.eps) ** 2

    def test_far_shifted_residual_is_exact_within_eps(self):
        # At shift 1e11 eps = 1e-6 is reachable: the certified point's residual
        # ||sum_i beta_i H_i (x - z_i)||, computed exactly in rationals at the
        # floats the run used, is within eps
        config = SolverConfig(eps0=1e-3, eps=1e-6, max_outer=50)
        spec = _transformed_triangle(shift=1e11)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        residual2 = exact_residual_squared(spec, result.point.beta.weights, result.point.x)
        assert residual2 <= Fraction(config.eps) ** 2

    @pytest.mark.parametrize(
        "shift", (np.linspace(1.0, 9.0, 16) * [[1e10], [1e11]]).ravel().tolist(), ids=lambda s: f"{s:.4g}"
    )
    def test_far_shifts_certify_at_f0s_centre(self, shift):
        # The run reaches f0's centre, where grad f0 = 0 and the model's linear
        # term vanishes, so no step moves beta; the weights that suit that float
        # x, not luck in where x lands, must bring the residual under eps
        config = SolverConfig(eps0=1e-3, eps=1e-6, max_outer=50)
        spec = _transformed_triangle(shift=shift)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        beta, x = result.point.beta.weights, result.point.x
        assert exact_residual_squared(spec, beta, x) <= Fraction(config.eps) ** 2
        assert closed_form_check(spec, beta, x)[1] <= config.eps0

    def test_reweighting_keeps_x_and_lowers_the_residual(self):
        # At objective 1's centre the weights e_1 make the residual 0
        problem = problem_from_spec(triangle_spec())
        x = problem.F.minimizers[0].copy()
        point = ManifoldPoint.from_x_beta(problem.F, x, SimplexPoint.uniform(3))
        reweighted = _reweighted(problem.F, point)
        assert reweighted.x is point.x
        assert point.residual > 1.0 and reweighted.residual <= 1e-10
        np.testing.assert_allclose(reweighted.beta.weights, [1.0, 0.0, 0.0], atol=1e-10)
        exact = ManifoldPoint.from_x_beta(problem.F, x, SimplexPoint.vertex(3, 0))
        assert exact.residual == 0.0 and _reweighted(problem.F, exact) is exact

    def test_failed_min_norm_solve_keeps_the_point(self, identity_pair):
        # gradients near 1e300: the min-norm solve loses every weight
        F = identity_pair.F
        x = np.array([1e300, 0.0])
        with pytest.raises(NumericalFailureError, match="lost every weight"):
            min_norm_over_simplex(F.jacobian_T(x))
        point = ManifoldPoint.from_x_beta(F, x, SimplexPoint.uniform(2))
        assert _reweighted(F, point) is point

    def test_non_finite_surrogate_fails(self):
        # Hessians near 1e160 and centres near 1e4: the err bound overflows at the start
        q = lambda h, z: {"kind": "quadratic", "H": [[h]], "z": [z]}
        spec = {"dimension": 1, "objectives": [q(1.2e160, 10000.64), q(2.5e160, 10000.36)],
                "preference": q(2.3e160, 9999.3)}
        with pytest.raises(NumericalFailureError, match="non-finite surrogate at outer iteration 0"):
            pmm_solve(problem_from_spec(spec), SolverConfig(eps0=1e-3, eps=1e-6))

    def test_scaled_hessians_certify(self):
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        spec = _transformed_triangle(h_scale=1e4)
        result = pmm_solve(problem_from_spec(spec), config)
        assert result.status == "certified"
        residual, gap = closed_form_check(spec, result.point.beta.weights, result.point.x)
        assert residual <= config.eps and gap <= config.eps0

    def test_residual_under_its_rounding_floor_never_passes(self):
        # Gradients near 1e160 cancel to a computed residual of 0 at x = 0; the
        # rounding floor of that sum is far above eps, so the leg cannot pass
        spec = png_counterexample_spec()
        for entry in spec["objectives"]:
            entry["H"] = (np.array(entry["H"]) * 1e160).tolist()
        problem = problem_from_spec(spec)
        beta = SimplexPoint(np.array([0.5, 0.5]))
        point = ManifoldPoint.from_x_beta(problem.F, np.zeros(2), beta)
        assert point.residual == 0.0
        cert = _certificate(build_surrogate(problem, point), 1e-2, 1e-4, 0.5)
        assert not cert.passed and cert.residual > 1e100
        with pytest.raises(NumericalFailureError, match="rounding floor"):
            pmm_solve(problem, SolverConfig(eps0=1e-2, eps=1e-4))

    def test_err_leg_carries_the_residual_floor(self):
        # Centres at -+1e7 e1: at x = (1e-11, 0) the two gradients cancel to a
        # computed residual of 0, while the exact residual ||H x|| is 1.4e-11,
        # which puts the exact err bound far above its budget.
        spec = png_counterexample_spec()
        for entry in spec["objectives"]:
            entry["z"] = (np.array(entry["z"]) * 1e7).tolist()
        problem = problem_from_spec(spec)
        beta = SimplexPoint(np.array([0.5, 0.5]))
        point = ManifoldPoint.from_x_beta(problem.F, np.array([1e-11, 0.0]), beta)
        assert point.residual == 0.0
        assert err_grad_f0(problem, point.x, beta, residual=point.residual) == 0.0
        cert = _certificate(build_surrogate(problem, point), 1e-3, 1e-6, 0.5)
        assert cert.residual <= cert.eps and cert.gap <= cert.gap_budget
        assert not cert.passed and cert.err > cert.err_budget


def closed_form_model_terms(spec, beta, x):
    """f0(x), ||grad f0(x)||, the estimated pulled-back gradient and the Gauss-Newton metric at (x, beta).

    By numpy alone, evaluating the implicit-derivative formula at x itself:
    column i of J is -H_beta^{-1} H_i (x - z_i), the gradient is
    J^T grad f0(x), and the metric is J^T H0 J.
    """
    Hs = [np.array(e["H"], float) for e in spec["objectives"]]
    zs = [np.array(e["z"], float) for e in spec["objectives"]]
    H0, z0 = np.array(spec["preference"]["H"], float), np.array(spec["preference"]["z"], float)
    H_beta = sum(b * H for b, H in zip(beta, Hs))
    grads = np.column_stack([H @ (x - z) for H, z in zip(Hs, zs)])
    g0 = H0 @ (x - z0)
    J = -np.linalg.solve(H_beta, grads)
    return 0.5 * float((x - z0) @ H0 @ (x - z0)), float(np.linalg.norm(g0)), J.T @ g0, J.T @ H0 @ J


class TestBacktrackedCurvature:
    """Each step's damping sigma starts at 1e-2 tr(B0), B0 the Gauss-Newton metric, and doubles until accepted."""

    @pytest.fixture(scope="class")
    def planar_runs(self):
        """(spec, result) of the benchmark's planar runs."""
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        runs = []
        for spec, beta0 in ((triangle_spec(), None), (png_counterexample_spec(), [0.9, 0.1])):
            init = None if beta0 is None else (None, np.array(beta0))
            runs.append((spec, pmm_solve(problem_from_spec(spec), config, init=init)))
        return runs

    def test_planar_presets_certify_within_50_steps(self, planar_runs):
        # 2577 and 3626 steps at the fixed curvature mu_g
        for _, result in planar_runs:
            assert result.status == "certified"
            assert len(result.trace) - 1 <= 50

    def test_curvature_within_floor_and_cap(self, planar_runs, rng):
        problem = random_logcosh_problem(rng, d=3, n=3, c=1.0)
        logcosh = pmm_solve(problem, SolverConfig(eps0=1e-2, eps=1e-4, max_outer=3000))
        runs = [(problem_from_spec(spec), r) for spec, r in planar_runs] + [(problem, logcosh)]
        for problem, result in runs:
            mu_g = problem.bundle.mu_g
            assert result.trace[0].curvature == mu_g
            assert result.trace[0].trials == 1
            for r in result.trace[1:]:
                assert 1e-12 * mu_g <= r.curvature <= mu_g
                assert r.trials >= 1
            assert any(r.curvature < mu_g for r in result.trace)

    def test_steps_below_the_cap_descend_under_the_model(self, planar_runs):
        # A step accepted at its first trial took it in the exact tangent-plane
        # Hessian P (B0 + S) P when that and B0 pass the Cholesky test at
        # 1e-12 mu_g (n <= d + 1 on both presets); every other step was
        # accepted under B0.
        for spec, result in planar_runs:
            problem = problem_from_spec(spec)
            mu = min(np.linalg.eigvalsh(np.array(e["H"], float))[0] for e in spec["objectives"])
            L0 = np.linalg.eigvalsh(np.array(spec["preference"]["H"], float))[-1]
            floor = 1e-12 * problem.bundle.mu_g
            Hs = [np.array(e["H"], float) for e in spec["objectives"]]
            zs = [np.array(e["z"], float) for e in spec["objectives"]]
            H0, z0 = np.array(spec["preference"]["H"], float), np.array(spec["preference"]["z"], float)
            P = np.eye(len(Hs)) - 1.0 / len(Hs)

            def slack(r, g0n):
                dist = r.residual / mu
                return g0n * dist + 0.5 * L0 * dist**2

            def convex(M):
                try:
                    np.linalg.cholesky(M + floor * np.eye(len(M)))
                except np.linalg.LinAlgError:
                    return False
                return True

            def metric(r, B0):
                """The metric of a first trial at anchor r: P (B0 + S) P when it and B0 are convex, else B0.

                For quadratics S_kj = -p^T (H_k J e_j + H_j J e_k), with
                p = H_beta^-1 grad f0(x) and J the Jacobian of x*(beta).
                """
                H_beta = sum(b * H for b, H in zip(r.beta, Hs))
                J = -np.linalg.solve(H_beta, np.column_stack([H @ (r.x - z) for H, z in zip(Hs, zs)]))
                p = np.linalg.solve(H_beta, H0 @ (r.x - z0))
                A = np.array([p @ H for H in Hs]) @ J
                exact = P @ (B0 - A - A.T) @ P
                return exact if convex(B0) and convex(exact) else B0

            records = result.trace
            below_cap = exact_steps = 0
            for prev, cur in zip(records, records[1:]):
                f_prev, g_prev, linear, B0 = closed_form_model_terms(spec, prev.beta, prev.x)
                f_cur, g_cur, _, _ = closed_form_model_terms(spec, cur.beta, cur.x)
                if cur.curvature >= problem.bundle.mu_g:
                    continue
                below_cap += 1
                G = metric(prev, B0) if cur.trials == 1 else B0
                exact_steps += G is not B0
                d = cur.beta - prev.beta
                model = float(linear @ d) + 0.5 * float(d @ (G + cur.curvature * np.eye(d.size)) @ d)
                model += prev.err
                assert f_cur <= f_prev
                assert f_cur - f_prev <= model + slack(prev, g_prev) + slack(cur, g_cur)
            assert below_cap >= len(records) // 2
            assert exact_steps >= 1

    def test_triangle_steps_and_solves(self, planar_runs):
        # As with the Gauss-Newton model alone, the first step rejects its
        # first trial and the other two accept theirs
        _, result = planar_runs[0]
        assert len(result.trace) - 1 == 3
        assert sum(r.trials for r in result.trace) == 5

    def test_concave_preference_takes_the_isotropic_step(self, identity_pair):
        # B0 = -J^T J is negative semidefinite, so no damped model B0 + sigma I
        # below the cap is convex: every step is the untested mu_g step
        f0 = SmoothFunction(dim=2, value=lambda x: -0.5 * float(x @ x), grad=lambda x: -x,
                            hess=lambda x: -np.eye(2), L=1.0)
        problem = ProblemInstance.create(identity_pair.F, f0)
        result = pmm_solve(problem, SolverConfig(eps0=1e-2, eps=1e-4), init=(None, np.array([0.6, 0.4])))
        assert result.status == "certified"
        np.testing.assert_array_equal(result.point.beta.weights, [1.0, 0.0])
        assert len(result.trace) > 2
        assert all(r.curvature == problem.bundle.mu_g and r.trials == 1 for r in result.trace)

    def test_gauss_newton_metric_is_exact_on_png_example(self, png_instance):
        # x*(beta) = Z^T beta, so the pulled-back preference is quadratic with
        # Hessian Z Z^T, which B0 = J^T J equals on the tangent plane sum d = 0
        # (column i of J is z_i - x).  Each step is accepted at its first
        # trial, at sigma = rho tr(B0) = rho sum_i |z_i - x|^2: rho = 1e-2 at
        # the first step, and a quarter of the previous step's sigma / tr(B0)
        # after that, since the previous step was accepted at its first trial.
        # Along d = t (-1, 1) the model is
        # (g_2 - g_1) t + 0.5 t^2 (|z_2 - z_1|^2 + 2 sigma).
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.9, 0.1])))
        assert result.status == "certified"
        assert len(result.trace) - 1 == 2
        assert sum(r.trials for r in result.trace) == 3  # the start's solve and one per step
        Z, z0 = png_instance.F.minimizers, np.array(png_counterexample_spec()["preference"]["z"])
        ratio, shrink = 1e-2, False
        for prev, cur in zip(result.trace, result.trace[1:]):
            trace_B0 = float(((Z - prev.x) ** 2).sum())
            sigma = (ratio / 4.0 if shrink else ratio) * trace_B0
            assert cur.curvature == pytest.approx(sigma, rel=1e-9)
            ratio, shrink = cur.curvature / trace_B0, cur.trials == 1
            g = (Z - prev.x) @ (prev.x - z0)
            t = -(g[1] - g[0]) / (float((Z[1] - Z[0]) @ (Z[1] - Z[0])) + 2.0 * sigma)
            np.testing.assert_allclose(cur.beta, prev.beta + t * np.array([-1.0, 1.0]), rtol=0.0, atol=1e-12)

    def test_secant_is_the_exact_curvature_on_png_example(self, png_instance):
        # x*(beta) = Z^T beta, so the pulled-back preference is quadratic with
        # Hessian Z Z^T: its curvature along (1, -1) is |z_1 - z_2|^2 / 2 = 2.
        # The secant of linear between consecutive iterates reads it, and so
        # does B0 at each anchor
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.9, 0.1])))
        assert result.status == "certified"
        assert len(result.trace) - 1 == 2
        spec = png_counterexample_spec()
        for prev, cur in zip(result.trace, result.trace[1:]):
            _, _, linear_prev, B0 = closed_form_model_terms(spec, prev.beta, prev.x)
            _, _, linear_cur, _ = closed_form_model_terms(spec, cur.beta, cur.x)
            d = cur.beta - prev.beta
            assert float((linear_cur - linear_prev) @ d) / float(d @ d) == pytest.approx(2.0, rel=1e-9)
            assert float(d @ B0 @ d) / float(d @ d) == pytest.approx(2.0, rel=1e-9)


class TestStartDamping:
    """ratio tr(B0) (ratio 1e-2 by default), clipped to [1e-12 cap, cap];
    the cap when B0 + 1e-12 cap I is not positive definite or finite."""

    @pytest.mark.parametrize(
        "B0, expected",
        [
            ([[100.0, -50.0], [-50.0, 100.0]], 2.0),
            ([[500.0, 0.0], [0.0, 500.0]], 8.0),  # 10, clipped to the cap
            ([[0.0, 0.0], [0.0, 0.0]], 8e-12),  # singular: raised to the floor
            ([[1.0, 2.0], [2.0, 1.0]], 8.0),  # indefinite
            ([[-1e-11, 0.0], [0.0, 1.0]], 8.0),  # negative beyond the floor 8e-12
            ([[np.nan, 0.0], [0.0, 1.0]], 8.0),
            ([[1.0, np.inf], [np.inf, 1.0]], 8.0),
        ],
        ids=["trace", "cap", "floor", "indefinite", "below-floor", "nan", "inf"],
    )
    def test_start(self, B0, expected):
        assert _start_damping(np.array(B0), 8.0)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "B0, ratio, expected",
        [
            ([[100.0, -50.0], [-50.0, 100.0]], 2.5e-3, 0.5),  # the default start shrunk by 1/4
            ([[100.0, -50.0], [-50.0, 100.0]], 0.2, 8.0),  # 40, clipped to the cap
            ([[100.0, -50.0], [-50.0, 100.0]], 1e-16, 8e-12),  # 2e-14, raised to the floor
            ([[1.0, 2.0], [2.0, 1.0]], 1e-4, 8.0),  # indefinite: the cap at any ratio
        ],
        ids=["shrunk", "cap", "floor", "indefinite"],
    )
    def test_carried_ratio(self, B0, ratio, expected):
        assert _start_damping(np.array(B0), 8.0, ratio)[0] == pytest.approx(expected, rel=1e-12)


class TestCarriedDamping:
    """The damping ratio sigma / tr(B0) carries from each accepted step to the next."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_random_quadratics_certify_within_8_steps(self, seed):
        # (d, n) = (40, 120), where most weights end at 0 and the exact metric
        # is off: restarting sigma at 1e-2 tr(B0) every step took 20-24 steps
        spec = random_problem_spec(np.random.default_rng(seed), 40, 120)
        result = pmm_solve(problem_from_spec(spec), SolverConfig(eps0=0.1, eps=0.01))
        assert result.status == "certified"
        assert len(result.trace) - 1 <= 8
        residual, gap = closed_form_check(spec, result.point.beta.weights, result.point.x)
        assert residual <= 0.01 and gap <= 0.1

    def test_each_start_follows_the_previous_accepted_step(self, rng):
        # A step's first trial is at rho / 4 after a step accepted at its
        # first trial and at rho otherwise, with rho = 1e-2 at the first step
        # and the previous accepted sigma / tr(B0) after it; B0 = J^T H0 J
        # from the closed form at each anchor.  Steps that hit the floor or
        # the cap are skipped, and so is everything after them.
        spec = random_problem_spec(rng, 6, 12)
        problem = problem_from_spec(spec)
        result = pmm_solve(problem, SolverConfig(eps0=0.1, eps=0.01))
        assert result.status == "certified"
        mu_g = problem.bundle.mu_g
        ratio, shrink, checked = 1e-2, False, 0
        for prev, cur in zip(result.trace, result.trace[1:]):
            *_, B0 = closed_form_model_terms(spec, prev.beta, prev.x)
            trace_B0 = float(np.trace(B0))
            start = (ratio / 4.0 if shrink else ratio) * trace_B0
            if not 1e-12 * mu_g < cur.curvature < mu_g:
                break
            growth = 1.0 if cur.trials == 1 else (4.0 if shrink else 2.0) * 2.0 ** (cur.trials - 2)
            assert cur.curvature == pytest.approx(start * growth, rel=1e-9)
            ratio, shrink, checked = cur.curvature / trace_B0, cur.trials == 1, checked + 1
        assert checked >= 2


def _metric_terms(problem, beta):
    """B0 and the exact metric at x*(beta), solved to the rounding floor."""
    point = solve_x_star(problem.F, SimplexPoint(beta), tol_grad=1e-12 * problem.F.L)
    surrogate = build_surrogate(problem, point)
    J = surrogate.x_star_jacobian
    B0 = J.T @ problem.f0.hess(point.x) @ J
    return B0, _exact_metric(problem.F, surrogate, B0)


class TestExactMetric:
    """P (B0 + S) P is the Hessian of beta -> f0(x*(beta)) on the tangent plane sum d = 0."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        n=st.integers(2, 4),
        c=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences(self, d, n, c, seed):
        # Quadratics with distinct Hessians (c = 0) or log-cosh objectives; the
        # mixed central difference at steps h and 2h, extrapolated to h = 0,
        # along an orthonormal basis E of the tangent plane
        rng = np.random.default_rng(seed)
        spec = random_problem_spec(rng, d, n)
        if c:
            spec["objectives"] = [
                {"kind": "builtin", "name": "log_cosh_quadratic", "params": {"H": e["H"], "z": e["z"], "c": c}}
                for e in spec["objectives"]
            ]
        problem = problem_from_spec(spec)
        beta = 0.2 / n + 0.8 * rng.dirichlet(np.ones(n))
        _, M = _metric_terms(problem, beta)

        def phi(b):
            x = solve_x_star(problem.F, SimplexPoint(b), tol_grad=1e-12 * problem.F.L).x
            return problem.f0.value(x)

        E = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, : n - 1]

        def second_differences(h):
            out = np.empty((n - 1, n - 1))
            for i in range(n - 1):
                for j in range(i, n - 1):
                    u, v = h * E[:, i], h * E[:, j]
                    out[i, j] = out[j, i] = (
                        phi(beta + u + v) - phi(beta + u - v) - phi(beta - u + v) + phi(beta - u - v)
                    ) / (4.0 * h * h)
            return out

        fd = (4.0 * second_differences(1e-3) - second_differences(2e-3)) / 3.0
        exact = E.T @ M @ E
        assert np.abs(fd - exact).max() <= 1e-5 * np.abs(exact).max()

    def test_rows_sum_to_zero(self, rng):
        problems = [
            problem_from_spec(triangle_spec()),  # quadratic family
            random_logcosh_problem(rng, d=3, n=3, c=1.0),  # log-cosh family
        ]
        F = problems[0].F  # a hand-written quadratic: no family, L_H = 0
        hand = dataclasses.replace(F.objectives[0], value=lambda x, f=F.objectives[0].value: f(x))
        loop = ObjectiveSet.from_objectives([hand, *F.objectives[1:]])
        assert loop.family is None and loop.L_H == 0.0
        problems.append(ProblemInstance.create(loop, problems[0].f0))
        for problem in problems:
            B0, M = _metric_terms(problem, np.full(problem.F.n, 1.0 / problem.F.n))
            np.testing.assert_allclose(M, M.T, rtol=0.0, atol=1e-12 * np.abs(M).max())
            np.testing.assert_allclose(M.sum(axis=1), 0.0, rtol=0.0, atol=1e-12 * np.abs(M).max())
            assert not np.allclose(M, B0)

    def test_set_without_a_family_keeps_gauss_newton(self, rng):
        # L_H > 0 and no family: the third derivative of the scalarization is unknown
        problem = random_logcosh_problem(rng, d=3, n=3, c=1.0)
        f = problem.F.objectives[0]
        hand = dataclasses.replace(f, value=lambda x: f.value(x))
        F = ObjectiveSet.from_objectives([hand, *problem.F.objectives[1:]])
        assert F.family is None and F.L_H > 0.0
        B0, M = _metric_terms(ProblemInstance.create(F, problem.f0), np.full(3, 1.0 / 3.0))
        assert M is B0


class TestTangentPredictor:
    """Each trial's x*(beta) solve starts at x + J (beta_new - beta), J estimated at the anchor."""

    @pytest.fixture
    def newton_iterations(self, monkeypatch):
        """Iteration count of every inner Newton solve, in order."""
        counts = []
        inner = manifold.minimize_function

        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            counts.append(result.iterations)
            return result

        monkeypatch.setattr(manifold, "minimize_function", counted)
        return counts

    def test_shared_hessian_prediction_is_exact(self, newton_iterations):
        # x*(beta) = Z^T beta is affine, so the prediction needs no Newton step
        # (the anchor start took one per solve)
        problem = problem_from_spec(png_counterexample_spec())
        result = pmm_solve(problem, SolverConfig(eps0=1e-3, eps=1e-6), init=(None, np.array([0.9, 0.1])))
        assert result.status == "certified"
        assert len(newton_iterations) == sum(r.trials for r in result.trace)
        assert newton_iterations == [0] * len(newton_iterations)

    def test_log_cosh_triangle_takes_fewer_newton_steps(self, newton_iterations):
        spec = triangle_spec()
        spec["objectives"] = [
            {"kind": "builtin", "name": "log_cosh_quadratic", "params": {"H": e["H"], "z": e["z"], "c": 1.0}}
            for e in spec["objectives"]
        ]
        result = pmm_solve(problem_from_spec(spec), SolverConfig(eps0=1e-3, eps=1e-6))
        assert result.status == "certified"
        assert len(result.trace) - 1 == 2
        # The first step's exact-Hessian trial lowers f0 by 0.0202 where its
        # model predicts 0.0234: so far out (the first weight moves by 0.12)
        # that model is no upper bound, so the trial is rejected and the
        # Gauss-Newton model at twice the damping is accepted.
        assert [r.trials for r in result.trace] == [1, 2, 1]
        assert len(newton_iterations) == 4
        assert sum(newton_iterations) == 11  # 12 from the anchor


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 6),
    n=st.integers(2, 5),
    eps0=st.sampled_from([1e-1, 1e-2, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_shared_hessian_point_is_near_the_global_optimum(d, n, eps0, seed):
    # The pulled-back preference is convex here, so f0 - f* <= g^T (beta - beta*)
    # <= 2 * (gap + err) <= 2 * eps0 at x*(beta): err bounds the l-infinity
    # norm of the gradient error, which is what the l1 gap's dual needs.
    problem = problem_from_spec(random_problem_spec(np.random.default_rng(seed), d, n, shared_hessian=True))
    _, f_star = shared_hessian_optimum(problem)
    result = pmm_solve(problem, SolverConfig(eps0=eps0, eps=eps0**2))
    if result.status == "certified":
        x = result.point.x
        # the certificate's residual, floor included, bounds the exact one
        point = dataclasses.replace(result.point, residual=result.certificate.residual)
        slack = _rounding_slack(problem, point, float(np.linalg.norm(problem.f0.grad(x))))
        assert problem.f0.value(x) - f_star <= 2.0 * eps0 + slack
    if n <= 4:
        grid = grid_search_preference_opt(problem, 30)
        assert grid.f_star_min >= f_star - 1e-12 * (1.0 + abs(f_star))


def log_cosh_oracle(spec, beta):
    """x*(beta) of a spec with log-cosh objectives, and the exact implicit Jacobian there, by numpy alone.

    Damped Newton on sum_i beta_i f_i from the spec's (H, z, c) terms, to the
    rounding floor; then column i of J is -hess f_beta(x*)^{-1} grad f_i(x*).
    """
    terms = [(np.array(p["H"], float), np.array(p["z"], float), p["c"])
             for p in (e["params"] for e in spec["objectives"])]

    def value(x):
        return sum(b * (0.5 * (x - z) @ H @ (x - z) + c * np.log(np.cosh(x - z)).sum())
                   for b, (H, z, c) in zip(beta, terms))

    def grads(x):
        return np.array([H @ (x - z) + c * np.tanh(x - z) for H, z, c in terms])

    def hess(x):
        return sum(b * (H + c * np.diag(1.0 / np.cosh(x - z) ** 2)) for b, (H, z, c) in zip(beta, terms))

    x = beta @ np.array([z for _, z, _ in terms])
    for _ in range(60):
        g = beta @ grads(x)
        p = np.linalg.solve(hess(x), g)
        t, fx = 1.0, value(x)
        slack = 1e-14 * (1.0 + abs(fx))  # the decrease test drowns near the floor
        while t > 1e-12 and value(x - t * p) > fx - 1e-4 * t * float(g @ p) + slack:
            t *= 0.5
        x = x - t * p
    assert np.linalg.norm(beta @ grads(x)) <= 1e-11
    return x, -np.linalg.solve(hess(x), grads(x).T)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 6),
    n=st.integers(2, 4),
    c=st.sampled_from([0.1, 1.0, 10.0]),
    eps0=st.sampled_from([1e-1, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_log_cosh_point_passes_an_independent_check(d, n, c, eps0, seed):
    # The pulled-back gradient at the exact x*(beta) must have l1 gap within
    # eps0 (the gap and err legs together bound it), and x must lie within
    # eps / mu of x*(beta) (strong convexity and the residual leg).
    spec = random_problem_spec(np.random.default_rng(seed), d, n)
    spec["objectives"] = [
        {"kind": "builtin", "name": "log_cosh_quadratic", "params": {"H": e["H"], "z": e["z"], "c": c}}
        for e in spec["objectives"]
    ]
    config = SolverConfig(eps0=eps0, eps=eps0**2, max_outer=1000)
    result = pmm_solve(problem_from_spec(spec), config)
    assert result.status == "certified"
    beta = result.point.beta.weights
    x_star, J = log_cosh_oracle(spec, beta)
    H0, z0 = np.array(spec["preference"]["H"], float), np.array(spec["preference"]["z"], float)
    v = J.T @ (H0 @ (x_star - z0))
    gap = max((v[j] - v[i]) / 2.0 for j in range(n) if beta[j] > 0 for i in range(n))
    assert gap <= eps0
    mu = min(np.linalg.eigvalsh(np.array(e["params"]["H"], float))[0] for e in spec["objectives"])
    assert np.linalg.norm(result.point.x - x_star) <= config.eps / mu


DOCUMENTED_ERRORS = (InvalidArgumentError, ConfigurationError, NumericalFailureError, InfeasibleError)


def _random_quadratic(rng, d, scale, shift):
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    H = (Q * (rng.uniform(0.5, 3.0, size=d) * scale)) @ Q.T
    return {"kind": "quadratic", "H": (0.5 * (H + H.T)).tolist(),
            "z": (rng.normal(size=d) + shift).tolist()}


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    exponents=st.tuples(*[st.sampled_from([-4, 0, 4, 160])] * 2),
    shift=st.sampled_from([0.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_extreme_specs_fail_cleanly_or_certify_soundly(d, n, exponents, shift, seed):
    # Objective and preference Hessians each scaled by 10^a; centres near 0 or 1e4.
    rng = np.random.default_rng(seed)
    scale_F, scale_f0 = (10.0**a for a in exponents)
    spec = {
        "dimension": d,
        "objectives": [_random_quadratic(rng, d, scale_F, shift) for _ in range(n)],
        "preference": _random_quadratic(rng, d, scale_f0, shift),
    }
    config = SolverConfig(eps0=0.1, eps=0.01, max_outer=300)
    try:
        result = pmm_solve(problem_from_spec(spec), config)
    except DOCUMENTED_ERRORS:
        return
    if result.status == "certified":
        residual, gap = closed_form_check(spec, result.point.beta.weights, result.point.x)
        assert residual <= config.eps
        assert gap <= config.eps0
