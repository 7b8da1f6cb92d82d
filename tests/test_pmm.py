import io

import numpy as np
import pytest

from paretomm import (
    ConfigurationError,
    InvalidArgumentError,
    ManifoldPoint,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    SolverConfig,
    StationarityCertificate,
    build_surrogate,
    compute_c1_c2,
    make_quadratic,
    pmm_solve,
    solve_x_star,
    verify_preference_stationarity,
)
from paretomm.pmm import trace_header
from paretomm.problem_io import problem_from_spec, triangle_spec
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
        ok, cert = verify_preference_stationarity(identity_pair, pt, 1e-3, 1e-6)
        assert ok
        assert cert.gap <= 1e-11
        assert cert.err <= 1e-11

    def test_residual_gate(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        pt = ManifoldPoint.from_x_beta(identity_pair.F, np.array([0.5, 0.5]), beta)
        ok, cert = verify_preference_stationarity(identity_pair, pt, 1e-3, 1e-6)
        assert not ok
        assert cert.residual > 1e-6

    def test_png_vertex_not_stationary(self, png_instance):
        # at x = e1, beta = (0,1) a descent direction toward the other
        # vertex exists, so verification fails for small eps0
        beta = SimplexPoint(np.array([0.0, 1.0]))
        pt = ManifoldPoint.from_x_beta(png_instance.F, E1, beta)
        assert pt.residual <= 1e-12
        ok, cert = verify_preference_stationarity(png_instance, pt, 1e-3, 1e-6)
        assert not ok
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

    def test_budget_exceeded_status(self, png_instance):
        config = SolverConfig(eps0=1e-3, eps=1e-6, max_outer=2, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.9, 0.1])))
        assert result.status == "budget-exceeded"
        assert len(result.trace) == 3

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
            c1 = result.trace.records[k].c1
            margin = 0.5 * c1**2 * config.eps0**2 / mu_g
            certified_next = result.trace.records[k + 1].certified
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

    def test_certified_point_near_oracle_minimizer(self, png_instance):
        config = SolverConfig(eps0=1e-2, eps=1e-4, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.7, 0.3])))
        assert result.status == "certified"
        star = oracle_point(png_instance, result.point.beta)
        assert np.linalg.norm(result.point.x - star.x) <= config.eps / png_instance.F.mu


class TestTraceCsv:
    def test_header_and_column_count(self, png_instance):
        result = pmm_solve(png_instance, SolverConfig(eps0=1e-3, eps=1e-6))
        buf = io.StringIO()
        result.trace.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        n, d = png_instance.F.n, png_instance.F.dim
        header = lines[0].split(",")
        assert header == trace_header(n, d)
        assert header == ["k", "beta_0", "beta_1", "x_0", "x_1", "residual", "f0", "gap", "err", "certified"]
        assert all(len(line.split(",")) == n + d + 6 for line in lines)

    def test_rows_parse_back(self, png_instance):
        config = SolverConfig(eps0=1e-2, eps=1e-4, max_outer=5, newton_inner=True)
        result = pmm_solve(png_instance, config, init=(None, np.array([0.9, 0.1])))
        buf = io.StringIO()
        result.trace.write_csv(buf)
        rows = buf.getvalue().strip().split("\n")[1:]
        assert len(rows) == len(result.trace)
        first = rows[0].split(",")
        assert int(first[0]) == 0
        np.testing.assert_allclose(
            [float(first[1]), float(first[2])], result.trace.records[0].beta
        )
        ks = [r.k for r in result.trace]
        assert ks == sorted(set(ks))

    def test_subsolver_budget_attaches_trace(self, png_instance):
        from paretomm import BudgetExceededError

        config = SolverConfig(eps0=1e-3, eps=1e-6, max_inner_x=0)
        with pytest.raises(BudgetExceededError) as info:
            pmm_solve(png_instance, config, init=(np.array([3.0, 3.0]), np.array([0.9, 0.1])))
        assert info.value.trace is not None
        assert len(info.value.trace) >= 1
