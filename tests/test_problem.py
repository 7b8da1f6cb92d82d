import dataclasses

import numpy as np
import pytest

from paretomm import (
    ConfigurationError,
    InvalidArgumentError,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    derive_constants,
    make_log_cosh_quadratic,
    make_quadratic,
    norm_1_2,
    quadratic_from_hessian,
    scalarize,
    solve_x_star,
)
from conftest import random_quadratic_problem, random_spd

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    return g


def fd_hess(f, x, h=1e-6):
    H = np.zeros((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (f.grad(x + e) - f.grad(x - e)) / (2 * h)
    return H


class TestMakeQuadratic:
    def test_identity(self):
        f = make_quadratic(np.eye(2), np.zeros(2))
        assert f.value(E1) == pytest.approx(0.5)
        np.testing.assert_allclose(f.grad(E1), E1)
        np.testing.assert_allclose(f.hess(E1), np.eye(2))

    def test_cholesky_factor_gradient(self, rng):
        # H = [[1,1],[1,2]] centered at -e1: grad at 0 is H e1 = (1, 1)
        H = np.array([[1.0, 1.0], [1.0, 2.0]])
        f = quadratic_from_hessian(H, -E1)
        np.testing.assert_allclose(f.grad(np.zeros(2)), np.array([1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(f.hess(np.zeros(2)), H, atol=1e-12)
        # the function keeps the given H itself, not a refactored H
        for d in range(1, 9):
            H, z, x = random_spd(rng, d), rng.normal(size=d), rng.normal(size=d)
            f = quadratic_from_hessian(H, z)
            np.testing.assert_array_equal(f.hess(x), H)
            np.testing.assert_array_equal(f.grad(x), H @ (x - z))
            eigs = np.linalg.eigvalsh(H)
            assert (f.mu, f.L) == (eigs[0], eigs[-1])

    def test_scaled_identity_constants(self):
        f = make_quadratic(2.0 * np.eye(2), E2)
        assert f.mu == pytest.approx(4.0)
        assert f.L == pytest.approx(4.0)
        assert f.value(np.zeros(2)) == pytest.approx(2.0)

    def test_rank_deficient_rejected(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            make_quadratic(A, np.zeros(2))

    def test_derivatives_match_finite_differences(self, rng):
        for _ in range(4):
            d = int(rng.integers(2, 5))
            f = make_quadratic(rng.normal(size=(d, d)) + 2 * np.eye(d), rng.normal(size=d))
            for _ in range(20):
                x = rng.normal(size=d)
                gn = max(1.0, np.linalg.norm(f.grad(x)))
                assert np.linalg.norm(f.grad(x) - fd_grad(f, x)) <= 1e-5 * gn
                hn = max(1.0, np.linalg.norm(f.hess(x)))
                assert np.linalg.norm(f.hess(x) - fd_hess(f, x)) <= 1e-4 * hn


class TestLogCoshQuadratic:
    def test_minimizer_stays_at_center(self, rng):
        z = rng.normal(size=3)
        f = make_log_cosh_quadratic(random_spd(rng, 3), z, 0.7)
        np.testing.assert_allclose(f.grad(z), np.zeros(3), atol=1e-14)

    def test_derivatives_and_curvature_floor(self, rng):
        f = make_log_cosh_quadratic(random_spd(rng, 2), rng.normal(size=2), 0.5)
        for _ in range(20):
            x = rng.normal(size=2) * 2
            gn = max(1.0, np.linalg.norm(f.grad(x)))
            assert np.linalg.norm(f.grad(x) - fd_grad(f, x)) <= 1e-5 * gn
            hn = max(1.0, np.linalg.norm(f.hess(x)))
            assert np.linalg.norm(f.hess(x) - fd_hess(f, x)) <= 1e-4 * hn
            assert np.linalg.eigvalsh(f.hess(x))[0] >= f.mu - 1e-9

    def test_hessian_lipschitz_declared(self, rng):
        c = 0.8
        f = make_log_cosh_quadratic(np.eye(2), np.zeros(2), c)
        worst = 0.0
        for _ in range(200):
            x, y = rng.normal(size=2), rng.normal(size=2)
            dH = np.linalg.norm(f.hess(x) - f.hess(y), 2)
            worst = max(worst, dH / max(np.linalg.norm(x - y), 1e-12))
        assert worst <= f.L_H + 1e-9


class TestScalarize:
    def test_symmetric_pair_cancels_cross_terms(self, identity_pair):
        beta = SimplexPoint(np.array([0.5, 0.5]))
        fb = scalarize(identity_pair.F, beta)
        # 0.5*||x+e1||^2/2 + 0.5*||x-e1||^2/2 = ||x||^2/2 + 1/2
        assert fb.value(np.zeros(2)) == pytest.approx(0.5)
        for x in (E1, E2, np.array([0.3, -2.0])):
            assert fb.value(x) == pytest.approx(0.5 * x @ x + 0.5)

    def test_single_objective_identity(self):
        f = make_quadratic(np.eye(2), E2)
        F = ObjectiveSet.from_objectives([f])
        fb = scalarize(F, SimplexPoint(np.array([1.0])))
        x = np.array([0.7, -0.2])
        assert fb.value(x) == pytest.approx(f.value(x))
        np.testing.assert_allclose(fb.grad(x), f.grad(x))
        np.testing.assert_allclose(fb.hess(x), f.hess(x))
        assert (fb.mu, fb.L, fb.L_H) == (F.mu, F.L, F.L_H)

    def test_weighted_gradient_closed_form(self, identity_pair):
        beta = SimplexPoint(np.array([0.25, 0.75]))
        fb = scalarize(identity_pair.F, beta)
        # identity Hessians: grad f_beta(0) = -(0.25*z1 + 0.75*z2)
        np.testing.assert_allclose(fb.grad(np.zeros(2)), np.array([-0.5, 0.0]), atol=1e-14)

    def test_dimension_mismatch(self, identity_pair):
        with pytest.raises(InvalidArgumentError):
            scalarize(identity_pair.F, SimplexPoint(np.array([0.2, 0.3, 0.5])))

    def test_linearity_property(self, rng):
        problem = random_quadratic_problem(rng, d=3, n=3)
        for _ in range(25):
            beta = SimplexPoint(rng.dirichlet(np.ones(3)))
            fb = scalarize(problem.F, beta)
            x = rng.normal(size=3)
            direct = sum(w * f.value(x) for w, f in zip(beta.weights, problem.F.objectives))
            assert abs(fb.value(x) - direct) <= 1e-12 * max(1.0, abs(direct))


class TestObjectiveSet:
    def test_cached_minimizers_and_r(self, rng):
        problem = random_quadratic_problem(rng, d=3, n=3)
        F = problem.F
        assert 0 < F.mu <= F.L
        for f, m in zip(F.objectives, F.minimizers):
            assert np.linalg.norm(f.grad(m)) <= 1e-10 * F.L
        dists = [
            np.linalg.norm(a - b) for a in F.minimizers for b in F.minimizers
        ]
        assert F.r == pytest.approx(max(dists))

    def test_minimizer_hint_must_be_the_minimizer(self):
        other = make_quadratic(np.eye(2), E2)
        f = make_quadratic(np.eye(2), E1)
        for hint in (None, E1 + 1e-6):
            bad = dataclasses.replace(f, minimizer_hint=hint)
            with pytest.raises(ConfigurationError, match="objective 1"):
                ObjectiveSet.from_objectives([other, bad])

    def test_gradient_bound_on_stationary_points(self, rng):
        # max_i ||grad f_i(x_beta)|| <= L * (sampled diameter), sampling the
        # vertices so the binding minimizer pair is inside the sample
        for shared in (False, True):
            problem = random_quadratic_problem(rng, d=3, n=3, shared=shared)
            F = problem.F
            betas = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(30)]
            betas += [SimplexPoint.vertex(3, j) for j in range(3)]
            xs = [solve_x_star(F, b, tol_grad=1e-12, newton=True).x for b in betas]
            r_emp = max(
                np.linalg.norm(a - b) for a in xs for b in xs
            )
            for x in xs:
                assert norm_1_2(F.jacobian_T(x)) <= F.L * r_emp + 1e-9

    def test_empirical_diameter_within_bound(self, rng):
        problem = random_quadratic_problem(rng, d=3, n=3)
        F = problem.F
        xs = [
            solve_x_star(F, SimplexPoint(rng.dirichlet(np.ones(3))), 1e-10, newton=True).x
            for _ in range(50)
        ]
        diam = max(np.linalg.norm(a - b) for a in xs for b in xs)
        assert diam <= problem.bundle.R_bound + 1e-8


class TestDeriveConstants:
    def test_identity_pair_values(self, identity_pair):
        # kappa=1, r=2: R=2, M0=2, M1=2*1*2*(1+0)=4, mu_g=2*1*4=8
        b = identity_pair.bundle
        assert b.R_bound == pytest.approx(2.0)
        assert b.M0 == pytest.approx(2.0)
        assert b.M1 == pytest.approx(4.0)
        assert b.mu_g == pytest.approx(8.0)

    def test_hand_evaluated_formulas(self):
        # mu=1, L=4, r=1, L_H=0, L0=1, n=2: R=2, M0=8, M1=64, mu_g=128
        f1 = make_quadratic(np.eye(2), np.zeros(2))
        f2 = make_quadratic(2.0 * np.eye(2), E1)
        F = ObjectiveSet.from_objectives([f1, f2])
        assert F.mu == pytest.approx(1.0)
        assert F.L == pytest.approx(4.0)
        assert F.r == pytest.approx(1.0)
        f0 = make_quadratic(np.eye(2), E2)
        b = derive_constants(F, f0)
        assert b.R_bound == pytest.approx(2.0)
        assert b.M0 == pytest.approx(8.0)
        assert b.M1 == pytest.approx(64.0)
        assert b.mu_g == pytest.approx(128.0)

    def test_single_objective_degenerate(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
        b = derive_constants(F, make_quadratic(np.eye(2), E2))
        assert b.R_bound == b.M0 == b.M1 == b.mu_g == 0.0

    def test_monotone_in_r_and_kappa(self):
        f0 = make_quadratic(np.eye(2), E2)
        prev = None
        for r in (0.5, 1.0, 2.0, 4.0):
            F = ObjectiveSet.from_objectives(
                [make_quadratic(np.eye(2), np.zeros(2)), make_quadratic(np.eye(2), r * E1)]
            )
            b = derive_constants(F, f0)
            if prev is not None:
                assert b.R_bound >= prev.R_bound
                assert b.M0 >= prev.M0
                assert b.M1 >= prev.M1
                assert b.mu_g >= prev.mu_g
            prev = b
        prev = None
        for L in (1.0, 2.0, 4.0, 8.0):
            F = ObjectiveSet.from_objectives(
                [make_quadratic(np.eye(2), np.zeros(2)), make_quadratic(np.sqrt(L) * np.eye(2), E1)]
            )
            b = derive_constants(F, f0)
            if prev is not None:
                assert b.R_bound >= prev.R_bound
                assert b.M0 >= prev.M0
                assert b.M1 >= prev.M1
                assert b.mu_g >= prev.mu_g
            prev = b

    def test_missing_constants_rejected(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
        bare = lambda x: 0.0
        f0 = ProblemInstance  # placeholder to keep lambda lines short
        from paretomm import SmoothFunction

        undeclared = SmoothFunction(dim=2, value=bare, grad=bare, hess=bare, L=None)
        with pytest.raises(ConfigurationError):
            derive_constants(F, undeclared)


def test_norm_1_2_is_max_column_norm(rng):
    M = rng.normal(size=(4, 3))
    brute = max(np.linalg.norm(M[:, j]) for j in range(3))
    assert norm_1_2(M) == pytest.approx(brute)
    # operator check: ||M u||_2 <= norm * ||u||_1 on random u
    for _ in range(50):
        u = rng.normal(size=3)
        assert np.linalg.norm(M @ u) <= norm_1_2(M) * np.abs(u).sum() + 1e-12
