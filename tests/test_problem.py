import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretomm import (
    ConfigurationError,
    InvalidArgumentError,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    SmoothFunction,
    SolverConfig,
    derive_constants,
    make_log_cosh_quadratic,
    make_quadratic,
    norm_1_2,
    pmm_solve,
    quadratic_from_hessian,
    scalarize,
    solve_x_star,
)
from paretomm.problem_io import (
    identity_pair_spec,
    png_counterexample_spec,
    problem_from_spec,
    triangle_spec,
)
from paretomm.problem import family_of
from conftest import random_quadratic_problem, random_spd

EPS = np.finfo(float).eps

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_matrix_rejected(self, bad):
        # unchecked, a NaN A makes the SVD raise numpy's LinAlgError
        with pytest.raises(InvalidArgumentError, match="A must be finite"):
            make_quadratic(np.array([[1.0, 0.0], [bad, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("A", [np.ones(2), np.ones((2, 3))], ids=["vector", "2x3"])
    def test_non_square_matrix_rejected(self, A):
        with pytest.raises(InvalidArgumentError, match="A must be square"):
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

    def test_hessian_must_be_symmetric_to_1e_12(self):
        # asymmetric by 1e-6: grad = H (x - z) would then miss the value's
        # gradient by that much
        with pytest.raises(InvalidArgumentError, match="H must be symmetric"):
            make_log_cosh_quadratic(np.array([[2.0, 1.0], [1.0 + 1e-6, 3.0]]), np.zeros(2), 0.0)
        make_log_cosh_quadratic(np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]]), np.zeros(2), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_inputs_rejected(self, bad):
        # unchecked, each gives L = nan/inf, or (an infinite H) a RuntimeWarning
        # and then "H is not positive definite"
        H, z = np.eye(2), np.zeros(2)
        with pytest.raises(InvalidArgumentError, match="H and z must be finite"):
            make_log_cosh_quadratic(np.array([[1.0, bad], [bad, 1.0]]), z, 0.5)
        with pytest.raises(InvalidArgumentError, match="H and z must be finite"):
            make_log_cosh_quadratic(H, np.array([0.0, bad]), 0.5)
        with pytest.raises(InvalidArgumentError, match="H and z must be finite"):
            quadratic_from_hessian(np.array([[bad, 0.0], [0.0, 1.0]]), z)
        with pytest.raises(InvalidArgumentError, match="H and z must be finite"):
            quadratic_from_hessian(H, np.array([bad, 0.0]))
        with pytest.raises(InvalidArgumentError, match="c must be finite"):
            make_log_cosh_quadratic(H, z, bad)

    @pytest.mark.parametrize(
        "H, z, match",
        [
            (np.ones(2), np.zeros(2), "H must be square"),
            (np.ones((2, 3)), np.zeros(2), "H must be square"),
            (np.eye(2), np.zeros(3), "dimensions disagree"),
            (np.eye(1), np.array(0.0), "dimensions disagree"),  # was numpy's IndexError
            (np.eye(2), np.zeros((2, 1)), "dimensions disagree"),  # was accepted, with an array value
        ],
        ids=["vector-H", "2x3-H", "long-z", "0d-z", "column-z"],
    )
    def test_malformed_shapes_rejected(self, H, z, match):
        with pytest.raises(InvalidArgumentError, match=match):
            make_log_cosh_quadratic(H, z, 0.5)
        with pytest.raises(InvalidArgumentError, match=match):
            quadratic_from_hessian(H, z)

    @pytest.mark.parametrize(
        "c",
        [True, np.bool_(True), np.array([0.5, 0.5]), [0.5], np.array(0.5), "0.5", None],
        ids=["bool", "numpy-bool", "vector", "list", "0d-array", "str", "none"],
    )
    def test_c_must_be_a_real_number(self, c):
        # a vector c raised numpy's "truth value is ambiguous", and True read as 1
        with pytest.raises(InvalidArgumentError, match="c must be a real number"):
            make_log_cosh_quadratic(np.eye(2), np.zeros(2), c)

    @pytest.mark.parametrize("c", [np.float64(0.5), np.float32(0.5), np.int64(1), 1])
    def test_numpy_and_integer_c_accepted(self, c):
        assert make_log_cosh_quadratic(np.eye(2), np.zeros(2), c).L == 1.0 + float(c)

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

    @pytest.mark.parametrize(
        "objectives, error, match",
        [
            (lambda f: [], InvalidArgumentError, "at least one objective"),
            (lambda f: [f, make_quadratic(np.eye(3), np.zeros(3))], InvalidArgumentError, "objective 1 has dim 3"),
            (lambda f: [dataclasses.replace(f, mu=None)], ConfigurationError, "missing declared constants"),
            (lambda f: [dataclasses.replace(f, L_H=None)], ConfigurationError, "missing declared constants"),
            (lambda f: [dataclasses.replace(f, mu=0.0)], ConfigurationError, "0 < mu <= L"),
            (lambda f: [dataclasses.replace(f, mu=2.0)], ConfigurationError, "0 < mu <= L"),
        ],
        ids=["empty", "dimensions", "no-mu", "no-L_H", "zero-mu", "mu-above-L"],
    )
    def test_malformed_objectives_rejected(self, objectives, error, match):
        with pytest.raises(error, match=match):
            ObjectiveSet.from_objectives(objectives(make_quadratic(np.eye(2), E1)))

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


def _loop_evaluation(F, w, x):
    """value, grad and hess of sum_i w_i f_i and the transposed Jacobian, one call per objective."""
    value = float(sum(wi * f.value(x) for wi, f in zip(w, F.objectives)))
    g = np.zeros(F.dim)
    H = np.zeros((F.dim, F.dim))
    for wi, f in zip(w, F.objectives):
        g += wi * f.grad(x)
        H += wi * f.hess(x)
    return value, g, H, np.column_stack([f.grad(x) for f in F.objectives])


def _log_cosh_entry(H, z, c):
    params = {"H": np.asarray(H, float).tolist(), "z": list(z), "c": c}
    return {"kind": "builtin", "name": "log_cosh_quadratic", "params": params}


def _raise(x):
    raise AssertionError("an objective of a stacked set was called")


class TestStackedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 8),
        n=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["quadratic", "log-cosh", "mixed"]),
        shift=st.sampled_from([0.0, 1e5, 1e10]),
        far=st.booleans(),
    )
    def test_matches_the_per_objective_loop(self, d, n, seed, kind, shift, far):
        rng = np.random.default_rng(seed)
        objectives = []
        for _ in range(n):
            H, z = random_spd(rng, d, eig_range=(0.1, 10.0)), rng.normal(size=d) + shift
            c = {"quadratic": 0.0, "log-cosh": rng.uniform(0.1, 2.0), "mixed": rng.choice([0.0, 1.0])}[kind]
            objectives.append(make_log_cosh_quadratic(H, z, c) if c else quadratic_from_hessian(H, z))
        F = ObjectiveSet.from_objectives(objectives)
        assert F.family is not None
        assert F.r == max(float(np.linalg.norm(a - b)) for a in F.minimizers for b in F.minimizers)
        # far: |x_j - z_ij| > 400 in every coordinate, where cosh(x - z)^2 overflows
        offset = rng.choice([-1.0, 1.0], size=d) * rng.uniform(400.0, 2000.0, size=d)
        x = F.minimizers.mean(axis=0) + (offset if far else rng.normal(size=d))
        w = rng.dirichlet(np.ones(n))
        f = scalarize(F, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g, H, JT = f.value(x), f.grad(x), f.hess(x), F.jacobian_T(x)
            ref_value, ref_g, ref_H, ref_JT = _loop_evaluation(F, w, x)
        np.testing.assert_array_equal(g, ref_g)
        np.testing.assert_array_equal(JT, ref_JT)
        assert JT.flags.c_contiguous
        assert np.isfinite(H).all()
        values = np.array([fi.value(x) for fi in objectives])
        assert abs(value - ref_value) <= 4 * n * EPS * float(w @ np.abs(values))
        H_scale = sum(wi * np.abs(fi.hess(x)) for wi, fi in zip(w, objectives))
        assert np.all(np.abs(H - ref_H) <= 4 * n * EPS * H_scale)

    @pytest.mark.parametrize("spec", [triangle_spec, png_counterexample_spec, identity_pair_spec])
    def test_r_is_the_pairwise_norm_on_the_presets(self, spec):
        F = problem_from_spec(spec()).F
        assert F.r == max(float(np.linalg.norm(a - b)) for a in F.minimizers for b in F.minimizers)

    def test_loader_sets_record_their_families(self):
        quadratic = problem_from_spec(triangle_spec()).F
        assert quadratic.family.c is None
        assert quadratic.family.z is quadratic.minimizers
        for H, f in zip(quadratic.family.H, quadratic.objectives):
            np.testing.assert_array_equal(H, f.hess(f.minimizer_hint))
        spec = triangle_spec()
        entries = spec["objectives"]
        entries[0] = _log_cosh_entry(entries[0]["H"], entries[0]["z"], 0.5)
        mixed = problem_from_spec(spec).F
        np.testing.assert_array_equal(mixed.family.c, [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(mixed.family.H, quadratic.family.H)

    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["quadratic", "log-cosh"])
    def test_stacked_solve_calls_no_objective(self, c):
        # a silent fall back to the per-objective loop would call the poisoned objectives
        spec = triangle_spec()
        spec["objectives"] = [_log_cosh_entry(e["H"], e["z"], c) for e in spec["objectives"]]
        problem = problem_from_spec(spec)
        poisoned = tuple(
            dataclasses.replace(f, value=_raise, grad=_raise, hess=_raise) for f in problem.F.objectives
        )
        F = dataclasses.replace(problem.F)  # built from the good objectives, which it then drops
        F.objectives = poisoned
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        result = pmm_solve(dataclasses.replace(problem, F=F), config)
        assert result.status == "certified"
        reference = pmm_solve(problem, config)
        np.testing.assert_array_equal(result.point.x, reference.point.x)

    def test_hand_written_objective_takes_the_loop(self):
        problem = problem_from_spec(triangle_spec())
        calls = []

        def counted(fn):
            def call(x):
                calls.append(x)
                return fn(x)

            return call

        f = problem.F.objectives[1]
        hand = SmoothFunction(
            dim=f.dim,
            value=counted(f.value),
            grad=counted(f.grad),
            hess=counted(f.hess),
            mu=f.mu,
            L=f.L,
            L_H=f.L_H,
            minimizer_hint=f.minimizer_hint,
        )
        objectives = list(problem.F.objectives)
        objectives[1] = hand
        F = ObjectiveSet.from_objectives(objectives)
        assert F.family is None
        config = SolverConfig(eps0=1e-3, eps=1e-6)
        looped = pmm_solve(ProblemInstance.create(F, problem.f0), config)
        stacked = pmm_solve(problem, config)
        assert calls
        assert looped.status == stacked.status == "certified"
        assert len(looped.trace) == len(stacked.trace)
        np.testing.assert_array_equal(looped.point.beta.weights, stacked.point.beta.weights)
        np.testing.assert_array_equal(looped.point.x, stacked.point.x)

    def test_copy_keeps_its_family_only_while_it_is_the_same_function(self):
        f = make_log_cosh_quadratic(np.eye(2), E1, 1.0)
        assert family_of(f) is f.family and f.family.c == 1.0
        other = make_log_cosh_quadratic(np.eye(2), -E1, 1.0)
        moved = dataclasses.replace(f, minimizer_hint=E1 + 5e-11)
        revalued = dataclasses.replace(f, value=lambda x: 2.0 * f.value(x))
        assert family_of(moved) is family_of(revalued) is None
        assert ObjectiveSet.from_objectives([moved, other]).family is None
        assert ObjectiveSet.from_objectives([revalued, other]).family is None
        # a caller's constants override (dataclasses.replace of L) keeps the stack
        F = ObjectiveSet.from_objectives([dataclasses.replace(f, L=5.0), other])
        np.testing.assert_array_equal(F.family.c, [1.0, 1.0])


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


def _same_value(a, b):
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return all(_same_value(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return a is b or a == b


class TestDerivedFields:
    """A set takes only its objectives and a problem only F and f0; every build derives the rest."""

    def test_replaced_inputs_give_the_created_bundle(self, png_instance):
        looser = [dataclasses.replace(f, mu=f.mu / 4) for f in png_instance.F.objectives]
        G = dataclasses.replace(png_instance.F, objectives=looser)
        g = dataclasses.replace(png_instance.f0, L=2.0)
        for replaced, created in (
            (dataclasses.replace(png_instance, F=G), ProblemInstance.create(G, png_instance.f0)),
            (dataclasses.replace(png_instance, f0=g), ProblemInstance.create(png_instance.F, g)),
        ):
            assert replaced.bundle == created.bundle != png_instance.bundle
        # the quartered mu raises M1 from about 492 to about 15 743
        assert dataclasses.replace(png_instance, F=G).bundle.M1 == pytest.approx(15742.959, rel=1e-6)
        assert png_instance.bundle.M1 == pytest.approx(491.967, rel=1e-6)

    @pytest.mark.parametrize(
        "spec", [png_counterexample_spec, triangle_spec], ids=["png-example", "triangle"]
    )
    def test_replaced_objectives_build_the_same_set(self, spec):
        F = problem_from_spec(spec()).F
        new = [
            make_log_cosh_quadratic(2.0 * f.family.H, f.minimizer_hint + E2, 0.5) for f in F.objectives
        ]
        new[0] = dataclasses.replace(new[0], family=None)  # no stack: each objective is called
        for objectives in (new, new[1:]):
            replaced = dataclasses.replace(F, objectives=objectives)
            assert _same_value(replaced, ObjectiveSet.from_objectives(objectives))
            assert (replaced.family is None) == (objectives is new)

    def test_replaced_objectives_are_the_ones_solved(self, png_instance):
        # the old stack and minimizers would certify x = (0, 0), where these objectives'
        # weighted gradient has norm 5
        new = [quadratic_from_hessian(np.eye(2), np.array([z, 5.0])) for z in (-1.0, 1.0)]
        F = dataclasses.replace(png_instance.F, objectives=new)
        eps = 1e-6
        result = pmm_solve(dataclasses.replace(png_instance, F=F), SolverConfig(eps0=1e-3, eps=eps))
        assert result.status == "certified"
        np.testing.assert_allclose(result.point.x, [0.0, 5.0], atol=1e-9)
        f_beta = scalarize(ObjectiveSet.from_objectives(new), result.point.beta)
        assert np.linalg.norm(f_beta.grad(result.point.x)) <= eps

    @pytest.mark.parametrize(
        "cls, name",
        [(ObjectiveSet, f) for f in ("mu", "L", "L_H", "minimizers", "r", "family", "hess_floor")]
        + [(ProblemInstance, "bundle")],
    )
    def test_derived_field_is_not_an_argument(self, png_instance, cls, name):
        built = png_instance if cls is ProblemInstance else png_instance.F
        inputs = {f.name: getattr(built, f.name) for f in dataclasses.fields(cls) if f.init}
        with pytest.raises(TypeError, match=name):
            cls(**inputs, **{name: getattr(built, name)})
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(built, **{name: getattr(built, name)})


def test_norm_1_2_is_max_column_norm(rng):
    M = rng.normal(size=(4, 3))
    brute = max(np.linalg.norm(M[:, j]) for j in range(3))
    assert norm_1_2(M) == pytest.approx(brute)
    # operator check: ||M u||_2 <= norm * ||u||_1 on random u
    for _ in range(50):
        u = rng.normal(size=3)
        assert np.linalg.norm(M @ u) <= norm_1_2(M) * np.abs(u).sum() + 1e-12


def test_norm_1_2_of_no_columns_is_zero():
    assert norm_1_2(np.zeros((3, 0))) == 0.0


def test_preference_dimension_must_match():
    F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
    with pytest.raises(InvalidArgumentError, match="preference dim 3 does not match objective dim 2"):
        ProblemInstance.create(F, make_quadratic(np.eye(3), np.zeros(3)))
