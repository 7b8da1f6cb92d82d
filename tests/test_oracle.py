import dataclasses
import tracemalloc

import numpy as np
import pytest

from paretomm import (
    InvalidArgumentError,
    ObjectiveSet,
    ProblemInstance,
    SimplexPoint,
    SizeLimitError,
    finite_difference_jacobian,
    grid_search_preference_opt,
    lattice_size,
    make_log_cosh_quadratic,
    make_quadratic,
    oracle,
    shared_hessian_optimum,
    solve_x_star,
    tangent_directions,
)
from paretomm.oracle import _lattice_blocks, _newton_tolerance
from paretomm.problem import family_of
from paretomm.problem_io import problem_from_spec, triangle_spec
from conftest import random_quadratic_problem, random_spd

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _lattice(m, n):
    """Every lattice point's integer counts, in lattice order, as one block."""
    return next(_lattice_blocks(m, n, lattice_size(m, n)))


def _rescaled_triangle(field, change):
    """``triangle`` with ``change`` applied to every objective's and the preference's H or z."""
    spec = triangle_spec()
    for entry in spec["objectives"] + [spec["preference"]]:
        entry[field] = change(entry[field]).tolist()
    return problem_from_spec(spec)


def _log_cosh_problem(rng, d=3, n=3, preference=make_log_cosh_quadratic):
    """Log-cosh objectives, so no batched path; a log-cosh preference unless one is given."""
    objectives = [make_log_cosh_quadratic(random_spd(rng, d), rng.normal(size=d), 0.5)
                  for _ in range(n)]
    f0 = preference(random_spd(rng, d), rng.normal(size=d), 0.5)
    return ProblemInstance.create(ObjectiveSet.from_objectives(objectives), f0)


@pytest.fixture
def newton_calls(monkeypatch):
    """Count the Newton solves lattice search makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_x_star(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_x_star", counted)
    return calls


class TestFiniteDifferenceJacobian:
    def test_constant_map_gives_zero(self):
        beta = SimplexPoint(np.array([0.4, 0.6]))
        J = finite_difference_jacobian(lambda b: np.array([1.0, 2.0]), beta)
        np.testing.assert_allclose(J, np.zeros((2, 1)), atol=1e-9)

    def test_linear_map_exact(self, identity_pair):
        # fn(beta) = sum beta_i z_i with z = -e1, +e1: the tangent derivative
        # along (e1 - e2)/2 is (z1 - z2)/2 = (-1, 0)
        centers = identity_pair.F.minimizers
        beta = SimplexPoint(np.array([0.5, 0.5]))
        J = finite_difference_jacobian(lambda b: b.weights @ centers, beta)
        np.testing.assert_allclose(J[:, 0], [-1.0, 0.0], atol=1e-9)

    def test_boundary_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            finite_difference_jacobian(lambda b: b.weights, SimplexPoint(np.array([1e-7, 1.0])), h=1e-5)

    def test_single_weight_has_no_tangent_columns(self):
        J = finite_difference_jacobian(lambda b: np.array([1.0, 2.0, 3.0]), SimplexPoint(np.array([1.0])))
        assert J.shape == (3, 0)

    def test_matches_exact_jacobian_on_tangents(self, rng):
        from paretomm import grad_x_star_exact

        problem = random_quadratic_problem(rng, d=3, n=3)
        F = problem.F
        beta = SimplexPoint(np.array([0.3, 0.3, 0.4]))
        pt = solve_x_star(F, beta, tol_grad=1e-12, newton=True)
        J = grad_x_star_exact(F, pt)
        fd = finite_difference_jacobian(
            lambda b: solve_x_star(F, b, tol_grad=1e-12, newton=True, x0=pt.x).x, beta
        )
        projected = np.column_stack([J.matrix @ t for t in tangent_directions(F.n)])
        assert np.linalg.norm(fd - projected) <= 1e-5 * max(1.0, np.linalg.norm(projected))


class TestGridSearch:
    def test_counterexample_optimum_at_origin(self, png_instance):
        result = grid_search_preference_opt(png_instance, 1000)
        np.testing.assert_allclose(result.best_beta.weights, [0.5, 0.5], atol=1e-3)
        assert np.linalg.norm(result.best_x) <= 2e-3
        assert result.count == 1001

    def test_single_objective_single_point(self):
        F = ObjectiveSet.from_objectives([make_quadratic(np.eye(2), E1)])
        problem = ProblemInstance.create(F, make_quadratic(np.eye(2), E2))
        result = grid_search_preference_opt(problem, 50)
        assert result.count == 1
        assert result.f_star_min == result.f_star_max
        assert result.f_star_min == pytest.approx(problem.f0.value(E1), abs=1e-10)

    def test_identity_pair_hand_minimum(self, identity_pair):
        # x_beta = (beta2 - beta1) e1 so f0(x_beta) = ((1 - 2 b1)^2 + 1)/2,
        # minimized at b1 = 1/2 with value 1/2
        result = grid_search_preference_opt(identity_pair, 100)
        assert result.f_star_min == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(result.best_beta.weights, [0.5, 0.5], atol=1e-9)
        assert result.f_star_max == pytest.approx(1.0, abs=1e-9)  # at the vertices

    def test_lattice_row_count_formula(self):
        for m, n in [(5, 2), (7, 3), (4, 4)]:
            counts = _lattice(m, n)
            assert counts.shape == (lattice_size(m, n), n)
            assert counts.dtype.kind == "i" and counts.min() >= 0
            assert (counts.sum(axis=1) == m).all()
            assert [tuple(c) for c in counts] == sorted(set(tuple(c) for c in counts))

    def test_lattice_blocks_stream_the_same_rows(self):
        for m, n in [(5, 2), (7, 3), (4, 4), (3, 1)]:
            blocks = list(_lattice_blocks(m, n, 4))
            assert all(len(b) == 4 for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= 4
            np.testing.assert_array_equal(np.concatenate(blocks), _lattice(m, n))

    @pytest.mark.parametrize("field, change", [("H", lambda H: 1e4 * np.array(H)),
                                               ("z", lambda z: np.array(z) + 1e4)],
                             ids=["hessians-times-1e4", "centers-plus-1e4"])
    def test_rescaled_triangle_finishes(self, field, change):
        # the gradient's rounding floor grows with L and with |x|; an absolute
        # 1e-12 Newton target sat below it and spun to the iteration budget
        problem = _rescaled_triangle(field, change)
        result = grid_search_preference_opt(problem, 6, collect=True)
        assert result.count == lattice_size(6, 3)
        for w, x in zip(result.rows[:, :3], result.rows[:, 3:-1]):
            residual = np.linalg.norm(w @ problem.F.jacobian_T(x).T)
            assert residual <= 1e-12 * problem.F.L * max(1.0, np.abs(problem.F.minimizers).max())

    def test_overflowing_log_cosh_hessian_stays_quiet(self):
        # centres +-1e6 apart put cosh(x - z) past its overflow near 710: the
        # Hessian's sech^2 term is 0 there, with no RuntimeWarning (which the
        # test configuration turns into an error)
        def log_cosh(z):
            return {"kind": "builtin", "name": "log_cosh_quadratic",
                    "params": {"H": [[1.0, 0.0], [0.0, 1.0]], "z": z, "c": 1.0}}

        problem = problem_from_spec({
            "dimension": 2,
            "objectives": [log_cosh([1e6, 0.0]), log_cosh([-1e6, 0.0])],
            "preference": {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]], "z": [0.0, 1.0]},
        })
        result = grid_search_preference_opt(problem, 4)
        np.testing.assert_array_equal(result.best_beta.weights, [0.5, 0.5])
        assert result.f_star_min == 0.5  # x*(1/2, 1/2) = 0 by symmetry

    def test_size_guards(self, rng):
        problem = random_quadratic_problem(rng, d=2, n=3)
        with pytest.raises(SizeLimitError):
            grid_search_preference_opt(problem, 10_000)
        five = random_quadratic_problem(rng, d=2, n=5)
        with pytest.raises(SizeLimitError):
            grid_search_preference_opt(five, 3)

    def test_collect_rows(self, identity_pair):
        result = grid_search_preference_opt(identity_pair, 10, collect=True)
        assert result.rows.shape == (11, 2 + 2 + 1)
        assert not result.rows.flags.writeable
        assert min(result.rows[:, -1]) == result.f_star_min

    @pytest.mark.parametrize("m, n", [(200, 3), (30, 4)])
    def test_collected_weights_round_to_the_lattice_counts(self, rng, m, n):
        # the plot reads each point's lattice coordinates back from its weights
        result = grid_search_preference_opt(random_quadratic_problem(rng, d=2, n=n), m, collect=True)
        np.testing.assert_array_equal(np.rint(result.rows[:, :n] * m), _lattice(m, n))


class TestBatchedLattice:
    @pytest.mark.parametrize(
        "make_problem, m",
        [
            (lambda: problem_from_spec(triangle_spec()), 20),
            (lambda: random_quadratic_problem(np.random.default_rng(8), d=8, n=4), 6),
            (lambda: _rescaled_triangle("H", lambda H: 1e4 * np.array(H)), 6),
            (lambda: _rescaled_triangle("z", lambda z: np.array(z) + 1e4), 6),
        ],
        ids=["triangle", "d8n4", "hessians-times-1e4", "centers-plus-1e4"],
    )
    def test_rows_match_pointwise_newton(self, make_problem, m):
        problem = make_problem()
        F = problem.F
        tol = _newton_tolerance(F)
        result = grid_search_preference_opt(problem, m, collect=True)
        assert result.rows.shape == (lattice_size(m, F.n), F.n + F.dim + 1)
        W, X = result.rows[:, : F.n], result.rows[:, F.n : -1]
        for counts, w, x in zip(_lattice(m, F.n), W, X):
            reference = solve_x_star(F, SimplexPoint(counts / m), tol_grad=tol)
            np.testing.assert_array_equal(w, reference.beta.weights)
            assert np.linalg.norm(x - reference.x) <= 1e-12 * max(1.0, np.linalg.norm(reference.x))
            assert np.linalg.norm(w @ F.jacobian_T(x).T) <= tol

    def test_quadratic_lattice_makes_no_newton_solve(self, newton_calls):
        result = grid_search_preference_opt(problem_from_spec(triangle_spec()), 200)
        assert result.count == 20301
        assert newton_calls == []

    def test_weight_rows_are_checked_once_per_block(self, monkeypatch):
        calls = []
        post_init = SimplexPoint.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(SimplexPoint, "__post_init__", counted)
        result = grid_search_preference_opt(problem_from_spec(triangle_spec()), 200, collect=True)
        assert len(result.rows) == 20301
        assert calls == [result.best_beta]  # only best_beta is built

    def test_collected_rows_are_one_matrix(self):
        problem = problem_from_spec(triangle_spec())
        tracemalloc.start()
        try:
            result = grid_search_preference_opt(problem, 200, collect=True)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.rows.shape == (20301, 3 + 2 + 1)
        assert held < 2 * 2**20  # the matrix is 0.97 MB; a SimplexPoint per row would hold 8.8 MB

    def test_lattice_memory_does_not_grow_with_its_size(self):
        # 5456 points at m = 30, 129,766 at m = 90; only one block of weights is held at a time
        problem = random_quadratic_problem(np.random.default_rng(8), d=8, n=4)
        peaks = []
        for m in (30, 90):
            tracemalloc.start()
            try:
                grid_search_preference_opt(problem, m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize(
        "preference",
        [make_log_cosh_quadratic, lambda H, z, _: make_quadratic(H, z)],
        ids=["log-cosh-f0", "quadratic-f0"],
    )
    def test_log_cosh_lattice_is_todays_warm_started_loop(self, rng, newton_calls, preference):
        problem = _log_cosh_problem(rng, preference=preference)
        m = 10
        result = grid_search_preference_opt(problem, m, collect=True)
        assert len(newton_calls) == lattice_size(m, 3)
        x_warm = None
        W, X, values = result.rows[:, :3], result.rows[:, 3:-1], result.rows[:, -1]
        for counts, w, x, value in zip(_lattice(m, 3), W, X, values):
            expected_beta = SimplexPoint(counts / m)
            point = solve_x_star(problem.F, expected_beta, tol_grad=_newton_tolerance(problem.F),
                                 x0=x_warm)
            x_warm = point.x
            np.testing.assert_array_equal(w, expected_beta.weights)
            np.testing.assert_array_equal(x, point.x)
            assert value == problem.f0.value(point.x)

    def test_set_level_L_H_override_keeps_newton(self, newton_calls):
        # a set-level L_H replaced by 0 keeps the log-cosh family, which still sends every point
        # to Newton
        log_cosh = {"kind": "builtin", "name": "log_cosh_quadratic"}
        spec = {
            "dimension": 2,
            "objectives": [{**log_cosh, "params": {"H": np.eye(2).tolist(), "z": z, "c": 1.0}}
                           for z in ([-1.0, 0.0], [1.0, 0.0])],
            "preference": {"kind": "quadratic", "H": np.eye(2).tolist(), "z": [0.0, 1.0]},
        }
        loaded = problem_from_spec(spec)
        F = dataclasses.replace(loaded.F, L_H=0.0)
        grid_search_preference_opt(ProblemInstance.create(F, loaded.f0), 4)
        assert len(newton_calls) == 5

    def test_L0_override_keeps_the_batched_lattice(self, png_instance, newton_calls):
        # dataclasses.replace of L0 keeps f0's family
        f0 = dataclasses.replace(png_instance.f0, L=2.0)
        problem = ProblemInstance.create(png_instance.F, f0)
        assert problem.f0.L == 2.0 and family_of(problem.f0) is problem.f0.family
        overridden = grid_search_preference_opt(problem, 50, collect=True)
        assert newton_calls == []
        plain = grid_search_preference_opt(png_instance, 50, collect=True)
        np.testing.assert_array_equal(overridden.rows, plain.rows)

    def test_hint_off_centre_takes_newton(self, newton_calls):
        # ObjectiveSet accepts a hint whose gradient is up to 1e-10 L, far above Newton's 1e-12 L;
        # the batched model would take that hint for the centre, so every point goes to Newton
        objectives = [dataclasses.replace(make_quadratic(np.eye(2), z), minimizer_hint=z + 5e-11)
                      for z in (-E1, E1)]
        F = ObjectiveSet.from_objectives(objectives)
        result = grid_search_preference_opt(
            ProblemInstance.create(F, make_quadratic(np.eye(2), E2)), 10, collect=True
        )
        for w, x in zip(result.rows[:, :2], result.rows[:, 2:-1]):
            assert np.linalg.norm(w @ F.jacobian_T(x).T) <= _newton_tolerance(F)
        assert len(newton_calls) == lattice_size(10, 2)

    def test_singular_block_falls_back_to_newton(self, identity_pair, newton_calls, monkeypatch):
        solve = np.linalg.solve

        def singular(a, b):
            # only the batched (stacked 3-D) lattice solve fails; Newton's 2-D solves go through
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        result = grid_search_preference_opt(identity_pair, 10)
        assert len(newton_calls) == 11
        assert result.f_star_min == pytest.approx(0.5, abs=1e-9)


class TestSharedHessianOptimum:
    def test_png_example_optimum_at_the_midpoint(self, png_instance):
        # x*(beta) = (beta_1 - beta_0, 0), nearest e2 at the origin
        beta, f_star = shared_hessian_optimum(png_instance)
        np.testing.assert_allclose(beta.weights, [0.5, 0.5], atol=1e-12)
        assert f_star == pytest.approx(0.5, abs=1e-12)

    def test_no_sampled_weight_beats_it_for_n_above_four(self, rng):
        problem = random_quadratic_problem(rng, d=3, n=6, shared=True)
        beta, f_star = shared_hessian_optimum(problem)
        x = beta.weights @ problem.F.minimizers
        assert problem.f0.value(x) == pytest.approx(f_star, rel=1e-12)
        for w in rng.dirichlet(np.ones(6), size=200):
            assert problem.f0.value(w @ problem.F.minimizers) >= f_star - 1e-12

    def test_L0_override_keeps_the_closed_form(self, png_instance):
        f0 = dataclasses.replace(png_instance.f0, L=2.0)
        problem = ProblemInstance.create(png_instance.F, f0)
        beta, f_star = shared_hessian_optimum(problem)
        expected_beta, expected = shared_hessian_optimum(png_instance)
        np.testing.assert_array_equal(beta.weights, expected_beta.weights)
        assert f_star == expected

    def test_non_shared_rejected(self, rng):
        with pytest.raises(InvalidArgumentError, match="share a Hessian"):
            shared_hessian_optimum(random_quadratic_problem(rng, d=2, n=2, shared=False))

    @pytest.mark.parametrize(
        "objectives",
        [
            # sech^2 is even, so the two Hessians agree at x = 0 and nowhere else on the e1 axis
            [make_log_cosh_quadratic(np.array([[1.0, 1.0], [1.0, 2.0]]), z, 1.0) for z in (E1, -E1)],
            # the closed form takes the hint for the centre, which it is not
            [dataclasses.replace(make_quadratic(np.eye(2), z), minimizer_hint=z + 5e-11)
             for z in (-E1, E1)],
        ],
        ids=["log-cosh", "hint-off-centre"],
    )
    def test_non_quadratic_objectives_rejected(self, objectives):
        F = ObjectiveSet.from_objectives(objectives)
        problem = ProblemInstance.create(F, make_quadratic(np.eye(2), E2))
        with pytest.raises(InvalidArgumentError, match="not all quadratics"):
            shared_hessian_optimum(problem)

    def test_non_quadratic_preference_rejected(self, png_instance):
        f0 = make_log_cosh_quadratic(np.eye(2), E2, 1.0)
        problem = ProblemInstance.create(png_instance.F, f0)
        with pytest.raises(InvalidArgumentError, match="quadratic preference"):
            shared_hessian_optimum(problem)


def test_oracle_consistent_with_solver():
    # lattice best value lower-bounds the certified value up to the
    # guaranteed resolution slack
    from paretomm import SolverConfig, pmm_solve
    from paretomm.problem_io import png_counterexample_problem

    problem = png_counterexample_problem()
    eps0 = 1e-2
    result = pmm_solve(problem, SolverConfig(eps0=eps0, eps=1e-4, newton_inner=True),
                       init=(None, np.array([0.7, 0.3])))
    assert result.status == "certified"
    m = 400
    grid = grid_search_preference_opt(problem, m)
    final_f0 = problem.f0.value(result.point.x)
    assert grid.f_star_min <= final_f0 + 2 * eps0 * (2.0 / m)
