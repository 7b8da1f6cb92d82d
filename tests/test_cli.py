import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretomm
from paretomm import cli, simplex
from paretomm import (
    InfeasibleError,
    PngConfig,
    SimplexPoint,
    SolverConfig,
    grid_search_preference_opt,
    pmm_solve,
    png_descent,
    solve_x_star,
)
from paretomm.cli import main, write_csv
from paretomm.oracle import _lattice_blocks, _newton_tolerance, lattice_size
from paretomm.problem_io import (
    PRESETS,
    atomic_open,
    load_problem,
    png_counterexample_spec,
    problem_from_spec,
    random_problem_spec,
    save_problem_spec,
)


@pytest.fixture
def png_file(tmp_path):
    path = tmp_path / "png.json"
    save_problem_spec(str(path), png_counterexample_spec())
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


def _quadratic(H, z):
    return {"kind": "quadratic", "H": H, "z": z}


def _log_cosh(**params):
    return {"kind": "builtin", "name": "log_cosh_quadratic",
            "params": {"H": [[1.0, 0.0], [0.0, 1.0]], "z": [0.0, 1.0], **params}}


def _without(key):
    """A spec change that deletes ``key``."""
    return lambda spec: {k: v for k, v in spec.items() if k != key}


NAN, INF = float("nan"), float("inf")
H_PNG = [[1.0, 1.0], [1.0, 2.0]]
# Hessians 1e300 I centred at (+-1e10, 0): both gradients overflow near the origin
OVERFLOWING_OBJECTIVES = [_quadratic([[1e300, 0.0], [0.0, 1e300]], [1e10, 0.0]),
                          _quadratic([[1e300, 0.0], [0.0, 1e300]], [-1e10, 0.0])]


class TestSolveCommand:
    def test_counterexample_certifies(self, png_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
            "--trace", trace,
        )
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert out["status"] == "certified"
        assert np.linalg.norm(out["x"]) <= 1e-3
        assert out["certificate"]["passed"] is True
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        n, d = 2, 2
        assert rows[0] == ["k", "beta_0", "beta_1", "x_0", "x_1",
                           "residual", "f0", "gap", "err", "certified"]
        assert all(len(r) == n + d + 6 for r in rows)

    def test_single_objective_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        save_problem_spec(str(path), PRESETS["single-objective"]())
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["iterations"] == 0

    def test_config_invariant_violation_exits_one(self, png_file, capsys):
        code = run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-5")
        assert code == 1
        err = capsys.readouterr().err
        assert "eps <= eps0^2" in err

    def test_malformed_file_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = png_counterexample_spec()
        del spec["objectives"][0]["H"]
        save_problem_spec(str(path), spec)
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        assert code == 1
        assert "objectives[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"dimension": True}, "dimension"),
            ({"objectives": [_quadratic(H_PNG, [NAN, 0.0]), _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0].z"),
            ({"objectives": [_quadratic(H_PNG, [-1.0, 0.0]),
                             _quadratic([[1.0, INF], [INF, 2.0]], [1.0, 0.0])]},
             "objectives[1].H"),
            ({"preference": _quadratic([[1.0, 0.0], [0.0, 1.0]], [0.0, INF])}, "preference.z"),
            ({"preference": _log_cosh(c=NAN)}, "preference.params.c"),
            ({"preference": _log_cosh(z=[0.0, -INF])}, "preference.params.z"),
            ({"preference": {**_log_cosh(), "params": {"z": [0.0, 1.0]}}},
             "preference.params: missing field 'H'"),
            ({"preference": {**_log_cosh(), "params": {"H": [[1.0, 0.0], [0.0, 1.0]]}}},
             "preference.params: missing field 'z'"),
            ({"preference": _log_cosh(c=[1.0, 2.0])}, "preference.params.c"),
            ({"preference": _log_cosh(z=[[0.0], [0.0]])}, "preference.params.z"),
            ({"preference": _log_cosh(c=-1.0)}, "preference.params: c must be nonnegative"),
            ({"objectives": [_quadratic(H_PNG, [-1.0, 0.0]), _log_cosh(c=-1.0)]},
             "objectives[1].params: c must be nonnegative"),
            ({"objectives": [_quadratic(H_PNG, [-1.0, 0.0]),
                             _quadratic([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0])]},
             "objectives[1]: H is not positive definite"),
            (lambda spec: [spec], "problem file: top level must be an object"),
            (_without("dimension"), "missing field 'dimension'"),
            ({"objectives": []}, "objectives: expected a nonempty list"),
            (_without("preference"), "missing field 'preference'"),
            ({"objectives": [[1.0], _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0]: expected an object"),
            ({"preference": {**_quadratic(H_PNG, [0.0, 1.0]), "kind": "cubic"}},
             "preference.kind: expected 'quadratic' or 'builtin'"),
            ({"preference": {**_log_cosh(), "name": "cubic"}},
             "preference.name: unknown builtin 'cubic'"),
            ({"preference": {**_log_cosh(), "params": [1.0]}},
             "preference.params: expected an object"),
            ({"preference": _quadratic([[1.0]], [0.0, 1.0])},
             "preference.H: expected shape (2, 2)"),
            ({"preference": _quadratic([[1.0, "one"], [0.0, 1.0]], [0.0, 1.0])},
             "preference.H: expected numbers"),
            ({"objectives": [_quadratic(H_PNG, [-1.0, 0.0]),
                             _quadratic([[1.0, 0.5], [0.0, 1.0]], [1.0, 0.0])]},
             "objectives[1]: H must be symmetric"),
            ({"objectives": [_quadratic([[2.0, 1.0], [1.0 + 1e-6, 3.0]], [-1.0, 0.0]),
                             _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0]: H must be symmetric"),
            ({"objectives": [_log_cosh(C=5.0), _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0].params: unknown field 'C'"),
            ({"preference": _log_cosh(cc=7.0)}, "preference.params: unknown field 'cc'"),
            ({"preference": {**_log_cosh(), "c": 2.0}}, "preference: unknown field 'c'"),
            ({"objectives": [{**_quadratic(H_PNG, [-1.0, 0.0]), "c": 3.0},
                             _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0]: unknown field 'c'"),
            ({"constants": {"L0": 2.0}}, "problem file: unknown field 'constants'"),
            ({"comment": "png example"}, "problem file: unknown field 'comment'"),
            ({"preference": {**_log_cosh(), "name": ["log_cosh_quadratic"]}},
             "preference.name: unknown builtin"),
        ],
        ids=["bool-dimension", "nan-objective-z", "inf-objective-H", "inf-preference-z",
             "nan-builtin-c", "inf-builtin-z", "missing-builtin-H", "missing-builtin-z",
             "vector-builtin-c", "column-builtin-z", "negative-builtin-c",
             "negative-objective-builtin-c", "indefinite-objective-H", "list-top-level",
             "missing-dimension", "empty-objectives", "missing-preference", "list-objective",
             "unknown-kind", "unknown-builtin", "list-params", "misshapen-H", "string-H",
             "asymmetric-objective-H", "nearly-symmetric-objective-H", "unknown-param",
             "misspelt-param", "unknown-builtin-field", "unknown-quadratic-field", "unknown-constant",
             "unknown-top-level-field", "list-builtin-name"],
    )
    def test_unsound_spec_exits_one(self, change, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        spec = png_counterexample_spec()
        save_problem_spec(str(path), change(spec) if callable(change) else {**spec, **change})
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"preference": _quadratic([[1.0, 0.0], [0.0, True]], [0.0, 1.0])}, "preference.H"),
            ({"objectives": [_quadratic(H_PNG, [True, 0.0]), _quadratic(H_PNG, [1.0, 0.0])]},
             "objectives[0].z"),
            ({"preference": _log_cosh(c=True)}, "preference.params.c"),
        ],
        ids=["preference-H", "objective-z", "builtin-c"],
    )
    def test_json_boolean_is_not_a_number(self, change, field, tmp_path, capsys):
        # json reads true as True, which numpy would take as 1.0
        path = tmp_path / "bool.json"
        save_problem_spec(str(path), {**png_counterexample_spec(), **change})
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {field}: expected numbers, got a boolean\n"

    @pytest.mark.parametrize(
        "change",
        [
            {"preference": _quadratic([[1e300, 0.0], [0.0, 1e300]], [0.0, 1.0])},
            {"objectives": [_quadratic(H_PNG, [-1.0, 0.0]), _quadratic(H_PNG, [1e150, 0.0])]},
            {"objectives": [_quadratic((np.array(H_PNG) * 1e160).tolist(), [-1.0, 0.0]),
                            _quadratic((np.array(H_PNG) * 1e160).tolist(), [1.0, 0.0])]},
            {"preference": _quadratic([[1e300, 0.0], [0.0, 1e300]], [0.0, 1e10])},
        ],
        ids=["huge-preference-H", "huge-objective-z", "huge-objective-H", "overflowing-preference"],
    )
    def test_extreme_finite_spec_exits_cleanly(self, change, tmp_path, capsys):
        path = tmp_path / "extreme.json"
        save_problem_spec(str(path), {**png_counterexample_spec(), **change})
        code = run_cli("solve", "--problem", path, "--eps0", "1e-2", "--eps", "1e-4")
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 0:
            assert json.loads(captured.out.strip())["certificate"]["passed"] is True

    @pytest.mark.parametrize(
        "beta0", ["0.5", "1,2,3", "1,nan", "inf,1", "1e308,1e308", "0.5,abc"],
        ids=["short", "long", "nan", "inf", "overflowing-sum", "not-a-number"],
    )
    def test_bad_beta0_exits_one(self, beta0, png_file, capsys):
        code = run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
                       "--beta0", beta0)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_log_cosh_far_apart_prints_one_line(self, tmp_path, capsys):
        # |x - z| reaches 600, where cosh^2 in the log-cosh Hessian overflows
        spec = {
            "dimension": 1,
            "objectives": [
                {"kind": "builtin", "name": "log_cosh_quadratic",
                 "params": {"H": [[1.0]], "z": [z], "c": 1.0}} for z in (-500.0, 500.0)
            ],
            "preference": _quadratic([[1.0]], [100.0]),
        }
        path = tmp_path / "far.json"
        save_problem_spec(str(path), spec)
        # pytest turns a RuntimeWarning into an error (pyproject), so an unguarded overflow fails here
        code = run_cli("solve", "--problem", path, "--eps0", "0.1", "--eps", "0.01")
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert out["status"] == "certified"
        assert abs(out["x"][0] - 100.0) <= 1e-3

    def test_far_apart_centres_print_one_error_line(self, tmp_path):
        # centres 2e200 apart: r overflows to inf, and the bundle check rejects
        # it; a real process, since pytest records warnings instead of printing them
        path = tmp_path / "far.json"
        objectives = [_quadratic(H_PNG, [-1e200, 0.0]), _quadratic(H_PNG, [1e200, 0.0])]
        save_problem_spec(str(path), {**png_counterexample_spec(), "objectives": objectives})
        src = str(Path(paretomm.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "paretomm.cli", "solve", "--problem", str(path),
             "--eps0", "1e-2", "--eps", "1e-4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: constants: the derived bundle is not finite\n"
        assert proc.stdout == ""

    def test_err_floor_above_its_budget_fails(self, tmp_path, capsys):
        # centres 2e6 apart: the start passes the residual and gap legs, but the
        # residual's rounding floor (1.8e-9) alone puts err at 0.018, above 0.005
        spec = {
            "dimension": 2,
            "objectives": [_log_cosh(z=[z, 0.0], c=1.0) for z in (1e6, -1e6)],
            "preference": _quadratic([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
        }
        path = tmp_path / "far.json"
        save_problem_spec(str(path), spec)
        code = run_cli("solve", "--problem", path, "--eps0", "1e-2", "--eps", "1e-4",
                       "--max-outer", "1000")
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("failed: the err bound's rounding floor")
        assert captured.out == ""

    def test_directory_as_problem_exits_one(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", tmp_path, "--eps0", "1e-3", "--eps", "1e-6")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00bad",  # not UTF-8: UnicodeDecodeError
         b"[" * 100_000 + b"]" * 100_000,  # too deep for the decoder: RecursionError
         b'{"dimension": ' + b"1" * 5000 + b"}"],  # over the int-from-string digit limit
        ids=["not-utf8", "too-deep", "too-many-digits"],
    )
    def test_unreadable_problem_file_exits_one(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        for command in (["solve", "--eps0", "1e-2", "--eps", "1e-4", "--trace"],
                        ["png", "--c", "0.01", "--eps-stop", "1e-2", "--x0", "0.2,0.9", "--trace"],
                        ["oracle", "--resolution", "5", "--out"],
                        ["plot", "--resolution", "5", "--svg"]):
            code = run_cli(command[0], "--problem", path, *command[1:], tmp_path / "out")
            captured = capsys.readouterr()
            assert code == 1, command[0]
            assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
            assert "Traceback" not in captured.err and captured.out == ""
            assert os.listdir(tmp_path) == ["bad.json"]  # no output, no temporary file

    def test_runs_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every scipy import raise ImportError
        script = ('import sys; sys.modules["scipy"] = None; from paretomm.cli import main; '
                  'sys.exit(main(sys.argv[1:]))')
        src = str(Path(paretomm.__file__).parents[1])
        runs = {
            "triangle": (["solve", "--eps0", "1e-3", "--eps", "1e-6"], "certified"),
            "png-example": (["png", "--c", "0.01", "--eps-stop", "1e-3", "--x0", "0.2,0.9"], "stationary"),
        }
        for preset, (command, status) in runs.items():
            path = tmp_path / f"{preset}.json"
            save_problem_spec(str(path), PRESETS[preset]())
            proc = subprocess.run(
                [sys.executable, "-c", script, command[0], "--problem", str(path), *command[1:]],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["status"] == status
            assert proc.stderr == ""

    def test_import_leaves_problem_files_unloaded(self):
        # the solver core knows no file format; only the command line loads problem_io
        src = str(Path(paretomm.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", 'import sys, paretomm; print("paretomm.problem_io" in sys.modules)'],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_budget_exit_two(self, png_file, capsys):
        code = run_cli(
            "solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
            "--beta0", "0.9,0.1", "--max-outer", "1",
        )
        assert code == 2

    def test_non_finite_surrogate_fails_with_one_line(self, tmp_path, capsys):
        # Hessians near 1e160 and centres near 1e4: the err bound overflows at the start
        q = lambda h, z: _quadratic([[h]], [z])
        spec = {"dimension": 1, "objectives": [q(1.2e160, 10000.64), q(2.5e160, 10000.36)],
                "preference": q(2.3e160, 9999.3)}
        path = tmp_path / "overflow.json"
        save_problem_spec(str(path), spec)
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "failed: non-finite surrogate at outer iteration 0; assumptions violated\n"

    def test_overflowing_jacobian_fails_with_one_line(self, tmp_path, capsys):
        # both gradients overflow at the start, before its x*(beta) solve
        spec = {"dimension": 2, "objectives": OVERFLOWING_OBJECTIVES,
                "preference": _quadratic([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])}
        path = tmp_path / "overflow.json"
        save_problem_spec(str(path), spec)
        code = run_cli("solve", "--problem", path, "--eps0", "1e-2", "--eps", "1e-4")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "failed: convergence constants unusable: the Jacobian is not finite\n"


class TestTraceCsv:
    def test_header_and_column_count(self, png_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
                       "--trace", trace)
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        n, d = 2, 2
        header = lines[0].split(",")
        assert header == ["k", "beta_0", "beta_1", "x_0", "x_1", "residual", "f0", "gap", "err", "certified"]
        assert all(len(line.split(",")) == n + d + 6 for line in lines)

    def test_rows_parse_back(self, png_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        run_cli("solve", "--problem", png_file, "--eps0", "1e-2", "--eps", "1e-4", "--max-outer", "5",
                "--beta0", "0.9,0.1", "--trace", trace)
        summary = json.loads(capsys.readouterr().out)
        config = SolverConfig(eps0=1e-2, eps=1e-4, max_outer=5, newton_inner=True)
        result = pmm_solve(load_problem(png_file), config, init=(None, np.array([0.9, 0.1])))
        rows = trace.read_text().strip().split("\n")[1:]
        assert len(rows) == len(result.trace) == summary["iterations"] + 1
        first = rows[0].split(",")
        assert int(first[0]) == 0
        np.testing.assert_allclose(
            [float(first[1]), float(first[2])], result.trace[0].beta
        )
        ks = [r.k for r in result.trace]
        assert ks == sorted(set(ks)) == [int(row.split(",")[0]) for row in rows]


class TestPngCommand:
    def test_counterexample_near_vertex(self, png_file, tmp_path, capsys):
        trace = tmp_path / "traj.csv"
        code = run_cli(
            "png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-3",
            "--x0", "0.2,0.9", "--step", "0.05", "--trace", trace,
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["status"] == "stationary"
        x = np.array(out["x"])
        assert np.linalg.norm(x - np.array([1.0, 0.0])) <= 0.05
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["it", "x_0", "x_1"]
        assert len(rows) >= 3

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_problem_spec(str(path), PRESETS["identity-pair"]())
        # start exactly on the stationary segment with a huge constraint
        # level: the two alignment halfspaces are opposed and empty
        code = run_cli(
            "png", "--problem", path, "--c", "100.0", "--eps-stop", "1e-6",
            "--x0", "0.2,0.0", "--step", "0.01", "--max-iters", "10",
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "flag, value, prefix",
        [("--x0", "nan,0", "error:"), ("--x0", "1e308,1e308", "failed:"),
         ("--x0", "1e200,1e200", "failed:"), ("--c", "nan", "error:"),
         ("--step", "inf", "error:"), ("--eps-stop", "nan", "error:")],
        ids=["nan-x0", "overflowing-x0", "huge-x0", "nan-c", "inf-step", "nan-eps-stop"],
    )
    def test_bad_numbers_exit_one(self, flag, value, prefix, png_file, capsys):
        args = {"--c": "0.01", "--eps-stop": "1e-2", "--x0": "0.2,0.9", "--max-iters": "50"}
        args[flag] = value
        code = run_cli("png", "--problem", png_file, *[f"{k}={v}" for k, v in args.items()])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(prefix) and "Traceback" not in err

    def test_unreachable_eps_stop_exits_two_stalled(self, png_file, capsys):
        # eps_stop 1e-8 is out of reach at c = 0.01: the run ends where it
        # enters the band, not after the 200,000 default iterations
        code = run_cli("png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-8", "--x0", "0.2,0.9")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["status"] == "stalled"
        assert out["iterations"] == 769

    def test_negative_first_x0_entry_in_the_equals_form(self, png_file, capsys):
        # argparse reads "-0.5,0.9" after a space as a flag, not a value
        with pytest.raises(SystemExit) as exc:
            run_cli("png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-2", "--x0", "-0.5,0.9")
        assert exc.value.code == 2
        assert "argument --x0: expected one argument" in capsys.readouterr().err
        code = run_cli("png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-2", "--x0=-0.5,0.9")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "stationary" and out["iterations"] == 546

    @pytest.mark.parametrize("x0, shape", [("0.2", "(1,)"), ("0.2,0.9,0", "(3,)")], ids=["short", "long"])
    def test_wrong_length_x0_exits_one(self, x0, shape, png_file, capsys):
        code = run_cli("png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-2", "--x0", x0)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: x0 has shape {shape}, expected (2,)\n"

    def test_nnls_iteration_limit_fails_with_one_line(self, png_file, capsys, monkeypatch):
        # with no NNLS pass allowed, the first solve that must free a column fails
        monkeypatch.setattr(simplex, "_NNLS_PASSES", 0)
        code = run_cli("png", "--problem", png_file, "--c", "0.01", "--eps-stop", "1e-2", "--x0", "0.2,0.9")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("failed:") and captured.err.count("\n") == 1
        assert "NNLS" in captured.err

    def test_stationary_start_immediate(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_problem_spec(str(path), PRESETS["identity-pair"]())
        code = run_cli(
            "png", "--problem", path, "--c", "0.05", "--eps-stop", "1e-2",
            "--x0", "0.0,0.009",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["iterations"] == 0


class TestOracleCommand:
    def test_row_count_matches_lattice(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        save_problem_spec(str(path), PRESETS["triangle"]())
        out_csv = tmp_path / "oracle.csv"
        m = 12
        code = run_cli("oracle", "--problem", path, "--resolution", m, "--out", out_csv)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta_0", "beta_1", "beta_2", "f0"]
        assert len(rows) - 1 == lattice_size(m, 3)

    def test_rows_match_pointwise_weights_and_newton(self, tmp_path, capsys):
        # the beta columns byte for byte as written from SimplexPoint(counts / m); f0 as
        # Newton's x*(beta) gives it, to the 1e-12 the batched solve is held to
        path = tmp_path / "tri.json"
        save_problem_spec(str(path), PRESETS["triangle"]())
        out_csv = tmp_path / "oracle.csv"
        m = 50
        assert run_cli("oracle", "--problem", path, "--resolution", m, "--out", out_csv) == 0
        summary = json.loads(capsys.readouterr().out)
        problem = load_problem(str(path))
        tol = _newton_tolerance(problem.F)
        lattice = next(_lattice_blocks(m, problem.F.n, lattice_size(m, problem.F.n)))
        betas = [SimplexPoint(counts / m) for counts in lattice]
        values = [problem.f0.value(solve_x_star(problem.F, b, tol_grad=tol).x) for b in betas]
        expected = io.StringIO()
        write_csv(expected, ["beta_0", "beta_1", "beta_2", "f0"],
                  ([*b.weights, v] for b, v in zip(betas, values)))
        with open(out_csv) as fh:
            lines = fh.read().splitlines()
        expected_lines = expected.getvalue().splitlines()
        assert len(lines) == len(expected_lines) == lattice_size(m, 3) + 1
        assert lines[0] == expected_lines[0]
        for line, want, value in zip(lines[1:], expected_lines[1:], values):
            beta_cells, f0_cell = line.rsplit(",", 1)
            assert beta_cells == want.rsplit(",", 1)[0]
            assert abs(float(f0_cell) - value) <= 1e-12 * max(1.0, abs(value))
        assert summary["best_beta"] == betas[int(np.argmin(values))].weights.tolist()

    def test_directory_as_out_exits_one(self, png_file, tmp_path, capsys):
        code = run_cli("oracle", "--problem", png_file, "--resolution", 3, "--out", tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "png.json"]  # no temporary file left

    def test_summary_line(self, png_file, tmp_path, capsys):
        out_csv = tmp_path / "o.csv"
        code = run_cli("oracle", "--problem", png_file, "--resolution", 100, "--out", out_csv)
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["count"] == 101
        assert abs(out["best_beta"][0] - 0.5) <= 0.01

    # beta = (1, 0) puts x at the first centre (-1, 0), where f0 is exact
    @pytest.mark.parametrize(
        "change, f0_at_first_centre",
        [
            ({"preference": _quadratic([[1e300, 0.0], [0.0, 1e300]], [0.0, 1.0])}, 1e300),
            ({"objectives": [_quadratic(H_PNG, [-1.0, 0.0]), _quadratic(H_PNG, [1e150, 0.0])]}, 1.0),
            ({"objectives": [_quadratic((np.array(H_PNG) * 1e160).tolist(), [-1.0, 0.0]),
                             _quadratic((np.array(H_PNG) * 1e160).tolist(), [1.0, 0.0])]}, 1.0),
            # f0 overflows at every lattice point: no best weights, so no CSV
            ({"preference": _quadratic([[1e300, 0.0], [0.0, 1e300]], [0.0, 1e10])}, None),
            # the gradients overflow where Newton re-solves the first point
            ({"objectives": OVERFLOWING_OBJECTIVES}, None),
        ],
        ids=["huge-preference-H", "huge-objective-z", "huge-objective-H", "overflowing-preference",
             "overflowing-gradients"],
    )
    def test_extreme_finite_spec_exits_cleanly(self, change, f0_at_first_centre, tmp_path, capsys):
        path = tmp_path / "extreme.json"
        out_csv = tmp_path / "extreme.csv"
        save_problem_spec(str(path), {**png_counterexample_spec(), **change})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("oracle", "--problem", path, "--resolution", 20, "--out", out_csv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if f0_at_first_centre is None:
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("failed:") and captured.err.count("\n") == 1
            assert not out_csv.exists()
        elif code == 0:
            with open(out_csv) as fh:
                last = list(csv.reader(fh))[-1]
            assert [float(v) for v in last] == [1.0, 0.0, f0_at_first_centre]


class TestPlotCommand:
    def test_svg_structure(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        save_problem_spec(str(path), PRESETS["triangle"]())
        svg_path = tmp_path / "out.svg"
        m = 30
        code = run_cli("plot", "--problem", path, "--resolution", m, "--svg", svg_path)
        assert code == 0
        tree = ET.parse(svg_path)
        root = tree.getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//s:polyline", ns)
        segments = sum(len(p.get("points").split()) - 1 for p in polylines)
        assert segments >= m
        assert root.findall(".//s:ellipse", ns)

    def test_overlay_markers(self, png_file, tmp_path):
        # from (0.9, 0.1) the run takes steps, so the overlay draws its path
        trace = tmp_path / "trace.csv"
        run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
                "--beta0", "0.9,0.1", "--trace", trace)
        with open(trace) as fh:
            rows = len(list(csv.reader(fh))) - 1
        assert rows >= 2
        svg_path = tmp_path / "overlay.svg"
        code = run_cli(
            "plot", "--problem", png_file, "--resolution", 20, "--svg", svg_path,
            "--overlay", trace,
        )
        assert code == 0
        ns = {"s": "http://www.w3.org/2000/svg"}
        marks = ET.parse(svg_path).getroot().find(".//s:g[@id='overlays']", ns)
        assert len(marks.findall("s:circle", ns)) == 1
        (path,) = marks.findall("s:polyline", ns)
        assert len(path.get("points").split()) == rows

    def test_one_row_overlay_draws_only_its_marker(self, tmp_path):
        # a single objective certifies at k = 0, so its trace holds one row:
        # the overlay is one circle and its label, with no path
        path, trace = tmp_path / "single.json", tmp_path / "trace.csv"
        assert run_cli("generate", "--preset", "single-objective", "--out", path) == 0
        assert run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6",
                       "--trace", trace) == 0
        assert len(trace.read_text().strip().split("\n")) == 2  # header and row 0
        svg_path = tmp_path / "overlay.svg"
        code = run_cli("plot", "--problem", path, "--resolution", 7, "--svg", svg_path,
                       "--overlay", trace)
        assert code == 0
        ns = {"s": "http://www.w3.org/2000/svg"}
        marks = ET.parse(svg_path).getroot().find(".//s:g[@id='overlays']", ns)
        assert len(marks.findall("s:circle", ns)) == 1
        assert [t.text for t in marks.findall("s:text", ns)] == ["trace.csv"]
        assert marks.findall("s:polyline", ns) == []

    def test_overflowing_gradients_fail_with_one_line(self, tmp_path, capsys):
        path, svg_path = tmp_path / "overflow.json", tmp_path / "overflow.svg"
        save_problem_spec(str(path), {**png_counterexample_spec(), "objectives": OVERFLOWING_OBJECTIVES})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("plot", "--problem", path, "--resolution", 20, "--svg", svg_path)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("failed:") and captured.err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not svg_path.exists()

    def test_log_cosh_contour_uses_hessian_at_its_centre(self, tmp_path):
        # H = I with c = 1 has Hessian 2 I at its minimizer z, so its level
        # sets there are circles; at the origin it would be diag(1.01, 2).
        spec = {
            "dimension": 2,
            "objectives": [_log_cosh(z=[3.0, 0.0], c=1.0), _log_cosh(z=[0.0, 3.0], c=1.0)],
            "preference": _quadratic([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        }
        path = tmp_path / "lc.json"
        save_problem_spec(str(path), spec)
        svg_path = tmp_path / "lc.svg"
        assert run_cli("plot", "--problem", path, "--resolution", 4, "--svg", svg_path) == 0
        ns = {"s": "http://www.w3.org/2000/svg"}
        ellipses = ET.parse(svg_path).getroot().findall(".//s:ellipse", ns)
        first, second = ellipses[0], ellipses[3]  # three levels per objective
        # screen scales from the two centres, (3, 0) and (0, 3) in data space
        sx = (float(first.get("cx")) - float(second.get("cx"))) / 3.0
        sy = (float(first.get("cy")) - float(second.get("cy"))) / 3.0
        data_rx = float(first.get("rx")) / sx
        data_ry = float(first.get("ry")) / sy
        assert data_rx == pytest.approx(data_ry, rel=1e-3)

    def test_resolution_one_gives_endpoint_segment(self, png_file, tmp_path):
        svg_path = tmp_path / "m1.svg"
        code = run_cli("plot", "--problem", png_file, "--resolution", 1, "--svg", svg_path)
        assert code == 0
        ns = {"s": "http://www.w3.org/2000/svg"}
        root = ET.parse(svg_path).getroot()
        grid = root.find(".//s:g[@id='pareto-grid']", ns)
        lines = grid.findall("s:polyline", ns)
        assert len(lines) == 1
        assert len(lines[0].get("points").split()) == 2  # the two objective minimizers

    @pytest.mark.parametrize(
        "content, message",
        [(b"", "needs finite data rows"),
         (b"k,x_0,x_1\n0,abc,1\n", "malformed row"),
         (b"k,x_0,x_1\n0,1\n", "malformed row"),
         (b"k,x_0,x_1\n0,nan,1\n", "needs finite data rows"),
         (b"k,x_0\n0,1\n", "missing column x_1"),
         (b"\xff\xfe\x00bad", "malformed row"),  # not UTF-8: UnicodeDecodeError
         (b"k,x_0,x_1\n0," + b"1" * 200_000 + b",1\n", "malformed row")],  # over the csv field limit
        ids=["empty", "bad-cell", "short-row", "nan-cell", "missing-column", "not-utf8",
             "huge-field"],
    )
    def test_malformed_overlay_exits_one(self, content, message, png_file, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(content)
        svg = tmp_path / "o.svg"
        code = run_cli("plot", "--problem", png_file, "--resolution", 3,
                       "--svg", svg, "--overlay", trace)
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert message in captured.err and captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["bad.csv", "png.json"]  # no SVG, no temporary file

    def test_wrong_dimension_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "d3.json"
        save_problem_spec(str(path), random_problem_spec(rng, 3, 2))
        code = run_cli("plot", "--problem", path, "--resolution", 5, "--svg", tmp_path / "x.svg")
        assert code == 1
        assert "dimension" in capsys.readouterr().err


class TestGenerateCommand:
    def test_round_trip_identical(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = run_cli("generate", "--out", out, "--dimension", "3",
                       "--objectives", "3", "--seed", "7")
        assert code == 0
        loaded = load_problem(str(out))
        rng = np.random.default_rng(7)
        direct_spec = random_problem_spec(rng, 3, 3, shared_hessian=False)
        with open(out) as fh:
            stored = json.load(fh)
        assert stored["dimension"] == direct_spec["dimension"]
        for a, b in zip(stored["objectives"], direct_spec["objectives"]):
            np.testing.assert_allclose(a["H"], b["H"], atol=1e-15)
            np.testing.assert_allclose(a["z"], b["z"], atol=1e-15)
        np.testing.assert_allclose(
            stored["preference"]["H"], direct_spec["preference"]["H"], atol=1e-15
        )
        assert loaded.F.n == 3

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("generate", "--out", a, "--seed", "3")
        run_cli("generate", "--out", b, "--seed", "3")
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize(
        "flag, value",
        [("--dimension", "0"), ("--objectives", "0"), ("--dimension", "-3"), ("--seed", "-1"),
         ("--dimension", "100000")],
        ids=["zero-dimension", "zero-objectives", "negative-dimension", "negative-seed",
             "too-large"],
    )
    def test_bad_size_exits_one(self, flag, value, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run_cli("generate", "--out", out, f"{flag}={value}")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_preset(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("generate", "--out", out, "--preset", "png-example")
        problem = load_problem(str(out))
        assert problem.F.n == 2
        np.testing.assert_allclose(
            problem.F.objectives[0].hess(np.zeros(2)), [[1.0, 1.0], [1.0, 2.0]]
        )


OUTPUTS = [("solve", "--trace"), ("png", "--trace"), ("oracle", "--out"), ("plot", "--svg"),
           ("generate", "--out")]


@pytest.mark.parametrize(
    "command, flag, existing",
    [pytest.param(command, flag, existing,
                  id=f"{command}-{flag}" + ("-existing-directory" if existing else ""))
     for existing in (False, True) for command, flag in OUTPUTS],
)
def test_output_into_missing_directory_names_the_path(
    command, flag, existing, png_file, tmp_path, capsys, monkeypatch
):
    # a missing or existing directory fails when main opens the output, before any work
    def never(*args, **kwargs):
        raise AssertionError("the command ran before its output was opened")

    for name in ("pmm_solve", "png_descent", "grid_search_preference_opt", "render_pareto_svg"):
        monkeypatch.setattr(cli, name, never)
    target = tmp_path / "existing" if existing else tmp_path / "missing" / "output"
    if existing:
        target.mkdir()
    extra = {
        "solve": ["--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6"],
        "png": ["--problem", png_file, "--c", "0.01", "--eps-stop", "1e-3", "--x0", "0.2,0.9"],
        "oracle": ["--problem", png_file, "--resolution", 3],
        "plot": ["--problem", png_file, "--resolution", 3],
        "generate": ["--preset", "triangle"],
    }[command]
    code = run_cli(command, flag, target, *extra)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(target) in lines[0] and ".tmp" not in lines[0]
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == sorted([tmp_path / "png.json"] + [target] * existing)


def test_atomic_open_names_the_path_only_for_its_own_calls(tmp_path):
    target = tmp_path / "out"
    with pytest.raises(IsADirectoryError) as info:
        with atomic_open(str(target)) as fh:
            fh.write("x")
            target.mkdir()  # the rename at commit now fails
    assert info.value.filename == str(target) and info.value.filename2 is None
    absent = tmp_path / "absent"
    with pytest.raises(FileNotFoundError) as info:  # raised in the block: passed on as it is
        with atomic_open(str(tmp_path / "other")):
            open(absent)
    assert info.value.filename == str(absent)
    with pytest.raises(FileNotFoundError) as info:  # an empty path fails on entry
        with atomic_open(""):
            pytest.fail("the block ran")
    assert info.value.filename == ""
    assert list(tmp_path.iterdir()) == [target]


def _strict_json(line):
    """``line`` parsed as strict JSON, which has no NaN or Infinity."""
    def non_finite(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(line, parse_constant=non_finite)


def test_stdout_holds_only_the_result_line(tmp_path, capsys):
    # a benchmark harness reads a run's result from its last stdout line: the
    # solvers write nothing there, and solve writes one line of strict JSON
    for preset in ("triangle", "png-example"):
        problem = problem_from_spec(PRESETS[preset]())
        pmm_solve(problem, SolverConfig(eps0=1e-3, eps=1e-6))
        config = PngConfig(c=0.01, step=0.05, eps_stop=1e-3, max_iters=2000)
        # the triangle's Pareto set has interior points, where no v meets the margin
        with contextlib.suppress(InfeasibleError):
            png_descent(problem.F, problem.f0, np.array([0.2, 0.9]), config)
        grid_search_preference_opt(problem, 20)
        assert capsys.readouterr().out == ""
        path = tmp_path / f"{preset}.json"
        save_problem_spec(str(path), PRESETS[preset]())
        assert run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0])["status"] == "certified"


class TestBuiltinProblemFile:
    def test_log_cosh_round_trip(self, tmp_path, capsys):
        spec = {
            "dimension": 2,
            "objectives": [
                {"kind": "builtin", "name": "log_cosh_quadratic",
                 "params": {"H": [[2.0, 0.0], [0.0, 1.0]], "z": [1.0, 0.0], "c": 0.4}},
                {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]], "z": [-1.0, 0.0]},
            ],
            "preference": {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]], "z": [0.0, 1.0]},
        }
        path = tmp_path / "mix.json"
        save_problem_spec(str(path), spec)
        problem = load_problem(str(path))
        assert problem.F.L == pytest.approx(2.4)
        code = run_cli("solve", "--problem", path, "--eps0", "3e-2", "--eps", "9e-4")
        assert code == 0


# Each numeric flag takes a value from this set or a small count; no value may
# end a run in a traceback.
ODD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "abc", ""]
numbers = st.one_of(st.sampled_from(ODD_NUMBERS), st.integers(1, 10).map(str))
vectors = st.lists(numbers, min_size=1, max_size=3).map(",".join)
NUMERIC_FLAGS = {
    "solve": {"eps0": numbers, "eps": numbers, "alpha": numbers, "max-outer": numbers,
              "beta0": vectors},
    "png": {"c": numbers, "eps-stop": numbers, "step": numbers, "max-iters": numbers,
            "x0": vectors},
    "oracle": {"resolution": numbers},
    "generate": {"dimension": numbers, "objectives": numbers, "seed": numbers},
}
OUTPUT_FLAG = {"solve": "trace", "png": "trace", "oracle": "out", "generate": "out"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-property")
    save_problem_spec(str(path / "png.json"), png_counterexample_spec())
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_flags_never_traceback(workdir, data):
    command = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = data.draw(st.fixed_dictionaries(NUMERIC_FLAGS[command]))
    argv = [command, f"--{OUTPUT_FLAG[command]}={workdir / 'out'}"]
    if command != "generate":
        argv.append(f"--problem={workdir / 'png.json'}")
    argv += [f"--{flag}={value}" for flag, value in flags.items()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a value it cannot parse
            assert exc.code == 2
            return
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if lines:  # a failure: exactly one line
        assert code != 0 and len(lines) == 1
        assert lines[0].startswith(("error:", "failed:", "infeasible:"))
    else:  # success, or an iteration limit reached (summary printed, exit 2)
        assert code == 0 or (code == 2 and command in ("solve", "png"))
