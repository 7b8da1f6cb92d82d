import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from paretomm.cli import main
from paretomm.oracle import lattice_size
from paretomm.problem_io import (
    PRESETS,
    load_problem,
    png_counterexample_spec,
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


NAN, INF = float("nan"), float("inf")
H_PNG = [[1.0, 1.0], [1.0, 2.0]]


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
            ({"constants": {"L_H": -1.0}}, "L_H"),
            ({"constants": {"L0": -1.0}}, "L0"),
            ({"constants": {"L0": NAN}}, "L0"),
            ({"constants": {"mu": 1e-300}}, "constants"),
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
        ],
        ids=["negative-L_H", "negative-L0", "nan-L0", "overflowing-mu", "bool-dimension",
             "nan-objective-z", "inf-objective-H", "inf-preference-z", "nan-builtin-c",
             "inf-builtin-z", "missing-builtin-H", "missing-builtin-z", "vector-builtin-c",
             "column-builtin-z", "negative-builtin-c", "negative-objective-builtin-c",
             "indefinite-objective-H"],
    )
    def test_unsound_spec_exits_one(self, change, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_problem_spec(str(path), {**png_counterexample_spec(), **change})
        code = run_cli("solve", "--problem", path, "--eps0", "1e-3", "--eps", "1e-6")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change",
        [
            {"preference": _quadratic([[1e300, 0.0], [0.0, 1e300]], [0.0, 1.0])},
            {"objectives": [_quadratic(H_PNG, [-1.0, 0.0]), _quadratic(H_PNG, [1e150, 0.0])]},
        ],
        ids=["huge-preference-H", "huge-objective-z"],
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
        "beta0", ["0.5", "1,2,3", "1,nan", "inf,1", "1e308,1e308"],
        ids=["short", "long", "nan", "inf", "overflowing-sum"],
    )
    def test_bad_beta0_exits_one(self, beta0, png_file, capsys):
        code = run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
                       "--beta0", beta0)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_budget_exit_two(self, png_file, capsys):
        code = run_cli(
            "solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
            "--beta0", "0.9,0.1", "--max-outer", "2", "--newton-inner",
        )
        assert code == 2


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

    def test_summary_line(self, png_file, tmp_path, capsys):
        out_csv = tmp_path / "o.csv"
        code = run_cli("oracle", "--problem", png_file, "--resolution", 100, "--out", out_csv)
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["count"] == 101
        assert abs(out["best_beta"][0] - 0.5) <= 0.01


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
        trace = tmp_path / "trace.csv"
        run_cli("solve", "--problem", png_file, "--eps0", "1e-3", "--eps", "1e-6",
                "--trace", trace)
        svg_path = tmp_path / "overlay.svg"
        code = run_cli(
            "plot", "--problem", png_file, "--resolution", 20, "--svg", svg_path,
            "--overlay", trace,
        )
        assert code == 0
        ns = {"s": "http://www.w3.org/2000/svg"}
        root = ET.parse(svg_path).getroot()
        assert root.findall(".//s:circle", ns)

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

    def test_preset(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("generate", "--out", out, "--preset", "png-example")
        problem = load_problem(str(out))
        assert problem.F.n == 2
        np.testing.assert_allclose(
            problem.F.objectives[0].hess(np.zeros(2)), [[1.0, 1.0], [1.0, 2.0]]
        )


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
        code = run_cli("solve", "--problem", path, "--eps0", "3e-2", "--eps", "9e-4",
                       "--newton-inner")
        assert code == 0

    def test_constants_override(self, tmp_path):
        spec = png_counterexample_spec()
        spec["constants"] = {"mu": 0.3, "L": 3.0, "L_H": 0.0, "L0": 2.0}
        path = tmp_path / "c.json"
        save_problem_spec(str(path), spec)
        problem = load_problem(str(path))
        assert problem.F.mu == 0.3
        assert problem.F.L == 3.0
        assert problem.f0.L == 2.0
