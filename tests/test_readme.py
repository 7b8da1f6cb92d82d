"""README's library examples run as written: each block is read from its fence in README.md."""

import dataclasses
import json
import re
from pathlib import Path

from paretomm import ProblemInstance, SolverConfig, pmm_solve
from paretomm.problem_io import load_problem

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fence(section: str, lang: str) -> str:
    """The one ``lang`` block under the ``## section`` heading."""
    (body,) = re.findall(rf"^## {section}\n(.*?)(?=^## |\Z)", README, flags=re.M | re.S)
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", body, flags=re.M | re.S)
    return block


def test_quick_start_certifies(capsys):
    namespace = {}
    exec(_fence("Library quick start", "python"), namespace)
    assert namespace["result"].status == "certified"
    assert capsys.readouterr().out.startswith("certified [")


def test_problem_file_loads_and_solves(tmp_path):
    spec = _fence("Problem files", "json")
    assert set(json.loads(spec)) == {"dimension", "objectives", "preference"}
    path = tmp_path / "problem.json"
    path.write_text(spec, encoding="utf-8")
    result = pmm_solve(load_problem(str(path)), SolverConfig(eps0=1e-3, eps=1e-6))
    assert result.status == "certified"


def test_looser_constants_recipe_derives_the_bundle(tmp_path, monkeypatch):
    (tmp_path / "problem.json").write_text(_fence("Problem files", "json"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(_fence("Problem files", "python"), namespace)
    problem, loaded = namespace["problem"], load_problem("problem.json")
    assert problem.F.mu == loaded.F.mu / 4 and problem.f0.L == 2 * loaded.f0.L
    assert problem.bundle == ProblemInstance.create(problem.F, problem.f0).bundle != loaded.bundle
    assert dataclasses.replace(problem).bundle == problem.bundle
