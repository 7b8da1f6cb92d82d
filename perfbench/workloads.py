"""Workload definitions: the problem specs each workload feeds the program.

A workload is a list of operations.  Each operation names a problem spec
(a plain dict in the program's JSON problem-file format), the program call
to make on it, and that call's parameters.  Specs are generated here, not
by the program's own generator, so the parent commit and a change receive
byte-identical inputs even if the program's generator changes.

Seeds.  Solve cost on random instances is heavy-tailed: one raw draw of the
`wide` generator takes 0.3 s, another 69 s, so a sum over the few instances
a run can afford varies by more than 5x between seeds.  `wide` and `smooth`
therefore draw a fixed family of instances from a base seed that is part of
the workload definition, and the run's ``--seed`` applies to each instance
a random isometry of the decision space (a signed permutation of the
coordinates plus a shift) and a random order of the objectives.  Both keep
the Pareto set's shape, the optimal weights (up to the order) and the
iteration counts (up to rounding) while changing every number the program
reads.  `planar` is the paper's own instances and ignores the seed;
`validate` draws its random instance directly from the seed, since lattice
search cost depends only on the lattice size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Outer-loop settings per workload.  `smooth` uses max_outer = 10000 where
# 3000 would stop its first instance as budget-exceeded (it certifies at
# outer iteration 7824): a run must have no failing operation, so the slow
# convergence shows as iterations and time instead.
PLANAR_MM = {"eps0": 1e-3, "eps": 1e-6, "max_outer": 100_000}
WIDE_MM = {"eps0": 0.1, "eps": 0.01, "max_outer": 3000}
SMOOTH_MM = {"eps0": 1e-2, "eps": 1e-4, "max_outer": 10_000}

WIDE_FAMILY = {"base_seed": 1, "count": 4, "d": (3, 6), "n": 12}
SMOOTH_FAMILY = {"base_seed": 0, "count": 3, "d": (6, 10), "n": 3, "c": 1.0}

PNG_PARAMS = {"x0": [0.2, 0.9], "c": 0.01, "step": 0.05, "eps_stop": 1e-3, "max_iters": 200_000}


@dataclass
class Operation:
    """One call into the program: ``kind`` is "mm", "grid" or "png"."""

    label: str
    kind: str
    spec: dict
    params: dict = field(default_factory=dict)
    path: Optional[str] = None  # set when the spec is written to a file


def _quadratic(H, z) -> dict:
    return {"kind": "quadratic", "H": np.asarray(H, float).tolist(), "z": np.asarray(z, float).tolist()}


def random_quadratic_spec(rng, d, n, eig_range=(0.5, 3.0), center_scale=1.5) -> dict:
    """Random SPD quadratics; draws in the same order as the program's
    ``problem_io.random_problem_spec`` at this benchmark's introduction."""

    def spd():
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = rng.uniform(*eig_range, size=d)
        H = Q @ np.diag(eigs) @ Q.T
        return 0.5 * (H + H.T)

    objectives = []
    for _ in range(n):
        H = spd()
        objectives.append(_quadratic(H, rng.normal(size=d) * center_scale))
    preference = _quadratic(spd(), rng.normal(size=d) * center_scale)
    return {"dimension": d, "objectives": objectives, "preference": preference}


def triangle_spec() -> dict:
    """The paper's three anisotropic quadratics in the plane."""
    return {
        "dimension": 2,
        "objectives": [
            _quadratic([[3.0, 0.0], [0.0, 0.5]], [0.0, 0.0]),
            _quadratic([[0.5, 0.0], [0.0, 3.0]], [2.0, 0.0]),
            _quadratic([[2.0, 0.9], [0.9, 2.0]], [1.0, 1.8]),
        ],
        "preference": _quadratic(np.eye(2), [1.0, 0.7]),
    }


def png_example_spec() -> dict:
    """The paper's planar instance on which navigation descent misses the optimum."""
    H = [[1.0, 1.0], [1.0, 2.0]]
    return {
        "dimension": 2,
        "objectives": [_quadratic(H, [-1.0, 0.0]), _quadratic(H, [1.0, 0.0])],
        "preference": _quadratic(np.eye(2), [0.0, 1.0]),
    }


def entry_terms(entry: dict):
    """(H, z, c) of a spec entry: c is the log-cosh weight, 0 for a quadratic."""
    if entry["kind"] == "quadratic":
        return np.asarray(entry["H"], float), np.asarray(entry["z"], float), 0.0
    p = entry["params"]
    return np.asarray(p["H"], float), np.asarray(p["z"], float), float(p.get("c", 1.0))


def _entry(H, z, c) -> dict:
    if c == 0.0:
        return _quadratic(H, z)
    return {
        "kind": "builtin",
        "name": "log_cosh_quadratic",
        "params": {"H": np.asarray(H, float).tolist(), "z": np.asarray(z, float).tolist(), "c": c},
    }


def isometric_copy(spec: dict, rng) -> dict:
    """The same problem in coordinates x' = S P x + t, objectives reordered.

    S P is a signed permutation, which keeps both quadratics and the
    coordinate-separable log-cosh term in their families.
    """
    d = spec["dimension"]
    T = np.zeros((d, d))
    T[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
    shift = 0.5 * rng.normal(size=d)

    def move(entry):
        H, z, c = entry_terms(entry)
        return _entry(T @ H @ T.T, T @ z + shift, c)

    objectives = [move(e) for e in spec["objectives"]]
    order = rng.permutation(len(objectives))
    return {
        "dimension": d,
        "objectives": [objectives[i] for i in order],
        "preference": move(spec["preference"]),
    }


def _family(fam: dict, smooth: bool) -> list:
    rng = np.random.default_rng(fam["base_seed"])
    lo, hi = fam["d"]
    specs = []
    for _ in range(fam["count"]):
        d = int(rng.integers(lo, hi + 1))
        spec = random_quadratic_spec(rng, d, fam["n"], eig_range=(1.0, 2.0), center_scale=0.5)
        if smooth:
            spec["objectives"] = [
                _entry(*entry_terms(e)[:2], fam["c"]) for e in spec["objectives"]
            ]
        specs.append(spec)
    return specs


def plan(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload`` for ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "planar":
        return [
            Operation("triangle", "mm", triangle_spec(), dict(PLANAR_MM)),
            Operation("png-example", "mm", png_example_spec(), dict(PLANAR_MM, beta0=[0.9, 0.1])),
        ]
    if workload in ("wide", "smooth"):
        smooth = workload == "smooth"
        family = _family(SMOOTH_FAMILY if smooth else WIDE_FAMILY, smooth)
        mm = SMOOTH_MM if smooth else WIDE_MM
        return [
            Operation(f"{workload}-{i}", "mm", isometric_copy(spec, rng), dict(mm))
            for i, spec in enumerate(family)
        ]
    if workload == "validate":
        return [
            Operation("grid-triangle", "grid", triangle_spec(), {"resolution": 200}),
            Operation("grid-d8n4", "grid", random_quadratic_spec(rng, 8, 4), {"resolution": 30}),
            Operation("png-example", "png", png_example_spec(), dict(PNG_PARAMS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("planar", "wide", "smooth", "validate")
