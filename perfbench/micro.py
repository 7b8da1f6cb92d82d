"""Sub-solver microbenchmarks at n = 4, 8, 16 objectives (traced run only).

Inputs are the enumerating solvers' hard cases: the tangent gap at a simplex
vertex (n - 1 active coordinates), and a navigation projection whose
solution has every constraint active.  Each metric is the median time of
repeated calls until MIN_SECONDS have passed; a function that a later
commit removes is reported as absent (``null``).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SIZES = (4, 8, 16)
MIN_SECONDS = 0.3


def _median_call(fn, scale) -> float:
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return scale * statistics.median(times)


def _png_case(pm, rng, n):
    """Objectives and preference whose projection has all n constraints active."""
    G = rng.normal(size=(n, n))
    c = 0.01
    v = np.linalg.solve(G, np.full(n, c))  # G v = c on every row
    g0 = v - G.T @ rng.uniform(0.5, 1.5, size=n)  # positive multipliers
    x = rng.normal(size=n)
    quad = pm["problem"].quadratic_from_hessian
    F = pm["problem"].ObjectiveSet.from_objectives([quad(np.eye(n), x - g) for g in G])
    return F, quad(np.eye(n), x - g0), x, c


def micro_metrics(pm: dict, seed: int) -> dict:
    rng = np.random.default_rng([seed, 16])
    simplex, baselines = pm.get("simplex"), pm.get("baselines")
    tangent_gap = getattr(simplex, "l2_tangent_gap", None)
    min_norm = getattr(simplex, "min_norm_over_simplex", None)
    png_vector = getattr(baselines, "png_vector", None)
    project = getattr(simplex, "project_to_simplex", None)
    out = {}
    for n in SIZES:
        v = rng.normal(size=n)
        G = rng.normal(size=(n, n))
        vertex = simplex.SimplexPoint.vertex(n, 0)
        out[f"simplex.tangent_gap_vertex_ms.n{n}"] = (
            None if tangent_gap is None else _median_call(lambda: tangent_gap(v, vertex), 1e3)
        )
        out[f"simplex.min_norm_ms.n{n}"] = (
            None if min_norm is None else _median_call(lambda: min_norm(G), 1e3)
        )
        if png_vector is None:
            out[f"baselines.png_vector_ms.n{n}"] = None
        else:
            F, f0, x, c = _png_case(pm, rng, n)
            out[f"baselines.png_vector_ms.n{n}"] = _median_call(lambda: png_vector(F, f0, x, c), 1e3)
    y = rng.normal(size=16)
    out["simplex.project_us.n16"] = None if project is None else _median_call(lambda: project(y), 1e6)
    return {
        name: {"value": value, "unit": "us" if "_us." in name else "ms"}
        for name, value in out.items()
    }
