"""Spans and counters recorded around the calls into each module.

Only the traced run installs these wrappers; they replace module attributes
by the name the calling module looks up (for example the ``solve_x_star``
that ``paretomm.pmm`` imported), so a call made inside the program is timed
where it crosses a module boundary.  Spans stay in memory until the run
ends.  A target that a later commit deletes or renames is recorded as
missing, and every metric built from it is reported as absent (``null``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute looked up by the caller, span name, hook)
TARGETS = [
    ("pmm", "pmm_solve", "pmm.solve", "outer"),
    ("pmm", "build_surrogate", "pmm.surrogate", None),
    ("pmm", "compute_c1_c2", "pmm.c1c2", None),
    ("pmm", "l1_stationarity_gap", "simplex.l1_gap", None),
    ("pmm", "minimize_quadratic_over_simplex", "simplex.step", None),
    ("simplex", "l2_tangent_gap", "simplex.tangent_gap", "active"),
    ("simplex", "project_to_simplex", "simplex.project", None),
    ("baselines", "min_norm_over_simplex", "simplex.min_norm", None),
    ("pmm", "solve_x_star", "manifold.inner", None),
    ("oracle", "solve_x_star", "manifold.inner", None),
    ("manifold", "minimize_function", "manifold.minimize", "inner_iters"),
    ("pmm", "grad_x_star_estimate", "manifold.jacobian", None),
    ("manifold", "spd_solve", "manifold.spd_solve", None),
    ("pmm", "err_grad_f0", "manifold.err_bound", None),
    ("manifold", "ManifoldPoint.from_x_beta", "manifold.residual", None),
    ("problem", "ObjectiveSet.from_objectives", "problem.build", None),
    ("problem", "derive_constants", "problem.constants", None),
    ("problem_io", "load_problem", "problem_io.load", None),
    ("oracle", "grid_search_preference_opt", "oracle.grid", "points"),
    ("baselines", "png_descent", "baselines.png", "png_iters"),
]
# Spans whose BudgetExceededError counts as manifold.budget_exceeded.
BUDGET_SPANS = ("manifold.minimize", "simplex.step")
# The functions ``scalarize`` returns are counted per call, without spans.
EVAL_TARGET = ("manifold", "scalarize")


class Tracer:
    """Spans as [name, start, end, parent index, op id]; counters per op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        self.op = None
        self.ops = []  # op id -> (phase, label)
        self.missing = set()
        self._installed = []

    def begin_op(self, phase: str, label: str):
        self.op = len(self.ops)
        self.ops.append((phase, label))

    def _hook(self, kind, args, result):
        c = self.counts[self.op]
        if kind == "outer":
            c["pmm.outer"] += len(result.trace) - 1
        elif kind == "active":
            c["simplex.active"] += int((args[1].weights <= 1e-14).sum())
        elif kind == "inner_iters":
            c["manifold.inner_iters"] += result.iterations
        elif kind == "points":
            c["oracle.points"] += result.count
        elif kind == "png_iters":
            c["baselines.png_iters"] += result.iterations

    def wrap(self, fn, name, hook, budget_error):
        spans, stack = self.spans, self.stack
        counts_budget = name in BUDGET_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if counts_budget:
                    self.counts[self.op]["manifold.budget_exceeded"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                self._hook(hook, args, result)
            return result

        return traced

    def counted_scalarize(self, scalarize):
        counts = self.counts

        def counted(fn, key):
            def call(x):
                counts[self.op][key] += 1
                return fn(x)

            return call

        @functools.wraps(scalarize)
        def wrapped(F, beta):
            f = scalarize(F, beta)
            return dataclasses.replace(
                f,
                value=counted(f.value, "problem.value_evals"),
                grad=counted(f.grad, "problem.grad_evals"),
                hess=counted(f.hess, "problem.hess_evals"),
            )

        return wrapped

    def install(self, pm: dict):
        """Wrap every target found in the module dict ``pm``."""
        budget_error = getattr(pm.get("errors"), "BudgetExceededError", ())
        for module, attr, name, hook in TARGETS:
            owner = pm.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.add(name)
                continue
            wrapped = self.wrap(fn, name, hook, budget_error)
            if path:  # a classmethod: keep it callable on the class
                wrapped = staticmethod(wrapped)
            self._installed.append((owner, leaf, owner.__dict__[leaf]))
            setattr(owner, leaf, wrapped)
        module, attr = EVAL_TARGET
        fn = getattr(pm.get(module), attr, None)
        if fn is None:
            self.missing.update({"problem.value_evals", "problem.grad_evals", "problem.hess_evals"})
        else:
            self._installed.append((pm[module], attr, fn))
            setattr(pm[module], attr, self.counted_scalarize(fn))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def phase_totals(self, prefix: str) -> list:
        """Per phase starting with ``prefix``: time, self time, calls, counters."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        phases = defaultdict(lambda: {key: Counter() for key in ("time", "self", "calls", "counts")})
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            phase = self.ops[op][0]
            if phase.startswith(prefix):
                p = phases[phase]
                p["time"][name] += t1 - t0
                p["self"][name] += t1 - t0 - child[i]
                p["calls"][name] += 1
        for op, c in self.counts.items():
            phase = self.ops[op][0]
            if phase.startswith(prefix):
                phases[phase]["counts"].update(c)
        return list(phases.values())

    def write(self, path: str):
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "ops": self.ops,
                    "spans": [[index[r[0]], r[1], r[2], r[3], r[4]] for r in self.spans],
                },
                fh,
            )


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _time(span):
    return "s", [span], lambda t: t["time"][span]


def _calls(span):
    return "count", [span], lambda t: t["calls"][span]


def _count(key, span):
    return "count", [span], lambda t: t["counts"][key]


# per-layer metric -> (unit, spans it needs, value from one phase's totals)
PASS_METRICS = {
    "pmm.ms_per_outer": ("ms", ["pmm.solve"], lambda t: 1e3 * _ratio(t["time"]["pmm.solve"], t["counts"]["pmm.outer"])),
    "pmm.self_s": ("s", ["pmm.solve"], lambda t: t["self"]["pmm.solve"]),
    "pmm.surrogate_s": _time("pmm.surrogate"),
    "pmm.surrogate_calls": _calls("pmm.surrogate"),
    "pmm.c1c2_s": _time("pmm.c1c2"),
    "simplex.step_s": _time("simplex.step"),
    "simplex.step_calls": _calls("simplex.step"),
    "simplex.step_projections": (
        "count",
        ["simplex.step", "simplex.project"],
        lambda t: _ratio(t["calls"]["simplex.project"], t["calls"]["simplex.step"]),
    ),
    "simplex.tangent_gap_s": _time("simplex.tangent_gap"),
    "simplex.tangent_gap_calls": _calls("simplex.tangent_gap"),
    "simplex.active_mean": (
        "count",
        ["simplex.tangent_gap"],
        lambda t: _ratio(t["counts"]["simplex.active"], t["calls"]["simplex.tangent_gap"]),
    ),
    "simplex.l1_gap_s": _time("simplex.l1_gap"),
    "simplex.min_norm_s": _time("simplex.min_norm"),
    "simplex.min_norm_calls": _calls("simplex.min_norm"),
    "manifold.inner_s": _time("manifold.inner"),
    "manifold.inner_calls": _calls("manifold.inner"),
    "manifold.inner_iters": _count("manifold.inner_iters", "manifold.minimize"),
    "manifold.jacobian_s": _time("manifold.jacobian"),
    "manifold.spd_solves": _calls("manifold.spd_solve"),
    "manifold.err_bound_s": _time("manifold.err_bound"),
    "manifold.residual_s": _time("manifold.residual"),
    "manifold.budget_exceeded": _count("manifold.budget_exceeded", "manifold.minimize"),
    "problem.grad_evals": _count("problem.grad_evals", "problem.grad_evals"),
    "problem.hess_evals": _count("problem.hess_evals", "problem.hess_evals"),
    "problem.value_evals": _count("problem.value_evals", "problem.value_evals"),
    "oracle.grid_s": _time("oracle.grid"),
    "oracle.us_per_point": (
        "us",
        ["oracle.grid"],
        lambda t: 1e6 * _ratio(t["time"]["oracle.grid"], t["counts"]["oracle.points"]),
    ),
    "baselines.png_s": _time("baselines.png"),
    "baselines.png_iters": _count("baselines.png_iters", "baselines.png"),
}
SETUP_METRICS = {
    "problem.build_s": (
        "s",
        ["problem.build", "problem.constants"],
        lambda t: t["time"]["problem.build"] + t["time"]["problem.constants"],
    ),
    "problem_io.load_s": _time("problem_io.load"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Median over traced passes (and over traced set-ups) of each metric."""
    out = {}
    for prefix, table in (("pass-traced", PASS_METRICS), ("setup", SETUP_METRICS)):
        totals = tracer.phase_totals(prefix)
        for name, (unit, needs, fn) in table.items():
            absent = any(n in tracer.missing for n in needs)
            out[name] = {"value": None if absent else _median([fn(t) for t in totals]), "unit": unit}
    return out
