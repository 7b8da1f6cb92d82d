"""paretomm benchmark: one workload per run, in one process, operations in sequence.

    python3 perfbench/run.py --workload planar --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run writes each generated problem spec to a file, then sets up SETUP_REPS
times (fresh ``import paretomm`` plus ``load_problem`` of every spec) and
reports the median as ``setup_s``.  It then runs passes over the workload's
operations, starting another pass only while it fits in ``--seconds``, and
checks every output against the independent oracle in ``checks.py`` outside
the timed region.  A failed check or a raised error fails that operation,
never the run.  The last line of standard output is the result object; the
line before it records the environment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the traced
ones plus the sub-solver microbenchmarks, and writes every span to
``perfbench/_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: no matrix here exceeds 12 x 12.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter, process_time

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loaded here, before any timed set-up
import scipy.optimize  # noqa: F401

from checks import check
from micro import micro_metrics
from speed import ProbedTimer
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPS = 15
MODULES = ("errors", "problem", "simplex", "manifold", "pmm", "baselines", "oracle", "problem_io")


def import_program() -> dict:
    """Fresh import of the program's modules; a missing one is left out."""
    for name in [m for m in sys.modules if m == "paretomm" or m.startswith("paretomm.")]:
        del sys.modules[name]
    importlib.import_module("paretomm")
    pm = {}
    for name in MODULES:
        try:
            pm[name] = importlib.import_module(f"paretomm.{name}")
        except ImportError:
            pass
    return pm


def run_op(pm: dict, problem, op):
    p = op.params
    if op.kind == "mm":
        config = pm["pmm"].SolverConfig(eps0=p["eps0"], eps=p["eps"], max_outer=p["max_outer"])
        init = None
        if "beta0" in p:
            init = (None, pm["simplex"].SimplexPoint(np.array(p["beta0"])))
        return pm["pmm"].pmm_solve(problem, config, init=init)
    if op.kind == "grid":
        return pm["oracle"].grid_search_preference_opt(problem, p["resolution"], collect=True)
    config = pm["baselines"].PngConfig(
        c=p["c"], step=p["step"], eps_stop=p["eps_stop"], max_iters=p["max_iters"]
    )
    return pm["baselines"].png_descent(problem.F, problem.f0, np.array(p["x0"]), config)


def iterations(op, output) -> int:
    """Outer iterations of the operation's own loop: MM steps, lattice points
    searched, or navigation-descent steps."""
    if op.kind == "mm":
        trace = getattr(output, "trace", None)
        return len(trace) - 1 if trace else 0
    if isinstance(output, BaseException):
        return 0
    return output.count if op.kind == "grid" else output.iterations


def commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(args, times, raw_times, cpu_times, setup_times, operations) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_s": {k: [round(t, 4) for t in v] for k, v in times.items() if v},
        "pass_wall_s": [round(t, 4) for t in raw_times],
        "pass_cpu_s": [round(t, 4) for t in cpu_times],
        "setup_s": [round(t, 4) for t in setup_times],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "operations": operations,
    }


def set_up(ops, tracer, timer):
    """SETUP_REPS fresh imports plus loads; returns the last modules and problems."""
    times = []
    for rep in range(SETUP_REPS):
        with timer:
            pm = import_program()
            if tracer:
                tracer.install(pm)
                tracer.begin_op(f"setup:{rep}", "load")
            problems = [pm["problem_io"].load_problem(op.path) for op in ops]
        if tracer:
            tracer.uninstall()
        times.append(timer.value_s)
    return pm, problems, times


def run_pass(pm, ops, problems, tracer, phase):
    """Every operation once, in order; a raised error becomes the output."""
    outputs, op_times = [], []
    for op, problem in zip(ops, problems):
        if tracer:
            tracer.begin_op(phase, op.label)
        t0 = perf_counter()
        try:
            outputs.append(run_op(pm, problem, op))
        except Exception as exc:  # an operation fails, never the run
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
        op_times.append(perf_counter() - t0)
    return outputs, op_times


def check_pass(ops, outputs, op_times, phase) -> list:
    """Check every output of one pass; a failure is reported, never raised."""
    outcomes = []
    for op, out, t_op in zip(ops, outputs, op_times):
        ok, detail = check(op, out)
        outcomes.append({"pass": phase, "op": op.label, "s": round(t_op, 4), "ok": ok, "detail": detail})
        if not ok:
            print(f"FAILED {phase} {op.label}: {detail}", file=sys.stderr)
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paretomm", "__init__.py")):
        print(f"no program to measure: {SRC}/paretomm is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ops = plan(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    os.makedirs(WORK, exist_ok=True)
    spec_dir = tempfile.mkdtemp(dir=WORK)
    try:
        for i, op in enumerate(ops):
            op.path = os.path.join(spec_dir, f"{i}-{op.label}.json")
            with open(op.path, "w") as fh:
                json.dump(op.spec, fh)
        # The traced run times without probes, so spans hold only program time.
        timer = ProbedTimer(probe=not tracer)
        pm, problems, setup_times = set_up(ops, tracer, timer)
        loaded = os.path.abspath(pm["problem_io"].__file__)
        if not loaded.startswith(os.path.join(SRC, "paretomm") + os.sep):
            print(f"imported the program from {loaded}, not from {SRC}", file=sys.stderr)
            return 2

        # Passes until the next would overrun --seconds; a traced run
        # alternates untraced and traced passes and needs one of each.
        times = {"untraced": [], "traced": []}
        raw_times, cpu_times, work, outcomes = [], [], [], []
        start = perf_counter()
        while True:
            kind = "traced" if tracer and len(times["traced"]) < len(times["untraced"]) else "untraced"
            phase = f"pass-{kind}:{len(times[kind])}"
            if kind == "traced":
                tracer.install(pm)
            c0 = process_time()
            with timer:
                outputs, op_times = run_pass(pm, ops, problems, tracer, phase)
            cpu_times.append(process_time() - c0)
            raw_times.append(timer.raw_s)
            times[kind].append(timer.value_s)
            if kind == "traced":
                tracer.uninstall()
            work.append(sum(iterations(op, out) for op, out in zip(ops, outputs)))
            outcomes += check_pass(ops, outputs, op_times, phase)
            del outputs  # so peak memory does not depend on the number of passes
            longest = max(raw_times)
            if (not tracer or times["traced"]) and perf_counter() - start + longest > args.seconds:
                break

        failed = sum(not o["ok"] for o in outcomes)
        if tracer:
            metrics = layer_metrics(tracer)
            metrics.update(micro_metrics(pm, args.seed))
            overhead = statistics.median(times["traced"]) / statistics.median(times["untraced"]) - 1.0
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = {
                "wall_s": {"value": statistics.median(times["untraced"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "outer_iters": {"value": statistics.median(work), "unit": "count"},
                "ok_frac": {"value": 1.0 - failed / len(outcomes), "unit": "frac"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        first_pass = [o for o in outcomes if o["pass"] == outcomes[0]["pass"]]
        env = environment(args, times, raw_times, cpu_times, setup_times, first_pass)
        print(json.dumps({"environment": env}))
        print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
