"""Command-line front end.

Subcommands: ``solve`` (majorize-minimize run with trace CSV), ``png``
(navigation-baseline descent with trajectory CSV), ``oracle`` (lattice
search CSV), ``plot`` (SVG of a planar stationary set), and ``generate``
(problem-file writer).  Exit codes: 0 success/certified, 2 budget exceeded
or infeasible subproblem, 1 malformed input or numerical failure.  ``main``
alone reports failures: each prints exactly one ``error:``, ``failed:`` or
``infeasible:`` line on stderr.  A run that spends its iteration budget
prints its summary and exits 2; argparse rejects malformed flags with exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import problem_io
from .errors import (
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
    NumericalFailureError,
    SizeLimitError,
)
from .baselines import PngConfig, png_descent
from .oracle import grid_search_preference_opt
from .pmm import SolverConfig, pmm_solve
from .svgplot import render_pareto_svg

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse vector '{text}'") from exc


def _cmd_solve(args) -> int:
    problem = problem_io.load_problem(args.problem)
    config = SolverConfig(
        eps0=args.eps0,
        eps=args.eps,
        alpha=args.alpha,
        max_outer=args.max_outer,
    )
    init = None
    if args.beta0 is not None:
        beta0 = _parse_vector(args.beta0)
        init = (None, beta0)
    result = pmm_solve(problem, config, init=init)
    if args.trace:
        with problem_io.atomic_open(args.trace) as fh:
            result.trace.write_csv(fh)
    summary = {
        "x": result.point.x.tolist(),
        "beta": result.point.beta.weights.tolist(),
        "f0": problem.f0.value(result.point.x),
        "status": result.status,
        "iterations": len(result.trace) - 1,
        "certificate": result.certificate.as_dict(),
    }
    print(json.dumps(summary))
    return EXIT_OK if result.status == "certified" else EXIT_BUDGET


def _cmd_png(args) -> int:
    problem = problem_io.load_problem(args.problem)
    config = PngConfig(
        c=args.c, step=args.step, eps_stop=args.eps_stop, max_iters=args.max_iters
    )
    x0 = _parse_vector(args.x0)
    if x0.size != problem.F.dim:
        raise InvalidArgumentError(
            f"x0 has {x0.size} entries, expected {problem.F.dim}"
        )
    result = png_descent(problem.F, problem.f0, x0, config)
    if args.trace:
        header = ["it"] + [f"x_{i}" for i in range(problem.F.dim)]
        with problem_io.atomic_open(args.trace) as fh:
            problem_io.write_csv(fh, header, ([it, *x] for it, x in enumerate(result.trajectory)))
    print(
        json.dumps(
            {
                "x": result.point.tolist(),
                "status": result.status,
                "iterations": result.iterations,
            }
        )
    )
    return EXIT_OK if result.status == "stationary" else EXIT_BUDGET


def _cmd_oracle(args) -> int:
    problem = problem_io.load_problem(args.problem)
    result = grid_search_preference_opt(problem, args.resolution, collect=True)
    n = problem.F.n
    header = [f"beta_{i}" for i in range(n)] + ["f0"]
    with problem_io.atomic_open(args.out) as fh:
        problem_io.write_csv(fh, header, ([*row[:n], row[-1]] for row in result.rows))
    print(
        json.dumps(
            {
                "best_beta": result.best_beta.weights.tolist(),
                "f_star_min": result.f_star_min,
                "f_star_max": result.f_star_max,
                "count": result.count,
            }
        )
    )
    return EXIT_OK


def _read_trace_path(path: str, dim: int) -> np.ndarray:
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cols = []
        for i in range(dim):
            name = f"x_{i}"
            if name not in header:
                raise InvalidArgumentError(f"trace {path}: missing column {name}")
            cols.append(header.index(name))
        try:
            rows = np.array([[float(row[c]) for c in cols] for row in reader])
        except (ValueError, IndexError) as exc:
            raise InvalidArgumentError(f"trace {path}: malformed row ({exc})") from exc
    if rows.size == 0 or not np.isfinite(rows).all():
        raise InvalidArgumentError(f"trace {path}: needs finite data rows")
    return rows


def _cmd_plot(args) -> int:
    problem = problem_io.load_problem(args.problem)
    overlays = []
    for path in args.overlay or []:
        overlays.append((os.path.basename(path), _read_trace_path(path, problem.F.dim)))
    svg = render_pareto_svg(problem, args.resolution, overlays)
    with problem_io.atomic_open(args.svg) as fh:
        fh.write(svg)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.preset is not None:
        spec = problem_io.PRESETS[args.preset]()
    elif min(args.dimension, args.objectives) < 1 or args.seed < 0:
        raise InvalidArgumentError("requires --dimension >= 1, --objectives >= 1 and --seed >= 0")
    else:
        rng = np.random.default_rng(args.seed)
        spec = problem_io.random_problem_spec(
            rng, args.dimension, args.objectives, shared_hessian=args.shared_hessian
        )
    problem_io.save_problem_spec(args.out, spec)
    print(json.dumps({"out": args.out}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretomm",
        description="Optimize a preference function over the Pareto set of "
        "strongly convex objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the majorize-minimize solver")
    p.add_argument("--problem", required=True)
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--alpha",
        type=float,
        default=0.5,
        help="share of eps0 that bounds the weight gap; the rest bounds err (default 0.5)",
    )
    p.add_argument("--max-outer", type=int, default=100_000)
    p.add_argument("--beta0", help="comma-separated initial weights, one per objective")
    p.add_argument(
        "--newton-inner",
        action="store_true",
        help="accepted and ignored: the inner solves always use Newton's method",
    )
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("png", help="run the navigation-gradient baseline")
    p.add_argument("--problem", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps-stop", type=float, required=True)
    p.add_argument("--x0", required=True, help="comma-separated start point")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--trace", help="write trajectory CSV here")
    p.set_defaults(func=_cmd_png)

    p = sub.add_parser("oracle", help="lattice search over the weights")
    p.add_argument("--problem", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("plot", help="render the planar stationary set as SVG")
    p.add_argument("--problem", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--overlay", action="append", help="trace CSV to mark (repeatable)")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("generate", help="write a problem file")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=sorted(problem_io.PRESETS))
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--objectives", type=int, default=2)
    p.add_argument("--shared-hessian", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, ConfigurationError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericalFailureError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
