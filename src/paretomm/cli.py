"""Command-line front end.

Subcommands: ``solve`` (majorize-minimize run with trace CSV), ``png``
(navigation-baseline descent with trajectory CSV), ``oracle`` (lattice
search CSV), ``plot`` (SVG of a planar stationary set), and ``generate``
(problem-file writer).  Every CSV layout is decided here; problem files are
``problem_io``'s.  Exit codes: 0 success/certified, 2 budget exceeded,
stalled PNG run or infeasible subproblem, 1 malformed input or numerical
failure.  ``main`` alone opens the output, then loads the problem file (so
a bad path fails before any input error), prints the summary (once the
file is committed) and reports failures, each as exactly one ``error:``,
``failed:`` or ``infeasible:`` line on stderr.  A run that spends its
iteration budget prints its summary and exits 2; argparse rejects
malformed flags with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
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
_GENERATE_LIMIT = 10**7  # matrix entries `generate` may draw: one Hessian per objective and f0


def write_csv(stream, header, rows):
    """CSV of ``header`` and ``rows``; ``.17g`` cells print ints as digits and round-trip floats."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse vector '{text}'") from exc


def _cmd_solve(args, problem, out):
    config = SolverConfig(
        eps0=args.eps0,
        eps=args.eps,
        alpha=args.alpha,
        max_outer=args.max_outer,
    )
    init = None if args.beta0 is None else (None, _parse_vector(args.beta0))
    result = pmm_solve(problem, config, init=init)
    if out is not None:
        n, d = problem.F.n, problem.F.dim
        header = ["k", *(f"beta_{i}" for i in range(n)), *(f"x_{i}" for i in range(d))]
        header += ["residual", "f0", "gap", "err", "certified"]
        rows = ([r.k, *r.beta, *r.x, r.residual, r.f0_value, r.gap, r.err, int(r.certified)]
                for r in result.trace)
        write_csv(out, header, rows)
    summary = {
        "x": result.point.x.tolist(),
        "beta": result.point.beta.weights.tolist(),
        "f0": problem.f0.value(result.point.x),
        "status": result.status,
        "iterations": len(result.trace) - 1,
        "certificate": result.certificate.as_dict(),
    }
    return (EXIT_OK if result.status == "certified" else EXIT_BUDGET), summary


def _cmd_png(args, problem, out):
    config = PngConfig(
        c=args.c, step=args.step, eps_stop=args.eps_stop, max_iters=args.max_iters
    )
    result = png_descent(problem.F, problem.f0, _parse_vector(args.x0), config)
    if out is not None:
        header = ["it"] + [f"x_{i}" for i in range(problem.F.dim)]
        write_csv(out, header, ([it, *x] for it, x in enumerate(result.trajectory)))
    summary = {"x": result.point.tolist(), "status": result.status, "iterations": result.iterations}
    return (EXIT_OK if result.status == "stationary" else EXIT_BUDGET), summary


def _cmd_oracle(args, problem, out):
    result = grid_search_preference_opt(problem, args.resolution, collect=True)
    n = problem.F.n
    header = [f"beta_{i}" for i in range(n)] + ["f0"]
    write_csv(out, header, ([*row[:n], row[-1]] for row in result.rows))
    return EXIT_OK, {
        "best_beta": result.best_beta.weights.tolist(),
        "f_star_min": result.f_star_min,
        "f_star_max": result.f_star_max,
        "count": result.count,
    }


def _read_trace_path(path: str, dim: int) -> np.ndarray:
    try:
        with open(path) as fh:
            rows = np.array([[float(row[f"x_{i}"]) for i in range(dim)] for row in csv.DictReader(fh)])
    except KeyError as exc:
        raise InvalidArgumentError(f"trace {path}: missing column {exc.args[0]}") from exc
    except (ValueError, TypeError, csv.Error) as exc:  # bad cell or UTF-8, short row, huge field
        raise InvalidArgumentError(f"trace {path}: malformed row ({exc})") from exc
    if rows.size == 0 or not np.isfinite(rows).all():
        raise InvalidArgumentError(f"trace {path}: needs finite data rows")
    return rows


def _cmd_plot(args, problem, out):
    overlays = []
    for path in args.overlay or []:
        overlays.append((os.path.basename(path), _read_trace_path(path, problem.F.dim)))
    out.write(render_pareto_svg(problem, args.resolution, overlays))
    return EXIT_OK, None


def _cmd_generate(args, problem, out):
    if args.preset is not None:
        spec = problem_io.PRESETS[args.preset]()
    elif min(args.dimension, args.objectives) < 1 or args.seed < 0:
        raise InvalidArgumentError("requires --dimension >= 1, --objectives >= 1 and --seed >= 0")
    elif (entries := (args.objectives + 1) * args.dimension**2) > _GENERATE_LIMIT:
        raise SizeLimitError(f"{entries} matrix entries to draw, above the {_GENERATE_LIMIT} cap")
    else:
        rng = np.random.default_rng(args.seed)
        spec = problem_io.random_problem_spec(
            rng, args.dimension, args.objectives, shared_hessian=args.shared_hessian
        )
    problem_io.write_problem_spec(out, spec)
    return EXIT_OK, {"out": args.out}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretomm",
        description="Optimize a preference function over the Pareto set of "
        "strongly convex objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    problem_arg = argparse.ArgumentParser(add_help=False)
    problem_arg.add_argument("--problem", required=True)

    p = sub.add_parser("solve", parents=[problem_arg], help="run the majorize-minimize solver")
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--alpha",
        type=float,
        default=SolverConfig.alpha,
        help="share of eps0 that bounds the weight gap; the rest bounds err (default %(default)s)",
    )
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    p.add_argument("--beta0", help="comma-separated initial weights, one per objective")
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.set_defaults(func=_cmd_solve, output="trace")

    p = sub.add_parser("png", parents=[problem_arg], help="run the navigation-gradient baseline")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps-stop", type=float, required=True)
    p.add_argument(
        "--x0",
        required=True,
        help="comma-separated start point; write a negative first entry as --x0=-0.5,0.9",
    )
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--trace", help="write trajectory CSV here")
    p.set_defaults(func=_cmd_png, output="trace")

    p = sub.add_parser("oracle", parents=[problem_arg], help="lattice search over the weights")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle, output="out")

    p = sub.add_parser("plot", parents=[problem_arg], help="render the planar stationary set as SVG")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--overlay", action="append", help="trace CSV to mark (repeatable)")
    p.set_defaults(func=_cmd_plot, output="svg")

    p = sub.add_parser("generate", help="write a problem file")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=sorted(problem_io.PRESETS))
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--objectives", type=int, default=2)
    p.add_argument("--shared-hessian", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate, output="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, args.output)
    try:
        with contextlib.nullcontext() if path is None else problem_io.atomic_open(path) as out:
            problem = None if args.command == "generate" else problem_io.load_problem(args.problem)
            code, summary = args.func(args, problem, out)
    except (InvalidArgumentError, ConfigurationError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericalFailureError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if summary is not None:
        print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
