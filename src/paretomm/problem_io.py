"""Problem files: JSON schema, generators, and canonical instances.

A problem file is a JSON document::

    {"dimension": d,
     "objectives": [{"kind": "quadratic", "H": [[...]], "z": [...]}, ...],
     "preference": {"kind": "quadratic", "H": [[...]], "z": [...]}}

The one non-quadratic family is ``{"kind": "builtin", "name":
"log_cosh_quadratic", "params": {"H": .., "z": .., "c": ..}}``: the quadratic
plus c * sum_i log cosh(x_i - z_i), c >= 0 finite (default 1).  A quadratic
entry is 0.5 (x-z)^T H (x-z).  Every constant (mu, L, L_H, L0) is derived
from these families; a file cannot set one.  Any other key is an error.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile

import numpy as np

from .errors import InvalidArgumentError
from .problem import (
    ObjectiveSet,
    ProblemInstance,
    SmoothFunction,
    make_log_cosh_quadratic,
    quadratic_from_hessian,
)


def _naming(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, its ``OSError`` re-raised naming ``path``, not a temporary file."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


@contextlib.contextmanager
def atomic_open(path: str):
    """Text stream renamed over ``path`` on a clean exit, so readers never see a torn file.

    An empty path, an existing directory (a symlink to one is replaced) or a missing parent
    fails on entry, before the caller's block, naming ``path``.
    """
    if not path or (os.path.isdir(path) and not os.path.islink(path)):
        code = errno.EISDIR if path else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = _naming(path, tempfile.mkstemp, dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        _naming(path, os.replace, tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_array(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{where}: expected numbers") from exc
    if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat)):  # float(True) is 1.0
        raise InvalidArgumentError(f"{where}: expected numbers, got a boolean")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{where}: contains a non-finite value")
    return arr


def _finite_number(value, where: str) -> float:
    arr = _finite_array(value, where)
    if arr.ndim != 0:
        raise InvalidArgumentError(f"{where}: expected a number")
    return float(arr)


def _quadratic_data(fields: dict, dim: int, where: str):
    """The finite ``H`` (dim x dim) and ``z`` (dim) of a quadratic or builtin entry."""
    for key in ("H", "z"):
        if key not in fields:
            raise InvalidArgumentError(f"{where}: missing field '{key}'")
    H = _finite_array(fields["H"], f"{where}.H")
    z = _finite_array(fields["z"], f"{where}.z")
    if H.shape != (dim, dim):
        raise InvalidArgumentError(f"{where}.H: expected shape ({dim}, {dim}), got {H.shape}")
    if z.shape != (dim,):
        raise InvalidArgumentError(f"{where}.z: expected length {dim}, got {z.shape}")
    return H, z


def _named(where: str, build, *args) -> SmoothFunction:
    """``build(*args)``, with ``where`` prefixed to the message of its own check errors."""
    try:
        return build(*args)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{where}: {exc}") from exc


def _known_fields(fields: dict, allowed: tuple, where: str):
    """Reject the first key of ``fields`` outside ``allowed``, naming it."""
    for key in fields:
        if key not in allowed:
            raise InvalidArgumentError(f"{where}: unknown field '{key}'")


def _function_from_entry(entry: dict, dim: int, where: str) -> SmoothFunction:
    if not isinstance(entry, dict):
        raise InvalidArgumentError(f"{where}: expected an object")
    kind = entry.get("kind")
    if kind == "quadratic":
        _known_fields(entry, ("kind", "H", "z"), where)
        return _named(where, quadratic_from_hessian, *_quadratic_data(entry, dim, where))
    if kind != "builtin":
        raise InvalidArgumentError(f"{where}.kind: expected 'quadratic' or 'builtin', got {kind!r}")
    _known_fields(entry, ("kind", "name", "params"), where)
    name = entry.get("name")
    if name != "log_cosh_quadratic":
        raise InvalidArgumentError(f"{where}.name: unknown builtin '{name}'")
    params = entry.get("params", {})
    where = f"{where}.params"
    if not isinstance(params, dict):
        raise InvalidArgumentError(f"{where}: expected an object")
    _known_fields(params, ("H", "z", "c"), where)
    H, z = _quadratic_data(params, dim, where)
    c = _finite_number(params["c"], f"{where}.c") if "c" in params else 1.0
    return _named(where, make_log_cosh_quadratic, H, z, c)


def problem_from_spec(spec: dict) -> ProblemInstance:
    if not isinstance(spec, dict):
        raise InvalidArgumentError("problem file: top level must be an object")
    _known_fields(spec, ("dimension", "objectives", "preference"), "problem file")
    if "dimension" not in spec:
        raise InvalidArgumentError("problem file: missing field 'dimension'")
    dim = spec["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InvalidArgumentError(f"dimension: expected a positive integer, got {dim!r}")
    entries = spec.get("objectives")
    if not isinstance(entries, list) or not entries:
        raise InvalidArgumentError("objectives: expected a nonempty list")
    objectives = [
        _function_from_entry(e, dim, f"objectives[{i}]") for i, e in enumerate(entries)
    ]
    if "preference" not in spec:
        raise InvalidArgumentError("problem file: missing field 'preference'")
    f0 = _function_from_entry(spec["preference"], dim, "preference")
    return ProblemInstance.create(ObjectiveSet.from_objectives(objectives), f0)


def load_problem(path: str) -> ProblemInstance:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too many digits
            raise InvalidArgumentError(f"problem file is not valid JSON: {exc}") from exc
    return problem_from_spec(spec)


def write_problem_spec(stream, spec: dict):
    """The problem-file text of ``spec``: indented JSON ending in a newline."""
    stream.write(json.dumps(spec, indent=2) + "\n")


def save_problem_spec(path: str, spec: dict):
    with atomic_open(path) as fh:
        write_problem_spec(fh, spec)


def _quadratic_entry(H: np.ndarray, z: np.ndarray) -> dict:
    return {"kind": "quadratic", "H": np.asarray(H, float).tolist(), "z": np.asarray(z, float).tolist()}


def _planar_spec(objectives, preference_centre) -> dict:
    """Quadratic objectives from (H, z) pairs in the plane; preference 0.5 ||x - centre||^2."""
    return {
        "dimension": 2,
        "objectives": [_quadratic_entry(H, z) for H, z in objectives],
        "preference": _quadratic_entry(np.eye(2), preference_centre),
    }


def png_counterexample_spec() -> dict:
    """Two shared-Hessian quadratics whose navigation dynamics miss the optimum.

    Centers at -e1 and +e1 with Hessian [[1, 1], [1, 2]]; the preference is
    0.5 * ||x - e2||^2 and its unique optimum over the Pareto segment is the
    origin.
    """
    H = [[1.0, 1.0], [1.0, 2.0]]
    return _planar_spec([(H, [-1.0, 0.0]), (H, [1.0, 0.0])], [0.0, 1.0])


def identity_pair_spec() -> dict:
    """Two identity-Hessian quadratics at -e1 and +e1, preference toward e2."""
    return _planar_spec([(np.eye(2), [-1.0, 0.0]), (np.eye(2), [1.0, 0.0])], [0.0, 1.0])


def triangle_spec() -> dict:
    """Three anisotropic quadratics in the plane with a curved stationary set."""
    return _planar_spec(
        [
            ([[3.0, 0.0], [0.0, 0.5]], [0.0, 0.0]),
            ([[0.5, 0.0], [0.0, 3.0]], [2.0, 0.0]),
            ([[2.0, 0.9], [0.9, 2.0]], [1.0, 1.8]),
        ],
        [1.0, 0.7],
    )


def single_objective_spec() -> dict:
    return _planar_spec([([[2.0, 0.0], [0.0, 1.0]], [0.5, -0.25])], [0.0, 1.0])


def random_problem_spec(
    rng: np.random.Generator,
    dimension: int,
    n_objectives: int,
    shared_hessian: bool = False,
) -> dict:
    """Random positive-definite quadratic instance.

    Hessian eigenvalues are uniform on [0.5, 3]; centre entries are normal with scale 1.5.
    """

    def random_spd():
        Q, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
        eigs = rng.uniform(0.5, 3.0, size=dimension)
        H = Q @ np.diag(eigs) @ Q.T
        return 0.5 * (H + H.T)

    shared = random_spd() if shared_hessian else None
    objectives = []
    for _ in range(n_objectives):
        H = shared if shared is not None else random_spd()
        z = rng.normal(size=dimension) * 1.5
        objectives.append(_quadratic_entry(H, z))
    preference = _quadratic_entry(random_spd(), rng.normal(size=dimension) * 1.5)
    return {"dimension": dimension, "objectives": objectives, "preference": preference}


PRESETS = {
    "png-example": png_counterexample_spec,
    "identity-pair": identity_pair_spec,
    "triangle": triangle_spec,
    "single-objective": single_objective_spec,
}


def png_counterexample_problem() -> ProblemInstance:
    return problem_from_spec(png_counterexample_spec())


def identity_pair_problem() -> ProblemInstance:
    return problem_from_spec(identity_pair_spec())
