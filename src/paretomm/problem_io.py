"""Problem files: JSON schema, generators, and canonical instances.

A problem file is a JSON document::

    {"dimension": d,
     "objectives": [{"kind": "quadratic", "H": [[...]], "z": [...]}, ...],
     "preference": {"kind": "quadratic", "H": [[...]], "z": [...]},
     "constants": {"mu": .., "L": .., "L_H": .., "L0": ..}}   # optional

Non-quadratic built-ins are referenced as ``{"kind": "builtin", "name": ...,
"params": {"H": .., "z": .., ...}}``; every other parameter is a finite
number.  A quadratic entry is 0.5 (x-z)^T H (x-z).  The optional
constants block overrides the values computed for analytic families.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np

from .errors import InvalidArgumentError
from .problem import (
    BUILTIN_FUNCTIONS,
    ObjectiveSet,
    ProblemInstance,
    SmoothFunction,
    quadratic_from_hessian,
)


def atomic_write_text(path: str, text: str):
    """Write via a temporary file plus rename so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_array(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{where}: expected numbers") from exc
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


def _function_from_entry(entry: dict, dim: int, where: str) -> SmoothFunction:
    if not isinstance(entry, dict):
        raise InvalidArgumentError(f"{where}: expected an object")
    kind = entry.get("kind")
    if kind == "quadratic":
        return _named(where, quadratic_from_hessian, *_quadratic_data(entry, dim, where))
    if kind == "builtin":
        name = entry.get("name")
        if name not in BUILTIN_FUNCTIONS:
            raise InvalidArgumentError(f"{where}.name: unknown builtin '{name}'")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise InvalidArgumentError(f"{where}.params: expected an object")
        H, z = _quadratic_data(params, dim, f"{where}.params")
        scalars = {
            key: _finite_number(value, f"{where}.params.{key}")
            for key, value in params.items()
            if key not in ("H", "z")
        }
        return _named(f"{where}.params", BUILTIN_FUNCTIONS[name], H, z, scalars)
    raise InvalidArgumentError(f"{where}.kind: expected 'quadratic' or 'builtin', got {kind!r}")


def problem_from_spec(spec: dict) -> ProblemInstance:
    if not isinstance(spec, dict):
        raise InvalidArgumentError("problem file: top level must be an object")
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
    F = ObjectiveSet.from_objectives(objectives)
    constants = spec.get("constants")
    if constants is not None:
        if not isinstance(constants, dict):
            raise InvalidArgumentError("constants: expected an object")
        values = {
            key: _finite_number(constants[key], f"constants.{key}")
            for key in ("mu", "L", "L_H", "L0")
            if key in constants
        }
        L0 = values.pop("L0", None)
        if values:
            F = dataclasses.replace(F, **values)
        if not (0 < F.mu <= F.L):
            raise InvalidArgumentError("constants: require 0 < mu <= L")
        if F.L_H < 0:
            raise InvalidArgumentError("constants: require L_H >= 0")
        if L0 is not None:
            if L0 <= 0:
                raise InvalidArgumentError("constants: require L0 > 0")
            f0 = dataclasses.replace(f0, L=L0)
    return ProblemInstance.create(F, f0)


def load_problem(path: str) -> ProblemInstance:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"problem file is not valid JSON: {exc}") from exc
    return problem_from_spec(spec)


def save_problem_spec(path: str, spec: dict):
    atomic_write_text(path, json.dumps(spec, indent=2) + "\n")


def _quadratic_entry(H: np.ndarray, z: np.ndarray) -> dict:
    return {"kind": "quadratic", "H": np.asarray(H, float).tolist(), "z": np.asarray(z, float).tolist()}


def png_counterexample_spec() -> dict:
    """Two shared-Hessian quadratics whose navigation dynamics miss the optimum.

    Centers at -e1 and +e1 with Hessian [[1, 1], [1, 2]]; the preference is
    0.5 * ||x - e2||^2 and its unique optimum over the Pareto segment is the
    origin.
    """
    H = [[1.0, 1.0], [1.0, 2.0]]
    return {
        "dimension": 2,
        "objectives": [
            _quadratic_entry(H, [-1.0, 0.0]),
            _quadratic_entry(H, [1.0, 0.0]),
        ],
        "preference": _quadratic_entry(np.eye(2), [0.0, 1.0]),
    }


def identity_pair_spec() -> dict:
    """Two identity-Hessian quadratics at -e1 and +e1, preference toward e2."""
    return {
        "dimension": 2,
        "objectives": [
            _quadratic_entry(np.eye(2), [-1.0, 0.0]),
            _quadratic_entry(np.eye(2), [1.0, 0.0]),
        ],
        "preference": _quadratic_entry(np.eye(2), [0.0, 1.0]),
    }


def triangle_spec() -> dict:
    """Three anisotropic quadratics in the plane with a curved stationary set."""
    return {
        "dimension": 2,
        "objectives": [
            _quadratic_entry([[3.0, 0.0], [0.0, 0.5]], [0.0, 0.0]),
            _quadratic_entry([[0.5, 0.0], [0.0, 3.0]], [2.0, 0.0]),
            _quadratic_entry([[2.0, 0.9], [0.9, 2.0]], [1.0, 1.8]),
        ],
        "preference": _quadratic_entry(np.eye(2), [1.0, 0.7]),
    }


def single_objective_spec() -> dict:
    return {
        "dimension": 2,
        "objectives": [_quadratic_entry([[2.0, 0.0], [0.0, 1.0]], [0.5, -0.25])],
        "preference": _quadratic_entry(np.eye(2), [0.0, 1.0]),
    }


def random_problem_spec(
    rng: np.random.Generator,
    dimension: int,
    n_objectives: int,
    shared_hessian: bool = False,
    eig_range=(0.5, 3.0),
    center_scale: float = 1.5,
) -> dict:
    """Random positive-definite quadratic instance."""

    def random_spd():
        Q, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
        eigs = rng.uniform(*eig_range, size=dimension)
        H = Q @ np.diag(eigs) @ Q.T
        return 0.5 * (H + H.T)

    shared = random_spd() if shared_hessian else None
    objectives = []
    for _ in range(n_objectives):
        H = shared if shared is not None else random_spd()
        z = rng.normal(size=dimension) * center_scale
        objectives.append(_quadratic_entry(H, z))
    preference = _quadratic_entry(random_spd(), rng.normal(size=dimension) * center_scale)
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
