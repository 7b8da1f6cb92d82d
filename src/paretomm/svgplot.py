"""Self-contained SVG rendering of planar Pareto sets and solver traces.

No plotting dependency: the scene is assembled with the standard XML tools.
The stationary set is drawn as the lattice image of the weight-to-minimizer
map (one polyline per fixed lattice coordinate), each objective and the
preference as level-set ellipses of their second-order model at their own
minimizer (exact for quadratics), and supplied trace files as paths with
endpoint markers.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .errors import InvalidArgumentError
from .oracle import grid_search_preference_opt
from .problem import ProblemInstance

_WIDTH, _HEIGHT, _MARGIN = 720, 540, 48
_COLORS = ["#4878a8", "#e57a5a", "#5a9e5a", "#8b6bb8"]


class _Frame:
    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        lo -= 0.12 * span
        hi += 0.12 * span
        self.lo, self.hi = lo, hi
        self.sx = (_WIDTH - 2 * _MARGIN) / (hi[0] - lo[0])
        self.sy = (_HEIGHT - 2 * _MARGIN) / (hi[1] - lo[1])

    def to_screen(self, p):
        x = _MARGIN + (p[0] - self.lo[0]) * self.sx
        y = _HEIGHT - _MARGIN - (p[1] - self.lo[1]) * self.sy
        return x, y

    def polyline_points(self, pts):
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.to_screen(p) for p in pts))


def _lattice_lines(resolution, weights, xs):
    """Group lattice images into coordinate polylines, given each point's ``weights``.

    Two objectives give one line.  Otherwise, for each weight coordinate held
    at a fixed lattice level, the remaining points trace one image line.
    """
    n = weights.shape[1]
    if n == 2:
        return [list(xs)]
    counts = np.rint(weights * resolution)
    lines = []
    for axis in range(n):
        for level in range(resolution + 1):
            members = np.flatnonzero(counts[:, axis] == level)
            if len(members) >= 2:
                lines.append([xs[i] for i in members])
    return lines


def _ellipse_element(frame, H, z, level, color, dashed=False):
    eigvals, eigvecs = np.linalg.eigh(np.asarray(H, dtype=float))
    radii = np.sqrt(2.0 * level / eigvals)
    angle = np.degrees(np.arctan2(eigvecs[1, 0], eigvecs[0, 0]))
    cx, cy = frame.to_screen(z)
    el = ET.Element(
        "ellipse",
        {
            "cx": f"{cx:.2f}",
            "cy": f"{cy:.2f}",
            "rx": f"{radii[0] * frame.sx:.2f}",
            "ry": f"{radii[1] * frame.sy:.2f}",
            "transform": f"rotate({-angle:.2f} {cx:.2f} {cy:.2f})",
            "fill": "none",
            "stroke": color,
            "stroke-width": "1",
            "opacity": "0.5",
        },
    )
    if dashed:
        el.set("stroke-dasharray", "5,4")
    return el


def render_pareto_svg(problem: ProblemInstance, resolution: int, overlays=()) -> str:
    """Render the sampled stationary set of a planar instance as SVG text.

    ``overlays`` is a sequence of (label, path) pairs where ``path`` is an
    (T, 2) array of iterate positions; each is drawn as a thin path with a
    marker on its final point.  Only two-dimensional instances are
    supported.
    """
    if problem.F.dim != 2:
        raise InvalidArgumentError(f"plotting needs dimension 2, got {problem.F.dim}")
    result = grid_search_preference_opt(problem, resolution, collect=True)
    n = problem.F.n
    xs = result.rows[:, n : n + 2]
    everything = list(xs) + [f.minimizer_hint for f in problem.F.objectives]
    everything.append(problem.f0.minimizer_hint)
    for _, path in overlays:
        everything.extend(np.asarray(path, dtype=float))
    frame = _Frame(everything)

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    ET.SubElement(svg, "rect", {"width": "100%", "height": "100%", "fill": "white"})

    contours = ET.SubElement(svg, "g", {"id": "objective-contours"})
    styles = [(f, _COLORS[i % len(_COLORS)], False) for i, f in enumerate(problem.F.objectives)]
    for f, color, dashed in styles + [(problem.f0, "#666666", True)]:
        H = f.hess(f.minimizer_hint)
        for level in (0.05, 0.2, 0.45):
            contours.append(_ellipse_element(frame, H, f.minimizer_hint, level, color, dashed))

    grid = ET.SubElement(svg, "g", {"id": "pareto-grid"})
    for line in _lattice_lines(resolution, result.rows[:, :n], xs):
        ET.SubElement(
            grid,
            "polyline",
            {
                "points": frame.polyline_points(line),
                "fill": "none",
                "stroke": "#333333",
                "stroke-width": "1.4",
            },
        )

    marks = ET.SubElement(svg, "g", {"id": "overlays"})
    for j, (label, path) in enumerate(overlays):
        color = _COLORS[(j + 1) % len(_COLORS)]
        path = np.asarray(path, dtype=float)
        if len(path) >= 2:
            ET.SubElement(
                marks,
                "polyline",
                {
                    "points": frame.polyline_points(path),
                    "fill": "none",
                    "stroke": color,
                    "stroke-width": "1",
                    "opacity": "0.8",
                },
            )
        cx, cy = frame.to_screen(path[-1])
        ET.SubElement(
            marks,
            "circle",
            {"cx": f"{cx:.2f}", "cy": f"{cy:.2f}", "r": "5", "fill": color},
        )
        text = ET.SubElement(
            marks,
            "text",
            {"x": f"{cx + 8:.2f}", "y": f"{cy - 8:.2f}", "font-size": "12", "fill": color},
        )
        text.text = label

    return ET.tostring(svg, encoding="unicode")
