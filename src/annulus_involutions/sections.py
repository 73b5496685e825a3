"""Transversal sections: parametrized curves with certificates and geometry.

A section is a regular curve s -> (x(s), y(s)) whose tangent is transversal
to the field along the sampled grid.  Curves expose a signed side function
``side(x, y)`` (signed distance along the local normal, on two floats) used
as the event function for "trajectory meets the curve" crossings, plus
nearest-point projection for membership tests.  Straight segments take an
exact affine fast path; tabulated curves (conjugate sections have no closed
form) are interpolated with a cubic spline.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import SectionError, TransversalityError
from .expr import ExprAst, compile_fn, differentiate, parse, to_source
from .flow import EventSpec

__all__ = [
    "Section",
    "ExpressionCurve",
    "TabulatedCurve",
    "make_section",
    "section_from_points",
    "curve_event",
    "membership_tol",
]

_HIT_DIST_TOL = 1e-7  # scaled by (1 + |z|): separates on-curve roots from extension hits


def membership_tol(z) -> float:
    """Distance from a section within which z counts as on it: 1e-9 * (1 + |z|)."""
    return 1e-9 * (1.0 + math.hypot(float(z[0]), float(z[1])))


class _PPoly1D:
    """Scalar-fast piecewise cubic y(s): the not-a-knot interpolating spline.

    ``c`` holds the coefficients as a (4, n-1) array, highest degree first.
    Evaluation reads the same numbers from Python lists and finds the
    segment by bisection, so it gives the bits of the array evaluation
    without per-call numpy indexing.
    """

    def __init__(self, grid: np.ndarray, coeffs: np.ndarray):
        self.c = coeffs
        self._knots = grid.tolist()
        self._c0, self._c1, self._c2, self._c3 = coeffs.tolist()
        self._last = len(self._knots) - 2

    @classmethod
    def fit(cls, grid, values):
        """Not-a-knot cubic spline through n >= 4 points (the system and the
        coefficient formulas of scipy.interpolate.CubicSpline)."""
        x = np.asarray(grid, dtype=float)
        y = np.asarray(values, dtype=float)
        n = len(x)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # knot slopes m: second derivative continuous at interior knots,
        # third derivative continuous at the second and second-last knots
        a = np.zeros((n, n))
        b = np.empty(n)
        i = np.arange(1, n - 1)
        a[i, i - 1] = dx[1:]
        a[i, i] = 2.0 * (dx[:-1] + dx[1:])
        a[i, i + 1] = dx[:-1]
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        a[0, :2] = dx[1], d0
        b[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        a[-1, -2:] = d1, dx[-2]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        m = np.linalg.solve(a, b)
        t = (m[:-1] + m[1:] - 2.0 * slope) / dx
        return cls(x, np.array([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]]))

    def _segment(self, s: float) -> int:
        # the index searchsorted(grid, s, side="right") - 1 gives, clamped
        return min(max(bisect_right(self._knots, s) - 1, 0), self._last)

    def __call__(self, s: float) -> float:
        i = self._segment(s)
        u = s - self._knots[i]
        return ((self._c0[i] * u + self._c1[i]) * u + self._c2[i]) * u + self._c3[i]

    def deriv(self, s: float) -> float:
        i = self._segment(s)
        u = s - self._knots[i]
        return (3.0 * self._c0[i] * u + 2.0 * self._c1[i]) * u + self._c2[i]

    def deriv2(self, s: float) -> float:
        i = self._segment(s)
        u = s - self._knots[i]
        return 6.0 * self._c0[i] * u + 2.0 * self._c1[i]


class _CurveBase:
    """Shared geometry: projection, signed side.

    Subclasses evaluate C(s), C'(s) and C''(s) as float pairs in
    ``_point``, ``_tangent`` and ``_second``, and may override ``project``
    and ``side``; ``point`` and ``tangent`` wrap the pairs in arrays.
    """

    s_min: float
    s_max: float
    grid: np.ndarray
    points: np.ndarray

    def _point(self, s: float) -> tuple[float, float]:
        raise NotImplementedError

    def _tangent(self, s: float) -> tuple[float, float]:
        raise NotImplementedError

    def _second(self, s: float) -> tuple[float, float]:
        raise NotImplementedError

    def point(self, s: float) -> np.ndarray:
        return np.array(self._point(s))

    def tangent(self, s: float) -> np.ndarray:
        return np.array(self._tangent(s))

    def _fine_polyline(self):
        if getattr(self, "_fine", None) is None:
            n = max(8 * (len(self.grid) - 1) + 1, 65)
            ss = np.linspace(self.s_min, self.s_max, n)
            pts = np.array([self._point(float(s)) for s in ss])
            self._fine = (ss, pts[:, 0].copy(), pts[:, 1].copy())
        return self._fine

    def project(self, z) -> tuple[float, float]:
        """Nearest-point parameter (clamped to the range) and true distance."""
        zx, zy = float(z[0]), float(z[1])
        ss, xs, ys = self._fine_polyline()
        i = int(np.argmin((xs - zx) ** 2 + (ys - zy) ** 2))
        s = float(ss[i])
        span = self.s_max - self.s_min
        for _ in range(30):
            cx, cy = self._point(s)
            tx, ty = self._tangent(s)
            rx, ry = zx - cx, zy - cy
            h = rx * tx + ry * ty
            c2x, c2y = self._second(s)
            hp = -(tx * tx + ty * ty) + rx * c2x + ry * c2y
            if hp == 0.0:
                break
            step = h / hp
            s_new = min(max(s - step, self.s_min), self.s_max)
            if abs(s_new - s) < 1e-14 * span:
                s = s_new
                break
            s = s_new
        cx, cy = self._point(s)
        return s, math.hypot(zx - cx, zy - cy)

    def side(self, x: float, y: float) -> float:
        """Signed offset of (x, y) along the local normal at the projected point."""
        s, _ = self.project((x, y))
        cx, cy = self._point(s)
        tx, ty = self._tangent(s)
        tn = math.hypot(tx, ty)
        return (tx * (y - cy) - ty * (x - cx)) / tn


class _AffineSegment(_CurveBase):
    """Exact geometry for straight segments C(s) = a + s*d."""

    def __init__(self, a, d, s_min, s_max, grid, points):
        d = np.asarray(d, dtype=float)
        self.ax, self.ay = float(a[0]), float(a[1])
        self.dx, self.dy = float(d[0]), float(d[1])
        self.s_min, self.s_max = float(s_min), float(s_max)
        self.grid = grid
        self.points = points
        self._dd = float(d @ d)
        self._dn = math.sqrt(self._dd)

    def _point(self, s: float) -> tuple[float, float]:
        return self.ax + s * self.dx, self.ay + s * self.dy

    def _tangent(self, s: float) -> tuple[float, float]:
        return self.dx, self.dy

    def project(self, z) -> tuple[float, float]:
        zx, zy = z[0], z[1]
        s = ((zx - self.ax) * self.dx + (zy - self.ay) * self.dy) / self._dd
        s = min(max(s, self.s_min), self.s_max)
        cx, cy = self._point(s)
        return float(s), math.hypot(zx - cx, zy - cy)

    def side(self, x: float, y: float) -> float:
        return (self.dx * (y - self.ay) - self.dy * (x - self.ax)) / self._dn


class ExpressionCurve(_CurveBase):
    """Curve defined by expressions x(s), y(s) with exact derivatives."""

    def __init__(self, sx: ExprAst, sy: ExprAst, s_min: float, s_max: float, grid: np.ndarray):
        self.sx, self.sy = sx, sy
        self.s_min, self.s_max = float(s_min), float(s_max)
        self.grid = np.asarray(grid, dtype=float)
        var = ("s",)
        self._x = compile_fn(sx, var)
        self._y = compile_fn(sy, var)
        self._dx = compile_fn(differentiate(sx, "s"), var)
        self._dy = compile_fn(differentiate(sy, "s"), var)
        self._ddx = compile_fn(differentiate(differentiate(sx, "s"), "s"), var)
        self._ddy = compile_fn(differentiate(differentiate(sy, "s"), "s"), var)
        self.points = np.array([self._point(s) for s in self.grid])
        self._fine = None

    def _point(self, s: float) -> tuple[float, float]:
        return self._x(s), self._y(s)

    def _tangent(self, s: float) -> tuple[float, float]:
        return self._dx(s), self._dy(s)

    def _second(self, s: float) -> tuple[float, float]:
        return self._ddx(s), self._ddy(s)

    def label(self) -> str:
        return f"({to_source(self.sx)}, {to_source(self.sy)})"


class TabulatedCurve(_CurveBase):
    """Curve known only at grid points, interpolated with a cubic spline."""

    def __init__(self, grid, points):
        self.grid = np.asarray(grid, dtype=float)
        self.points = np.asarray(points, dtype=float)
        if len(self.grid) < 4:
            raise SectionError("tabulated curve needs at least 4 grid points")
        self.s_min, self.s_max = float(self.grid[0]), float(self.grid[-1])
        self._px = _PPoly1D.fit(self.grid, self.points[:, 0])
        self._py = _PPoly1D.fit(self.grid, self.points[:, 1])
        self._fine = None

    def _point(self, s: float) -> tuple[float, float]:
        return self._px(s), self._py(s)

    def _tangent(self, s: float) -> tuple[float, float]:
        return self._px.deriv(s), self._py.deriv(s)

    def _second(self, s: float) -> tuple[float, float]:
        return self._px.deriv2(s), self._py.deriv2(s)


def _as_affine(curve: _CurveBase) -> _AffineSegment | None:
    """Replace a curve by the exact segment through its grid points when the
    parametrization is affine to round-off."""
    grid, pts = curve.grid, curve.points
    span = grid[-1] - grid[0]
    d = (pts[-1] - pts[0]) / span
    pred = pts[0][None, :] + (grid - grid[0])[:, None] * d[None, :]
    scale = 1.0 + float(np.abs(pts).max())
    if float(np.abs(pts - pred).max()) > 1e-12 * scale:
        return None
    if float(d @ d) < 1e-24:
        return None
    a = pts[0] - grid[0] * d
    return _AffineSegment(a, d, grid[0], grid[-1], grid, pts)


@dataclass
class Section:
    """A validated transversal curve with its certificate.

    ``orientation`` is the common sign of det[tangent, V] along the grid and
    ``min_transversality`` the smallest |det| / (|tangent| |V|) encountered.
    A conjugate section also carries ``periods``, the period of the cycle
    through each grid point.
    """

    curve: _CurveBase
    label: str
    orientation: int
    min_transversality: float
    periods: np.ndarray | None = None

    @property
    def s_min(self) -> float:
        return self.curve.s_min

    @property
    def s_max(self) -> float:
        return self.curve.s_max

    @property
    def grid(self) -> np.ndarray:
        return self.curve.grid

    def point(self, s: float) -> np.ndarray:
        return self.curve.point(s)

    def tangent(self, s: float) -> np.ndarray:
        return self.curve.tangent(s)

    def project(self, z) -> tuple[float, float]:
        return self.curve.project(z)

    def side(self, z) -> float:
        return self.curve.side(z[0], z[1])

    def distance(self, z) -> float:
        return self.curve.project(z)[1]

    def contains(self, z) -> bool:
        return self.distance(z) <= membership_tol(z)

    def event(self, direction: int = 0, terminal: bool = True) -> EventSpec:
        return curve_event(self.curve, direction=direction, terminal=terminal)


def _validate(curve: _CurveBase, field, label: str) -> tuple[int, float]:
    pts = curve.points
    n = len(pts)
    orientation = 0
    min_t = math.inf
    for s, p in zip(curve.grid, pts):
        t = curve.tangent(float(s))
        tn = math.hypot(t[0], t[1])
        if tn < 1e-12:
            raise TransversalityError(f"section {label}: degenerate tangent at s = {s:.6g}")
        v = field.velocity(p)
        vn = math.hypot(v[0], v[1])
        if vn < 1e-12:
            raise TransversalityError(f"section {label}: field vanishes at s = {s:.6g}")
        det = t[0] * v[1] - t[1] * v[0]
        ratio = abs(det) / (tn * vn)
        if ratio < 1e-6:
            raise TransversalityError(
                f"section {label}: tangent parallel to the field at s = {s:.6g} "
                f"(normalized det {ratio:.3g})"
            )
        sign = 1 if det > 0 else -1
        if orientation == 0:
            orientation = sign
        elif sign != orientation:
            raise TransversalityError(
                f"section {label}: crossing orientation flips at s = {s:.6g}"
            )
        min_t = min(min_t, ratio)
    # injectivity over the sampled grid
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = (diff ** 2).sum(axis=2) + np.eye(n)
    scale = 1.0 + float(np.abs(pts).max())
    if float(dist2.min()) < (1e-9 * scale) ** 2:
        raise SectionError(f"section {label} self-intersects on the grid")
    return orientation, min_t


def make_section(field, sx, sy, s_range, n_grid: int = 33, name: str | None = None) -> Section:
    """Build and certify a section from curve expressions over s.

    ``sx``/``sy`` are expression text (or parsed ASTs) in the variable s;
    transversality and injectivity are checked at n_grid points across
    s_range and failures raise with the offending parameter value.
    """
    if isinstance(sx, str):
        sx = parse(sx, variables=("s",))
    if isinstance(sy, str):
        sy = parse(sy, variables=("s",))
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not (s_hi > s_lo):
        raise SectionError(f"empty parameter range [{s_lo}, {s_hi}]")
    if n_grid < 4:
        raise SectionError("section grid needs at least 4 points")
    grid = np.linspace(s_lo, s_hi, n_grid)
    curve: _CurveBase = ExpressionCurve(sx, sy, s_lo, s_hi, grid)
    label = name or curve.label()
    affine = _as_affine(curve)
    if affine is not None:
        curve = affine
    orientation, min_t = _validate(curve, field, label)
    return Section(curve=curve, label=label, orientation=orientation,
                   min_transversality=min_t)


def section_from_points(field, grid, points, name: str) -> Section:
    """Certify a tabulated curve (used for conjugate sections)."""
    curve: _CurveBase = TabulatedCurve(grid, points)
    affine = _as_affine(curve)
    if affine is not None:
        curve = affine
    orientation, min_t = _validate(curve, field, name)
    return Section(curve=curve, label=name, orientation=orientation,
                   min_transversality=min_t)


def curve_event(curve: _CurveBase, direction: int = 0, terminal: bool = True) -> EventSpec:
    """Crossing event for a curve segment.

    Roots of the side function on the curve's extension (projection clamped
    beyond an endpoint) are vetoed by the accept hook, so scanning continues
    past them.
    """

    def accept(z) -> bool:
        _, dist = curve.project(z)
        return dist <= _HIT_DIST_TOL * (1.0 + math.hypot(float(z[0]), float(z[1])))

    return EventSpec(g=curve.side, direction=direction, terminal=terminal, accept=accept)
