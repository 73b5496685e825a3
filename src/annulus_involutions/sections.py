"""Transversal sections: parametrized curves with certificates and geometry.

A section is a regular curve s -> (x(s), y(s)) whose tangent is transversal
to the field along the sampled grid; ``Section``, the base class of the
curve kinds, also holds the certificate.  Each curve kind evaluates C, C'
and C'' at s in one call, its ``jet``: an expression curve through one
compiled function, a tabulated curve (conjugate sections have no closed
form) from one set of not-a-knot cubic spline coefficients, a straight
segment exactly.  Curves expose a signed side function ``side(x, y)``
(signed distance along the local normal, on two floats) used as the event
function for "trajectory meets the curve" crossings, plus nearest-point
projection for membership tests; on a curved section both start from one
foot point.  An expression curve becomes an exact straight segment only
when its second derivatives are symbolically zero and its grid points are
affine to round-off.  Points are (x, y) tuples of floats and parameter
grids are lists.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import DomainError, SectionError, TransversalityError
from .expr import _MATH_ERRORS, Const, ExprAst, compile_fn, differentiate, parse, to_source
from .flow import EventSpec, Point, as_point

__all__ = [
    "Section",
    "ExpressionCurve",
    "TabulatedCurve",
    "make_section",
    "section_from_points",
    "curve_event",
    "membership_tol",
    "linspace",
]

_HIT_DIST_TOL = 1e-7  # scaled by (1 + |z|): separates on-curve roots from extension hits


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 2 evenly spaced floats: start + i * step with
    step = (stop - start) / (num - 1), the last value pinned to stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def membership_tol(z) -> float:
    """Distance from a section within which z counts as on it: 1e-9 * (1 + |z|)."""
    return 1e-9 * (1.0 + math.hypot(float(z[0]), float(z[1])))


def _not_a_knot(grid: list[float], values: list[float]) -> tuple[list[float], ...]:
    """Coefficients of the not-a-knot cubic spline through n >= 4 points
    (the system and the coefficient formulas of scipy.interpolate.CubicSpline):
    four lists over the n-1 segments, highest degree first, in the layout of
    scipy's ``PPoly.c``.

    The knot slopes m make C'' continuous at interior knots and C''' at
    the second and second-last; that system is tridiagonal, and is
    solved by elimination without pivoting.
    """
    x, y = grid, values
    n = len(x)
    dx = [b - a for a, b in zip(x, x[1:])]
    slope = [(b - a) / h for a, b, h in zip(y, y[1:], dx)]
    # row i: lower[i-1] * m[i-1] + diag[i] * m[i] + upper[i] * m[i+1] = rhs[i]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower, upper = dx[1:] + [d1], [d0] + dx[:-1]
    diag = [dx[1]] + [2.0 * (a + b) for a, b in zip(dx, dx[1:])] + [dx[-2]]
    rhs = ([((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0]
           + [3.0 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i]) for i in range(1, n - 1)]
           + [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1])
    for i in range(1, n):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    m = [rhs[-1] / diag[-1]] * n
    for i in range(n - 2, -1, -1):
        m[i] = (rhs[i] - upper[i] * m[i + 1]) / diag[i]
    t = [(a + b - 2.0 * k) / h for a, b, k, h in zip(m, m[1:], slope, dx)]
    return ([ti / h for ti, h in zip(t, dx)],
            [(k - a) / h - ti for k, a, h, ti in zip(slope, m, dx, t)],
            m[:-1], y[:-1])


class Section:
    """A curve s -> C(s) on [s_min, s_max]; once certified, a transversal
    section that carries its certificate.

    Subclasses define ``jet(s)`` (a method, or an attribute holding the
    compiled function), the floats (x, y, x', y', x'', y'') of C, C' and
    C'' at s, and may override ``project`` and ``side``.
    ``side_lipschitz`` bounds |grad side| for the event scan; the generic
    side (offset at a Newton projection) has no proven bound.
    Certification sets ``label``, ``orientation`` (the common sign of
    det[tangent, V] on the grid) and ``min_transversality`` (the smallest
    |det| / (|tangent| |V|)); a conjugate section also sets ``periods``,
    the period of the cycle through each grid point.
    """

    side_lipschitz: float | None = None
    periods: list[float] | None = None
    label: str
    orientation: int
    min_transversality: float
    s_min: float
    s_max: float
    grid: list[float]
    points: list[Point]

    def point(self, s: float) -> Point:
        return self._defined(self.jet, s)[:2]

    def tangent(self, s: float) -> tuple[float, float]:
        return self._defined(self.jet, s)[2:4]

    def _defined(self, f, s: float):
        """f(s), with a math error raised as SectionError naming s."""
        try:
            return f(s)
        except _MATH_ERRORS as exc:
            raise SectionError(
                f"section {self.label}: curve undefined at s = {s:.6g}: {exc}") from exc

    def _fine_polyline(self):
        """(parameters, xs, ys, blocks) of the fine polyline.  Block k covers
        the vertices within 4 places of vertex 8k, its anchor, as (first
        index, end index, anchor x, anchor y, bound on their distance)."""
        if getattr(self, "_fine", None) is None:
            ss = linspace(self.s_min, self.s_max, max(8 * (len(self.grid) - 1) + 1, 65))
            pts = [self._defined(self.jet, s) for s in ss]
            xs, ys = [p[0] for p in pts], [p[1] for p in pts]
            blocks = []
            for a in range(0, len(ss), 8):
                lo, hi = max(a - 4, 0), min(a + 4, len(ss))
                r = max(math.hypot(xs[i] - xs[a], ys[i] - ys[a]) for i in range(lo, hi))
                blocks.append((lo, hi, xs[a], ys[a], r * (1.0 + 1e-12)))
            self._fine = (ss, xs, ys, blocks)
        return self._fine

    def _nearest_vertex(self, zx: float, zy: float) -> int:
        """Index of the fine-polyline vertex nearest to (zx, zy): the first
        minimum of the squared distances, so a tie goes to the lower index.

        A block is skipped only when the triangle inequality, with a margin
        of 1e-12 that covers rounding, puts all its vertices strictly
        farther than the nearest anchor; the rest are scanned in order.
        """
        _, xs, ys, blocks = self._fine_polyline()
        d2a = [(ax - zx) * (ax - zx) + (ay - zy) * (ay - zy) for _, _, ax, ay, _ in blocks]
        cut = min(d2a) * (1.0 + 1e-12)
        best, i_best = math.inf, 0
        for (lo, hi, _, _, r), d2 in zip(blocks, d2a):
            lb = math.sqrt(d2) * (1.0 - 1e-12) - r
            if lb > 0.0 and lb * lb > cut:
                continue
            for i in range(lo, hi):
                d = (xs[i] - zx) * (xs[i] - zx) + (ys[i] - zy) * (ys[i] - zy)
                if d < best:
                    best, i_best = d, i
        return i_best

    def _foot(self, zx: float, zy: float) -> tuple[float, tuple[float, ...]]:
        """(s, jet(s)) at the nearest point of the curve to (zx, zy): the
        nearest fine-polyline vertex, then Newton on |z - C(s)|^2 with s
        clamped to the range.  A Newton iterate where the curve is
        undefined raises SectionError."""
        s = self._fine_polyline()[0][self._nearest_vertex(zx, zy)]
        span = self.s_max - self.s_min
        jet = self._defined(self.jet, s)
        for _ in range(30):
            cx, cy, tx, ty, c2x, c2y = jet
            rx, ry = zx - cx, zy - cy
            h = rx * tx + ry * ty
            hp = -(tx * tx + ty * ty) + rx * c2x + ry * c2y
            if hp == 0.0:
                break
            s_new = min(max(s - h / hp, self.s_min), self.s_max)
            converged = abs(s_new - s) < 1e-14 * span
            s = s_new
            jet = self._defined(self.jet, s)
            if converged:
                break
        return s, jet

    def project(self, z) -> tuple[float, float]:
        """Nearest-point parameter (clamped to the range) and true distance."""
        zx, zy = as_point(z)
        s, (cx, cy, *_) = self._foot(zx, zy)
        return s, math.hypot(zx - cx, zy - cy)

    def side(self, x: float, y: float) -> float:
        """Signed offset of (x, y) along the local normal at its foot point."""
        _, (cx, cy, tx, ty, _, _) = self._foot(x, y)
        return (tx * (y - cy) - ty * (x - cx)) / math.hypot(tx, ty)

    def contains(self, z) -> bool:
        return self.project(z)[1] <= membership_tol(z)


# bench/tracing.py looks the base class up by this name
_CurveBase = Section


class _AffineSegment(Section):
    """Exact geometry for straight segments C(s) = a + s*d."""

    # side is the offset along the unit normal (divided by |d|)
    side_lipschitz = 1.0

    def __init__(self, a, d, s_min, s_max, grid, points):
        self.ax, self.ay = a
        self.dx, self.dy = d
        self.s_min, self.s_max = s_min, s_max
        self.grid = grid
        self.points = points
        self._dd = self.dx * self.dx + self.dy * self.dy
        self._dn = math.sqrt(self._dd)

    def jet(self, s: float) -> tuple[float, ...]:
        return self.ax + s * self.dx, self.ay + s * self.dy, self.dx, self.dy, 0.0, 0.0

    def project(self, z) -> tuple[float, float]:
        zx, zy = as_point(z)
        s = ((zx - self.ax) * self.dx + (zy - self.ay) * self.dy) / self._dd
        s = min(max(s, self.s_min), self.s_max)
        cx, cy = self.point(s)
        return s, math.hypot(zx - cx, zy - cy)

    def side(self, x: float, y: float) -> float:
        return (self.dx * (y - self.ay) - self.dy * (x - self.ax)) / self._dn


class ExpressionCurve(Section):
    """Curve defined by expressions x(s), y(s), whose jet with the exact
    derivatives is one compiled function.

    The jet must be defined, and the point and the tangent finite, at every
    grid point; otherwise construction raises SectionError naming s.
    """

    def __init__(self, sx: ExprAst, sy: ExprAst, s_min: float, s_max: float, grid):
        self.label = f"({to_source(sx)}, {to_source(sy)})"
        self.s_min, self.s_max = float(s_min), float(s_max)
        self.grid = [float(s) for s in grid]
        dx, dy = differentiate(sx, "s"), differentiate(sy, "s")
        ddx, ddy = differentiate(dx, "s"), differentiate(dy, "s")
        self.jet = compile_fn((sx, sy, dx, dy, ddx, ddy), ("s",))
        # C'' is symbolically zero; abs() also differentiates to a zero C'',
        # so a kinked curve is told apart only by the grid test of _as_affine
        self.straight = ddx == Const(0.0) and ddy == Const(0.0)
        self.points = []
        for s in self.grid:
            jet = self._defined(self.jet, s)
            if not all(map(math.isfinite, jet[:4])):
                raise SectionError(f"section {self.label}: curve not finite at s = {s:.6g}")
            self.points.append(jet[:2])


class TabulatedCurve(Section):
    """Curve known only at grid points, interpolated with a cubic spline."""

    def __init__(self, grid, points):
        self.grid = [float(s) for s in grid]
        self.points = [as_point(p) for p in points]
        if len(self.grid) < 4:
            raise SectionError("tabulated curve needs at least 4 grid points")
        self.s_min, self.s_max = self.grid[0], self.grid[-1]
        # one row per segment: the x, then the y coefficients, highest degree first
        self.coeffs = list(zip(*_not_a_knot(self.grid, [p[0] for p in self.points]),
                               *_not_a_knot(self.grid, [p[1] for p in self.points])))

    def jet(self, s: float) -> tuple[float, ...]:
        # the segment searchsorted(grid, s, side="right") - 1 gives, clamped
        i = min(max(bisect_right(self.grid, s) - 1, 0), len(self.coeffs) - 1)
        u = s - self.grid[i]
        a, b, c, d, e, f, g, k = self.coeffs[i]
        return (((a * u + b) * u + c) * u + d, ((e * u + f) * u + g) * u + k,
                (3.0 * a * u + 2.0 * b) * u + c, (3.0 * e * u + 2.0 * f) * u + g,
                6.0 * a * u + 2.0 * b, 6.0 * e * u + 2.0 * f)


def _as_affine(curve: Section) -> Section:
    """The exact segment through the curve's grid points when its
    parametrization is affine to round-off, else the curve itself."""
    grid, pts = curve.grid, curve.points
    (x0, y0), (x1, y1) = pts[0], pts[-1]
    span = grid[-1] - grid[0]
    dx, dy = (x1 - x0) / span, (y1 - y0) / span
    tol = 1e-12 * (1.0 + max(abs(v) for p in pts for v in p))
    for s, (x, y) in zip(grid, pts):
        u = s - grid[0]
        if abs(x - (x0 + u * dx)) > tol or abs(y - (y0 + u * dy)) > tol:
            return curve
    if dx * dx + dy * dy < 1e-24:
        return curve
    return _AffineSegment((x0 - grid[0] * dx, y0 - grid[0] * dy), (dx, dy),
                          grid[0], grid[-1], grid, pts)


def _certify(curve: Section, field, label: str) -> Section:
    """Check transversality and injectivity on the grid, build the fine
    polyline that ``project`` searches (straight segments need none), and
    set the certificate on the curve, which is returned."""
    curve.label = label
    orientation = 0
    min_t = math.inf
    for s, (px, py) in zip(curve.grid, curve.points):
        tx, ty = curve.tangent(s)
        tn = math.hypot(tx, ty)
        if tn < 1e-12:
            raise TransversalityError(f"section {label}: degenerate tangent at s = {s:.6g}")
        try:
            vx, vy = field.rhs(px, py)
        except DomainError as exc:
            raise SectionError(f"section {label}: field undefined at s = {s:.6g}: {exc}") from exc
        vn = math.hypot(vx, vy)
        if vn < 1e-12:
            raise TransversalityError(f"section {label}: field vanishes at s = {s:.6g}")
        det = tx * vy - ty * vx
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
    pts = curve.points
    gap = 1e-9 * (1.0 + max(abs(v) for p in pts for v in p))
    if any(math.dist(p, q) < gap for i, p in enumerate(pts) for q in pts[:i]):
        raise SectionError(f"section {label} self-intersects on the grid")
    if not isinstance(curve, _AffineSegment):
        curve._fine_polyline()
    curve.orientation, curve.min_transversality = orientation, min_t
    return curve


def make_section(field, sx, sy, s_range, n_grid: int = 33, name: str | None = None) -> Section:
    """Build and certify a section from curve expressions over s.

    ``sx``/``sy`` are expression text in the variable s; transversality
    and injectivity are checked at n_grid points across s_range and
    failures raise with the offending parameter value.
    """
    sx, sy = parse(sx, variables=("s",)), parse(sy, variables=("s",))
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not all(map(math.isfinite, (s_lo, s_hi, s_hi - s_lo))):
        raise SectionError(f"parameter range [{s_lo}, {s_hi}] needs finite ends "
                           f"and a finite length")
    if not (s_hi > s_lo):
        raise SectionError(f"empty parameter range [{s_lo}, {s_hi}]")
    if n_grid < 4:
        raise SectionError("section grid needs at least 4 points")
    curve = ExpressionCurve(sx, sy, s_lo, s_hi, linspace(s_lo, s_hi, n_grid))
    # the grid test alone would straighten a curve that is affine only at
    # its grid points
    return _certify(_as_affine(curve) if curve.straight else curve, field,
                    name or curve.label)


def section_from_points(field, grid, points, name: str) -> Section:
    """Certify a tabulated curve (used for conjugate sections)."""
    return _certify(_as_affine(TabulatedCurve(grid, points)), field, name)


def curve_event(curve: Section, direction: int = 0, terminal: bool = True) -> EventSpec:
    """Crossing event for a curve segment.

    Roots of the side function on the curve's extension (projection clamped
    beyond an endpoint) are vetoed by the accept hook, so scanning continues
    past them.
    """

    def accept(z) -> bool:
        _, dist = curve.project(z)
        return dist <= _HIT_DIST_TOL * (1.0 + math.hypot(z[0], z[1]))

    return EventSpec(g=curve.side, direction=direction, terminal=terminal, accept=accept,
                     lipschitz=curve.side_lipschitz)
