import math
import re

import numpy as np
import pytest

from annulus_involutions.errors import (
    EventNotFound,
    ExpressionError,
    SectionError,
    TransversalityError,
)
from annulus_involutions.expr import PlanarField, compile_fn, differentiate, parse
from annulus_involutions.flow import flow_to_event
from annulus_involutions.reversibility import ReversibilityInvolution
from annulus_involutions.sections import (
    ExpressionCurve,
    TabulatedCurve,
    _not_a_knot,
    curve_event,
    linspace,
    make_section,
    section_from_points,
)


class TestMakeSection:
    def test_x_axis(self, linear_center):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        assert sec.orientation == 1
        # det[(1,0), (0,s)] = s, fully transversal after normalization
        assert sec.min_transversality == pytest.approx(1.0)
        assert np.allclose(sec.point(1.3), [1.3, 0.0])

    def test_diagonal(self, linear_center):
        sec = make_section(linear_center, "s", "s", (0.2, 2.0), name="diagonal")
        # det[(1,1), (-s,s)] = 2s > 0
        assert sec.orientation == 1
        assert sec.min_transversality == pytest.approx(1.0, abs=1e-12)

    def test_tangent_curve_rejected(self, linear_center):
        # an arc of the unit circle is tangent to the rotation flow
        with pytest.raises(TransversalityError):
            make_section(linear_center, "cos(s)", "sin(s)", (0.1, 1.0))

    def test_degenerate_tangent_rejected(self, linear_center):
        with pytest.raises(TransversalityError):
            make_section(linear_center, "1", "2", (0.0, 1.0))

    def test_empty_range_rejected(self, linear_center):
        with pytest.raises(SectionError):
            make_section(linear_center, "s", "0", (2.0, 0.2))

    @pytest.mark.parametrize("s_range", [(0.2, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                         (-1.7e308, 1.7e308)],
                             ids=["inf-end", "minus-inf-end", "nan-end", "length-overflows"])
    def test_non_finite_range_rejected(self, linear_center, s_range):
        # refused before the grid is built, which would put nan into s
        lo, hi = s_range
        with pytest.raises(SectionError) as exc:
            make_section(linear_center, "s", "0", s_range)
        assert str(exc.value) == (f"parameter range [{lo}, {hi}] needs finite ends "
                                  f"and a finite length")

    def test_through_critical_point_rejected(self, linear_center):
        with pytest.raises(TransversalityError):
            make_section(linear_center, "s", "0", (-1.0, 1.0))

    def test_orientation_flip_rejected(self, linear_center):
        # a straight chord crossing the annulus re-enters with flipped
        # orientation relative to the rotation
        with pytest.raises(TransversalityError):
            make_section(linear_center, "s", "1 - s^2", (-1.5, 1.5))

    def test_parse_error_is_expression_error(self, linear_center):
        with pytest.raises(ExpressionError):
            make_section(linear_center, "s +", "0", (0.2, 1.0))

    @pytest.mark.parametrize("sx, sy, message", [
        ("s", "log(s)", "section (s, log(s)): curve undefined at s = -0.5: math domain error"),
        ("s", "1e308*(s + 10)", "section (s, 1e+308*(s + 10.0)): curve not finite at s = -0.5"),
    ], ids=["math-error", "non-finite"])
    def test_undefined_curve_names_s(self, linear_center, sx, sy, message):
        with pytest.raises(SectionError) as exc:
            make_section(linear_center, sx, sy, (-0.5, 1.0))
        assert not isinstance(exc.value, TransversalityError)
        assert str(exc.value) == message

    def test_undefined_tangent_names_s(self, linear_center):
        # sqrt(s) is defined at s = 0, its derivative is not
        with pytest.raises(SectionError, match="curve undefined at s = 0: "):
            make_section(linear_center, "s", "sqrt(s)", (0.0, 1.0))

    @pytest.mark.parametrize("method", ["point", "tangent"])
    def test_point_and_tangent_name_s(self, linear_center, method):
        # a parameter outside the certified range where the curve is undefined
        sec = make_section(linear_center, "s", "0.01*log(s)", (0.5, 1.0))
        with pytest.raises(SectionError) as exc:
            getattr(sec, method)(-1.0)
        assert str(exc.value) == ("section (s, 0.01*log(s)): curve undefined at s = -1: "
                                  "math domain error")

    def test_undefined_field_names_s(self):
        field = PlanarField.from_strings("-y", "x + 0*sqrt(x - 0.5)")
        with pytest.raises(SectionError) as exc:
            make_section(field, "s", "0", (0.2, 1.0), name="x-axis")
        assert not isinstance(exc.value, TransversalityError)
        assert str(exc.value).startswith("section x-axis: field undefined at s = 0.2: ")


class TestGeometry:
    def test_affine_projection(self, linear_center):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        s, dist = sec.project([1.1, 0.5])
        assert s == pytest.approx(1.1) and dist == pytest.approx(0.5)
        assert sec.side(1.1, 0.5) == pytest.approx(0.5)
        assert sec.side(1.1, -0.5) == pytest.approx(-0.5)

    def test_projection_clamps_to_segment(self, linear_center):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        s, dist = sec.project([3.0, 0.0])
        assert s == 2.0 and dist == pytest.approx(1.0)

    def test_membership(self, linear_center):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        assert sec.contains([1.0, 0.0])
        assert not sec.contains([1.0, 1e-6])
        assert not sec.contains([-1.0, 0.0])

    def test_expression_curve_geometry(self, linear_center):
        sec = make_section(linear_center, "s", "0.2*sin(3*s)", (0.3, 1.8), name="wavy")
        assert isinstance(sec, ExpressionCurve)
        for s_true in (0.5, 0.9, 1.4):
            p = sec.point(s_true)
            n = np.array([-sec.tangent(s_true)[1], sec.tangent(s_true)[0]])
            n = n / np.linalg.norm(n)
            q = p + 0.05 * n
            s_proj, dist = sec.project(q)
            assert s_proj == pytest.approx(s_true, abs=1e-8)
            assert dist == pytest.approx(0.05, abs=1e-10)
            assert sec.side(q[0], q[1]) == pytest.approx(0.05, abs=1e-10)

    def test_tabulated_curve_matches_expression(self, linear_center):
        grid = np.linspace(0.3, 1.8, 41)
        pts = np.array([[s, 0.2 * math.sin(3 * s)] for s in grid])
        tab = section_from_points(linear_center, grid, pts, name="wavy-tab")
        assert isinstance(tab, TabulatedCurve)
        for s in (0.45, 1.0, 1.55):
            exact = np.array([s, 0.2 * math.sin(3 * s)])
            assert np.linalg.norm(tab.point(s) - exact) <= 1e-6

    def test_spline_matches_scipy_not_a_knot(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(11)
        for n in range(4, 34):
            for grid in (np.linspace(0.2, 2.0, n), np.cumsum(rng.uniform(0.5, 1.5, n))):
                values = np.sin(3.0 * grid) + 0.1 * rng.normal(size=n)
                ours = np.array(_not_a_knot(grid.tolist(), values.tolist()))
                ref = CubicSpline(grid, values).c
                scale = np.abs(ref).max(axis=1, keepdims=True)
                assert np.abs(ours - ref).max() <= 1e-13 * scale.max()
                assert (np.abs(ours - ref) <= 1e-13 * scale).all()

    def test_spline_evaluation_matches_array_coefficients(self):
        # the jet reads the coefficients of both components from lists; its
        # value, C' and C'' must equal, to the bit, the polynomials evaluated
        # on the (4, n-1) arrays at the segment searchsorted(side="right")
        # selects, at knots, midpoints and beyond both ends
        rng = np.random.default_rng(5)
        for n in range(4, 34):
            grid = np.cumsum(rng.uniform(0.5, 1.5, n))
            xs = (grid + 0.1 * rng.normal(size=n)).tolist()
            ys = (np.sin(3.0 * grid) + 0.1 * rng.normal(size=n)).tolist()
            curve = TabulatedCurve(grid, list(zip(xs, ys)))
            coeffs = [np.array(_not_a_knot(grid.tolist(), v)) for v in (xs, ys)]
            span = grid[-1] - grid[0]
            outside = [grid[0] - span, grid[0] - 1e-9, grid[-1] + 1e-9, grid[-1] + span]
            for s in np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), outside]).tolist():
                i = min(max(int(np.searchsorted(grid, s, side="right")) - 1, 0), n - 2)
                u = s - grid[i]
                x, y = [(((c[0, i] * u + c[1, i]) * u + c[2, i]) * u + c[3, i],
                         (3.0 * c[0, i] * u + 2.0 * c[1, i]) * u + c[2, i],
                         6.0 * c[0, i] * u + 2.0 * c[1, i]) for c in coeffs]
                expected = (x[0], y[0], x[1], y[1], x[2], y[2])
                got = curve.jet(s)
                assert [type(v) for v in got] == [float] * 6
                assert [v.hex() for v in got] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize("sx, sy", [("s", "0.2*sin(3*s)"), ("cos(s)*s^2", "exp(-s)/s"),
                                        ("s + abs(s - 1)", "sqrt(1 + s^2)")])
    def test_expression_jet_matches_separate_functions(self, sx, sy):
        # one compiled jet gives, to the bit, the six expressions compiled
        # one at a time
        x, y = parse(sx, ("s",)), parse(sy, ("s",))
        dx, dy = differentiate(x, "s"), differentiate(y, "s")
        parts = [compile_fn((e,), ("s",)) for e in
                 (x, y, dx, dy, differentiate(dx, "s"), differentiate(dy, "s"))]
        curve = ExpressionCurve(x, y, 0.3, 1.8, linspace(0.3, 1.8, 9))
        for s in linspace(0.3, 1.8, 97):
            assert [v.hex() for v in curve.jet(s)] == [f(s)[0].hex() for f in parts]

    def test_linspace_has_the_bits_of_numpy(self):
        # section grids and the fine polylines keep the bits they had as arrays
        rng = np.random.default_rng(9)
        for _ in range(300):
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + rng.uniform(1e-3, 5.0)
            n = int(rng.integers(2, 300))
            assert [v.hex() for v in linspace(lo, hi, n)] == [
                float(v).hex() for v in np.linspace(lo, hi, n)]

    def test_newton_iterate_in_undefined_gap(self, linear_center):
        # the curve is undefined for |s - s0| < 1e-4, between two vertices
        # of the fine polyline, so certification passes; Newton started
        # from a nearby vertex steps into the gap
        s0 = 0.31171875
        sec = make_section(linear_center, "s", f"0.1*s^2 + 0*sqrt((s-{s0})^2 - 1e-8)",
                           (0.3, 1.5))
        nx, ny = -0.2 * s0, 1.0
        norm = math.hypot(nx, ny)
        z = (s0 + 0.05 * nx / norm, 0.1 * s0 * s0 + 0.05 * ny / norm)
        with pytest.raises(SectionError, match="curve undefined at s = "):
            sec.project(z)
        with pytest.raises(SectionError, match="curve undefined at s = "):
            sec.side(*z)

    def test_curve_straight_only_at_grid_points_kept(self, linear_center):
        # the wiggle vanishes at all 33 grid points, so the grid alone looks
        # straight; its C'' is not zero, so it stays the user's curve
        k = math.pi / (1.8 / 32)
        sec = make_section(linear_center, "s", f"0.02*sin({k!r}*(s - 0.2))", (0.2, 2.0))
        assert isinstance(sec, ExpressionCurve)
        z = (0.228125, 0.02)
        assert sec.distance(z) <= 1e-15
        assert ReversibilityInvolution(linear_center, sec)(z) == z

    @pytest.mark.parametrize("case, message", [
        ("three-points", "tabulated curve needs at least 4 grid points"),
        ("closed-circle", "section (cos(s), sin(s)) self-intersects on the grid"),
    ])
    def test_refusal_names_its_cause(self, linear_center, case, message):
        # a table too short for the spline, and a circle whose grid ends
        # meet, transversal everywhere to the focus x' = x - y, y' = x + y
        with pytest.raises(SectionError, match=f"^{re.escape(message)}$") as info:
            if case == "three-points":
                section_from_points(linear_center, [0.5, 1.0, 1.5],
                                    [(0.5, 0.0), (1.0, 0.0), (1.5, 0.0)], name="short")
            else:
                focus = PlanarField.from_strings("x - y", "x + y")
                make_section(focus, "cos(s)", "sin(s)", (0.0, 2.0 * math.pi))
        assert type(info.value) is SectionError

    def test_tabulated_orientation_flip_rejected(self, linear_center):
        # the table runs out along y ~ 1 and back: the rotation crosses it
        # one way on the way out and the other way back, which transversality
        # refuses before any self-intersection test
        grid = np.linspace(0.0, 1.0, 9)
        pts = np.array([[math.sin(math.pi * g), 1.0 + 0.1 * g] for g in grid])
        with pytest.raises(SectionError) as info:
            section_from_points(linear_center, grid, pts, name="loop")
        assert type(info.value) is TransversalityError
        assert str(info.value) == "section loop: crossing orientation flips at s = 0.625"


class TestCurveEvents:
    def test_segment_crossing_accepted(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        hit = flow_to_event(linear_center, [0.0, 1.0], curve_event(sec), -1, cfg).events[0]
        t, z = hit.t, hit.z
        assert t == pytest.approx(-math.pi / 2, abs=1e-9)
        assert np.abs(np.asarray(z) - [1.0, 0.0]).max() <= 1e-9

    def test_extension_crossing_vetoed(self, linear_center, cfg):
        # going forward from (0,1) the orbit meets the x-axis line at
        # (-1,0) first, which is outside the [0.2, 2] segment and must be
        # skipped in favor of (1,0) three quarters of a turn later
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        hit = flow_to_event(linear_center, [0.0, 1.0], curve_event(sec), 1, cfg).events[0]
        t, z = hit.t, hit.z
        assert t == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert np.abs(np.asarray(z) - [1.0, 0.0]).max() <= 1e-9

    def test_crossing_just_past_the_end_is_vetoed(self, linear_center, cfg):
        # the orbits through (0, 2 +- 1e-5) meet the x-axis 1e-5 past and
        # 1e-5 before the segment's end s = 2: a projection distance of 1e-5
        # is above the hit tolerance 1e-7 * (1 + |z|), so only the inner
        # crossing is a hit
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        with pytest.raises(EventNotFound):
            flow_to_event(linear_center, (0.0, 2.0 + 1e-5), curve_event(sec), 1, cfg)
        hit = flow_to_event(linear_center, (0.0, 2.0 - 1e-5), curve_event(sec), 1,
                            cfg).events[0]
        assert hit.z[0] == pytest.approx(2.0 - 1e-5, abs=1e-12)
        assert abs(hit.z[1]) <= 1e-12

    def test_curved_section_event(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0.2*sin(3*s)", (0.3, 1.8), name="wavy")
        z = flow_to_event(linear_center, [0.0, 1.0], curve_event(sec), -1, cfg).events[0].z
        s_hit, dist = sec.project(z)
        assert dist <= 1e-9
        assert sec.s_min <= s_hit <= sec.s_max
        # the hit lies on the circle of radius 1 (flow preserves radius)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)
