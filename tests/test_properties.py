"""Property tests: the defining identities at random inputs.

Examples are derandomized, so every run draws the same inputs and the
suite stays a deterministic gate.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from annulus_involutions.expr import Bin, Call, Const, Neg, Var, parse, to_source
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import EventSpec, flow, integrate
from annulus_involutions.period import detect_cycle
from annulus_involutions.reversibility import ReversibilityInvolution, tau
from annulus_involutions.sections import (
    ExpressionCurve,
    TabulatedCurve,
    _AffineSegment,
    linspace,
    make_section,
)
from annulus_involutions.symmetry import SymmetryInvolution

# every example runs orbit computations, so a failure is reported as found,
# unshrunk: shrinking it would take minutes
NO_SHRINK = tuple(p for p in settings.default.phases if p is not Phase.shrink)
FAST = settings(max_examples=6, deadline=None, derandomize=True, database=None,
                phases=NO_SHRINK)

_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda v: Const(abs(v))),
    st.sampled_from([Var("x"), Var("y")]),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt",
                                         "abs", "sign"]), children),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.recursive(_leaves, _extend, max_leaves=12))
def test_print_reparse_round_trip(tree):
    assert parse(to_source(tree)) == tree


@pytest.fixture(scope="module", params=builtin_names())
def annulus(request, cfg):
    """A built-in field, its default x-axis section and both involutions."""
    field = builtin_field(request.param)
    section = make_section(field, "s", "0", default_section_range(request.param),
                           name="x-axis")
    return (field, section, SymmetryInvolution(field, cfg),
            ReversibilityInvolution(field, section, cfg))


def _annulus_point(field, section, u, frac, cfg):
    """The point a fraction frac of a period along the cycle through the
    section point at relative parameter u."""
    cyc = detect_cycle(field, section.point(section.s_min + u * (section.s_max - section.s_min)),
                       cfg)
    return cyc.trajectory.state(frac * cyc.period), cyc.period


_unit = st.floats(min_value=0.0, max_value=1.0)


@FAST
@given(u=_unit, frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_both_involutions_square_to_identity(annulus, cfg, u, frac):
    field, section, sym, rev = annulus
    z, _ = _annulus_point(field, section, u, frac, cfg)
    tol = 1e-7 * (1.0 + np.linalg.norm(z))
    assert np.linalg.norm(np.subtract(sym(sym(z)), z)) <= tol
    assert np.linalg.norm(np.subtract(rev(rev(z)), z)) <= tol


@FAST
@given(u=_unit, a=st.floats(min_value=-0.45, max_value=0.45),
       b=st.floats(min_value=-0.45, max_value=0.45))
def test_tau_shift_law(annulus, cfg, u, a, b):
    # z = phi(-aT, section point) has tau(z) = aT; advancing by t = (a - b)T
    # keeps tau(z) - t = bT inside (-T/2, T/2]
    field, section, _, _ = annulus
    z0, period_t = _annulus_point(field, section, u, 0.0, cfg)
    z = flow(field, z0, -a * period_t, cfg)
    t = (a - b) * period_t
    assert tau(field, section, z, cfg) == pytest.approx(a * period_t, abs=1e-7)
    assert tau(field, section, flow(field, z, t, cfg), cfg) == pytest.approx(
        tau(field, section, z, cfg) - t, abs=1e-7)


# Every built-in is odd, V(-z) = -V(z), with an even first integral, and
# reversible under the mirror (x, -y).  So -z commutes with the flow and
# keeps each cycle, and by the uniqueness of the half shift the symmetry is
# exactly -z; the reversibility fixing the positive x-axis is the mirror,
# whose other fixed half-line, the negative x-axis, is the conjugate section.

@FAST
@given(u=_unit, frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_involutions_match_closed_forms(annulus, cfg, u, frac):
    field, section, sym, rev = annulus
    z, _ = _annulus_point(field, section, u, frac, cfg)
    scale = 1.0 + np.linalg.norm(z)
    assert np.linalg.norm(np.add(sym(z), z)) / scale <= 1e-8
    assert np.linalg.norm(rev(z) - np.array([z[0], -z[1]])) / scale <= 1e-8


def test_conjugate_section_is_negative_x_axis(annulus):
    points = np.array(annulus[3].delta_star.points)
    assert np.all(points[:, 0] < 0.0)
    assert np.abs(points[:, 1]).max() <= 1e-9


_coord = st.floats(min_value=-1.2, max_value=1.2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(name=st.sampled_from(builtin_names()), x0=_coord, y0=_coord, ax=_coord, ay=_coord,
       angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       length=st.floats(min_value=0.1, max_value=3.0),
       direction=st.sampled_from([-1, 0, 1]), t=st.sampled_from([7.0, -7.0]))
def test_event_bound_keeps_hits(cfg, name, x0, y0, ax, ay, angle, length, direction, t):
    # the side of a straight line a + s d carries the bound 1 for any |d|;
    # skipping the steps it rules out leaves every hit of the full scan
    field = builtin_field(name)
    d = (length * math.cos(angle), length * math.sin(angle))
    line = _AffineSegment((ax, ay), d, 0.0, 1.0, None, None)
    event = EventSpec(g=line.side, direction=direction, terminal=False,
                      lipschitz=line.side_lipschitz)
    hits = [[(e.index, e.t.hex(), np.array(e.z).tobytes()) for e in
             integrate(field.rhs, (x0, y0), t, cfg, [ev], field.contains).events]
            for ev in (event, dataclasses.replace(event, lipschitz=None))]
    assert hits[0] == hits[1]


@pytest.mark.parametrize("name", builtin_names())
@FAST
@given(u=_unit, t=st.sampled_from([10.0, -10.0]),
       thetas=st.lists(_unit, min_size=1, max_size=8))
def test_dense_output_stays_within_reach(cfg, name, u, t, thetas):
    # the skip's certificate: each term of the nested dense output is a
    # coefficient times th^a (1 - th)^b <= 1 on [0, 1], so on every accepted
    # step |x - c1x| + |y - c1y| <= |c2x| + ... + |c8x| + |c2y| + ... + |c8y|
    field = builtin_field(name)
    lo, hi = default_section_range(name)
    traj = integrate(field.rhs, (lo + u * (hi - lo), 0.0), t, cfg, bounds=field.contains)
    for step in traj.steps:
        reach = sum(abs(getattr(step, f"c{i}{c}")) for c in "xy" for i in range(2, 9))
        for th in thetas + [0.0, 1.0]:
            x, y = step.at(step.s0 + th * step.h)
            assert abs(x - step.c1x) + abs(y - step.c1y) <= reach


# curves for the nearest-vertex search: the parabola (s, s^2) on [-1, 1] has
# a fine polyline symmetric about x = 0 to the bit, so every point (0, y)
# lies exactly as far from the vertex at s as from the one at -s; the
# tabulated arc is a spline, as conjugate sections are
_S = ("s",)
_GRID_ARC = linspace(0.3, 2.8, 17)
_CURVES = {
    "parabola": ExpressionCurve(parse("s", _S), parse("s^2", _S), -1.0, 1.0,
                                linspace(-1.0, 1.0, 33)),
    "arc": TabulatedCurve(_GRID_ARC, [(math.cos(t), math.sin(t)) for t in _GRID_ARC]),
}
_far = st.floats(min_value=-2.5, max_value=2.5)
_nudge = st.floats(min_value=-0.01, max_value=0.01)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_CURVES)), x=st.one_of(st.just(0.0), _far), y=_far,
       vertex=st.one_of(st.none(), st.integers(min_value=0, max_value=256)),
       dx=_nudge, dy=_nudge)
def test_nearest_vertex_is_the_first_argmin(name, x, y, vertex, dx, dy):
    # the blocked search in project picks what an argmin over every vertex
    # picks, ties included: the first of the nearest vertices.  Points
    # within a chord of a vertex probe the blocks' edges
    curve = _CURVES[name]
    _, xs, ys, _ = curve._fine_polyline()
    if vertex is not None:
        vertex %= len(xs)
        x, y = xs[vertex] + dx, ys[vertex] + dy
    d2 = (np.array(xs) - x) ** 2 + (np.array(ys) - y) ** 2
    assert curve._nearest_vertex(x, y) == int(np.argmin(d2))
