"""Property tests: the defining identities at random inputs.

Examples are derandomized, so every run draws the same inputs and the
suite stays a deterministic gate.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from annulus_involutions.expr import Bin, Call, Const, Neg, PlanarField, Var, parse, to_source
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import EventSpec, flow, integrate
from annulus_involutions.memo import suite_scope
from annulus_involutions.period import detect_cycle, period
from annulus_involutions.reversibility import (
    BranchTag,
    ReversibilityInvolution,
    classify,
    sigma_reversible,
    tau,
    tau_star,
    verify_reversibility,
)
from annulus_involutions.sections import (
    ExpressionCurve,
    TabulatedCurve,
    _AffineSegment,
    linspace,
    make_section,
    section_from_points,
)
from annulus_involutions.symmetry import (
    SymmetryInvolution,
    sigma_symmetric,
    verify_sigma_symmetry,
)
from annulus_involutions.verify import annulus_points

from oracles import ConjugatedRotation, hermite, step_cubic

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


# Composing the symmetry with one reversibility gives another: if z reaches
# delta at time tau, it reaches delta_q = phi(-T/4, delta) at tau - T/4, so
# sigma_delta(sigma_sym(z)) = phi(2 tau - T/2, z) = sigma_q(z).  The largest
# residual measured at these samples is 2.1e-13 (cubic-center); pendulum's
# and duffing's delta_q are tabulated curves, the others straight segments.
_COMPOSITION_TOL = 1e-10


def test_symmetry_turns_one_reversibility_into_another(annulus, cfg):
    field, section, sym, rev = annulus
    quarter = [flow(field, section.point(s), -0.25 * period(field, section.point(s), cfg), cfg)
               for s in section.grid]
    rev_q = ReversibilityInvolution(
        field, section_from_points(field, section.grid, quarter, name="x-axis_quarter"), cfg)
    for z in annulus_points(field, section, 8, cfg, seed=5):
        assert np.linalg.norm(np.subtract(rev(sym(z)), rev_q(z))) / (
            1.0 + np.linalg.norm(z)) <= _COMPOSITION_TOL


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
    # the skip's certificate: each term of the nested cubic is a
    # coefficient times th^a (1 - th)^b <= 1 on [0, 1], so on every accepted
    # step |x - c1x| + |y - c1y| <= |c2x| + |c3x| + |c4x| + |c2y| + |c3y| + |c4y|
    # at every sample, and at the end state, which the cubic meets at th = 1
    field = builtin_field(name)
    lo, hi = default_section_range(name)
    traj = integrate(field.rhs, (lo + u * (hi - lo), 0.0), t, cfg, bounds=field.contains)
    ends = [st[2:4] for st in traj.steps[1:]] + [traj.z_final]
    for i, (step, end) in enumerate(zip(traj.steps, ends)):
        cubic = step_cubic(traj, i, field.rhs)
        c2x, c2y, c3x, c3y, c4x, c4y = cubic
        reach = abs(c2x) + abs(c3x) + abs(c4x) + abs(c2y) + abs(c3y) + abs(c4y)
        for x, y in [hermite(step, cubic, th) for th in thetas + [0.0, 1.0]] + [end]:
            assert abs(x - step[2]) + abs(y - step[3]) <= reach


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(name=st.sampled_from(builtin_names()), x0=_coord, y0=_coord, ax=_coord, ay=_coord,
       angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       direction=st.sampled_from([-1, 0, 1]), t=st.sampled_from([7.0, -7.0]),
       bound=st.booleans())
def test_hits_lie_on_the_propagated_solution(cfg, name, x0, y0, ax, ay, angle, direction,
                                             t, bound):
    # every located root is the trajectory's own state at its time, to the
    # bit, and its line offset g is at Brent's tolerance times the speed
    field = builtin_field(name)
    line = _AffineSegment((ax, ay), (math.cos(angle), math.sin(angle)), 0.0, 1.0, None, None)
    event = EventSpec(g=line.side, direction=direction, terminal=False,
                      lipschitz=line.side_lipschitz if bound else None)
    traj = integrate(field.rhs, (x0, y0), t, cfg, [event], field.contains)
    for hit in traj.events:
        assert [v.hex() for v in hit.z] == [v.hex() for v in traj.state(hit.t)]
        speed = math.hypot(*field.rhs(*hit.z))
        assert abs(line.side(*hit.z)) <= 2e-13 * (1.0 + speed) * (1.0 + abs(hit.t))


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


# --- random non-Hamiltonian reversible centres ---------------------------------

_COEF = 0.2
_CENTRE_SECTION = (0.05, 0.2)


def _reversible_centre(a1, a2, a3, b1, b2, b3, b4):
    """P = -y + y A(x, y^2), Q = x + B(x, y^2) with A = a1 x + a2 u + a3 x^2
    and B = b1 x^2 + b2 u + b3 x^3 + b4 x u (u = y^2), every |coefficient|
    at most c = _COEF, built from text.

    P is odd in y and Q even, so the mirror R(x, y) = (x, -y) reverses the
    flow.  The divergence y (a1 + 2 a3 x) + 2 y (b2 + b4 x) is not
    identically zero, so the field is in general not Hamiltonian.

    The section x-axis [0.05, 0.2] lies in one period annulus.  With
    r = |z|, |A| <= c r (1 + r) and |B| <= c r^2 (1 + r), so the angle obeys
    |dtheta/dt - 1| <= 2 c r (1 + r) and the radius |dr/dt| <= 2 c r^2 (1 + r).
    While r <= rho = 0.5 this is eps = 2 c rho (1 + rho) = 0.3, so theta
    increases and dr/dtheta <= k r^2 with k = 2 c (1 + rho) / (1 - eps) < 0.86.
    Over half a turn 1/r falls by at most k pi < 2.7 from 1/r0 >= 5, so an
    orbit from (r0, 0), r0 <= 0.2, reaches the negative x-axis with r below
    1 / (5 - 2.7) < 0.44 < rho all the way.  An orbit that meets Fix R twice
    is closed by the reversibility, so each section point lies on a cycle
    that winds once around the origin with theta monotone, which meets the
    section once.
    """
    coefs = (a1, a2, a3, b1, b2, b3, b4)
    assert all(abs(c) <= _COEF for c in coefs)
    p = f"-y + y*({a1!r}*x + {a2!r}*y^2 + {a3!r}*x^2)"
    q = f"x + {b1!r}*x^2 + {b2!r}*y^2 + {b3!r}*x^3 + {b4!r}*x*y^2"
    return PlanarField.from_strings(p, q, name="random-centre")


# sigma_delta against the mirror, the symmetry against its mirror conjugate,
# and sigma_delta(sigma_sym) against sigma_q, scaled by 1 + |z|; the largest
# measured over these examples is 2.8e-12, from sigma_q
_CENTRE_TOL = 1e-9


@settings(max_examples=10, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(coefs=st.lists(st.floats(min_value=-_COEF, max_value=_COEF), min_size=7, max_size=7))
def test_random_reversible_centre(cfg, coefs):
    field = _reversible_centre(*coefs)
    section = make_section(field, "s", "0", _CENTRE_SECTION, name="x-axis")
    # one scope, as in a command: the suite's own involution reads back the
    # conjugate section that rev tabulated, so no grid cycle is detected twice
    with suite_scope():
        sym = SymmetryInvolution(field, cfg)
        rev = ReversibilityInvolution(field, section, cfg)
        samples = annulus_points(field, section, 4, cfg, seed=3)
        times = [0.7, 2.9]

        def mirror(z):
            return z[0], -z[1]

        # (iv) both suites pass
        for report in (verify_sigma_symmetry(field, section, samples, times, cfg),
                       verify_reversibility(field, section, samples, times, cfg)):
            assert report.all_pass, [(c.name, c.max_residual, c.errors) for c in report.checks]
        # (iii) delta_q = phi(-T/4, delta), tabulated from delta's grid periods
        quarter = [flow(field, section.point(s), -0.25 * t, cfg)
                   for s, t in zip(section.grid, rev.delta_star.periods)]
        rev_q = ReversibilityInvolution(
            field, section_from_points(field, section.grid, quarter, name="x-axis_quarter"), cfg)
        for z in samples:
            scale = 1.0 + np.linalg.norm(z)
            # (i) the reversibility fixing the positive x-axis is the mirror
            assert np.linalg.norm(np.subtract(rev(z), mirror(z))) / scale <= _CENTRE_TOL
            # (ii) the symmetry commutes with the mirror
            assert np.linalg.norm(np.subtract(sym(mirror(z)), mirror(sym(z)))) / scale \
                <= _CENTRE_TOL
            # (iii) the symmetry turns one reversibility into another
            assert np.linalg.norm(np.subtract(rev(sym(z)), rev_q(z))) / scale <= _CENTRE_TOL


# --- the reversing-symmetry group ----------------------------------------------

# each identity, scaled by 1 + |z|; the largest measured is 1.7e-13 (cubic-center)
_GROUP_TOL = 1e-9

# (u, frac): the point a fraction frac of a period along the cycle through
# delta1 at relative parameter u.  The last two lie 5e-7 T from delta1*, so
# their nearest delta1 crossings are 1e-6 T from a tie.
_GROUP_POINTS = [(0.2, 0.1), (0.45, 0.35), (0.6, 0.7), (0.8, 0.9),
                 (0.3, 0.5 + 5e-7), (0.7, 0.5 - 5e-7)]


@pytest.mark.parametrize("name", ["pendulum", "duffing", "cubic-center"])
def test_reversing_symmetries_form_a_group(cfg, name):
    # with tau_i the signed time to delta_i: s1 s2 = phi(2 (tau1 - tau2)) is a
    # symmetry, so it commutes with the flow; the half-period symmetry
    # commutes with each reversibility, and sym s_d is the reversibility of
    # phi(T/4, delta), so it fixes phi(T/4, delta(s))
    field = builtin_field(name)
    lo, hi = default_section_range(name)
    d1 = make_section(field, "s", "0", (lo, hi), name="x-axis")
    d2 = make_section(field, "s", "0.2*s", (lo, hi), name="ray")

    def rev(delta, z):
        return sigma_reversible(field, delta, z, cfg)

    def sym(z):
        return sigma_symmetric(field, z, cfg)

    def both(z):
        return rev(d1, rev(d2, z))

    worst = dict.fromkeys(["s1 s2 = phi(2 (tau1 - tau2))", "s1 s2 commutes with phi(0.77)",
                           "sym s_d = s_d sym", "sym s_d fixes phi(T/4, delta)"], 0.0)
    with suite_scope():
        for u, frac in _GROUP_POINTS:
            z, _ = _annulus_point(field, d1, u, frac, cfg)
            shift = 2.0 * (tau(field, d1, z, cfg) - tau(field, d2, z, cfg))
            residuals = [
                ("s1 s2 = phi(2 (tau1 - tau2))", both(z), flow(field, z, shift, cfg)),
                ("s1 s2 commutes with phi(0.77)", both(flow(field, z, 0.77, cfg)),
                 flow(field, both(z), 0.77, cfg))]
            s = lo + u * (hi - lo)
            for delta in (d1, d2):
                start = delta.point(s)
                quarter = flow(field, start, 0.25 * period(field, start, cfg), cfg)
                residuals += [("sym s_d = s_d sym", sym(rev(delta, z)), rev(delta, sym(z))),
                              ("sym s_d fixes phi(T/4, delta)", sym(rev(delta, quarter)),
                               quarter)]
            for key, a, b in residuals:
                worst[key] = max(worst[key], math.dist(a, b) / (1.0 + math.hypot(*b)))
    assert max(worst.values()) <= _GROUP_TOL, worst


# --- conjugated rotations: curved sections with closed-form answers -------------

# T (relative), both involutions and delta* (scaled by 1 + |z|), tau and
# tau_star (absolute) against the closed forms; the largest measured over
# these examples is 2.5e-14, from sigma_R
_CONJ_TOL = 1e-9


def _signed(lo, hi):
    """Floats of either sign with magnitude in [lo, hi]."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(
        lambda t: t[0] * t[1])


# shears of magnitude at least 0.1, so that no example is a bare rotation;
# |k| stays at most 1 because the spline error of the tabulated delta* grows
# with k
@settings(max_examples=3, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(a=_signed(0.1, 0.3), c=_signed(0.1, 0.3), b=st.floats(0.2, 1.0), k=_signed(0.3, 1.0))
def test_conjugated_rotation_closed_forms(cfg, a, c, b, k):
    fam = ConjugatedRotation(a, c, b, k)
    field = fam.field()
    delta = fam.section(field)
    exact_star = fam.star_section(field)
    with suite_scope():
        samples = annulus_points(field, delta, 5, cfg, seed=3)
        times = [0.7, 2.9]
        for report in (verify_sigma_symmetry(field, delta, samples, times, cfg),
                       verify_reversibility(field, delta, samples, times, cfg)):
            assert report.all_pass, [(chk.name, chk.max_residual, chk.errors)
                                     for chk in report.checks]
        # built again in the suite's scope, as the reversibility command does
        rev = ReversibilityInvolution(field, delta, cfg)
        sym = SymmetryInvolution(field, cfg)
        star = rev.delta_star
        errors = []
        for z in samples:
            scale = 1.0 + math.hypot(*z)
            t_closed = fam.period(z)
            t_delta = fam.tau(z)
            errors += [abs(period(field, z, cfg) - t_closed) / t_closed,
                       math.dist(sym(z), fam.sigma_sym(z)) / scale,
                       math.dist(rev(z), fam.sigma_rev(z)) / scale,
                       abs(tau(field, delta, z, cfg) - t_delta),
                       abs(tau_star(field, exact_star, z, cfg) - fam.tau(z, math.pi))]
            tag, _ = classify(field, delta, star, z, cfg)
            assert tag is (BranchTag.A_PLUS if t_delta < 0.0 else BranchTag.A_MINUS)
        # the tabulated delta* and its periods at its grid points
        for s, p, t in zip(star.grid, star.points, star.periods):
            errors += [math.dist(p, fam.delta_star(s)) / (1.0 + math.hypot(*p)),
                       abs(t - fam.period(p)) / t]
    assert max(errors) <= _CONJ_TOL
