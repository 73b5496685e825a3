"""Reversibility involutions with a prescribed fixed section.

For a global section delta of the annulus, the conjugate curve
delta_star = phi(T/2, delta) splits each cycle into a forward arc (reached
from delta in less than half a period) and a backward arc.  The signed
crossing time tau(z) -- negative on the forward arc, positive on the
backward arc, zero on delta -- satisfies tau(phi(t,z)) = tau(z) - t, and
sigma(z) = phi(2 tau(z), z) is an involution anti-commuting with the flow
that fixes the prescribed section.  Off delta the same map is
phi(2 tau_star(z), z) through the conjugate curve; the well-posedness
check compares the two routes, but sigma itself reads only delta and the
flow.  Since sigma reverses orientation along each invariant cycle it has
exactly two fixed points per cycle, the delta point and its conjugate (on
the linear center with the positive x-axis as section, sigma is the
mirror (x, -y), which also fixes the negative x-axis).

The conjugate curve is a certified tabulated :class:`~.sections.Section`
that also carries the period of each grid cycle; it is the witness that
``tau_star``, ``classify``, the well-posedness and half-period checks and
a command's ``delta_star.csv`` read, and sigma never evaluates through it,
so its spline error cannot reach sigma.  ``sigma_reversible`` and
``ReversibilityInvolution`` evaluate sigma through one body, which reads
the image off the one cycle detection that finds tau; ``tau_star`` is
``tau`` on the conjugate curve.  ``verify_reversibility`` builds its own
involution inside its memo scope and returns it on the report, so a
caller reads the pairs and the conjugate curve off the map the suite
verified.
"""

from __future__ import annotations

import enum

from .errors import SAMPLE_FAILURES, EventNotFound, NotASection
from .expr import PlanarField
from .flow import IntegratorConfig, Point, as_point, flow
from .memo import memoized, suite_scope
from .period import _half_period_image, detect_cycle
from .sections import Section, curve_event, linspace, section_from_points
from .verify import (
    CheckResult,
    VerificationReport,
    _run_samples,
    _scaled,
    check_commutation,
    check_field_condition,
    check_involution,
    config_digest,
    fixed_set_distance,
    sample_parameters,
)

__all__ = [
    "BranchTag",
    "conjugate_section",
    "classify",
    "tau",
    "tau_star",
    "sigma_reversible",
    "ReversibilityInvolution",
    "verify_reversibility",
    "check_well_posedness",
    "check_half_period_roundtrip",
]

_TIE_RTOL = 1e-8  # crossings equally far within this share of the period are a
                  # tie, whose time is +T/2; at the grid points of the built-ins'
                  # default sections the largest share is 3.9e-11 (pendulum)


class BranchTag(enum.Enum):
    ON_DELTA = "on_delta"
    ON_DELTA_STAR = "on_delta_star"
    A_PLUS = "a_plus"
    A_MINUS = "a_minus"


def conjugate_section(field: PlanarField, delta: Section,
                      cfg: IntegratorConfig = IntegratorConfig()) -> Section:
    """Tabulate phi(T/2, delta(s)) over the section grid and certify it.

    The result carries the period of each grid cycle in ``periods``.  A
    known failure at a grid point is raised again with its type, naming s.
    """
    points = []
    periods = []
    for s in delta.grid:
        try:
            t_period, image = _half_period_image(field, delta.point(s), cfg)
        except SAMPLE_FAILURES as exc:
            raise type(exc)(f"conjugate section failed at s = {s:.6g}: {exc}") from exc
        periods.append(t_period)
        points.append(image)
    star = section_from_points(field, delta.grid, points, name=f"{delta.label}_star")
    star.periods = periods
    return star


def _nearest_crossing(field, section: Section, z, cfg) -> tuple[float, Point, Point, float]:
    """The curve's crossing with the smaller |t|, read off one cycle
    detection that watches the curve; the cycle must meet the curve once
    per period (no crossing over [0, T) raises EventNotFound, two or more
    NotASection).  The one at t_f gives t_b = t_f - T, and
    phi(2 tau, z) = phi(t_b + t_f, z) is the cycle's state at 2 t_f mod T,
    a partial step of its propagated solution.  Returns
    (t, z_hit, image, t_b): t is the nearer of t_b and t_f, or +T/2 at a
    tie (``_TIE_RTOL``), so t is in (-T/2, T/2].  Inside a suite scope the
    result, or its failure, is memoized on (field, section, cfg, z bits),
    and the detection makes the symmetry's record of z too; z is an (x, y)
    tuple.
    """

    def search():
        cyc = detect_cycle(field, z, cfg, events=[curve_event(section, terminal=False)])
        _half_period_image(field, z, cfg, cyc)
        hits = [hit for hit in cyc.trajectory.events if hit.index == 1]
        if len(hits) != 1:
            raise (NotASection if hits else EventNotFound)(
                f"{section.label} meets the cycle through ({z[0]:.6g}, {z[1]:.6g}) "
                f"{len(hits)} times per period; not a global section for this annulus"
            )
        hit, t_period = hits[0], cyc.period
        t_b = hit.t - t_period
        image = cyc.trajectory.state((2.0 * hit.t) % t_period)
        if abs(t_b + hit.t) <= _TIE_RTOL * t_period:
            return 0.5 * t_period, hit.z, image, t_b
        return (t_b if -t_b <= hit.t else hit.t), hit.z, image, t_b

    return memoized(("crossing", field, section, cfg), z, search)


def tau(field: PlanarField, delta: Section, z,
        cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Signed time to the section along the orbit, in (-T(z)/2, T(z)/2].

    Zero iff z lies on the section (within the membership tolerance);
    negative when the section is behind z (forward arc), positive when it
    is ahead (backward arc).
    """
    z = as_point(z)
    if delta.contains(z):
        return 0.0
    return _nearest_crossing(field, delta, z, cfg)[0]


def tau_star(field: PlanarField, delta_star: Section, z,
             cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Signed time to the conjugate section, ``tau`` on that curve; it
    differs from tau by half a period."""
    return tau(field, delta_star, z, cfg)


def classify(field: PlanarField, delta: Section, delta_star: Section, z,
             cfg: IntegratorConfig = IntegratorConfig()) -> tuple[BranchTag, dict]:
    """Locate z among {delta, delta_star, forward arc A+, backward arc A-}.

    Membership is a distance test; otherwise the backward orbit decides:
    whichever of the two curves it crosses first names the branch.  The
    backward crossing times of both curves, read from their crossing
    records, come back for inspection.
    """
    z = as_point(z)
    if delta.contains(z):
        return BranchTag.ON_DELTA, {}
    if delta_star.contains(z):
        return BranchTag.ON_DELTA_STAR, {}
    t_d = _nearest_crossing(field, delta, z, cfg)[3]
    t_s = _nearest_crossing(field, delta_star, z, cfg)[3]
    tag = BranchTag.A_PLUS if -t_d < -t_s else BranchTag.A_MINUS
    return tag, {"delta": t_d, "delta_star": t_s}


def sigma_reversible(field: PlanarField, delta: Section, z,
                     cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """The section-fixing involution phi(2 tau(z), z), read off delta and
    the flow alone.

    Points on the section map to themselves.  A point of the conjugate
    curve, half a period from the section both ways, takes the tie's
    time +T/2 and maps to phi(T, z), its own cycle closed, within
    integration error of z.
    """
    z = as_point(z)
    if delta.contains(z):
        return z
    return _nearest_crossing(field, delta, z, cfg)[2]


class ReversibilityInvolution:
    """Evaluatable reversibility involution for a fixed section.

    Construction tabulates the conjugate curve, which ``tau_star`` and the
    suite's checks read; evaluation is :func:`sigma_reversible` on the
    section alone.
    """

    def __init__(self, field: PlanarField, delta: Section,
                 cfg: IntegratorConfig = IntegratorConfig()):
        self.field = field
        self.delta = delta
        self.cfg = cfg
        self.delta_star = conjugate_section(field, delta, self.cfg)

    def tau(self, z) -> float:
        return tau(self.field, self.delta, z, self.cfg)

    def tau_star(self, z) -> float:
        return tau_star(self.field, self.delta_star, z, self.cfg)

    def __call__(self, z) -> Point:
        return sigma_reversible(self.field, self.delta, z, self.cfg)


def check_well_posedness(field: PlanarField, delta: Section, delta_star: Section, samples,
                         cfg: IntegratorConfig = IntegratorConfig()) -> CheckResult:
    """Agreement of the two time routes: max |phi(2 tau*(z), z) - phi(2 tau(z), z)|.

    Each image is read off the cycle detection that finds its time.
    """

    def one(z):
        a = sigma_reversible(field, delta, z, cfg)
        b = sigma_reversible(field, delta_star, z, cfg)
        return [(_scaled(a, b, z), None)]

    return _run_samples("well_posedness", 1e-6, samples, one)


def check_half_period_roundtrip(field: PlanarField, delta: Section, delta_star: Section,
                                cfg: IntegratorConfig = IntegratorConfig()) -> CheckResult:
    """Advancing the conjugate curve another half period returns the section
    pointwise: phi(T/2, delta_star(s)) = delta(s), at 9 grid points."""
    # one row (x_star, y_star, s, T) per grid point: the conjugate point
    # leads, so it is the sample that worst point and errors name
    rows = [(*p, s, t) for p, s, t in zip(delta_star.points, delta_star.grid,
                                          delta_star.periods)]
    idx = sorted({int(v) for v in linspace(0.0, len(rows) - 1.0, 9)})

    def one(row):
        back = flow(field, row[:2], 0.5 * row[3], cfg)
        w = delta.point(row[2])
        return [(_scaled(back, w, w), None)]

    return _run_samples("half_period_roundtrip", 1e-6, [rows[i] for i in idx], one)


def verify_reversibility(
    field: PlanarField,
    delta: Section,
    samples,
    times,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> VerificationReport:
    """Run the reversibility identity suite for one section, on an
    involution built for it in the suite's scope; the report carries it."""
    samples, times = list(samples), list(times)  # each check reads them again
    with suite_scope():
        sigma = ReversibilityInvolution(field, delta, cfg)
        on_delta = [delta.point(s)
                    for s in sample_parameters(5, delta.s_min, delta.s_max, seed=1)]
        fixed_samples = [as_point(z) for z in samples] + on_delta
        checks = [
            check_commutation(field, sigma, -1, samples, times, cfg),
            check_involution(sigma, samples),
            fixed_set_distance(sigma, fixed_samples, delta),
            check_well_posedness(field, delta, sigma.delta_star, samples, cfg),
            check_field_condition(field, sigma, -1, samples),
            check_half_period_roundtrip(field, delta, sigma.delta_star, cfg),
        ]
    provenance = {
        "field": field.name,
        "section": delta.label,
        "construction": "section_time_reversibility",
        "config_digest": config_digest({"rtol": cfg.rtol, "atol": cfg.atol,
                                        "samples": len(samples), "times": len(times)}),
    }
    return VerificationReport(checks=checks, provenance=provenance, involution=sigma)
