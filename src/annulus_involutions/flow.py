"""Adaptive flow integration for planar fields.

The integrator is Hairer's DOP853: an explicit 8th-order Runge-Kutta
step with 12 stages.  The first stage is the field at the step's start,
which the previous accepted step evaluated at its end (FSAL), so an
attempt costs 11 field evaluations and an accepted step one more.  Step
size is controlled by the pair's embedded 5th-order error estimate alone:
the error norm is |h| times the root mean square, over x and y, of
sum_j E_j k_j divided by atol + rtol * max(|z|, |z_new|) per component,
and the controller exponent is -1/6 (the initial step uses the matching
power 1/6).
A negative flow time is integrated over positive internal progress time s
with a signed step: the stages use the field's own velocities, and each
step length that multiplies them is hs = -h.  Trajectories remember their
direction, the sign 1.0 or -1.0.  A box ``bounds`` (xmin, xmax, ymin, ymax),
edges included, stops an integration with ``DomainEscape`` after the first
accepted step that ends outside it.

Each accepted step is kept as the tuple (s0, h, x, y, fx, fy): its start
and length in progress time, its start state c1 = (x, y) and the field k1
= (fx, fy) there.  An integration that watches events also forms, for
each accepted step, the cubic Hermite interpolant through the step's two
ends and their derivatives, c1 + th (c2 + (1-th) (c3 + th c4)), and drops
it after the step's scan.  The cubic only screens a step for event
crossings.  Every state handed out inside a step -- a located root, a
Brent iterate, ``Trajectory.state`` -- is the propagated solution, which
``_replay`` reads off the step record: one partial DOP853 step of length
s - s0 from the step's start with k1 reused (11 field evaluations), whose
error is no larger than the full step's.  DOP853's 7th-order dense output,
which costs three more stages per accepted step and is one order below
the propagated solution, is not formed.

The event scan evaluates each event at the cubic's samples
s0 + h/3, s0 + 2h/3 and at the step's end state.  A sign change anywhere
from the start value flags the step: the event is then evaluated at the
propagated solution's interior samples instead, and each bracket found
there is closed by Brent's method on the propagated solution.  A
crossing is always flagged when the start and end values differ in sign;
a pair of crossings inside one step, close enough to be missed by both
the samples and the cubic, is not seen.  Event functions are called as
``g(x, y)`` on floats.  A point is an ``(x, y)`` tuple of floats wherever
one is handed out (a located root for ``accept`` and the hit, a
trajectory's state), and a trajectory keeps only its accepted steps.

The stage arithmetic is written once, as a source template
(``_step_lines``), and compiled into two kinds of instance.  The generic
``_dop853(rhs, x0, y0, fx, fy, hs)`` calls ``rhs(x, y)`` at each stage; it
runs any callable handed to ``integrate``, a wrapper of a field's ``rhs``
included.  Each field gets its own instance, compiled on its first
integration and kept on the field: P and Q stand inline at every stage,
each stage is followed by a finiteness test, and the whole step sits in
one try block, so an attempt makes no Python call per stage and a
failure raises the DomainError text of ``PlanarField.rhs`` at the stage
point.  ``integrate`` runs a field's instance when it is handed that
field's own ``PlanarField.rhs``, and evaluates the field's generated
``_rhs`` for the start, the initial step's trial and each step's end.
The template writes each coefficient as its repr, which reads back as
the same double, so both instances give the same bits.

The kernel is scalar: the state is two floats and the stages are
unrolled per component.  Every float equals what the same loop gives on
2-element ndarrays with the negated field for reversed time, because each
expression keeps that loop's operation order: stage sums left to right,
squares as ``v * v``, the two-component mean as ``(a*a + b*b) / 2``, and
the error scale from ``max(abs(y), abs(y_new))`` per component, written
as a conditional with ``max``'s tie order (as are the step-size clamps).
The signed step gives the bits of the negated field because IEEE negation
is exact and round-to-nearest is symmetric: ``(-h) * (a*p + b*q)`` equals
``h * (a*(-p) + b*(-q))``.  Reordering any expression changes results in
the last bits, and through step control, event times and reports.

Because ``g`` receives Python floats, a division by zero inside a user
event function raises ZeroDivisionError rather than returning inf.

An event may declare a Lipschitz bound L on |grad g|.  Within one step
the cubic stays within B of the step's start, where B sums the absolute
coefficients c2..c4, the x terms and then the y terms: each term of the
nested form is a coefficient times th^a (1-th)^b, which is at most 1 on
[0, 1], and the end state is c1 + c2 up to rounding.  So g moves by at
most L * B over the samples.  A step whose start value has
|g| > 2 * L * B plus a rounding floor cannot flag, and its scan is
skipped: the event is evaluated once, at the step's end state, which is
the value a scan carries into the next step.  The factor 2 and the floor
absorb rounding in g and in B.  The skip is exact only if L is a true
bound; a value that is too small can drop crossings.

``IntegratorConfig`` holds the two step-control settings, ``rtol`` and
``atol``.  As in Hairer's code, an integration stops with
``StepLimitExceeded`` when a step is too small to advance t, 0.1 h <= t *
uround, tested before the step is clamped to the end of the span; one
whose steps still advance is capped at ``_MAX_STEPS`` = 100 000 step
attempts, Hairer's default, so a stiff integration stops in seconds and
in little memory.  Every search for a crossing or a return looks no
further than ``MAX_HORIZON`` time units.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import Callable, Sequence

from .errors import DomainEscape, EventNotFound, StepLimitExceeded
from .expr import PlanarField, _evaluation, _exec, _guarded

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "EventHit",
    "Trajectory",
    "integrate",
    "flow",
    "flow_to_event",
    "jacobian_fd",
    "brent",
    "MAX_HORIZON",
    "Point",
    "as_point",
]


# Hairer's DOP853 tableau (autonomous systems; stage times unused), copied
# from scipy/integrate/_ivp/dop853_coefficients.py.  Stages are numbered
# from 1 as in Hairer's code.  Stage 1 is the field at the step start;
# _A[i - 2] lists stage i's nonzero coefficients as pairs (j, scipy's
# A[i-1, j-1]), for the stages 2..12 that make the 8th-order solution
# (weights _B, scipy's B), and stage 13 is the field there, the next step's
# stage 1.  _E are the weights of the 5th-order error estimate (scipy's E5).
_A = (
    ((1, 5.26001519587677318785587544488e-2),),
    ((1, 1.97250569845378994544595329183e-2), (2, 5.91751709536136983633785987549e-2)),
    ((1, 2.95875854768068491816892993775e-2), (3, 8.87627564304205475450678981324e-2)),
    ((1, 2.41365134159266685502369798665e-1), (3, -8.84549479328286085344864962717e-1),
     (4, 9.24834003261792003115737966543e-1)),
    ((1, 3.7037037037037037037037037037e-2), (4, 1.70828608729473871279604482173e-1),
     (5, 1.25467687566822425016691814123e-1)),
    ((1, 3.7109375e-2), (4, 1.70252211019544039314978060272e-1),
     (5, 6.02165389804559606850219397283e-2), (6, -1.7578125e-2)),
    ((1, 3.70920001185047927108779319836e-2), (4, 1.70383925712239993810214054705e-1),
     (5, 1.07262030446373284651809199168e-1), (6, -1.53194377486244017527936158236e-2),
     (7, 8.27378916381402288758473766002e-3)),
    ((1, 6.24110958716075717114429577812e-1), (4, -3.36089262944694129406857109825),
     (5, -8.68219346841726006818189891453e-1), (6, 2.75920996994467083049415600797e1),
     (7, 2.01540675504778934086186788979e1), (8, -4.34898841810699588477366255144e1)),
    ((1, 4.77662536438264365890433908527e-1), (4, -2.48811461997166764192642586468),
     (5, -5.90290826836842996371446475743e-1), (6, 2.12300514481811942347288949897e1),
     (7, 1.52792336328824235832596922938e1), (8, -3.32882109689848629194453265587e1),
     (9, -2.03312017085086261358222928593e-2)),
    ((1, -9.3714243008598732571704021658e-1), (4, 5.18637242884406370830023853209),
     (5, 1.09143734899672957818500254654), (6, -8.14978701074692612513997267357),
     (7, -1.85200656599969598641566180701e1), (8, 2.27394870993505042818970056734e1),
     (9, 2.49360555267965238987089396762), (10, -3.0467644718982195003823669022)),
    ((1, 2.27331014751653820792359768449), (4, -1.05344954667372501984066689879e1),
     (5, -2.00087205822486249909675718444), (6, -1.79589318631187989172765950534e1),
     (7, 2.79488845294199600508499808837e1), (8, -2.85899827713502369474065508674),
     (9, -8.87285693353062954433549289258), (10, 1.23605671757943030647266201528e1),
     (11, 6.43392746015763530355970484046e-1)),
)
_B = (
    (1, 5.42937341165687622380535766363e-2), (6, 4.45031289275240888144113950566),
    (7, 1.89151789931450038304281599044), (8, -5.8012039600105847814672114227),
    (9, 3.1116436695781989440891606237e-1), (10, -1.52160949662516078556178806805e-1),
    (11, 2.01365400804030348374776537501e-1), (12, 4.47106157277725905176885569043e-2),
)
_E = (
    (1, 0.1312004499419488073250102996e-1), (6, -0.1225156446376204440720569753e+1),
    (7, -0.4957589496572501915214079952), (8, 0.1664377182454986536961530415e+1),
    (9, -0.3503288487499736816886487290), (10, 0.3341791187130174790297318841),
    (11, 0.8192320648511571246570742613e-1), (12, -0.2235530786388629525884427845e-1),
)
_SAFETY = 0.9
# step-size controller exponent: -1/(q + 1) for the order q = 5 estimate
_EXPONENT = -1 / 6
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Brent's method: absolute parameter tolerance and iteration cap
_BRENT_XTOL = 1e-13
_BRENT_MAXITER = 200

# event samples per accepted step, at s0 + q * h for each fraction q: the
# cubic's (or the partial steps') inside the step, the end state at q = 1
_EVENT_SAMPLES = 3
_SAMPLE_FRACTIONS = tuple(i / _EVENT_SAMPLES for i in range(1, _EVENT_SAMPLES + 1))

# accepted plus rejected step attempts per integration (Hairer's NMAX); a
# step that no longer advances t stops sooner, by the step-size test
_MAX_STEPS = 100_000
# unit roundoff of a double, Hairer's UROUND
_UROUND = 2.220446049250313e-16
# longest time any crossing or return search integrates
MAX_HORIZON = 1e4


Point = tuple[float, float]  # the package's point type: (x, y) as floats


def as_point(z) -> Point:
    """Any 2-sequence as a Point."""
    return float(z[0]), float(z[1])


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control settings for the adaptive integrator (frozen, so equal
    settings hash equal)."""

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class EventSpec:
    """A scalar crossing condition g(x, y) = 0 watched along a trajectory.

    ``g`` is called with the two state components as Python floats.
    ``direction`` filters on the sign of dg/ds along integration progress
    (+1 rising, -1 falling, 0 any).  ``accept`` receives each located root
    as an (x, y) tuple and may veto it (e.g. a crossing of a curve's extension
    outside its parameter range); scanning then continues past the
    rejected root.

    ``lipschitz``, if given, must bound |grad g| everywhere along the
    trajectory; the scan then skips steps that cannot reach the zero set
    (see the module docstring).  A wrong bound can drop crossings.
    """

    g: Callable[[float, float], float]
    direction: int = 0
    terminal: bool = True
    accept: Callable[[Point], bool] | None = None
    lipschitz: float | None = None


@dataclass(frozen=True)
class EventHit:
    index: int  # which EventSpec fired
    t: float  # signed requested time
    z: Point


def _replay(dop853, sign: float, step: tuple, s: float) -> Point:
    """The propagated solution at progress time s in [s0, s0 + h) of the
    step record (s0, h, x, y, fx, fy): one step of the DOP853 step function
    ``dop853``, of signed length sign * (s - s0) from the step's start
    (x, y) with the field (fx, fy) there reused, 11 field evaluations; the
    start itself at s0."""
    s0, _, x, y, fx, fy = step
    u = s - s0
    if u <= 0.0:
        return x, y
    return dop853(x, y, fx, fy, sign * u)[:2]


@dataclass
class Trajectory:
    """Solution of one integrate() call: its accepted steps.

    The steps tile [0, s_end] in internal progress time s >= 0, each
    starting where the previous one ended; requested times are
    t = direction * s.  ``z_final`` is the end state of the last step,
    which after a terminal event is the step holding the root.  A step
    boundary reads back the step's start state, or ``z_final`` at s_end,
    exactly; any other time is one partial step of the integration's step
    function ``dop853`` from the start of the step holding it.
    """

    dop853: Callable[..., tuple[float, float, float, float]]
    direction: float
    steps: list[tuple[float, float, float, float, float, float]]
    z_final: Point
    nrejected: int
    nfev: int
    events: list[EventHit] = dc_field(default_factory=list)

    @property
    def naccepted(self) -> int:
        return len(self.steps)

    def state(self, t: float) -> Point:
        """State at requested time t inside the integrated span."""
        steps = self.steps
        s_end = steps[-1][0] + steps[-1][1] if steps else 0.0
        s = self.direction * t
        # written so that NaN fails the test
        if not -1e-12 <= s <= s_end + 1e-12:
            raise ValueError(f"time {t} outside integrated span")
        s = min(max(s, 0.0), s_end)
        if s == s_end:
            return self.z_final
        return _replay(self.dop853, self.direction,
                       steps[bisect_right(steps, s, key=itemgetter(0)) - 1], s)


def _initial_step(rhs, x, y, fx, fy, rtol, atol, s_end, sign):
    sx = atol + rtol * abs(x)
    sy = atol + rtol * abs(y)
    ax, ay = x / sx, y / sy
    d0 = math.sqrt((ax * ax + ay * ay) / 2)
    ax, ay = fx / sx, fy / sy
    d1 = math.sqrt((ax * ax + ay * ay) / 2)
    h0 = 1e-6 if d1 < 1e-12 or d0 < 1e-12 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    hs0 = sign * h0
    f1x, f1y = rhs(x + hs0 * fx, y + hs0 * fy)
    ax, ay = (f1x - fx) / sx, (f1y - fy) / sy
    d2 = math.sqrt((ax * ax + ay * ay) / 2) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** -_EXPONENT if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, s_end)


def brent(f, a, b, fa, fb):
    """Root of f on a sign-change bracket [a, b] by Brent's method, given
    fa = f(a) and fb = f(b)."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("brent: not a sign-change bracket")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAXITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _UROUND * abs(b) + 0.5 * _BRENT_XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


def _step_lines(stage: Callable[[int], list[str]]) -> list[str]:
    """The DOP853 template: the lines of one step of signed length hs from
    (x0, y0), where the field is (fx, fy), ending in the return of the
    8th-order end state and the 5th-order error sum sum_j E_j k_j, per
    component.  Each stage i = 2..12 sets its point (x, y) and then runs
    ``stage(i)``, which sets k{i}x and k{i}y to the field there."""

    def total(weights, c):
        return " + ".join(f"{w!r} * {'f' if j == 1 else f'k{j}'}{c}" for j, w in weights)

    lines = []
    for i, row in enumerate(_A, start=2):
        lines += [f"x = x0 + hs * ({total(row, 'x')})",
                  f"y = y0 + hs * ({total(row, 'y')})", *stage(i)]
    lines.append(f"return (x0 + hs * ({total(_B, 'x')}), y0 + hs * ({total(_B, 'y')}), "
                 f"{total(_E, 'x')}, {total(_E, 'y')})")
    return lines


# the template's generic instance, _dop853(rhs, x0, y0, fx, fy, hs): each
# stage calls rhs(x, y)
_dop853 = _exec("def _dop853(rhs, x0, y0, fx, fy, hs):\n" + "".join(
    f"    {line}\n" for line in _step_lines(lambda i: [f"k{i}x, k{i}y = rhs(x, y)"])),
    "_dop853")

# PlanarField.rhs as defined, so a wrapper set on the class later is one
# more callable and runs the generic step
_FIELD_RHS = PlanarField.rhs


def _field_step(field: PlanarField) -> Callable[..., tuple[float, float, float, float]]:
    """The field's own instance of the template, (x0, y0, fx, fy, hs) ->
    the same four floats as ``_dop853``, with P and Q inline at each stage
    and the step in one try block, so a failure raises the DomainError of
    ``PlanarField.rhs`` at the stage point.  Compiled on the field's first
    integration and kept on the field."""
    if field._step is None:
        field._step = _exec(_guarded("_dop853", "x0, y0, fx, fy, hs", _step_lines(
            lambda i: _evaluation(field.p, field.q, f"k{i}x", f"k{i}y"))), "_dop853")
    return field._step


def _crossed(ga: float, gb: float) -> bool:
    """A strict sign change from ga to gb, or a landing on zero."""
    return (ga < 0.0 < gb) or (ga > 0.0 > gb) or (gb == 0.0 and ga != 0.0)


def _scan_step(dop853, sign, step, end, cubic, events, scan, g_prev, zero_start):
    """Look for crossings of the events ``events[k]``, k in ``scan``, inside
    one accepted step whose end state is ``end`` and whose cubic Hermite
    coefficients c2..c4 are ``cubic``, (c2x, c2y, c3x, c3y, c4x, c4y).

    Each event's values at the cubic's interior samples and at ``end``
    flag a possible crossing by a sign change from the start value; a
    flagged event is then sampled on the propagated solution and its roots
    located there, each state read through ``at``, which keeps the partial
    steps by progress time for all events.  g_prev holds event values at
    the step start and is updated to the step end.  zero_start[k] is None
    for a normal event, or a threshold while the event started at g ~ 0
    and crossings are still being suppressed.  A root is the Brent iterate
    it was located at, so it costs no partial step of its own.  Returns the
    accepted EventHits ordered by time (|t| is the progress time, as the
    sign is +-1.0), and the number of partial steps taken.
    """
    hits = []
    s0, h, c1x, c1y, _, _ = step
    s1 = s0 + h
    svals = [s0 + q * h for q in _SAMPLE_FRACTIONS]
    c2x, c2y, c3x, c3y, c4x, c4y = cubic
    inner = [(c1x + q * (c2x + (1.0 - q) * (c3x + q * c4x)),
              c1y + q * (c2y + (1.0 - q) * (c3y + q * c4y))) for q in _SAMPLE_FRACTIONS[:-1]]
    seen: dict[float, Point] = {}  # the partial steps taken, by progress time

    def at(s):
        if s >= s1:
            return end
        z = seen.get(s)
        if z is None:
            z = _replay(dop853, sign, step, s)
            if s > s0:
                seen[s] = z
        return z

    for k in scan:
        ev = events[k]
        g = ev.g
        ga = g_prev[k]
        gvals = [g(*z) for z in inner]
        gvals.append(g(*end))
        if any(map(_crossed, [ga, *gvals[:-1]], gvals)):
            gvals[:-1] = [g(*at(s)) for s in svals[:-1]]
        sa = s0
        for s_b, gb in zip(svals, gvals):
            if zero_start[k] is not None:
                if abs(gb) > zero_start[k]:
                    zero_start[k] = None
                ga, sa = gb, s_b
                continue
            if _crossed(ga, gb) and (ev.direction == 0
                                     or math.copysign(1.0, gb - ga) == ev.direction):
                s_root = brent(lambda s: g(*at(s)), sa, s_b, ga, gb)
                z_root = at(s_root)
                if ev.accept is None or ev.accept(z_root):
                    hits.append(EventHit(k, sign * s_root, z_root))
            ga, sa = gb, s_b
        g_prev[k] = ga
    if len(hits) > 1:
        hits.sort(key=lambda hit: abs(hit.t))
    return hits, len(seen)


def integrate(
    rhs: Callable[[float, float], tuple[float, float]],
    z0,
    t_final: float,
    cfg: IntegratorConfig,
    events: Sequence[EventSpec] = (),
    bounds: tuple[float, float, float, float] | None = None,
) -> Trajectory:
    """Integrate dz/dt = rhs(x, y) from z0 to t_final (either sign).

    ``rhs(x, y)`` returns the velocity as two floats; ``bounds`` is a box
    (xmin, xmax, ymin, ymax), edges included, that each accepted state must
    lie in, as a field's ``domain`` is.  Stops early at the first
    terminal event root.  Raises ValueError for a non-finite t_final,
    before any evaluation; raises StepLimitExceeded, DomainEscape, or lets
    field DomainError propagate.

    A field's own ``PlanarField.rhs`` runs the field's generated step, and
    its generated ``_rhs`` for the start, the initial step's trial and each
    step's end; any other callable runs ``_dop853``, which calls it at every
    stage.  Both give the same bits.
    """
    if not math.isfinite(t_final):
        raise ValueError(f"flow time {t_final} is not finite")
    if getattr(rhs, "__func__", None) is _FIELD_RHS:
        dop853 = _field_step(rhs.__self__)
        rhs = rhs.__self__._rhs
    else:
        dop853 = partial(_dop853, rhs)
    x, y = as_point(z0)
    if t_final == 0.0:
        return Trajectory(dop853, 1.0, [], (x, y), 0, 0)
    sign = 1.0 if t_final > 0 else -1.0
    s_end = abs(t_final)

    fx, fy = rhs(x, y)
    rtol, atol = cfg.rtol, cfg.atol
    h = _initial_step(rhs, x, y, fx, fy, rtol, atol, s_end, sign)

    events = list(events)
    g_prev = [ev.g(x, y) for ev in events]
    # a crossing at the start is ignored; scanning resumes once |g| clears
    # the threshold, so t_hit brackets sit strictly away from 0
    g_floor = 1e-12 * (1.0 + math.hypot(x, y))
    zero_start: list[float | None] = [g_floor if abs(g) < g_floor else None for g in g_prev]

    if bounds is not None:
        xmin, xmax, ymin, ymax = bounds
    steps: list[tuple] = []
    hits: list[EventHit] = []
    attempts = npartial = 0
    s = 0.0
    terminal_hit = None

    while s < s_end:
        if attempts >= _MAX_STEPS:
            raise StepLimitExceeded(
                f"step limit {_MAX_STEPS} reached at t={sign * s:.6g}"
            )
        if 0.1 * h <= s * _UROUND:
            raise StepLimitExceeded(
                f"step size {h:.3g} too small at t={sign * s:.6g}"
            )
        attempts += 1
        rest = s_end - s
        if rest < h:
            h = rest
        hs = sign * h
        xn, yn, ex, ey = dop853(x, y, fx, fy, hs)
        a, b = abs(x), abs(xn)
        ex /= atol + rtol * (b if b > a else a)
        a, b = abs(y), abs(yn)
        ey /= atol + rtol * (b if b > a else a)
        err = h * math.sqrt((ex * ex + ey * ey) / 2)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** _EXPONENT
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        if err > 1.0:
            h *= factor
            continue

        k13x, k13y = rhs(xn, yn)
        step = (s, h, x, y, fx, fy)
        steps.append(step)
        s += h

        if events:
            # the cubic Hermite interpolant c1 + th (c2 + (1-th) (c3 + th c4))
            # through the step's ends and their derivatives, with c2 = (dx, dy)
            dx, dy = xn - x, yn - y
            c3x, c3y = hs * fx - dx, hs * fy - dy
            c4x, c4y = 2.0 * dx - hs * (k13x + fx), 2.0 * dy - hs * (k13y + fy)
            # the Lipschitz skip: an event whose start value clears
            # 2 L reach + floor takes only its value at the step's end
            reach = abs(dx) + abs(c3x) + abs(c4x) + abs(dy) + abs(c3y) + abs(c4y)
            floor = 1e-12 * (1.0 + abs(x) + abs(y))
            scan = []
            for k, ev in enumerate(events):
                lip = ev.lipschitz
                if (lip is not None and zero_start[k] is None
                        and abs(g_prev[k]) > (2.0 * lip) * reach + floor):
                    g_prev[k] = ev.g(xn, yn)
                    continue
                scan.append(k)
            if scan:
                found, nstates = _scan_step(dop853, sign, step, (xn, yn),
                                            (dx, dy, c3x, c3y, c4x, c4y), events, scan,
                                            g_prev, zero_start)
                npartial += nstates
                for hit in found:
                    hits.append(hit)
                    if events[hit.index].terminal:
                        terminal_hit = hit
                        break
                if terminal_hit is not None:
                    break

        if bounds is not None and not (xmin <= xn <= xmax and ymin <= yn <= ymax):
            raise DomainEscape(
                f"state ({xn:.6g}, {yn:.6g}) left the working domain "
                f"at t={sign * s:.6g}"
            )

        x, y = xn, yn
        fx, fy = k13x, k13y
        h *= factor

    # nfev: the start, the trial stage of _initial_step, eleven stages per
    # attempt and per partial step of the event scan, and the end point of
    # each accepted step
    return Trajectory(dop853, sign, steps, (x, y) if terminal_hit is None else (xn, yn),
                      attempts - len(steps),
                      2 + 11 * (attempts + npartial) + len(steps), hits)


def flow(field: PlanarField, z0, t: float, cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """The flow map: z0 advanced by time t (t = 0 returns z0 unchanged)."""
    return integrate(field.rhs, z0, t, cfg, bounds=field.domain).z_final


def flow_to_event(field: PlanarField, z0, event: EventSpec, t_direction: int,
                  cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate up to the first strict crossing of the event in the given
    time direction; that crossing is the trajectory's first event.

    A crossing at t = 0 (starting on the zero set) is skipped.  Raises
    EventNotFound if no crossing occurs within MAX_HORIZON.  On a closed
    orbit whose only crossings ``accept`` vetoes, the search goes round the
    orbit until MAX_HORIZON: from (0, 2 + 1e-5) on linear-center, with the
    x-axis segment [0.2, 2.0], that is about 1600 turns and 0.7 s.
    """
    if t_direction not in (1, -1):
        raise ValueError("t_direction must be +1 or -1")
    traj = integrate(field.rhs, z0, t_direction * MAX_HORIZON, cfg,
                     events=[replace(event, terminal=True)], bounds=field.domain)
    if not traj.events:
        raise EventNotFound(
            f"no event crossing within |t| <= {MAX_HORIZON:.6g} from ({z0[0]:.6g}, {z0[1]:.6g})"
        )
    return traj


def jacobian_fd(map_fn: Callable[[Point], Sequence[float]], z, v) -> Point:
    """J(z) v for a planar map f, by one central difference along v:
    (f(z + h u) - f(z - h u)) |v| / 2h with u = v / |v|; v = 0 gives (0.0, 0.0)
    without calling f.  The step h = 1e-5 * (1 + |z|) is snapped to a power
    of two, so along an axis the stencil offsets carry no rounding error.
    """
    x, y = as_point(z)
    vx, vy = as_point(v)
    n = math.hypot(vx, vy)
    if n == 0.0:
        return 0.0, 0.0
    h = 2.0 ** round(math.log2(1e-5 * (1.0 + math.hypot(x, y))))
    ux, uy = vx / n, vy / n
    p, m = map_fn((x + h * ux, y + h * uy)), map_fn((x - h * ux, y - h * uy))
    return (p[0] - m[0]) * n / (2.0 * h), (p[1] - m[1]) * n / (2.0 * h)
