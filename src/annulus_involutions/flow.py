"""Adaptive flow integration for planar fields.

The integrator is Hairer's DOP853: an explicit 8th-order Runge-Kutta
step with 12 stages.  The first stage is the field at the step's start,
which the previous accepted step evaluated at its end (FSAL), so an
attempt costs 11 field evaluations.  Step size is controlled by the
pair's embedded 5th-order error estimate alone: the error norm is
|h| times the root mean square, over x and y, of sum_j E_j k_j divided by
atol + rtol * max(|z|, |z_new|) per component, and the controller
exponent is -1/6 (the initial step uses the matching power 1/6).  Each
accepted step evaluates the field at its end and forms the 7th-order
dense output eagerly from three more stages, so event roots are located
on the continuous extension of accepted steps rather than by shrinking
steps.
A negative flow time is integrated over positive internal progress time s
with a signed step: the stages use the field's own velocities, and each
step length that multiplies them is hs = -h.  Trajectories remember their
direction.

The kernel is scalar: the state is two floats, the stages are unrolled
per component, and each step keeps its dense-output coefficients c1..c8
as floats, evaluated in the nested form
c1 + th (c2 + (1-th) (c3 + th (c4 + (1-th) (c5 + th (c6 + (1-th) (c7 + th c8)))))).
The event scan runs on floats too: event functions are called
as ``g(x, y)`` on dense-output samples and Brent iterates.  A point is an
``(x, y)`` tuple of floats wherever one is handed out (a located root for
``accept`` and the hit, a trajectory's state), and a trajectory keeps only
its accepted steps.
Every float equals what the same loop gives on 2-element ndarrays with the
negated field for reversed time, because each expression keeps that loop's
operation order: stage sums left to right, squares as ``v * v``, the
two-component mean as ``(a*a + b*b) / 2``, and the error scale from
``max(abs(y), abs(y_new))`` per component, written as a conditional with
``max``'s tie order (as are the step-size clamps).  The signed step gives
the bits of the negated field because IEEE negation is exact and
round-to-nearest is symmetric: ``(-h) * (a*p + b*q)`` equals
``h * (a*(-p) + b*(-q))``.  Reordering any expression changes results in
the last bits, and through step control, event times and reports.

Because ``g`` receives Python floats, a division by zero inside a user
event function raises ZeroDivisionError rather than returning inf.

An event may declare a Lipschitz bound L on |grad g|.  Within one step
the dense output stays within B of the step's start, where B sums the
absolute coefficients c2..c8, the x terms and then the y terms: each term
of the nested form is a coefficient times th^a (1-th)^b, which is at most
1 on [0, 1].  So g moves by at most L * B.  A step whose start value has
|g| > 2 * L * B plus a rounding floor cannot change the sign of g at any
sample, and its scan is skipped.  The integrator loop makes this test
after each accepted step, and hands only the events that fail it to the
scan.  A skipped event evaluates g once, at the last sample s0 + h, so the
value carried into the next step keeps the bits a scan would give.  The
factor 2 and the floor absorb rounding in g, in B and in the carried start
value, which is g at the previous step's last sample rather than at c1
exactly.  The skip is exact only if L is a true bound; a value that is too
small can drop crossings.

The dense output is one order below the propagated solution: between
step ends it is about ten times less accurate, and its error changes with
where a time falls inside its step.  ``Trajectory.step_start`` names the
start of the accepted step holding a time, so that a short fresh ``flow``
from there reads the state at the propagated solution's accuracy; the
half-period image is read that way.

``IntegratorConfig`` holds the two step-control settings, ``rtol`` and
``atol``.  Every integration is capped at ``_MAX_STEPS`` step attempts,
and every search for a crossing or a return looks no further than
``MAX_HORIZON`` time units.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter, itemgetter
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

from .errors import DomainEscape, EventNotFound, StepLimitExceeded
from .expr import PlanarField

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
# from 1 as in Hairer's code: _Ai_j is scipy's A[i-1, j-1].  Stage 1 is the
# field at the step start, stages 2..12 make the 8th-order solution
# (weights _Bj, scipy's B) and stage 13 is the field there, the next step's
# stage 1.  _Ej are the weights of the 5th-order error estimate (scipy's
# E5), and stages 14..16 with _Dr_j (scipy's D[r-5]) give the dense-output
# coefficients c5..c8.
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1, _A3_2 = (
    1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
)
_A4_1, _A4_3 = (
    2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2,
)
_A5_1, _A5_3, _A5_4 = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
)
_A6_1, _A6_4, _A6_5 = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
)
_A7_1, _A7_4, _A7_5, _A7_6 = (
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2,
)
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
)
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3,
)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138,
)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
)
_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14, _D7_15, _D7_16 = (
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
)
_D8_1, _D8_6, _D8_7, _D8_8, _D8_9, _D8_10, _D8_11, _D8_12, _D8_13, _D8_14, _D8_15, _D8_16 = (
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
)

_SAFETY = 0.9
# step-size controller exponent: -1/(q + 1) for the order q = 5 estimate
_EXPONENT = -1 / 6
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Brent's method: absolute parameter tolerance and iteration cap
_BRENT_XTOL = 1e-13
_BRENT_MAXITER = 200

# dense-output samples per accepted step used to bracket event crossings,
# at s0 + q * h for each fraction q
_EVENT_SAMPLES = 3
_SAMPLE_FRACTIONS = tuple(i / _EVENT_SAMPLES for i in range(1, _EVENT_SAMPLES + 1))

# accepted plus rejected step attempts per integration
_MAX_STEPS = 10_000_000
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


class _Step:
    """One accepted step: start, length and the 7th-order dense-output
    coefficients c1..c8, per component, as plain floats."""

    __slots__ = ("s0", "h", "c1x", "c1y", "c2x", "c2y", "c3x", "c3y", "c4x", "c4y",
                 "c5x", "c5y", "c6x", "c6y", "c7x", "c7y", "c8x", "c8y")

    def __init__(self, s0, h, c1x, c1y, c2x, c2y, c3x, c3y, c4x, c4y,
                 c5x, c5y, c6x, c6y, c7x, c7y, c8x, c8y):
        self.s0 = s0
        self.h = h
        self.c1x, self.c1y = c1x, c1y
        self.c2x, self.c2y = c2x, c2y
        self.c3x, self.c3y = c3x, c3y
        self.c4x, self.c4y = c4x, c4y
        self.c5x, self.c5y = c5x, c5y
        self.c6x, self.c6y = c6x, c6y
        self.c7x, self.c7y = c7x, c7y
        self.c8x, self.c8y = c8x, c8y

    def at(self, s: float) -> Point:
        """Dense-output state at progress time s, as two floats."""
        th = (s - self.s0) / self.h
        if th <= 0.0:
            return self.c1x, self.c1y
        if th >= 1.0:
            return self.c1x + self.c2x, self.c1y + self.c2y
        om = 1.0 - th
        return (
            self.c1x + th * (self.c2x + om * (self.c3x + th * (self.c4x + om * (
                self.c5x + th * (self.c6x + om * (self.c7x + th * self.c8x)))))),
            self.c1y + th * (self.c2y + om * (self.c3y + th * (self.c4y + om * (
                self.c5y + th * (self.c6y + om * (self.c7y + th * self.c8y)))))),
        )


@dataclass
class Trajectory:
    """Dense-output solution of one integrate() call: its accepted steps.

    The steps tile [0, s_end] in internal progress time s >= 0, each
    starting where the previous one ended; requested times are
    t = direction * s.  ``z_final`` is the end state of the last step,
    which after a terminal event is the step holding the root.  A step
    boundary reads back the step's start state, or ``z_final`` at s_end,
    exactly.
    """

    direction: int
    steps: list[_Step]
    z_final: Point
    nrejected: int
    nfev: int
    events: list[EventHit] = dc_field(default_factory=list)

    @property
    def naccepted(self) -> int:
        return len(self.steps)

    def _locate(self, t: float) -> tuple[float, _Step | None]:
        """(progress time s of requested time t, the accepted step holding
        it), with no step at the span's end."""
        steps = self.steps
        s_end = steps[-1].s0 + steps[-1].h if steps else 0.0
        s = self.direction * t
        if s < -1e-12 or s > s_end + 1e-12:
            raise ValueError(f"time {t} outside integrated span")
        s = min(max(s, 0.0), s_end)
        if s == s_end:
            return s, None
        return s, steps[max(bisect_right(steps, s, key=attrgetter("s0")) - 1, 0)]

    def state(self, t: float) -> Point:
        """State at requested time t inside the integrated span."""
        s, step = self._locate(t)
        if step is None:
            return self.z_final
        if s == step.s0:
            return step.c1x, step.c1y
        return step.at(s)

    def step_start(self, t: float) -> tuple[Point, float]:
        """(start state of the accepted step holding requested time t, the
        signed time from there to t); at the span's end, (z_final, 0.0).

        ``flow`` over that time from that state gives the state at t with
        the propagated solution's error rather than the dense output's.
        """
        s, step = self._locate(t)
        if step is None:
            return self.z_final, 0.0
        return (step.c1x, step.c1y), self.direction * (s - step.s0)


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


def brent(f, a, b, fa=None, fb=None):
    """Root of f on a sign-change bracket [a, b] by Brent's method."""
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
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
        tol = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * _BRENT_XTOL
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


def _scan_step(step, events, scan, g_prev, direction, zero_start):
    """Look for crossings of the events ``events[k]``, k in ``scan``, inside
    one accepted step.

    g_prev holds event values at the step start and is updated to the step
    end; accepted hits come back ordered by progress time.  zero_start[k]
    is None for a normal event, or a threshold while the event started at
    g ~ 0 and crossings are still being suppressed.
    """
    hits = []
    s0, h = step.s0, step.h
    svals = [s0 + q * h for q in _SAMPLE_FRACTIONS]
    samples = [step.at(s_b) for s_b in svals]
    for k in scan:
        ev = events[k]
        g = ev.g
        ga = g_prev[k]
        sa = s0
        for s_b, (xb, yb) in zip(svals, samples):
            gb = g(xb, yb)
            if zero_start[k] is not None:
                if abs(gb) > zero_start[k]:
                    zero_start[k] = None
                ga, sa = gb, s_b
                continue
            crossed = (ga < 0.0 < gb) or (ga > 0.0 > gb) or (gb == 0.0 and ga != 0.0)
            if crossed and (ev.direction == 0 or math.copysign(1.0, gb - ga) == ev.direction):
                s_root = float(brent(lambda s: g(*step.at(s)), sa, s_b, ga, gb))
                z_root = step.at(s_root)
                if ev.accept is None or ev.accept(z_root):
                    hits.append((s_root, EventHit(k, float(direction * s_root), z_root)))
            ga, sa = gb, s_b
        g_prev[k] = ga
    if len(hits) > 1:
        hits.sort(key=itemgetter(0))
    return hits


def integrate(
    rhs: Callable[[float, float], tuple[float, float]],
    z0,
    t_final: float,
    cfg: IntegratorConfig,
    events: Sequence[EventSpec] = (),
    bounds: Callable[[Point], bool] | None = None,
) -> Trajectory:
    """Integrate dz/dt = rhs(x, y) from z0 to t_final (either sign) with dense output.

    ``rhs(x, y)`` returns the velocity as two floats; ``bounds`` receives
    each accepted state as an (x, y) pair.  Stops early at the first
    terminal event root.  Raises StepLimitExceeded, DomainEscape, or lets
    field DomainError propagate.
    """
    x, y = as_point(z0)
    if t_final == 0.0:
        return Trajectory(1, [], (x, y), 0, 0)
    direction = 1 if t_final > 0 else -1
    sign = float(direction)
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

    steps: list[_Step] = []
    hits: list[EventHit] = []
    attempts = 0
    s = 0.0
    terminal_hit = None

    while s < s_end:
        if attempts >= _MAX_STEPS:
            raise StepLimitExceeded(
                f"step limit {_MAX_STEPS} reached at t={direction * s:.6g}"
            )
        attempts += 1
        rest = s_end - s
        if rest < h:
            h = rest
        hs = sign * h
        k2x, k2y = rhs(x + hs * (_A2_1 * fx),
                       y + hs * (_A2_1 * fy))
        k3x, k3y = rhs(x + hs * (_A3_1 * fx + _A3_2 * k2x),
                       y + hs * (_A3_1 * fy + _A3_2 * k2y))
        k4x, k4y = rhs(x + hs * (_A4_1 * fx + _A4_3 * k3x),
                       y + hs * (_A4_1 * fy + _A4_3 * k3y))
        k5x, k5y = rhs(x + hs * (_A5_1 * fx + _A5_3 * k3x + _A5_4 * k4x),
                       y + hs * (_A5_1 * fy + _A5_3 * k3y + _A5_4 * k4y))
        k6x, k6y = rhs(x + hs * (_A6_1 * fx + _A6_4 * k4x + _A6_5 * k5x),
                       y + hs * (_A6_1 * fy + _A6_4 * k4y + _A6_5 * k5y))
        k7x, k7y = rhs(x + hs * (_A7_1 * fx + _A7_4 * k4x + _A7_5 * k5x + _A7_6 * k6x),
                       y + hs * (_A7_1 * fy + _A7_4 * k4y + _A7_5 * k5y + _A7_6 * k6y))
        k8x, k8y = rhs(x + hs * (_A8_1 * fx + _A8_4 * k4x + _A8_5 * k5x + _A8_6 * k6x
                                 + _A8_7 * k7x),
                       y + hs * (_A8_1 * fy + _A8_4 * k4y + _A8_5 * k5y + _A8_6 * k6y
                                 + _A8_7 * k7y))
        k9x, k9y = rhs(x + hs * (_A9_1 * fx + _A9_4 * k4x + _A9_5 * k5x + _A9_6 * k6x
                                 + _A9_7 * k7x + _A9_8 * k8x),
                       y + hs * (_A9_1 * fy + _A9_4 * k4y + _A9_5 * k5y + _A9_6 * k6y
                                 + _A9_7 * k7y + _A9_8 * k8y))
        k10x, k10y = rhs(x + hs * (_A10_1 * fx + _A10_4 * k4x + _A10_5 * k5x + _A10_6 * k6x
                                   + _A10_7 * k7x + _A10_8 * k8x + _A10_9 * k9x),
                         y + hs * (_A10_1 * fy + _A10_4 * k4y + _A10_5 * k5y + _A10_6 * k6y
                                   + _A10_7 * k7y + _A10_8 * k8y + _A10_9 * k9y))
        k11x, k11y = rhs(x + hs * (_A11_1 * fx + _A11_4 * k4x + _A11_5 * k5x + _A11_6 * k6x
                                   + _A11_7 * k7x + _A11_8 * k8x + _A11_9 * k9x + _A11_10 * k10x),
                         y + hs * (_A11_1 * fy + _A11_4 * k4y + _A11_5 * k5y + _A11_6 * k6y
                                   + _A11_7 * k7y + _A11_8 * k8y + _A11_9 * k9y + _A11_10 * k10y))
        k12x, k12y = rhs(x + hs * (_A12_1 * fx + _A12_4 * k4x + _A12_5 * k5x + _A12_6 * k6x
                                   + _A12_7 * k7x + _A12_8 * k8x + _A12_9 * k9x + _A12_10 * k10x
                                   + _A12_11 * k11x),
                         y + hs * (_A12_1 * fy + _A12_4 * k4y + _A12_5 * k5y + _A12_6 * k6y
                                   + _A12_7 * k7y + _A12_8 * k8y + _A12_9 * k9y + _A12_10 * k10y
                                   + _A12_11 * k11y))
        xn = x + hs * (_B1 * fx + _B6 * k6x + _B7 * k7x + _B8 * k8x + _B9 * k9x + _B10 * k10x
                       + _B11 * k11x + _B12 * k12x)
        yn = y + hs * (_B1 * fy + _B6 * k6y + _B7 * k7y + _B8 * k8y + _B9 * k9y + _B10 * k10y
                       + _B11 * k11y + _B12 * k12y)
        ex = (_E1 * fx + _E6 * k6x + _E7 * k7x + _E8 * k8x + _E9 * k9x + _E10 * k10x
              + _E11 * k11x + _E12 * k12x)
        ey = (_E1 * fy + _E6 * k6y + _E7 * k7y + _E8 * k8y + _E9 * k9y + _E10 * k10y
              + _E11 * k11y + _E12 * k12y)
        a, b = abs(x), abs(xn)
        ex /= atol + rtol * (b if b > a else a)
        a, b = abs(y), abs(yn)
        ey /= atol + rtol * (b if b > a else a)
        err = h * math.sqrt((ex * ex + ey * ey) / 2)
        if err > 1.0:
            factor = _SAFETY * err ** _EXPONENT
            h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            continue

        k13x, k13y = rhs(xn, yn)
        k14x, k14y = rhs(x + hs * (_A14_1 * fx + _A14_7 * k7x + _A14_8 * k8x + _A14_9 * k9x
                                   + _A14_10 * k10x + _A14_11 * k11x + _A14_12 * k12x
                                   + _A14_13 * k13x),
                         y + hs * (_A14_1 * fy + _A14_7 * k7y + _A14_8 * k8y + _A14_9 * k9y
                                   + _A14_10 * k10y + _A14_11 * k11y + _A14_12 * k12y
                                   + _A14_13 * k13y))
        k15x, k15y = rhs(x + hs * (_A15_1 * fx + _A15_6 * k6x + _A15_7 * k7x + _A15_8 * k8x
                                   + _A15_11 * k11x + _A15_12 * k12x + _A15_13 * k13x
                                   + _A15_14 * k14x),
                         y + hs * (_A15_1 * fy + _A15_6 * k6y + _A15_7 * k7y + _A15_8 * k8y
                                   + _A15_11 * k11y + _A15_12 * k12y + _A15_13 * k13y
                                   + _A15_14 * k14y))
        k16x, k16y = rhs(x + hs * (_A16_1 * fx + _A16_6 * k6x + _A16_7 * k7x + _A16_8 * k8x
                                   + _A16_9 * k9x + _A16_13 * k13x + _A16_14 * k14x
                                   + _A16_15 * k15x),
                         y + hs * (_A16_1 * fy + _A16_6 * k6y + _A16_7 * k7y + _A16_8 * k8y
                                   + _A16_9 * k9y + _A16_13 * k13y + _A16_14 * k14y
                                   + _A16_15 * k15y))
        c5x = hs * (_D5_1 * fx + _D5_6 * k6x + _D5_7 * k7x + _D5_8 * k8x + _D5_9 * k9x
                    + _D5_10 * k10x + _D5_11 * k11x + _D5_12 * k12x + _D5_13 * k13x
                    + _D5_14 * k14x + _D5_15 * k15x + _D5_16 * k16x)
        c5y = hs * (_D5_1 * fy + _D5_6 * k6y + _D5_7 * k7y + _D5_8 * k8y + _D5_9 * k9y
                    + _D5_10 * k10y + _D5_11 * k11y + _D5_12 * k12y + _D5_13 * k13y
                    + _D5_14 * k14y + _D5_15 * k15y + _D5_16 * k16y)
        c6x = hs * (_D6_1 * fx + _D6_6 * k6x + _D6_7 * k7x + _D6_8 * k8x + _D6_9 * k9x
                    + _D6_10 * k10x + _D6_11 * k11x + _D6_12 * k12x + _D6_13 * k13x
                    + _D6_14 * k14x + _D6_15 * k15x + _D6_16 * k16x)
        c6y = hs * (_D6_1 * fy + _D6_6 * k6y + _D6_7 * k7y + _D6_8 * k8y + _D6_9 * k9y
                    + _D6_10 * k10y + _D6_11 * k11y + _D6_12 * k12y + _D6_13 * k13y
                    + _D6_14 * k14y + _D6_15 * k15y + _D6_16 * k16y)
        c7x = hs * (_D7_1 * fx + _D7_6 * k6x + _D7_7 * k7x + _D7_8 * k8x + _D7_9 * k9x
                    + _D7_10 * k10x + _D7_11 * k11x + _D7_12 * k12x + _D7_13 * k13x
                    + _D7_14 * k14x + _D7_15 * k15x + _D7_16 * k16x)
        c7y = hs * (_D7_1 * fy + _D7_6 * k6y + _D7_7 * k7y + _D7_8 * k8y + _D7_9 * k9y
                    + _D7_10 * k10y + _D7_11 * k11y + _D7_12 * k12y + _D7_13 * k13y
                    + _D7_14 * k14y + _D7_15 * k15y + _D7_16 * k16y)
        c8x = hs * (_D8_1 * fx + _D8_6 * k6x + _D8_7 * k7x + _D8_8 * k8x + _D8_9 * k9x
                    + _D8_10 * k10x + _D8_11 * k11x + _D8_12 * k12x + _D8_13 * k13x
                    + _D8_14 * k14x + _D8_15 * k15x + _D8_16 * k16x)
        c8y = hs * (_D8_1 * fy + _D8_6 * k6y + _D8_7 * k7y + _D8_8 * k8y + _D8_9 * k9y
                    + _D8_10 * k10y + _D8_11 * k11y + _D8_12 * k12y + _D8_13 * k13y
                    + _D8_14 * k14y + _D8_15 * k15y + _D8_16 * k16y)
        dx, dy = xn - x, yn - y
        c3x, c3y = hs * fx - dx, hs * fy - dy
        c4x, c4y = 2.0 * dx - hs * (k13x + fx), 2.0 * dy - hs * (k13y + fy)
        step = _Step(s, h, x, y, dx, dy, c3x, c3y, c4x, c4y,
                     c5x, c5y, c6x, c6y, c7x, c7y, c8x, c8y)
        steps.append(step)
        s += h

        if events:
            # the Lipschitz skip: an event whose start value clears
            # 2 L reach + floor takes only its value at the end sample s
            scan = []
            reach = end = None
            for k, ev in enumerate(events):
                lip = ev.lipschitz
                if lip is not None and zero_start[k] is None:
                    if reach is None:
                        reach = (abs(dx) + abs(c3x) + abs(c4x) + abs(c5x) + abs(c6x)
                                 + abs(c7x) + abs(c8x) + abs(dy) + abs(c3y) + abs(c4y)
                                 + abs(c5y) + abs(c6y) + abs(c7y) + abs(c8y))
                        floor = 1e-12 * (1.0 + abs(x) + abs(y))
                    if abs(g_prev[k]) > (2.0 * lip) * reach + floor:
                        if end is None:
                            end = step.at(s)
                        g_prev[k] = ev.g(*end)
                        continue
                scan.append(k)
            if scan:
                for s_root, hit in _scan_step(step, events, scan, g_prev, direction, zero_start):
                    hits.append(hit)
                    if events[hit.index].terminal:
                        terminal_hit = hit
                        break
                if terminal_hit is not None:
                    break

        if bounds is not None and not bounds((xn, yn)):
            raise DomainEscape(
                f"state ({xn:.6g}, {yn:.6g}) left the working domain "
                f"at t={direction * s:.6g}"
            )

        x, y = xn, yn
        fx, fy = k13x, k13y
        if err == 0.0:
            h *= _MAX_FACTOR
        else:
            factor = _SAFETY * err ** _EXPONENT
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR

    # nfev: the start, the trial stage of _initial_step, eleven stages per
    # attempt and four more (the end point and three dense-output stages)
    # per accepted step
    return Trajectory(direction, steps, (x, y) if terminal_hit is None else (xn, yn),
                      attempts - len(steps), 2 + 11 * attempts + 4 * len(steps), hits)


def flow(field: PlanarField, z0, t: float, cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """The flow map: z0 advanced by time t (t = 0 returns z0 unchanged)."""
    if t == 0.0:
        return as_point(z0)
    return integrate(field.rhs, z0, t, cfg, bounds=field.contains).z_final


def flow_to_event(field: PlanarField, z0, event: EventSpec, t_direction: int,
                  cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate up to the first strict crossing of the event in the given
    time direction; that crossing is the trajectory's first event.

    A crossing at t = 0 (starting on the zero set) is skipped.  Raises
    EventNotFound if no crossing occurs within MAX_HORIZON.
    """
    if t_direction not in (1, -1):
        raise ValueError("t_direction must be +1 or -1")
    traj = integrate(field.rhs, z0, t_direction * MAX_HORIZON, cfg,
                     events=[replace(event, terminal=True)], bounds=field.contains)
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
