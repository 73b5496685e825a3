"""Adaptive flow integration for planar fields.

The integrator is an embedded Dormand-Prince 5(4) pair with the classic
quartic dense-output interpolant, so event roots are located on the
continuous extension of accepted steps rather than by shrinking steps.
A negative flow time is integrated over positive internal progress time s
with a signed step: the stages use the field's own velocities, and each
step length that multiplies them is hs = -h.  Trajectories remember their
direction.

The kernel is scalar: the state is two floats, the seven stages are
unrolled per component, and each step keeps its dense-output coefficients
as floats.  The event scan runs on floats too: event functions are called
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
absolute Horner coefficients c2..c5, the x terms and then the y terms,
so g moves by at most L * B.  A step whose start value has
|g| > 2 * L * B plus a rounding floor cannot change the sign of g at any
sample, and its scan is skipped.  The integrator loop makes this test
after each accepted step, and hands only the events that fail it to the
scan.  A skipped event evaluates g once, at the last sample s0 + h, so the
value carried into the next step keeps the bits a scan would give.  The
factor 2 and the floor absorb rounding in g, in B and in the carried start
value, which is g at the previous step's last sample rather than at c1
exactly.  The skip is exact only if L is a true bound; a value that is too
small can drop crossings.

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


# Dormand-Prince 5(4) tableau (autonomous systems; stage times unused)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error coefficients (5th minus embedded 4th order weights)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# dense-output coefficients
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423

_SAFETY = 0.9
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
    """One accepted step: start, length and the quartic dense-output
    coefficients c1..c5, per component, as plain floats."""

    __slots__ = ("s0", "h", "c1x", "c1y", "c2x", "c2y", "c3x", "c3y",
                 "c4x", "c4y", "c5x", "c5y")

    def __init__(self, s0, h, c1x, c1y, c2x, c2y, c3x, c3y, c4x, c4y, c5x, c5y):
        self.s0 = s0
        self.h = h
        self.c1x, self.c1y = c1x, c1y
        self.c2x, self.c2y = c2x, c2y
        self.c3x, self.c3y = c3x, c3y
        self.c4x, self.c4y = c4x, c4y
        self.c5x, self.c5y = c5x, c5y

    def at(self, s: float) -> Point:
        """Dense-output state at progress time s, as two floats."""
        th = (s - self.s0) / self.h
        if th <= 0.0:
            return self.c1x, self.c1y
        if th >= 1.0:
            return self.c1x + self.c2x, self.c1y + self.c2y
        om = 1.0 - th
        return (
            self.c1x + th * (self.c2x + om * (self.c3x + th * (self.c4x + om * self.c5x))),
            self.c1y + th * (self.c2y + om * (self.c3y + th * (self.c4y + om * self.c5y))),
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

    def state(self, t: float) -> Point:
        """State at requested time t inside the integrated span."""
        steps = self.steps
        s_end = steps[-1].s0 + steps[-1].h if steps else 0.0
        s = self.direction * t
        if s < -1e-12 or s > s_end + 1e-12:
            raise ValueError(f"time {t} outside integrated span")
        s = min(max(s, 0.0), s_end)
        if s == s_end:
            return self.z_final
        step = steps[max(bisect_right(steps, s, key=attrgetter("s0")) - 1, 0)]
        if s == step.s0:
            return step.c1x, step.c1y
        return step.at(s)


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
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
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
        k2x, k2y = rhs(x + hs * (_A21 * fx), y + hs * (_A21 * fy))
        k3x, k3y = rhs(x + hs * (_A31 * fx + _A32 * k2x),
                       y + hs * (_A31 * fy + _A32 * k2y))
        k4x, k4y = rhs(x + hs * (_A41 * fx + _A42 * k2x + _A43 * k3x),
                       y + hs * (_A41 * fy + _A42 * k2y + _A43 * k3y))
        k5x, k5y = rhs(x + hs * (_A51 * fx + _A52 * k2x + _A53 * k3x + _A54 * k4x),
                       y + hs * (_A51 * fy + _A52 * k2y + _A53 * k3y + _A54 * k4y))
        k6x, k6y = rhs(x + hs * (_A61 * fx + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
                       y + hs * (_A61 * fy + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y))
        xn = x + hs * (_A71 * fx + _A73 * k3x + _A74 * k4x + _A75 * k5x + _A76 * k6x)
        yn = y + hs * (_A71 * fy + _A73 * k3y + _A74 * k4y + _A75 * k5y + _A76 * k6y)
        k7x, k7y = rhs(xn, yn)
        ex = hs * (_E1 * fx + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = hs * (_E1 * fy + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        a, b = abs(x), abs(xn)
        ex /= atol + rtol * (b if b > a else a)
        a, b = abs(y), abs(yn)
        ey /= atol + rtol * (b if b > a else a)
        err = math.sqrt((ex * ex + ey * ey) / 2)
        if err > 1.0:
            factor = _SAFETY * err ** -0.2
            h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            continue

        dx, dy = xn - x, yn - y
        c3x, c3y = hs * fx - dx, hs * fy - dy
        c4x, c4y = dx - hs * k7x - c3x, dy - hs * k7y - c3y
        c5x = hs * (_D1 * fx + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x + _D7 * k7x)
        c5y = hs * (_D1 * fy + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y + _D7 * k7y)
        step = _Step(s, h, x, y, dx, dy, c3x, c3y, c4x, c4y, c5x, c5y)
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
                        reach = (abs(dx) + abs(c3x) + abs(c4x) + abs(c5x)
                                 + abs(dy) + abs(c3y) + abs(c4y) + abs(c5y))
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
        fx, fy = k7x, k7y
        if err == 0.0:
            h *= _MAX_FACTOR
        else:
            factor = _SAFETY * err ** -0.2
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR

    # nfev: the start, the trial stage of _initial_step and six per attempt
    return Trajectory(direction, steps, (x, y) if terminal_hit is None else (xn, yn),
                      attempts - len(steps), 2 + 6 * attempts, hits)


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
