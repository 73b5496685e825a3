"""Adaptive flow integration for planar fields.

The integrator is an embedded Dormand-Prince 5(4) pair with the classic
quartic dense-output interpolant, so event roots are located on the
continuous extension of accepted steps rather than by shrinking steps.
Negative flow times integrate the reversed field over positive internal
time; trajectories remember their direction.

The kernel is scalar: the state is two floats, the seven stages are
unrolled per component, and each step keeps its dense-output coefficients
as floats.  The event scan runs on floats too: event functions are called
as ``g(x, y)`` on dense-output samples and Brent iterates.  A point is an
``(x, y)`` tuple of floats wherever one is handed out (a located root for
``accept`` and the hit, the trajectory's states), and the grid is a list.
Every float equals what the same loop gives on 2-element ndarrays, because
each expression keeps that loop's operation order: stage sums left to
right, squares as ``v * v``, the two-component mean as
``(a*a + b*b) / 2``, the error scale from ``max(abs(y), abs(y_new))`` per
component, and reversed time as a negation.  Reordering any of them
changes results in the last bits, and through step control, event times
and reports.

Because ``g`` receives Python floats, a division by zero inside a user
event function raises ZeroDivisionError rather than returning inf.

An event may declare a Lipschitz bound L on |grad g|.  Within one step
the dense output stays within B of the step's start, where B sums the
absolute Horner coefficients c2..c5 of both components, so g moves by at
most L * B.  A step whose start value has |g| > 2 * L * B plus a rounding
floor cannot change the sign of g at any sample, and its scan is skipped:
only the last sample is evaluated, so the value carried into the next
step keeps its bits.  The factor 2 and the floor absorb rounding in g, in
B and in the carried start value, which is g at the previous step's last
sample rather than at c1 exactly.  The skip is exact only if L is a true
bound; a value that is too small can drop crossings.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    "flow_to_event_trajectory",
    "jacobian_fd",
    "brent",
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
    max_steps: int = 10_000_000
    max_horizon: float = 1e4

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 < self.max_horizon < math.inf:
            raise ValueError("max_horizon must be positive and finite")


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

    def reach(self) -> float:
        """Bound on the distance of any dense-output point from the start:
        the absolute Horner coefficients c2..c5 of both components summed."""
        return (abs(self.c2x) + abs(self.c3x) + abs(self.c4x) + abs(self.c5x)
                + abs(self.c2y) + abs(self.c3y) + abs(self.c4y) + abs(self.c5y))


@dataclass
class Trajectory:
    """Dense-output solution of one integrate() call.

    Steps tile [0, s_end] in internal progress time s >= 0; requested times
    are t = direction * s.  Interpolation at step boundaries reproduces the
    stored endpoint states exactly.
    """

    direction: int
    steps: list[_Step]
    s_grid: list[float]  # accepted step boundaries, len(steps) + 1
    states: list[Point]  # states at the boundaries
    naccepted: int
    nrejected: int
    nfev: int
    events: list[EventHit] = dc_field(default_factory=list)

    @property
    def t_final(self) -> float:
        return self.direction * self.s_grid[-1]

    @property
    def z_final(self) -> Point:
        return self.states[-1]

    def state(self, t: float) -> Point:
        """State at requested time t inside the integrated span."""
        s = self.direction * t
        if s < -1e-12 or s > self.s_grid[-1] + 1e-12:
            raise ValueError(f"time {t} outside integrated span")
        s = min(max(s, 0.0), self.s_grid[-1])
        idx = min(max(bisect_right(self.s_grid, s) - 1, 0), len(self.steps) - 1)
        if s == self.s_grid[idx]:
            return self.states[idx]
        if s == self.s_grid[idx + 1]:
            return self.states[idx + 1]
        return self.steps[idx].at(s)


def _initial_step(rhs, x, y, fx, fy, rtol, atol, s_end):
    sx = atol + rtol * abs(x)
    sy = atol + rtol * abs(y)
    ax, ay = x / sx, y / sy
    d0 = math.sqrt((ax * ax + ay * ay) / 2)
    ax, ay = fx / sx, fy / sy
    d1 = math.sqrt((ax * ax + ay * ay) / 2)
    h0 = 1e-6 if d1 < 1e-12 or d0 < 1e-12 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    f1x, f1y = rhs(x + h0 * fx, y + h0 * fy)
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


def _scan_step(step, events, g_prev, direction, zero_start):
    """Look for event crossings inside one accepted step.

    g_prev holds event values at the step start and is updated to the step
    end; accepted hits come back ordered by progress time.  zero_start[k]
    is None for a normal event, or a threshold while the event started at
    g ~ 0 and crossings are still being suppressed.  An event with a
    Lipschitz bound whose start value clears 2 * L * reach plus the floor
    is not scanned; only its value at the step end is taken.
    """
    hits = []
    s0, h = step.s0, step.h
    svals = samples = reach = None
    for k, ev in enumerate(events):
        g = ev.g
        ga = g_prev[k]
        if ev.lipschitz is not None and zero_start[k] is None:
            if reach is None:
                reach = step.reach()
                floor = 1e-12 * (1.0 + abs(step.c1x) + abs(step.c1y))
            if abs(ga) > 2.0 * ev.lipschitz * reach + floor:
                g_prev[k] = g(*step.at(s0 + _SAMPLE_FRACTIONS[-1] * h))
                continue
        if samples is None:
            svals = [s0 + q * h for q in _SAMPLE_FRACTIONS]
            samples = [step.at(s_b) for s_b in svals]
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
    hits.sort(key=lambda item: item[0])
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
        return Trajectory(1, [], [0.0], [(x, y)], 0, 0, 0)
    direction = 1 if t_final > 0 else -1
    s_end = abs(t_final)

    if direction == 1:
        rhs_s = rhs
    else:
        def rhs_s(x, y, _rhs=rhs):
            px, qy = _rhs(x, y)
            return -px, -qy

    fx, fy = rhs_s(x, y)
    nfev = 1
    rtol, atol, max_steps = cfg.rtol, cfg.atol, cfg.max_steps
    h = _initial_step(rhs_s, x, y, fx, fy, rtol, atol, s_end)
    nfev += 1

    events = list(events)
    g_prev = [ev.g(x, y) for ev in events]
    # a crossing at the start is ignored; scanning resumes once |g| clears
    # the threshold, so t_hit brackets sit strictly away from 0
    g_floor = 1e-12 * (1.0 + math.hypot(x, y))
    zero_start: list[float | None] = [g_floor if abs(g) < g_floor else None for g in g_prev]

    steps: list[_Step] = []
    boundaries = [0.0]
    states = [(x, y)]
    hits: list[EventHit] = []
    naccepted = nrejected = 0
    s = 0.0
    terminal_hit = None

    while s < s_end:
        if naccepted + nrejected >= max_steps:
            raise StepLimitExceeded(
                f"step limit {max_steps} reached at t={direction * s:.6g}"
            )
        h = min(h, s_end - s)
        k2x, k2y = rhs_s(x + h * (_A21 * fx), y + h * (_A21 * fy))
        k3x, k3y = rhs_s(x + h * (_A31 * fx + _A32 * k2x),
                         y + h * (_A31 * fy + _A32 * k2y))
        k4x, k4y = rhs_s(x + h * (_A41 * fx + _A42 * k2x + _A43 * k3x),
                         y + h * (_A41 * fy + _A42 * k2y + _A43 * k3y))
        k5x, k5y = rhs_s(x + h * (_A51 * fx + _A52 * k2x + _A53 * k3x + _A54 * k4x),
                         y + h * (_A51 * fy + _A52 * k2y + _A53 * k3y + _A54 * k4y))
        k6x, k6y = rhs_s(x + h * (_A61 * fx + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
                         y + h * (_A61 * fy + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y))
        xn = x + h * (_A71 * fx + _A73 * k3x + _A74 * k4x + _A75 * k5x + _A76 * k6x)
        yn = y + h * (_A71 * fy + _A73 * k3y + _A74 * k4y + _A75 * k5y + _A76 * k6y)
        k7x, k7y = rhs_s(xn, yn)
        nfev += 6
        ex = h * (_E1 * fx + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * fy + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ex /= atol + rtol * max(abs(x), abs(xn))
        ey /= atol + rtol * max(abs(y), abs(yn))
        err = math.sqrt((ex * ex + ey * ey) / 2)
        if err > 1.0:
            nrejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        dx, dy = xn - x, yn - y
        c3x, c3y = h * fx - dx, h * fy - dy
        step = _Step(
            s, h, x, y, dx, dy, c3x, c3y,
            dx - h * k7x - c3x,
            dy - h * k7y - c3y,
            h * (_D1 * fx + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x + _D7 * k7x),
            h * (_D1 * fy + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y + _D7 * k7y),
        )
        steps.append(step)
        s += h
        boundaries.append(s)
        states.append((xn, yn))
        naccepted += 1

        if events:
            for s_root, hit in _scan_step(step, events, g_prev, direction, zero_start):
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
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h *= factor

    return Trajectory(
        direction=direction,
        steps=steps,
        s_grid=boundaries,
        states=states,
        naccepted=naccepted,
        nrejected=nrejected,
        nfev=nfev,
        events=hits,
    )


def flow(field: PlanarField, z0, t: float, cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """The flow map: z0 advanced by time t (t = 0 returns z0 unchanged)."""
    if t == 0.0:
        return as_point(z0)
    return integrate(field.rhs, z0, t, cfg, bounds=field.contains).z_final


def flow_to_event_trajectory(field: PlanarField, z0, event: EventSpec, t_direction: int,
                             t_max: float,
                             cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate up to the first strict crossing of the event in the given
    time direction; that crossing is the trajectory's first event.

    A crossing at t = 0 (starting on the zero set) is skipped.  Raises
    EventNotFound if no crossing occurs before t_max.
    """
    if t_direction not in (1, -1):
        raise ValueError("t_direction must be +1 or -1")
    t_max = abs(t_max)
    if t_max > cfg.max_horizon:
        t_max = cfg.max_horizon
    traj = integrate(field.rhs, z0, t_direction * t_max, cfg,
                     events=[replace(event, terminal=True)], bounds=field.contains)
    if not traj.events:
        raise EventNotFound(
            f"no event crossing within |t| <= {t_max:.6g} from ({z0[0]:.6g}, {z0[1]:.6g})"
        )
    return traj


def flow_to_event(
    field: PlanarField,
    z0,
    event: EventSpec,
    t_direction: int,
    t_max: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> tuple[float, Point]:
    """First strict crossing (t_hit, z_hit) of the event in the given time
    direction, t_hit signed; see flow_to_event_trajectory."""
    hit = flow_to_event_trajectory(field, z0, event, t_direction, t_max, cfg).events[0]
    return hit.t, hit.z


def jacobian_fd(map_fn: Callable[[Point], Sequence[float]], z) -> tuple[Point, Point]:
    """2x2 Jacobian of a planar map by central differences, as rows
    ((d f0/dx, d f0/dy), (d f1/dx, d f1/dy)).

    The step 1e-5 * (1 + |z|) is snapped to a power of two so the stencil
    offsets carry no representation error.
    """
    x, y = as_point(z)
    h = 2.0 ** round(math.log2(1e-5 * (1.0 + math.hypot(x, y))))
    px, mx = map_fn((x + h, y)), map_fn((x - h, y))
    py, my = map_fn((x, y + h)), map_fn((x, y - h))
    return (((px[0] - mx[0]) / (2.0 * h), (py[0] - my[0]) / (2.0 * h)),
            ((px[1] - mx[1]) / (2.0 * h), (py[1] - my[1]) / (2.0 * h)))
