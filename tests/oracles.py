"""Independent oracles for the test suite.

Everything here deliberately avoids the package's adaptive integrator and
event machinery: periods come from adaptive quadrature of energy integrals,
flow-map Jacobians from a fixed-step classical RK4 run of the variational
equations (with the field's partials differentiated symbolically here),
and the linear center from closed forms.  Expected values frozen
in the tests were computed with these routines (cross-checked against
special-function identities where available).

The exceptions are the ndarray references that the package's scalar code
must reproduce bit for bit.  ``integrate_reference`` is the DOP853 step
loop and the event scan written on 2-element ndarrays, with the stages
driven from the tableau read as a table.  It shares the tableau, the step
limit, Brent's method and the EventHit type with the package; the step
loop, the cubic screen, the partial steps, the event scan and its record
(``RefTrajectory``, which keeps the step grid and the state at every
boundary) are its own.  It scans every event on every step, where the
package skips the steps an event's Lipschitz bound rules out.  Event functions take
``g(x, y)``; the reference calls them on the numpy scalars of an ndarray
state.  ``side_reference`` is the signed side function of each curve kind
on ndarrays, with its own nearest-point Newton iteration; it shares only
the curve's evaluation of C(s), C'(s) and C''(s).
``step_cubic`` rebuilds the cubic Hermite coefficients that the package's
event scan forms for one accepted step, from the step record alone, which
keeps no cubic.
``ScipyE5DOP853`` is scipy's own DOP853 steered by its 5th-order error
estimate alone, as the package's kernel is; it shares nothing with the
package and checks the copied tableau and the step control.
``uniqueness_probe_reference`` composes each fractional shift with
itself through two cycle detections, one at z and one at its image, where
the package reads both legs from the one cycle of z.
``ConjugatedRotation`` is a family of fields with curved sections whose
period, involutions, section times and conjugate section are closed forms.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from annulus_involutions import flow as F
from annulus_involutions.errors import DomainEscape, StepLimitExceeded
from annulus_involutions.expr import PlanarField, compile_fn, differentiate
from annulus_involutions.period import detect_cycle
from annulus_involutions.sections import _AffineSegment, make_section


def elliptic_k_quad(k: float) -> float:
    """Complete elliptic integral K(k) by adaptive quadrature."""
    f = lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2)
    val, _ = integrate.quad(f, 0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
    return val


def pendulum_period(amplitude: float) -> float:
    """Libration period of x'' = -sin x through (amplitude, 0)."""
    return 4.0 * elliptic_k_quad(math.sin(0.5 * amplitude))


def half_period_energy_quad(potential, x_left: float, x_right: float, energy: float) -> float:
    """T/2 = integral dx / sqrt(2 (E - U(x))) between the turning points.

    Substituting x = mid + half*sin(u) removes the endpoint singularity.
    """
    mid = 0.5 * (x_left + x_right)
    half = 0.5 * (x_right - x_left)

    def f(u):
        x = mid + half * math.sin(u)
        d = 2.0 * (energy - potential(x))
        if d <= 0.0:
            return 0.0
        return half * math.cos(u) / math.sqrt(d)

    val, _ = integrate.quad(f, -math.pi / 2, math.pi / 2,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def duffing_period(amplitude: float) -> float:
    """Period of x'' = -x - x^3 through (amplitude, 0), by energy quadrature."""
    u = lambda x: 0.5 * x * x + 0.25 * x ** 4
    return 2.0 * half_period_energy_quad(u, -amplitude, amplitude, u(amplitude))


def pendulum_period_energy(amplitude: float) -> float:
    """Second, independent route to the pendulum period (energy quadrature)."""
    u = lambda x: 1.0 - math.cos(x)
    return 2.0 * half_period_energy_quad(u, -amplitude, amplitude, u(amplitude))


def cubic_quarter_integral() -> float:
    """integral_0^1 (1 - t^4)^(-3/4) dt via quadrature with the algebraic
    endpoint weight split off: (1-t^4) = (1-t)(1+t)(1+t^2)."""
    f = lambda t: (1.0 + t) ** -0.75 * (1.0 + t * t) ** -0.75
    val, _ = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(0.0, -0.75),
                            epsabs=1e-14, epsrel=1e-13)
    return val


def cubic_center_period(lam: float) -> float:
    """Period of (x', y') = (-y^3, x^3) through (lam, 0).

    The field is homogeneous of degree 3, so T(lam, 0) = T(1, 0) / lam^2
    with T(1, 0) = 4 * cubic_quarter_integral().
    """
    return 4.0 * cubic_quarter_integral() / (lam * lam)


def rotation_matrix(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array(((c, -s), (s, c)))


def linear_center_flow(z, t: float) -> np.ndarray:
    """Closed-form flow of (x', y') = (-y, x): rotation by t."""
    return rotation_matrix(t) @ np.asarray(z, dtype=float)


def field_jacobian(field):
    """The exact 2x2 Jacobian of V = (P, Q), as a function of z, from the
    symbolic partials dP/dx, dP/dy, dQ/dx, dQ/dy."""
    partials = compile_fn(tuple(differentiate(e, v) for e in (field.p, field.q)
                                for v in ("x", "y")))

    def jac(z):
        px, py, qx, qy = partials(float(z[0]), float(z[1]))
        return np.array(((px, py), (qx, qy)))

    return jac


def variational_jacobian(field, z, t: float, n_steps: int = 4000) -> np.ndarray:
    """d phi(t, .) / dz at z by integrating the variational equations with a
    fixed-step classical RK4 on the augmented (state, matrix) system."""
    z = np.asarray(z, dtype=float)
    jac = field_jacobian(field)

    def rhs(state):
        pos = state[:2]
        mat = state[2:].reshape(2, 2)
        dpos = np.array(field.rhs(pos[0], pos[1]))
        dmat = jac(pos) @ mat
        return np.concatenate([dpos, dmat.ravel()])

    state = np.concatenate([z, np.eye(2).ravel()])
    h = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state[2:].reshape(2, 2)


# Frozen oracle outputs (cross-checked against 4K(sin(a/2)), 4K(k)/sqrt(1+a^2)
# with k^2 = a^2/(2(1+a^2)), and Gamma(1/4)^2/sqrt(pi) respectively).
T_PENDULUM_HALF_PI = 7.416298709205488
T_DUFFING_AMP1 = 4.768022029102461
T_CUBIC_AMP1 = 7.416298709205488


# --- reference DOP853 step loop on ndarrays -----------------------------------

# stage rows 2..12 as {row: [(stage, weight), ...]}, the 8th-order weights
# and the 5th-order error weights: flow's tableau
_REF_A = dict(enumerate(F._A, start=2))
_REF_B = F._B
_REF_E = F._E


def _ref_sum(terms, k):
    """sum of weight * k[stage] over terms, added left to right."""
    total = None
    for stage, weight in terms:
        total = weight * k[stage] if total is None else total + weight * k[stage]
    return total


def _ref_stages(rhs_s, y, f, h):
    """The stages k1..k12 of one DOP853 step of length h from y, k1 = f."""
    k = {1: f}
    for i in range(2, 13):
        k[i] = rhs_s(y + h * _ref_sum(_REF_A[i], k))
    return k


class _RefStep:
    def __init__(self, rhs_s, s0, h, y, f, c):
        self.rhs_s, self.s0, self.h = rhs_s, s0, h
        self.y, self.f = y, f
        self.c = c  # the cubic Hermite coefficients c1..c4 as c[0..3]

    def hermite(self, th):
        c1, c2, c3, c4 = self.c
        return c1 + th * (c2 + (1.0 - th) * (c3 + th * c4))

    def state(self, s):
        """The propagated solution at s: a DOP853 step of length s - s0."""
        u = s - self.s0
        if u <= 0.0:
            return self.y.copy()
        return self.y + u * _ref_sum(_REF_B, _ref_stages(self.rhs_s, self.y, self.f, u))


@dataclass
class RefTrajectory:
    """integrate_reference's record: the steps, the accepted step boundaries
    ``s_grid`` and the ``states`` there, as ndarrays."""

    direction: int
    steps: list
    s_grid: np.ndarray
    states: np.ndarray
    nrejected: int
    nfev: int
    events: list

    @property
    def naccepted(self) -> int:
        return len(self.steps)

    @property
    def z_final(self):
        return self.states[-1]

    def state(self, t):
        s = self.direction * t
        if s < -1e-12 or s > self.s_grid[-1] + 1e-12:
            raise ValueError(f"time {t} outside integrated span")
        s = min(max(s, 0.0), self.s_grid[-1])
        idx = min(max(bisect_right(self.s_grid, s) - 1, 0), len(self.steps) - 1)
        if s == self.s_grid[idx]:
            return self.states[idx]
        if s == self.s_grid[idx + 1]:
            return self.states[idx + 1]
        return self.steps[idx].state(s)


def _ref_g(ev):
    """The event function on an ndarray state, as the scan used to call it."""
    return lambda z: ev.g(z[0], z[1])


def _ref_crossed(ga, gb):
    return (ga < 0.0 < gb) or (ga > 0.0 > gb) or (gb == 0.0 and ga != 0.0)


def _ref_scan_step(step, y_end, events, g_prev, direction, zero_start):
    """Every event scanned on the step: flagged by the cubic's samples and
    the end state, then sampled and located on the propagated solution.
    Returns the hits and the number of partial steps taken."""
    hits = []
    s0, h = step.s0, step.h
    s1 = s0 + h
    fractions = [i / F._EVENT_SAMPLES for i in range(1, F._EVENT_SAMPLES + 1)]
    svals = [s0 + q * h for q in fractions]
    exact = None
    partial = {}

    def at(s):
        if s >= s1:
            return y_end
        if s <= s0:
            return step.state(s)
        if s not in partial:
            partial[s] = step.state(s)
        return partial[s]

    for k, ev in enumerate(events):
        g = _ref_g(ev)
        ga = g_prev[k]
        gvals = [g(step.hermite(q)) for q in fractions[:-1]] + [g(y_end)]
        if any(_ref_crossed(a, b) for a, b in zip([ga] + gvals[:-1], gvals)):
            if exact is None:
                exact = [at(s) for s in svals[:-1]]
            gvals[:-1] = [g(z) for z in exact]
        sa = s0
        for s_b, gb in zip(svals, gvals):
            if zero_start[k] is not None:
                if abs(gb) > zero_start[k]:
                    zero_start[k] = None
                ga, sa = gb, s_b
                continue
            if _ref_crossed(ga, gb) and (ev.direction == 0
                                         or math.copysign(1.0, gb - ga) == ev.direction):
                s_root = float(F.brent(lambda s: g(at(s)), sa, s_b, ga, gb))
                z_root = at(s_root)
                if ev.accept is None or ev.accept(z_root):
                    hits.append((s_root, F.EventHit(k, float(direction * s_root), z_root)))
            ga, sa = gb, s_b
        g_prev[k] = ga
    hits.sort(key=lambda item: item[0])
    return hits, len(partial)


def _ref_initial_step(rhs, y0, f0, rtol, atol, s_end):
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d1 < 1e-12 or d0 < 1e-12 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    y1 = y0 + h0 * f0
    f1 = rhs(y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1 / 6) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, s_end)


def integrate_reference(field, z0, t_final, cfg, events=(), bounds=None):
    """flow.integrate for a PlanarField, with every stage on ndarrays.

    The field is evaluated on the numpy scalars of the state vector.
    """
    def rhs(state):
        return np.array(field.rhs(state[0], state[1]))

    y = np.asarray(z0, dtype=float).copy()
    if t_final == 0.0:
        return RefTrajectory(1, [], np.array([0.0]), y[None, :].copy(), 0, 0, [])
    direction = 1 if t_final > 0 else -1
    s_end = abs(t_final)
    if direction == 1:
        rhs_s = rhs
    else:
        def rhs_s(state):
            return -rhs(state)

    f = rhs_s(y)
    nfev = 1
    h = _ref_initial_step(rhs_s, y, f, cfg.rtol, cfg.atol, s_end)
    nfev += 1
    events = list(events)
    g_prev = [_ref_g(ev)(y) for ev in events]
    g_floor = 1e-12 * (1.0 + float(np.linalg.norm(y)))
    zero_start = [g_floor if abs(g) < g_floor else None for g in g_prev]
    steps, boundaries, states, hits = [], [0.0], [y.copy()], []
    nrejected = 0
    s = 0.0
    terminal_hit = None
    while s < s_end:
        if len(steps) + nrejected >= F._MAX_STEPS:
            raise StepLimitExceeded(
                f"step limit {F._MAX_STEPS} reached at t={direction * s:.6g}")
        if 0.1 * h <= s * F._UROUND:  # before the clamp to the span's end
            raise StepLimitExceeded(f"step size {h:.3g} too small at t={direction * s:.6g}")
        h = min(h, s_end - s)
        k = _ref_stages(rhs_s, y, f, h)
        y_new = y + h * _ref_sum(_REF_B, k)
        nfev += 11
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = h * math.sqrt(float(np.mean((_ref_sum(_REF_E, k) / scale) ** 2)))
        if err > 1.0:
            nrejected += 1
            h *= max(F._MIN_FACTOR, F._SAFETY * err ** (-1 / 6))
            continue
        k[13] = rhs_s(y_new)
        nfev += 1
        ydiff = y_new - y
        step = _RefStep(rhs_s, s, h, y.copy(), k[1],
                        [y.copy(), ydiff, h * k[1] - ydiff, 2.0 * ydiff - h * (k[13] + k[1])])
        steps.append(step)
        s += h
        boundaries.append(s)
        states.append(y_new.copy())
        if events:
            found, partial = _ref_scan_step(step, y_new, events, g_prev, direction,
                                            zero_start)
            nfev += 11 * partial
            for _, hit in found:
                hits.append(hit)
                if events[hit.index].terminal:
                    terminal_hit = hit
                    break
            if terminal_hit is not None:
                break
        if bounds is not None and not (bounds[0] <= y_new[0] <= bounds[1]
                                       and bounds[2] <= y_new[1] <= bounds[3]):
            raise DomainEscape(
                f"state ({y_new[0]:.6g}, {y_new[1]:.6g}) left the working domain "
                f"at t={direction * s:.6g}")
        y = y_new
        f = k[13]
        factor = (F._MAX_FACTOR if err == 0.0 else
                  min(F._MAX_FACTOR, max(F._MIN_FACTOR, F._SAFETY * err ** (-1 / 6))))
        h *= factor
    return RefTrajectory(direction, steps, np.array(boundaries), np.array(states),
                         nrejected, nfev, hits)


def step_cubic(traj, i, rhs):
    """The cubic Hermite coefficients (c2x, c2y, c3x, c3y, c4x, c4y) that the
    event scan forms for accepted step i of a package Trajectory, in its
    operation order with hs = direction * h: from the step's start and
    field, and the next step's start and field, or for the last step
    ``z_final`` and ``rhs(z_final)``."""
    _, h, x, y, fx, fy = traj.steps[i]
    if i + 1 < len(traj.steps):
        xn, yn, fxn, fyn = traj.steps[i + 1][2:]
    else:
        xn, yn = traj.z_final
        fxn, fyn = rhs(xn, yn)
    hs = traj.direction * h
    dx, dy = xn - x, yn - y
    return (dx, dy, hs * fx - dx, hs * fy - dy,
            2.0 * dx - hs * (fxn + fx), 2.0 * dy - hs * (fyn + fy))


def hermite(step, cubic, th):
    """The cubic c1 + th (c2 + (1-th) (c3 + th c4)) of a step at the fraction
    th, with ``cubic`` from ``step_cubic``, in the scan's operation order."""
    x, y = step[2:4]
    c2x, c2y, c3x, c3y, c4x, c4y = cubic
    return (x + th * (c2x + (1.0 - th) * (c3x + th * c4x)),
            y + th * (c2y + (1.0 - th) * (c3y + th * c4y)))


class ScipyE5DOP853(integrate.DOP853):
    """scipy's DOP853 with the error norm |h| * RMS(sum_j E5_j k_j / scale)
    and the exponent -1/6 (error_estimator_order 5).  Unlike the package,
    it does not let a step grow right after a rejection, so only accepted
    steps are comparable."""

    error_estimator_order = 5

    def _estimate_error_norm(self, K, h, scale):
        return abs(h) * np.linalg.norm(K.T @ self.E5 / scale) / math.sqrt(len(scale))


def scipy_dop853(field, z0, t0, t_bound, cfg, first_step):
    """A ScipyE5DOP853 solver for the field from z0 at time t0."""
    return ScipyE5DOP853(lambda t, z: np.array(field.rhs(z[0], z[1])), t0,
                         np.asarray(z0, dtype=float), t_bound, rtol=cfg.rtol,
                         atol=cfg.atol, first_step=first_step)


# --- reference section side functions on ndarrays ------------------------------

def _project_reference(curve, z) -> float:
    """Nearest-point parameter of a curved section: argmin over the fine
    polyline, then Newton on |z - C(s)|^2 clamped to the range."""
    ss = np.linspace(curve.s_min, curve.s_max, max(8 * (len(curve.grid) - 1) + 1, 65))
    pts = np.array([curve.jet(float(s))[:2] for s in ss])
    i = int(np.argmin((pts[:, 0] - z[0]) ** 2 + (pts[:, 1] - z[1]) ** 2))
    s = float(ss[i])
    span = curve.s_max - curve.s_min
    for _ in range(30):
        cx, cy, tx, ty, c2x, c2y = curve.jet(s)
        r = z - (cx, cy)
        h = r[0] * tx + r[1] * ty
        hp = -(tx * tx + ty * ty) + r[0] * c2x + r[1] * c2y
        if hp == 0.0:
            break
        s_new = min(max(s - h / hp, curve.s_min), curve.s_max)
        if abs(s_new - s) < 1e-14 * span:
            s = s_new
            break
        s = s_new
    return s


def side_reference(curve, z) -> float:
    """Signed offset of z along the section's unit normal: exact for a
    straight segment a + s d (divided by |d|), and at the projected point
    of a curved (expression or tabulated) section."""
    z = np.asarray(z, dtype=float)
    if isinstance(curve, _AffineSegment):
        a, d = np.array([curve.ax, curve.ay]), np.array([curve.dx, curve.dy])
        dd = d[0] * d[0] + d[1] * d[1]
        return (d[0] * (z[1] - a[1]) - d[1] * (z[0] - a[0])) / math.sqrt(dd)
    cx, cy, tx, ty, _, _ = curve.jet(_project_reference(curve, z))
    return (tx * (z[1] - cy) - ty * (z[0] - cx)) / math.hypot(tx, ty)


# --- reference uniqueness probe: each leg from its own cycle detection ---------

def uniqueness_probe_reference(field, z, fractions, cfg):
    """|sigma_f(sigma_f(z)) - z| per fraction, sigma_f(w) = phi(f T(w), w),
    with the two legs read from two cycle detections: z1 = sigma_f(z) from
    the cycle of z, then sigma_f(z1) from the cycle detected again at z1."""
    cyc = detect_cycle(field, z, cfg)
    out = []
    for f in fractions:
        z1 = cyc.trajectory.state(f * cyc.period)
        cyc1 = detect_cycle(field, z1, cfg)
        out.append(math.dist(cyc1.trajectory.state(f * cyc1.period), z))
    return out


# --- conjugated rotations: exact answers on curved sections --------------------

@dataclass(frozen=True)
class ConjugatedRotation:
    """The rotation V0 = w(u^2 + v^2) (-v, u), w(rho) = 1 + b rho, carried
    by the polynomial diffeomorphism Psi = S2 o S1, S1(u, v) = (u, v + a u^2),
    S2(u, v) = (u + c v^2, v), with the section Psi o delta0 for the spiral
    delta0(s) = s (cos ks, sin ks) on [0.2, 1.0].

    Both involutions are natural under conjugacy, so with p = Psi^-1(z),
    r = |p| and phi = arg p every answer is closed: T = 2 pi / w(r^2),
    sigma_sym(z) = Psi(-p), tau(z) = wrap(k r - phi) / w with wrap into
    (-pi, pi], sigma_R(z) = Psi(r cos(2 k r - phi), r sin(2 k r - phi)) and
    delta*(s) = Psi(-delta0(s)).  The spiral's radial speed is 1, so it is
    transversal to every circle and meets each once.  The field and the
    section are built from text, as a user would write them.
    """

    a: float
    c: float
    b: float
    k: float

    S_RANGE = (0.2, 1.0)

    def field(self):
        a, c, b = f"({self.a!r})", f"({self.c!r})", f"({self.b!r})"
        u = f"(x - {c}*y^2)"
        v = f"(y - {a}*{u}^2)"
        w = f"(1 + {b}*({u}^2 + {v}^2))"
        # Q = dY/dt and P = dX/dt, X = u + c Y^2, at Y = y
        q = f"{w}*{u}*(1 - 2*{a}*{v})"
        return PlanarField.from_strings(f"-{w}*{v} + 2*{c}*y*{q}", q, name="conjugated-rotation")

    def _spiral(self, field, sign, name, angle=None):
        """Psi o (sign s (cos angle, sin angle)) as a section built from its
        text; the angle is k s, that of delta0, unless given."""
        a, c, k = f"({self.a!r})", f"({self.c!r})", f"({self.k!r})"
        angle = angle or f"{k}*s"
        u, v = f"({sign}s*cos({angle}))", f"({sign}s*sin({angle}))"
        y = f"({v} + {a}*{u}^2)"
        return make_section(field, f"{u} + {c}*{y}^2", y, self.S_RANGE, name=name)

    def section(self, field):
        return self._spiral(field, "", "spiral")

    def star_section(self, field):
        """delta* = Psi(-delta0) from its text, exact where the package's
        conjugate section is a spline through its grid points."""
        return self._spiral(field, "-", "spiral_star")

    def flowed_section(self, field, m):
        """delta'(s) = phi(c(s), delta(s)) for c(s) = m s^2 / w(s^2): the flow
        turns delta(s) on by the angle m s^2, so delta' = Psi o s (cos(k s +
        m s^2), sin(k s + m s^2)), built from its text.  Its radial speed is
        1, so it is transversal to every circle and meets each once."""
        return self._spiral(field, "", "flowed", f"({self.k!r})*s + ({m!r})*s^2")

    def flow_time(self, z, m):
        """c(r) = m r^2 / w(r^2) at r = |Psi^-1(z)|: the time that carries
        delta to the flowed section on the cycle through z."""
        r, _, w = self._polar(z)
        return m * r * r / w

    def psi(self, u, v):
        y = v + self.a * u * u
        return u + self.c * y * y, y

    def _polar(self, z):
        """(r, phi, w(r^2)) at p = Psi^-1(z)."""
        u = z[0] - self.c * z[1] * z[1]
        v = z[1] - self.a * u * u
        r = math.hypot(u, v)
        return r, math.atan2(v, u), 1.0 + self.b * r * r

    def period(self, z):
        return 2.0 * math.pi / self._polar(z)[2]

    def sigma_sym(self, z):
        r, phi, _ = self._polar(z)
        return self.psi(-r * math.cos(phi), -r * math.sin(phi))

    def tau(self, z, shift=0.0):
        """Signed time to the section, or to delta* with shift = pi."""
        r, phi, w = self._polar(z)
        x = self.k * r + shift - phi
        return (x - 2.0 * math.pi * math.ceil((x - math.pi) / (2.0 * math.pi))) / w

    def sigma_rev(self, z, m=0.0):
        """The reversibility of delta, or of the flowed section for m."""
        r, phi, _ = self._polar(z)
        angle = 2.0 * (self.k * r + m * r * r) - phi
        return self.psi(r * math.cos(angle), r * math.sin(angle))

    def delta_star(self, s):
        return self.psi(-s * math.cos(self.k * s), -s * math.sin(self.k * s))
