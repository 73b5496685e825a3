"""Independent oracles for the test suite.

Everything here deliberately avoids the package's adaptive integrator and
event machinery: periods come from adaptive quadrature of energy integrals,
flow-map Jacobians from a fixed-step classical RK4 run of the variational
equations (with the field's partials differentiated symbolically here),
and the linear center from closed forms.  Expected values frozen
in the tests were computed with these routines (cross-checked against
special-function identities where available).

The exceptions are the ndarray references that the package's scalar code
must reproduce bit for bit.  ``integrate_reference`` is the Dormand-Prince
step loop and the event scan written on 2-element ndarrays.  It shares
the tableau, Brent's method and the Trajectory type with the package; the
step loop, dense output and event scan are its own.  Event functions take
``g(x, y)``; the reference calls them on the numpy scalars of an ndarray
state.  ``side_reference`` is the signed side function of each curve kind
on ndarrays, with its own nearest-point Newton iteration; it shares only
the curve's evaluation of C(s), C'(s) and C''(s).
"""

import math

import numpy as np
from scipy import integrate

from annulus_involutions import flow as F
from annulus_involutions.errors import DomainEscape, StepLimitExceeded
from annulus_involutions.expr import compile_fn, differentiate
from annulus_involutions.sections import _AffineSegment


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


# --- reference DP5(4) step loop on ndarrays ----------------------------------

class _RefStep:
    def __init__(self, s0, h, c1, c2, c3, c4, c5):
        self.s0, self.h = s0, h
        self.c1, self.c2, self.c3, self.c4, self.c5 = c1, c2, c3, c4, c5

    def at(self, s):
        th = (s - self.s0) / self.h
        if th <= 0.0:
            return self.c1.copy()
        if th >= 1.0:
            return self.c1 + self.c2
        om = 1.0 - th
        return self.c1 + th * (self.c2 + om * (self.c3 + th * (self.c4 + om * self.c5)))


def _ref_g(ev):
    """The event function on an ndarray state, as the scan used to call it."""
    return lambda z: ev.g(z[0], z[1])


def _ref_scan_step(step, events, g_prev, direction, zero_start):
    hits = []
    s0, h = step.s0, step.h
    svals = [s0 + (i / F._EVENT_SAMPLES) * h for i in range(1, F._EVENT_SAMPLES + 1)]
    for k, ev in enumerate(events):
        g = _ref_g(ev)
        ga = g_prev[k]
        sa = s0
        for s_b in svals:
            gb = g(step.at(s_b))
            if zero_start[k] is not None:
                if abs(gb) > zero_start[k]:
                    zero_start[k] = None
                ga, sa = gb, s_b
                continue
            crossed = (ga < 0.0 < gb) or (ga > 0.0 > gb) or (gb == 0.0 and ga != 0.0)
            if crossed and (ev.direction == 0 or math.copysign(1.0, gb - ga) == ev.direction):
                s_root = float(F.brent(lambda s: g(step.at(s)), sa, s_b, ga, gb))
                z_root = step.at(s_root)
                if ev.accept is None or ev.accept(z_root):
                    hits.append((s_root, F.EventHit(k, float(direction * s_root), z_root)))
            ga, sa = gb, s_b
        g_prev[k] = ga
    hits.sort(key=lambda item: item[0])
    return hits


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
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, s_end)


def integrate_reference(field, z0, t_final, cfg, events=(), bounds=None):
    """flow.integrate for a PlanarField, with every stage on ndarrays.

    The field is evaluated on the numpy scalars of the state vector.
    """
    def rhs(state):
        return np.array(field.rhs(state[0], state[1]))

    y = np.asarray(z0, dtype=float).copy()
    if t_final == 0.0:
        return F.Trajectory(1, [], np.array([0.0]), y[None, :].copy(), 0, 0, 0)
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
    naccepted = nrejected = 0
    s = 0.0
    terminal_hit = None
    while s < s_end:
        if naccepted + nrejected >= cfg.max_steps:
            raise StepLimitExceeded(
                f"step limit {cfg.max_steps} reached at t={direction * s:.6g}")
        h = min(h, s_end - s)
        k1 = f
        k2 = rhs_s(y + h * (F._A21 * k1))
        k3 = rhs_s(y + h * (F._A31 * k1 + F._A32 * k2))
        k4 = rhs_s(y + h * (F._A41 * k1 + F._A42 * k2 + F._A43 * k3))
        k5 = rhs_s(y + h * (F._A51 * k1 + F._A52 * k2 + F._A53 * k3 + F._A54 * k4))
        k6 = rhs_s(y + h * (F._A61 * k1 + F._A62 * k2 + F._A63 * k3 + F._A64 * k4
                            + F._A65 * k5))
        y_new = y + h * (F._A71 * k1 + F._A73 * k3 + F._A74 * k4 + F._A75 * k5
                         + F._A76 * k6)
        k7 = rhs_s(y_new)
        nfev += 6
        err_vec = h * (F._E1 * k1 + F._E3 * k3 + F._E4 * k4 + F._E5 * k5 + F._E6 * k6
                       + F._E7 * k7)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if err > 1.0:
            nrejected += 1
            h *= max(F._MIN_FACTOR, F._SAFETY * err ** -0.2)
            continue
        ydiff = y_new - y
        c3 = h * k1 - ydiff
        step = _RefStep(s, h, y.copy(), ydiff, c3, ydiff - h * k7 - c3,
                        h * (F._D1 * k1 + F._D3 * k3 + F._D4 * k4 + F._D5 * k5
                             + F._D6 * k6 + F._D7 * k7))
        steps.append(step)
        s += h
        boundaries.append(s)
        states.append(y_new.copy())
        naccepted += 1
        if events:
            for _, hit in _ref_scan_step(step, events, g_prev, direction, zero_start):
                hits.append(hit)
                if events[hit.index].terminal:
                    terminal_hit = hit
                    break
            if terminal_hit is not None:
                break
        if bounds is not None and not bounds(y_new):
            raise DomainEscape(
                f"state ({y_new[0]:.6g}, {y_new[1]:.6g}) left the working domain "
                f"at t={direction * s:.6g}")
        y = y_new
        f = k7
        factor = (F._MAX_FACTOR if err == 0.0 else
                  min(F._MAX_FACTOR, max(F._MIN_FACTOR, F._SAFETY * err ** -0.2)))
        h *= factor
    return F.Trajectory(direction, steps, np.array(boundaries), np.array(states),
                        naccepted, nrejected, nfev, hits)


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
