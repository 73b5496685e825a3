"""Cycle detection and the period function on a period annulus.

The cycle through z is found by first return to the local transversal
through z normal to V(z), with the crossing direction matched to the
initial departure, so the half-period crossing of symmetric orbits is
rejected and the minimal period comes back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SAMPLE_FAILURES, CriticalPointError, DomainEscape, NotACycle
from .expr import PlanarField
from .flow import EventSpec, IntegratorConfig, Trajectory, integrate
from .memo import memoized

__all__ = ["Cycle", "AnnulusSample", "detect_cycle", "period", "sample_annulus"]

_CRITICAL_SPEED = 1e-12


@dataclass
class Cycle:
    """A closed orbit: base point, minimal period, dense trajectory over it."""

    base_point: np.ndarray
    period: float
    trajectory: Trajectory
    closure_residual: float


def detect_cycle(field: PlanarField, z, cfg: IntegratorConfig | None = None) -> Cycle:
    """Detect the cycle through z and return it with its minimal period.

    Raises CriticalPointError if V(z) ~ 0, NotACycle if the orbit does not
    return to the transversal (within the horizon and domain) or the
    closure residual exceeds 1e-8 * (1 + |z|).
    """
    cfg = cfg or IntegratorConfig()
    z = np.asarray(z, dtype=float)
    v = field.velocity(z)
    speed = float(np.linalg.norm(v))
    if speed <= _CRITICAL_SPEED:
        raise CriticalPointError(
            f"({z[0]:.6g}, {z[1]:.6g}) is a critical point (|V| = {speed:.3g})"
        )
    vhat = v / speed
    zx, zy = float(z[0]), float(z[1])
    vx, vy = float(vhat[0]), float(vhat[1])
    event = EventSpec(g=lambda px, py: (px - zx) * vx + (py - zy) * vy,
                      direction=1, terminal=True)
    try:
        traj = integrate(field.rhs, z, cfg.max_horizon, cfg, events=[event],
                         bounds=field.contains)
    except DomainEscape as exc:
        raise NotACycle(f"orbit of ({z[0]:.6g}, {z[1]:.6g}) left the domain: {exc}") from exc
    if not traj.events:
        raise NotACycle(
            f"no return to the transversal within t = {cfg.max_horizon:.6g} "
            f"(not a cycle, or annulus boundary)"
        )
    hit = traj.events[0]
    closure = float(np.linalg.norm(hit.z - z))
    tol = 1e-8 * (1.0 + float(np.linalg.norm(z)))
    if closure > tol:
        raise NotACycle(
            f"first return misses the base point by {closure:.3g} (> {tol:.3g}); "
            f"not a simple cycle through ({z[0]:.6g}, {z[1]:.6g})"
        )
    if hit.t <= 0.0:
        raise NotACycle("non-positive return time")
    return Cycle(base_point=z.copy(), period=hit.t, trajectory=traj,
                 closure_residual=closure)


def _half_period(field: PlanarField, z, cfg: IntegratorConfig) -> tuple[float, np.ndarray]:
    """(T(z), phi(T/2, z)), both read from one cycle detection; memoized
    inside a suite scope (see :mod:`.memo`)."""
    z = np.asarray(z, dtype=float)

    def detect():
        cyc = detect_cycle(field, z, cfg)
        return cyc.period, cyc.trajectory.state(0.5 * cyc.period)

    return memoized(("half_period", field, cfg, z.tobytes()), detect)


def period(field: PlanarField, z, cfg: IntegratorConfig | None = None) -> float:
    """Minimal positive period T(z) of the cycle through z."""
    return _half_period(field, z, cfg or IntegratorConfig())[0]


@dataclass
class AnnulusSample:
    """Cycles detected along a seed curve, one per parameter value."""

    params: np.ndarray
    cycles: list[Cycle | None]
    errors: list[tuple[float, str]]

    @property
    def ok(self) -> bool:
        return not self.errors

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        out = []
        for s, c in zip(self.params, self.cycles):
            if c is not None:
                out.append((float(s), float(c.base_point[0]), float(c.base_point[1]),
                            c.period, c.closure_residual))
        return out

    def to_csv(self) -> str:
        lines = ["s,x0,y0,T,closure_residual"]
        for row in self.rows():
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def sample_annulus(field: PlanarField, seed, params, cfg: IntegratorConfig | None = None) -> AnnulusSample:
    """Detect one cycle per seed parameter; per-point failures are recorded,
    not raised."""
    cfg = cfg or IntegratorConfig()
    params = np.asarray(params, dtype=float)
    cycles: list[Cycle | None] = []
    errors: list[tuple[float, str]] = []
    for s in params:
        z = seed.point(float(s))
        try:
            cycles.append(detect_cycle(field, z, cfg))
        except SAMPLE_FAILURES as exc:
            cycles.append(None)
            errors.append((float(s), str(exc)))
    return AnnulusSample(params=params, cycles=cycles, errors=errors)
