"""Cycle detection and the period function on a period annulus.

The cycle through z is found by first return to the local transversal
through z normal to V(z), with the crossing direction matched to the
initial departure, so the half-period crossing of symmetric orbits is
rejected and the minimal period comes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SAMPLE_FAILURES, CriticalPointError, DomainEscape, NotACycle
from .expr import PlanarField
from .flow import (MAX_HORIZON, EventSpec, IntegratorConfig, Point, Trajectory, as_point, flow,
                   integrate)
from .memo import memoized

__all__ = ["Cycle", "AnnulusSample", "detect_cycle", "period", "sample_annulus"]

_CRITICAL_SPEED = 1e-12


@dataclass
class Cycle:
    """A closed orbit: base point, minimal period, dense trajectory over it."""

    base_point: Point
    period: float
    trajectory: Trajectory
    closure_residual: float


def detect_cycle(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig()) -> Cycle:
    """Detect the cycle through z and return it with its minimal period.

    Raises CriticalPointError if V(z) ~ 0, NotACycle if the orbit does not
    return to the transversal (within the horizon and domain) or the
    closure residual exceeds 1e-8 * (1 + |z|).
    """
    z = zx, zy = as_point(z)
    vx, vy = field.rhs(zx, zy)
    speed = math.hypot(vx, vy)
    if speed <= _CRITICAL_SPEED:
        raise CriticalPointError(
            f"({zx:.6g}, {zy:.6g}) is a critical point (|V| = {speed:.3g})"
        )
    vx, vy = vx / speed, vy / speed
    # g is the offset along the unit vector vhat, so |grad g| = 1
    event = EventSpec(g=lambda px, py: (px - zx) * vx + (py - zy) * vy,
                      direction=1, terminal=True, lipschitz=1.0)
    try:
        traj = integrate(field.rhs, z, MAX_HORIZON, cfg, events=[event],
                         bounds=field.contains)
    except DomainEscape as exc:
        raise NotACycle(f"orbit of ({z[0]:.6g}, {z[1]:.6g}) left the domain: {exc}") from exc
    if not traj.events:
        raise NotACycle(
            f"no return to the transversal within t = {MAX_HORIZON:.6g} "
            f"(not a cycle, or annulus boundary)"
        )
    hit = traj.events[0]
    closure = math.dist(hit.z, z)
    tol = 1e-8 * (1.0 + math.hypot(zx, zy))
    if closure > tol:
        raise NotACycle(
            f"first return misses the base point by {closure:.3g} (> {tol:.3g}); "
            f"not a simple cycle through ({z[0]:.6g}, {z[1]:.6g})"
        )
    if hit.t <= 0.0:
        raise NotACycle("non-positive return time")
    return Cycle(base_point=z, period=hit.t, trajectory=traj,
                 closure_residual=closure)


def _half_period(field: PlanarField, z, cfg: IntegratorConfig) -> tuple[float, Point, float]:
    """(T(z), w, dt) from one cycle detection, where w is the start of the
    accepted step holding T/2 and dt the time from w to T/2 (see
    ``Trajectory.step_start``); memoized inside a suite scope (see
    :mod:`.memo`)."""
    z = as_point(z)

    def detect():
        cyc = detect_cycle(field, z, cfg)
        return cyc.period, *cyc.trajectory.step_start(0.5 * cyc.period)

    return memoized(("half_period", field, cfg), z, detect)


def _half_period_image(field: PlanarField, z, cfg: IntegratorConfig) -> tuple[float, Point]:
    """(T(z), phi(T/2, z)): the image is the cycle detection's state at T/2,
    integrated afresh from the start of the step holding it, so its error is
    the propagated solution's and not the dense output's; memoized inside a
    suite scope."""
    z = as_point(z)

    def advance():
        t_period, w, dt = _half_period(field, z, cfg)
        return t_period, flow(field, w, dt, cfg)

    return memoized(("half_period_image", field, cfg), z, advance)


def period(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Minimal positive period T(z) of the cycle through z."""
    return _half_period(field, z, cfg)[0]


@dataclass
class AnnulusSample:
    """Cycles detected along a seed curve, one per parameter value."""

    params: list[float]
    cycles: list[Cycle | None]
    errors: list[tuple[float, str]]

    @property
    def ok(self) -> bool:
        return not self.errors

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        return [(s, *c.base_point, c.period, c.closure_residual)
                for s, c in zip(self.params, self.cycles) if c is not None]


def sample_annulus(field: PlanarField, seed, params,
                   cfg: IntegratorConfig = IntegratorConfig()) -> AnnulusSample:
    """Detect one cycle per seed parameter; per-point failures are recorded,
    not raised."""
    params = [float(s) for s in params]
    cycles: list[Cycle | None] = []
    errors: list[tuple[float, str]] = []
    for s in params:
        try:
            cycles.append(detect_cycle(field, seed.point(s), cfg))
        except SAMPLE_FAILURES as exc:
            cycles.append(None)
            errors.append((s, str(exc)))
    return AnnulusSample(params=params, cycles=cycles, errors=errors)
