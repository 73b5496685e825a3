"""Cycle detection and the period function on a period annulus.

The cycle through z is found by first return to the local transversal
through z normal to V(z), with the crossing direction matched to the
initial departure, so the half-period crossing of symmetric orbits is
rejected and the minimal period comes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CriticalPointError, DomainEscape, NotACycle
from .expr import PlanarField
from .flow import MAX_HORIZON, EventSpec, IntegratorConfig, Point, Trajectory, as_point, integrate
from .memo import memoized

__all__ = ["Cycle", "detect_cycle", "period"]

_CRITICAL_SPEED = 1e-12


@dataclass
class Cycle:
    """A closed orbit: base point, minimal period, and the trajectory over
    it, whose ``state`` reads the propagated solution at any time in
    [0, T]."""

    base_point: Point
    period: float
    trajectory: Trajectory
    closure_residual: float


def detect_cycle(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig(), *,
                 events: Sequence[EventSpec] = ()) -> Cycle:
    """Detect the cycle through z and return it with its minimal period.

    Raises CriticalPointError if V(z) ~ 0, NotACycle if the orbit does not
    return to the transversal (within the horizon and domain) or the
    closure residual exceeds 1e-8 * (1 + |z|).  ``events``, all
    non-terminal, are watched on the same integration (their hits are the
    trajectory's events of index 1, 2, ...); they do not steer step
    control, so the cycle keeps its bits.
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
        traj = integrate(field.rhs, z, MAX_HORIZON, cfg, events=[event, *events],
                         bounds=field.contains)
    except DomainEscape as exc:
        raise NotACycle(f"orbit of ({z[0]:.6g}, {z[1]:.6g}) left the domain: {exc}") from exc
    if not traj.events or traj.events[-1].index != 0:
        raise NotACycle(
            f"no return to the transversal within t = {MAX_HORIZON:.6g} "
            f"(not a cycle, or annulus boundary)"
        )
    hit = traj.events[-1]
    closure = math.dist(hit.z, z)
    tol = 1e-8 * (1.0 + math.hypot(zx, zy))
    if closure > tol:
        raise NotACycle(
            f"first return misses the base point by {closure:.3g} (> {tol:.3g}); "
            f"not a simple cycle through ({z[0]:.6g}, {z[1]:.6g})"
        )
    return Cycle(base_point=z, period=hit.t, trajectory=traj,
                 closure_residual=closure)


def _half_period_image(field: PlanarField, z, cfg: IntegratorConfig,
                       cycle: Cycle | None = None) -> tuple[float, Point]:
    """(T(z), phi(T/2, z)): the image is the state at T/2 of the cycle
    through z, one partial step of its propagated solution.  The cycle is
    detected here unless the caller has detected it (``cycle``).  This is
    the construction's one record: inside a suite scope it is memoized,
    failure included (see :mod:`.memo`), and the period and the image of
    a point are read from it."""
    z = as_point(z)

    def record():
        cyc = detect_cycle(field, z, cfg) if cycle is None else cycle
        return cyc.period, cyc.trajectory.state(0.5 * cyc.period)

    return memoized(("half_period_image", field, cfg), z, record)


def period(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Minimal positive period T(z) of the cycle through z, from one cycle
    detection per call (never memoized)."""
    return detect_cycle(field, z, cfg).period
