"""The half-period symmetry involution sigma(z) = phi(T(z)/2, z).

Advancing every point half a period around its own cycle commutes with the
flow, squares to the identity, and keeps each cycle invariant; among
cycle-preserving flow-commuting involutions it is the only non-trivial one,
which the f-grid uniqueness probe checks in discretized form.
"""

from __future__ import annotations

import math

from .expr import PlanarField
from .flow import IntegratorConfig, Point, flow
from .memo import suite_scope
from .period import _half_period, detect_cycle, period
from .verify import (
    VerificationReport,
    _run_samples,
    check_commutation,
    check_energy_invariance,
    check_field_condition,
    check_involution,
    check_lower_bound,
    check_period_invariance,
    config_digest,
)

__all__ = ["SymmetryInvolution", "sigma_symmetric", "uniqueness_probe",
           "verify_sigma_symmetry"]


class SymmetryInvolution:
    """Evaluatable half-period map bound to a field and integrator settings.

    Each evaluation detects the cycle through its point and reads the image
    off that one integration (see :func:`sigma_symmetric`).  Inside a suite
    scope the period and the image of a point are detected once.
    """

    def __init__(self, field: PlanarField, cfg: IntegratorConfig = IntegratorConfig()):
        self.field = field
        self.cfg = cfg

    def period_of(self, z) -> float:
        return period(self.field, z, self.cfg)

    def __call__(self, z) -> Point:
        return sigma_symmetric(self.field, z, self.cfg)


def sigma_symmetric(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """Advance z half a period along its cycle.

    The image is read from the dense output of the cycle-detection
    integration, which already covers [0, T].
    """
    return _half_period(field, z, cfg)[1]


def uniqueness_probe(field: PlanarField, z, fractions,
                     cfg: IntegratorConfig = IntegratorConfig()) -> list[float]:
    """Involution residuals |sigma_f(sigma_f(z)) - z| of the fractional shifts
    sigma_f(w) = phi(f*T(w), w), one per fraction f in (0, 1).

    Only f = 1/2 gives a residual at integration-error level; every other
    fraction leaves the point displaced along its cycle.  The cycle through
    z is detected once.  Off the half, both legs are read from the dense
    output of the cycle detections of z and of its image; at f = 1/2 both
    legs are fresh flows, whose endpoint error sets the residual.
    """
    cyc = detect_cycle(field, z, cfg)
    residuals = []
    for f in fractions:
        if f == 0.5:
            z1 = flow(field, z, f * cyc.period, cfg)
            z2 = flow(field, z1, f * period(field, z1, cfg), cfg)
        else:
            z1 = cyc.trajectory.state(f * cyc.period)
            cyc1 = detect_cycle(field, z1, cfg)
            z2 = cyc1.trajectory.state(f * cyc1.period)
        residuals.append(math.dist(z2, z))
    return residuals


def verify_sigma_symmetry(
    field: PlanarField,
    samples,
    times,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> VerificationReport:
    """Run the symmetry identity suite over the samples and times."""
    samples, times = list(samples), list(times)  # each check reads them again
    sigma = SymmetryInvolution(field, cfg)
    threshold = 0.1  # non-triviality: the largest |sigma(z) - z| must exceed it
    with suite_scope():
        checks = [
            check_involution(sigma, samples),
            check_commutation(field, sigma, +1, samples, times, cfg),
            check_period_invariance(field, sigma, samples, cfg),
            check_field_condition(field, sigma, +1, samples),
        ]
        if field.hamiltonian is not None:
            checks.append(check_energy_invariance(field, sigma, samples))
        moves = _run_samples("non_triviality", threshold, samples,
                             lambda z: [(math.dist(sigma(z), z), None)])
    best = -math.inf if moves.worst_point is None else moves.max_residual
    nontrivial = check_lower_bound("non_triviality", best, threshold,
                                   worst_point=moves.worst_point)
    # a sample that failed leaves the bound unproven, as in every check
    nontrivial.errors.extend(moves.errors)
    nontrivial.passed = nontrivial.passed and not moves.errors
    checks.append(nontrivial)
    provenance = {
        "field": field.name,
        "construction": "half_period_symmetry",
        "config_digest": config_digest({"rtol": cfg.rtol, "atol": cfg.atol,
                                        "samples": len(samples), "times": len(times)}),
    }
    return VerificationReport(checks=checks, provenance=provenance)
