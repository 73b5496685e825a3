"""The half-period symmetry involution sigma(z) = phi(T(z)/2, z).

Advancing every point half a period around its own cycle commutes with the
flow, squares to the identity, and keeps each cycle invariant; among
cycle-preserving flow-commuting involutions it is the only non-trivial one,
which the f-grid uniqueness probe checks in discretized form.
"""

from __future__ import annotations

import math

from .errors import SAMPLE_FAILURES
from .expr import PlanarField
from .flow import IntegratorConfig, Point
from .memo import suite_scope
from .period import _half_period_image, detect_cycle
from .sections import Section
from .verify import (
    CheckResult,
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

_UNIQUENESS_GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95


class SymmetryInvolution:
    """Evaluatable half-period map bound to a field and integrator settings.

    Each evaluation detects the cycle through its point and reads the image
    off that integration (see :func:`sigma_symmetric`).  ``period_of`` reads
    T from the same record, so inside a suite scope the period and the
    image of a point come from one detection.
    """

    def __init__(self, field: PlanarField, cfg: IntegratorConfig = IntegratorConfig()):
        self.field = field
        self.cfg = cfg

    def period_of(self, z) -> float:
        return _half_period_image(self.field, z, self.cfg)[0]

    def __call__(self, z) -> Point:
        return sigma_symmetric(self.field, z, self.cfg)


def sigma_symmetric(field: PlanarField, z, cfg: IntegratorConfig = IntegratorConfig()) -> Point:
    """Advance z half a period along its cycle.

    The image is the state at T/2 of the cycle detection, which already
    covers [0, T]: one partial step of its propagated solution.
    """
    return _half_period_image(field, z, cfg)[1]


def uniqueness_probe(field: PlanarField, z, fractions,
                     cfg: IntegratorConfig = IntegratorConfig()) -> list[float]:
    """Involution residuals |sigma_f(sigma_f(z)) - z| of the fractional shifts
    sigma_f(w) = phi(f*T(w), w), one per fraction f in (0, 1).

    Only f = 1/2 gives a residual at integration-error level; every other
    fraction leaves the point displaced along its cycle.  The cycle through
    z is detected once, and off the half both legs are read from it:
    phi(f T, phi(f T, z)) = phi(((2f) mod 1) T, z).  At f = 1/2 the shift
    is :func:`sigma_symmetric` applied twice, so inside a suite scope its
    first leg is the record the suite already holds for z.
    """
    cyc = detect_cycle(field, z, cfg)
    residuals = []
    for f in fractions:
        if f == 0.5:
            z2 = sigma_symmetric(field, sigma_symmetric(field, z, cfg), cfg)
        else:
            z2 = cyc.trajectory.state(((2.0 * f) % 1.0) * cyc.period)
        residuals.append(math.dist(z2, z))
    return residuals


def _uniqueness_checks(field: PlanarField, section: Section, cfg) -> list[CheckResult]:
    """The half shift must square to the identity; every other shift on
    the grid must miss the identity by a margin."""
    half_tol = 1e-8
    z_probe = section.point(0.5 * (section.s_min + section.s_max))
    try:
        probe = uniqueness_probe(field, z_probe, _UNIQUENESS_GRID, cfg)
    except SAMPLE_FAILURES as exc:
        failed = CheckResult("uniqueness_half_shift", float("inf"), half_tol,
                             z_probe, None, errors=[str(exc)])
        failed_off = CheckResult("uniqueness_off_half_shifts", float("inf"), 0.0,
                                 None, None, errors=[str(exc)])
        return [failed, failed_off]
    residuals = dict(zip(_UNIQUENESS_GRID, probe))
    at_half = residuals[0.5]
    off_half = min(v for f, v in residuals.items() if f != 0.5)
    return [
        CheckResult("uniqueness_half_shift", at_half, half_tol, z_probe, None,
                    extras={"fraction": 0.5}),
        check_lower_bound("uniqueness_off_half_shifts", off_half, 1e-3,
                          worst_point=z_probe),
    ]


def verify_sigma_symmetry(
    field: PlanarField,
    section: Section,
    samples,
    times,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> VerificationReport:
    """Run the symmetry identity suite over the samples and times, then
    the uniqueness probe at the midpoint of the section."""
    samples, times = list(samples), list(times)  # each check reads them again
    sigma = SymmetryInvolution(field, cfg)
    threshold = 0.1  # non-triviality: the largest |sigma(z) - z| must exceed it
    with suite_scope():
        checks = [
            check_involution(sigma, samples),
            check_commutation(field, sigma, +1, samples, times, cfg),
            check_period_invariance(sigma.period_of, sigma, samples),
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
    checks.append(nontrivial)
    checks.extend(_uniqueness_checks(field, section, cfg))
    provenance = {
        "field": field.name,
        "construction": "half_period_symmetry",
        "config_digest": config_digest({"rtol": cfg.rtol, "atol": cfg.atol,
                                        "samples": len(samples), "times": len(times)}),
        "section": section.label,
    }
    return VerificationReport(checks=checks, provenance=provenance)
