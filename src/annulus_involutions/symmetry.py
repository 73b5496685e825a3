"""The half-period symmetry involution sigma(z) = phi(T(z)/2, z).

Advancing every point half a period around its own cycle commutes with the
flow, squares to the identity, and keeps each cycle invariant; among
cycle-preserving flow-commuting involutions it is the only non-trivial one,
which the f-grid uniqueness probe checks in discretized form.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import PlanarField
from .flow import IntegratorConfig, flow
from .period import detect_cycle
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


def _energy_key(e: float) -> str:
    return f"{e:.12e}"


class SymmetryInvolution:
    """Evaluatable half-period map with cycle caching.

    For fields carrying a first integral, detected periods are cached per
    energy level (periods are constant along cycles); correctness does not
    depend on the cache, it only skips repeated cycle detection.  Evaluation
    is pure; the cache is a plain dict safe under CPython readers/writers.
    """

    def __init__(self, field: PlanarField, cfg: IntegratorConfig | None = None):
        self.field = field
        self.cfg = cfg or IntegratorConfig()
        self._cache: dict[str, float] | None = (
            {} if field.hamiltonian is not None else None
        )

    def period_of(self, z) -> float:
        if self._cache is not None:
            key = _energy_key(self.field.energy(z))
            t = self._cache.get(key)
            if t is None:
                t = detect_cycle(self.field, z, self.cfg).period
                self._cache[key] = t
            return t
        return detect_cycle(self.field, z, self.cfg).period

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return flow(self.field, z, 0.5 * self.period_of(z), self.cfg)


def sigma_symmetric(field: PlanarField, z, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Advance z half a period along its cycle."""
    cfg = cfg or IntegratorConfig()
    cyc = detect_cycle(field, z, cfg)
    return flow(field, np.asarray(z, dtype=float), 0.5 * cyc.period, cfg)


def uniqueness_probe(field: PlanarField, z, f: float, cfg: IntegratorConfig | None = None) -> float:
    """Involution residual |sigma_f(sigma_f(z)) - z| of the fractional shift
    sigma_f(w) = phi(f*T(w), w).

    Only f = 0 and f = 1/2 (mod 1) give residuals at integration-error level;
    every other fraction leaves the point displaced along its cycle.
    """
    cfg = cfg or IntegratorConfig()
    z = np.asarray(z, dtype=float)
    z1 = flow(field, z, f * detect_cycle(field, z, cfg).period, cfg)
    z2 = flow(field, z1, f * detect_cycle(field, z1, cfg).period, cfg)
    return float(np.linalg.norm(z2 - z))


def verify_sigma_symmetry(
    field: PlanarField,
    samples,
    times,
    cfg: IntegratorConfig | None = None,
    *,
    involution_tol: float = 1e-7,
    commutation_tol: float = 1e-6,
    period_tol: float = 1e-7,
    field_tol: float = 1e-4,
    energy_tol: float = 1e-8,
    nontrivial_threshold: float = 0.1,
    sigma: SymmetryInvolution | None = None,
) -> VerificationReport:
    """Run the symmetry identity suite over the samples and times."""
    cfg = cfg or IntegratorConfig()
    if sigma is None:
        sigma = SymmetryInvolution(field, cfg)
    checks = [
        check_involution(sigma, samples, tolerance=involution_tol),
        check_commutation(field, sigma, +1, samples, times, cfg, tolerance=commutation_tol),
        check_period_invariance(field, sigma, samples, cfg, tolerance=period_tol),
        check_field_condition(field, sigma, +1, samples, tolerance=field_tol),
    ]
    if field.hamiltonian is not None:
        checks.append(check_energy_invariance(field, sigma, samples, tolerance=energy_tol))
    moves = _run_samples("non_triviality", nontrivial_threshold, samples,
                         lambda z: [(float(np.linalg.norm(sigma(z) - z)), None)])
    best = -math.inf if moves.worst_point is None else moves.max_residual
    nontrivial = check_lower_bound("non_triviality", best, nontrivial_threshold,
                                   worst_point=moves.worst_point)
    nontrivial.errors.extend(moves.errors)
    checks.append(nontrivial)
    provenance = {
        "field": field.name,
        "construction": "half_period_symmetry",
        "config_digest": config_digest({"rtol": cfg.rtol, "atol": cfg.atol,
                                        "samples": len(list(samples)), "times": len(list(times))}),
    }
    return VerificationReport(checks=checks, provenance=provenance)
