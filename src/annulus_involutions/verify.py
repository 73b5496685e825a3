"""Residual checking engine: named, tolerance-gated checks over sample sets.

Residuals are Euclidean norms scaled by 1/(1 + |z|) so annuli of different
sizes are gated uniformly.  Each check's tolerance is a constant written
in its body (the README tabulates them).  Every check is deterministic
given its inputs; per-sample evaluation failures are recorded on the
result instead of aborting the check, so a report always contains exactly
the requested checks.  Sample generation uses golden-ratio low-discrepancy sequences
shifted by an integer seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field as dc_field

from .errors import SAMPLE_FAILURES
from .expr import PlanarField
from .flow import IntegratorConfig, Point, as_point, flow, jacobian_fd
from .period import detect_cycle
from .sections import membership_tol

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_involution",
    "check_commutation",
    "check_field_condition",
    "check_period_invariance",
    "check_energy_invariance",
    "check_lower_bound",
    "fixed_set_distance",
    "sample_parameters",
    "sample_time_fractions",
    "annulus_points",
    "config_digest",
    "write_atomic",
]

_GOLDEN = 0.6180339887498949  # 1/phi
_SQRT2_FRAC = 0.41421356237309515


@dataclass
class CheckResult:
    """Outcome of one named residual check: pass iff max_residual <= tolerance
    and no sample failed to evaluate (a NaN residual fails)."""

    name: str
    max_residual: float
    tolerance: float
    worst_point: Point | None = None
    worst_time: float | None = None
    errors: list[str] = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance and not self.errors

    def to_dict(self) -> dict:
        worst = None
        if self.worst_point is not None:
            worst = {
                "point": [float(v) for v in self.worst_point],
                "time": None if self.worst_time is None else float(self.worst_time),
            }
        d = {
            "check_name": self.name,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "worst_point": worst,
        }
        if self.errors:
            d["errors"] = list(self.errors)
        if self.extras:
            d["extras"] = {k: v for k, v in self.extras.items()}
        return d


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    provenance: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self) -> tuple[int, int]:
        npass = sum(1 for c in self.checks if c.passed)
        return npass, len(self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "provenance": dict(self.provenance),
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check", "residual", "tolerance", "pass"])
        for c in self.checks:
            w.writerow([c.name, repr(c.max_residual), repr(c.tolerance),
                        "true" if c.passed else "false"])
        return buf.getvalue()


def write_atomic(path, text: str) -> None:
    """Write-then-rename so output files appear whole."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def config_digest(mapping: dict) -> str:
    canon = "\n".join(f"{k}={mapping[k]}" for k in sorted(mapping))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# --- sample generation -------------------------------------------------------

def sample_parameters(n: int, lo: float, hi: float, seed: int = 0) -> list[float]:
    """n low-discrepancy parameters in (lo, hi)."""
    base = (seed * _SQRT2_FRAC) % 1.0
    return [lo + (0.02 + 0.96 * ((base + (i + 1) * _GOLDEN) % 1.0)) * (hi - lo)
            for i in range(n)]


def sample_time_fractions(n: int, seed: int = 0) -> list[float]:
    """n period fractions, nudged away from 0, 1/2 and 1 so that generated
    points stay clear of the seed section and its half-period image."""
    base = (0.37 + seed * _GOLDEN) % 1.0
    out = []
    for i in range(n):
        f = (base + (i + 1) * _SQRT2_FRAC) % 1.0
        while min(abs(f - special) for special in (0.0, 0.5, 1.0)) < 0.02:
            f = (f + 0.037) % 1.0
        out.append(f)
    return out


def annulus_points(
    field: PlanarField,
    section,
    n: int,
    cfg: IntegratorConfig = IntegratorConfig(),
    seed: int = 0,
) -> list[Point]:
    """Deterministic well-spread points of the annulus covered by the section:
    seed points are advanced along their cycles by low-discrepancy period
    fractions."""
    params = sample_parameters(n, section.s_min, section.s_max, seed)
    fracs = sample_time_fractions(n, seed)
    pts = []
    for s, f in zip(params, fracs):
        cyc = detect_cycle(field, section.point(s), cfg)
        pts.append(cyc.trajectory.state(f * cyc.period))
    return pts


# --- core checks -------------------------------------------------------------

def _scaled(a, b, z) -> float:
    """|a - b| / (1 + |z|) for points a, b and z."""
    return math.dist(a, b) / (1.0 + math.hypot(z[0], z[1]))


def _run_samples(name, tolerance, samples, fn):
    """The max-residual loop of every check: fn(z) -> list of (residual, time tag).

    A sample's first two coordinates name it in the worst point and in the
    error lines; known numerical failures and NaN residuals are recorded
    per sample, and a check with any recorded error fails.
    """
    worst = -1.0
    worst_point = None
    worst_time = None
    errors = []
    for z in samples:
        try:
            results = fn(z)
        except SAMPLE_FAILURES as exc:  # per-sample failures are data, not crashes
            errors.append(f"({z[0]:.6g}, {z[1]:.6g}): {exc}")
            continue
        for res, t_tag in results:
            res = float(res)
            if math.isnan(res):
                at = "" if t_tag is None else f" at t = {t_tag:.6g}"
                errors.append(f"({z[0]:.6g}, {z[1]:.6g}): residual is NaN{at}")
            elif res > worst:
                worst = res
                worst_point = as_point(z)
                worst_time = t_tag
    if worst < 0.0:
        return CheckResult(name, math.inf, tolerance, None, None,
                           errors or ["no samples evaluated"])
    return CheckResult(name, worst, tolerance, worst_point, worst_time, errors)


def check_involution(sigma, samples) -> CheckResult:
    """max |sigma(sigma(z)) - z| / (1 + |z|) over the samples."""

    def one(z):
        return [(_scaled(sigma(sigma(z)), z, z), None)]

    return _run_samples("involution", 1e-7, samples, one)


def check_commutation(field: PlanarField, sigma, sign: int, samples, times,
                      cfg: IntegratorConfig = IntegratorConfig()) -> CheckResult:
    """Flow commutation (sign +1) or anti-commutation (sign -1):
    max |sigma(phi(t,z)) - phi(sign*t, sigma(z))|."""
    name = "flow_commutation" if sign > 0 else "flow_anticommutation"
    times = list(times)  # read once per sample

    def one(z):
        sz = sigma(z)
        out = []
        for t in times:
            a = sigma(flow(field, z, float(t), cfg))
            b = flow(field, sz, sign * float(t), cfg)
            out.append((_scaled(a, b, z), float(t)))
        return out

    return _run_samples(name, 1e-6, samples, one)


def check_field_condition(field: PlanarField, sigma, sign: int, samples) -> CheckResult:
    """Pointwise field criterion max |V(sigma(z)) - sign * Dsigma(z) V(z)|, with
    Dsigma(z) V(z) as one central difference along V(z) (:func:`~.flow.jacobian_fd`)."""
    name = "field_condition_symmetry" if sign > 0 else "field_condition_reversibility"

    def one(z):
        dx, dy = jacobian_fd(sigma, z, field.rhs(*as_point(z)))
        return [(_scaled(field.rhs(*sigma(z)), (sign * dx, sign * dy), z), None)]

    return _run_samples(name, 1e-4, samples, one)


def check_period_invariance(period_of, sigma, samples) -> CheckResult:
    """max |T(sigma(z)) - T(z)| / T(z), with T the period function
    ``period_of(z)``.

    The symmetry suite passes ``SymmetryInvolution.period_of``: inside its
    scope, T(z) and T(sigma(z)) are read from the records that sigma
    already made for those points.
    """

    def one(z):
        tz = period_of(z)
        tsz = period_of(sigma(z))
        return [(abs(tsz - tz) / tz, None)]

    return _run_samples("period_invariance", 1e-7, samples, one)


def check_energy_invariance(field: PlanarField, sigma, samples) -> CheckResult:
    """max |H(sigma(z)) - H(z)| for fields carrying a first integral."""
    if field.hamiltonian is None:
        raise ValueError(f"field {field.name!r} has no first integral attached")

    def one(z):
        return [(abs(field.energy(sigma(z)) - field.energy(z)), None)]

    return _run_samples("energy_invariance", 1e-8, samples, one)


def check_lower_bound(name: str, value: float, threshold: float,
                      worst_point=None) -> CheckResult:
    """Gate a quantity that must EXCEED a threshold (e.g. non-triviality).

    Encoded as max_residual = threshold - value with tolerance 0 so the
    report invariant pass <=> max_residual <= tolerance still holds.
    """
    return CheckResult(name, threshold - value, 0.0, worst_point, None,
                       extras={"value": value, "threshold": threshold})


def fixed_set_distance(sigma, samples, delta) -> CheckResult:
    """Fixed-set check against a section.

    Samples lying on the section must not move; samples that numerically do
    not move must lie on the section.  The reported residual is the larger
    of the two maxima in units of its own gate, so the check's tolerance is
    1; the raw maxima are in extras.
    With no sample on the section and none fixed, nothing was checked and
    the check fails like any check without evaluated samples.
    """
    n_on = n_fixed = 0
    on_delta_move = fixed_dist = 0.0

    def one(z):
        nonlocal n_on, n_fixed, on_delta_move, fixed_dist
        move = math.dist(sigma(z), z)
        dist = float(delta.distance(z))
        out = []
        if dist <= membership_tol(z):
            n_on += 1
            on_delta_move = max(on_delta_move, move)
            out.append((move / 1e-8, None))
        if move <= 1e-8:
            n_fixed += 1
            fixed_dist = max(fixed_dist, dist)
            out.append((dist / 1e-6, None))
        return out

    result = _run_samples("fixed_curve", 1.0, samples, one)
    result.extras = {
        "on_delta_move": on_delta_move,
        "fixed_dist_to_delta": fixed_dist,
        "n_on_delta": n_on,
        "n_fixed": n_fixed,
    }
    return result
