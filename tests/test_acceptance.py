"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Expected values marked as oracle-derived were computed
with the quadrature/closed-form routines in oracles.py.
"""

import json
import math
import time

import numpy as np

from annulus_involutions.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from annulus_involutions.fields import builtin_field
from annulus_involutions.flow import IntegratorConfig
from annulus_involutions.period import period
from annulus_involutions.reversibility import (
    ReversibilityInvolution,
    verify_reversibility,
)
from annulus_involutions.sections import make_section
from annulus_involutions.symmetry import (
    SymmetryInvolution,
    uniqueness_probe,
    verify_sigma_symmetry,
)
from annulus_involutions.verify import annulus_points, check_commutation, fixed_set_distance

from oracles import pendulum_period, T_PENDULUM_HALF_PI

FIELDS = {
    "linear-center": (0.2, 2.0),
    "pendulum": (0.3, 2.5),
    "duffing": (0.3, 1.5),
    "cubic-center": (0.25, 2.0),
}


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_01_linear_center_period(linear_center, cfg):
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1)
    for k in range(20):
        r = 0.2 + 1.8 * (k + 0.5) / 20.0
        theta = rng.uniform(0.0, 2 * math.pi)
        z = [r * math.cos(theta), r * math.sin(theta)]
        worst = max(worst, abs(period(linear_center, z, cfg) - 2 * math.pi))
    elapsed = time.perf_counter() - started
    report(1, "linear-center period = 2*pi (1e-9, 20 cycles, < 5 s)",
           worst <= 1e-9 and elapsed < 5.0,
           f"max err {worst:.2e}, {elapsed:.2f} s")


def test_02_pendulum_period_vs_quadrature(pendulum, cfg):
    oracle = pendulum_period(math.pi / 2)  # adaptive-quadrature route
    assert abs(oracle - T_PENDULUM_HALF_PI) <= 1e-10
    got = period(pendulum, [math.pi / 2, 0.0], cfg)
    report(2, "pendulum T(pi/2) = 4K(sin(pi/4)) ~ 7.416298 (1e-6)",
           abs(got - oracle) <= 1e-6, f"err {abs(got - oracle):.2e}")


def test_03_degenerate_center_scaling(cubic_center, cfg):
    lams = [0.25, 0.5, 1.0, 2.0]
    scaled = [period(cubic_center, [lam, 0.0], cfg) * lam ** 2 for lam in lams]
    ref = scaled[2]
    spread = max(abs(v - ref) / ref for v in scaled)
    ratio = period(cubic_center, [0.1, 0.0], cfg) / period(cubic_center, [1.0, 0.0], cfg)
    report(3, "cubic-center T*lam^2 constant (1e-5 rel) and T(0.1)/T(1) in [99, 101]",
           spread <= 1e-5 and 99.0 <= ratio <= 101.0,
           f"spread {spread:.2e}, ratio {ratio:.6f}")


def test_04_half_period_symmetry_on_all_builtins():
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    failures = []
    details = []
    for name, (lo, hi) in FIELDS.items():
        field = builtin_field(name)
        sec = make_section(field, "s", "0", (lo, hi), name="x-axis")
        samples = annulus_points(field, sec, 10, cfg, seed=1)
        t_ref = period(field, sec.point(0.5 * (lo + hi)), cfg)
        times = [f * t_ref for f in (0.11, 0.27, 0.42, 0.63, 0.81)]
        rep = verify_sigma_symmetry(field, sec, samples, times, cfg)
        for check, gate in [("involution", 1e-7), ("flow_commutation", 1e-6),
                            ("period_invariance", 1e-7),
                            ("field_condition_symmetry", 1e-4)]:
            res = rep[check].max_residual
            details.append(f"{name}/{check} {res:.1e}")
            if res > gate:
                failures.append(f"{name}/{check} residual {res:.2e} > {gate:.0e}")
    lc = builtin_field("linear-center")
    sigma = SymmetryInvolution(lc, cfg)
    sec = make_section(lc, "s", "0", FIELDS["linear-center"], name="x-axis")
    for z in annulus_points(lc, sec, 10, cfg, seed=2):
        if np.linalg.norm(np.add(sigma(z), z)) > 1e-8:
            failures.append(f"sigma({z}) != -z")
            break
    report(4, "half-period symmetry gates on all built-ins; sigma = -z on linear center",
           not failures, "; ".join(failures) or "all residual gates met")


def test_05_uniqueness_probe_dichotomy(linear_center, cfg):
    fractions = [0.05 * k for k in range(1, 20)]
    residuals = uniqueness_probe(linear_center, [1.0, 0.0], fractions, cfg)
    at_half = residuals[9]
    worst_off = min(residuals[:9] + residuals[10:])
    report(5, "uniqueness probe: f = 0.5 residual <= 1e-8, others >= 1e-3",
           at_half <= 1e-8 and worst_off >= 1e-3,
           f"half {at_half:.2e}, min off-half {worst_off:.2e}")


def test_06_section_reversibility_linear_center():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    lc = builtin_field("linear-center")
    cases = [
        ("x-axis", "s", "0", lambda z: np.array([z[0], -z[1]])),
        ("diagonal", "s", "s", lambda z: np.array([z[1], z[0]])),
    ]
    failures = []
    for label, sx, sy, expected in cases:
        sec = make_section(lc, sx, sy, (0.3, 1.9), name=label)
        sigma = ReversibilityInvolution(lc, sec, cfg)
        samples = annulus_points(lc, sec, 20, cfg, seed=3)
        worst_match = max(float(np.linalg.norm(sigma(z) - expected(z)))
                          for z in samples)
        if worst_match > 1e-8:
            failures.append(f"{label}: sigma mismatch {worst_match:.2e}")
        t_ref = 2 * math.pi
        rep = verify_reversibility(
            lc, sec, samples[:10], [0.17 * t_ref, 0.43 * t_ref, 0.71 * t_ref],
            cfg, sigma=sigma)
        for check, gate in [("flow_anticommutation", 1e-8), ("involution", 1e-8),
                            ("well_posedness", 1e-8),
                            ("field_condition_reversibility", 1e-6)]:
            if not rep[check].max_residual <= gate:
                failures.append(
                    f"{label}/{check} residual {rep[check].max_residual:.2e}")
    report(6, "section reversibility on linear center (mirror and swap, 1e-8/1e-6 gates)",
           not failures, "; ".join(failures) or "both sections match closed forms")


def test_07_fixed_curve_identity(cfg):
    failures = []
    for name, (lo, hi) in FIELDS.items():
        field = builtin_field(name)
        sec = make_section(field, "s", "0", (lo, hi), name="x-axis")
        sigma = ReversibilityInvolution(field, sec, cfg)
        on_delta = [sec.point(s) for s in np.linspace(lo + 0.05, hi - 0.05, 5)]
        generic = annulus_points(field, sec, 10, cfg, seed=4)
        res = fixed_set_distance(sigma, list(generic) + on_delta, sec)
        if not res.passed:
            failures.append(
                f"{name}: move {res.extras['on_delta_move']:.2e}, "
                f"dist {res.extras['fixed_dist_to_delta']:.2e}")
    report(7, "fixed-curve identity on all built-ins (delta = x-axis, 1e-8/1e-6)",
           not failures, "; ".join(failures) or "fixed sets match the sections")


def test_08_distinct_reversibilities(linear_center, cfg):
    sec1 = make_section(linear_center, "s", "0", (0.3, 1.9), name="x-axis")
    sec2 = make_section(linear_center, "s", "s", (0.3, 1.9), name="diagonal")
    rev1 = ReversibilityInvolution(linear_center, sec1, cfg)
    rev2 = ReversibilityInvolution(linear_center, sec2, cfg)
    gaps = []
    for theta, r in [(0.4, 0.6), (1.2, 1.0), (2.2, 1.5), (3.6, 0.9), (5.1, 1.8)]:
        z = np.array([r * math.cos(theta), r * math.sin(theta)])
        gaps.append(float(np.linalg.norm(np.subtract(rev1(z), rev2(z)))))
    report(8, "involutions from different sections differ (> 0.1 somewhere)",
           max(gaps) > 0.1, f"max gap {max(gaps):.3f}")


def test_09_negative_controls(linear_center, cfg, tmp_path):
    mirror = lambda z: np.array([z[0], -z[1]])
    samples = [np.array([math.cos(t), math.sin(t)]) for t in (0.0, 0.9, 2.1, 4.0)]
    bad = check_commutation(linear_center, mirror, +1, samples, [0.5, 1.5, 2.5], cfg)
    control_a = (not bad.passed) and bad.max_residual > 0.5

    config = tmp_path / "loose.cfg"
    config.write_text(
        "field = pendulum\nsection = x-axis [0.3, 2.5]\nsamples = 4\ntimes = 2\n"
        f"out = {tmp_path / 'out'}\n", encoding="utf-8")
    code = main(["symmetry", "--config", str(config), "--rtol", "1e-3"])
    loose_report = json.loads((tmp_path / "out" / "symmetry_report.json").read_text())
    control_b = code == EXIT_CHECK_FAILED and not loose_report["all_pass"]
    report(9, "negative controls: mirror fails +1 commutation (> 0.5); rtol=1e-3 exits 1",
           control_a and control_b,
           f"mirror residual {bad.max_residual:.2f}, loose exit {code}")


def test_10_determinism(tmp_path):
    config = tmp_path / "det.cfg"
    config.write_text(
        "field = linear-center\nsection = x-axis [0.2, 2.0]\n"
        "params = [0.5, 1.0, 1.5]\nsamples = 4\ntimes = 2\nseed = 5\n",
        encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    identical = True
    for cmd in ("period", "symmetry", "reversibility"):
        assert main([cmd, "--config", str(config), "--out", str(out1)]) == EXIT_OK
        assert main([cmd, "--config", str(config), "--out", str(out2)]) == EXIT_OK
    for name in sorted(p.name for p in out1.iterdir()):
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            identical = False
    names = sorted(p.name for p in out1.iterdir())
    report(10, "identical config gives byte-identical CSV/JSON outputs",
           identical and len(names) >= 5, f"{len(names)} files compared")
