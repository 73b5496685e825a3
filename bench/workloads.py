"""Seeded inputs, set-up, operations and correctness gates of the workloads.

Inputs are drawn here, from the benchmark seed, with the benchmark's own
first integrals; the package only ever sees the generated configs, field
text and points.  Nothing in this module imports numpy or the package at
import time, so a set-up timer started after importing it measures the
package import in full.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

WORKLOADS = ("verify-builtins", "sigma-userfield", "period-sweep")

# --- first integrals and closed-form periods (independent of the package) ---

_ENERGY = {
    "linear-center": lambda x, y: 0.5 * (x * x + y * y),
    "pendulum": lambda x, y: 0.5 * y * y + 1.0 - math.cos(x),
    "duffing": lambda x, y: 0.5 * y * y + 0.5 * x * x + 0.25 * x ** 4,
    "cubic-center": lambda x, y: 0.25 * (x ** 4 + y ** 4),
}

# amplitude range on the positive x-axis for the period sweep; every level
# set in these ranges lies inside the built-in field's working domain
_SWEEP_RANGE = {
    "linear-center": (0.1, 3.5),
    "pendulum": (0.1, 3.1),  # up to x = 3.1, close to the separatrix at pi
    "duffing": (0.1, 2.0),
    "cubic-center": (0.05, 2.0),  # T = C / a^2 reaches ~3000 at a = 0.05
}

_CUBIC_C = math.gamma(0.25) ** 2 / math.sqrt(math.pi)  # T(1, 0) of the cubic center


def _agm_k(kp: float) -> float:
    """Complete elliptic integral K from the complementary modulus k'."""
    a, b = 1.0, kp
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def reference_period(name: str, x: float, y: float) -> float:
    """Closed-form period of the built-in center through (x, y)."""
    e = _ENERGY[name](x, y)
    if name == "linear-center":
        return 2.0 * math.pi
    if name == "pendulum":  # 4 K(sin(a/2)) with sin^2(a/2) = E/2
        return 4.0 * _agm_k(math.sqrt(1.0 - 0.5 * e))
    if name == "duffing":  # 4 K(k) / sqrt(1 + a^2), k^2 = a^2 / (2 (1 + a^2))
        a2 = math.sqrt(1.0 + 4.0 * e) - 1.0
        return 4.0 * _agm_k(math.sqrt((2.0 + a2) / (2.0 * (1.0 + a2)))) / math.sqrt(1.0 + a2)
    if name == "cubic-center":  # homogeneous of degree 3: T = C / lambda^2
        return _CUBIC_C / math.sqrt(4.0 * e)
    raise KeyError(name)


# the period gate of each field: (tolerance, relative?)
_PERIOD_GATE = {
    "linear-center": (1e-9, False),
    "pendulum": (1e-6, False),
    "duffing": (1e-6, False),
    "cubic-center": (1e-5, True),
}


def _on_level(energy, e: float, theta: float, r_cap: float) -> tuple[float, float]:
    """Point at angle theta on the level set energy = e, by bisection along
    the ray (energy increases along the ray up to r_cap)."""
    ux, uy = math.cos(theta), math.sin(theta)
    lo, hi = 0.0, r_cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy(mid * ux, mid * uy) < e:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    r = 0.5 * (lo + hi)
    return r * ux, r * uy


def _ray_cap(name: str, theta: float, a: float) -> float:
    """A radius beyond the level through (a, 0) on which energy still grows."""
    if name == "pendulum":  # 1 - cos x increases only while |x| < pi
        return min(4.0 * a + 4.0, (math.pi - 1e-12) / max(abs(math.cos(theta)), 1e-300))
    return 4.0 * a + 4.0


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], so that the
    amount of work changes little from seed to seed."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


# --- inputs -------------------------------------------------------------------

VERIFY_SAMPLES = 4
VERIFY_TIMES = 2
SWEEP_PER_FIELD = 100
# The pendulum's period error grows steeply towards the separatrix and
# depends smoothly on the starting phase, so the worst residual of the sweep
# sits on the outermost orbit.  That orbit is always in the sweep, at
# SWEEP_RING phases spread over half a turn (the orbit's symmetry period),
# which keeps min_margin_decades from depending on where the seed happened
# to draw the top stratum.
SWEEP_RING = 16
SIGMA_POINTS = 200
INVOLUTION_EVERY = 20  # involution residual is gated on ops i with i % 20 < 2

USER_FIELD_TEXT = "P = y\nQ = -sin(x)\ndomain = [-3.14, 3.14, -2.6, 2.6]\n"
USER_SECTION = ("s", "0.3*s^2", (0.3, 1.8))
_USER_ENERGY = _ENERGY["pendulum"]  # first integral of the user field


def make_inputs(workload: str, seed: int) -> list:
    """The operation list of one pass, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-builtins":
        # (field, section range, config seed); the config seed shifts the
        # package's own low-discrepancy sample sequence
        ranges = {"linear-center": (0.2, 2.0), "pendulum": (0.3, 2.5),
                  "duffing": (0.3, 1.5), "cubic-center": (0.25, 2.0)}
        return [(name, srange, rng.randrange(1_000_000)) for name, srange in ranges.items()]
    if workload == "period-sweep":
        per_field = {}
        for name, (lo, hi) in _SWEEP_RANGE.items():
            ring = SWEEP_RING if name == "pendulum" else 0
            offset = rng.random()
            pts = [_on_level(_ENERGY[name], _ENERGY[name](hi, 0.0), theta,
                             _ray_cap(name, theta, hi))
                   for theta in (math.pi * (k + offset) / ring for k in range(ring))]
            for a in _stratified(rng, SWEEP_PER_FIELD - ring, lo, hi):
                e = _ENERGY[name](a, 0.0)
                theta = rng.uniform(0.0, 2.0 * math.pi)
                pts.append(_on_level(_ENERGY[name], e, theta, _ray_cap(name, theta, a)))
            rng.shuffle(pts)
            per_field[name] = pts
        # round-robin over the fields, so every prefix has the same mix
        return [(name, per_field[name][i]) for i in range(SWEEP_PER_FIELD)
                for name in _SWEEP_RANGE]
    if workload == "sigma-userfield":
        # energy levels through section points strictly inside [0.3, 1.8]
        ops = []
        for i, s in enumerate(_stratified(rng, SIGMA_POINTS, 0.35, 1.75)):
            e = _USER_ENERGY(s, 0.3 * s * s)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = _on_level(_USER_ENERGY, e, theta, _ray_cap("pendulum", theta, 2.0))
            ops.append(("symmetry" if i % 2 == 0 else "reversibility", z))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _verify_config(name: str, section_range, config_seed: int) -> str:
    lo, hi = section_range
    return (f"field = {name}\nsection = x-axis [{lo!r}, {hi!r}]\n"
            f"samples = {VERIFY_SAMPLES}\ntimes = {VERIFY_TIMES}\nseed = {config_seed}\n")


# --- set-up -------------------------------------------------------------------

@dataclass
class Built:
    """Program objects one workload's operations run against."""

    workload: str
    mods: dict
    objects: dict = dc_field(default_factory=dict)


def import_package() -> dict:
    """Import the package and return its modules by layer name."""
    names = ("expr", "fields", "flow", "period", "sections", "symmetry",
             "reversibility", "verify", "cli")
    return {n: importlib.import_module(f"annulus_involutions.{n}") for n in names}


def build(workload: str, mods: dict, inputs: list, workdir: Path) -> Built:
    """Construct the workload's fields, sections and involution objects."""
    b = Built(workload, mods)
    if workload == "verify-builtins":
        configs = []
        for name, srange, cseed in inputs:
            path = workdir / f"{name}.cfg"
            path.write_text(_verify_config(name, srange, cseed), encoding="utf-8")
            config = mods["cli"].load_config(path)
            config.build_section()
            configs.append((name, path))
        b.objects["configs"] = configs
    elif workload == "sigma-userfield":
        cfg = mods["flow"].IntegratorConfig()
        field = mods["expr"].parse_field_text(USER_FIELD_TEXT, name="user-pendulum")
        sx, sy, srange = USER_SECTION
        section = mods["sections"].make_section(field, sx, sy, srange, name="parabola")
        b.objects["symmetry"] = mods["symmetry"].SymmetryInvolution(field, cfg)
        b.objects["reversibility"] = mods["reversibility"].ReversibilityInvolution(
            field, section, cfg)
    elif workload == "period-sweep":
        b.objects["cfg"] = mods["flow"].IntegratorConfig()
        b.objects["fields"] = {name: mods["fields"].builtin_field(name)
                               for name in _SWEEP_RANGE}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b


def timed_setup(workload: str, seed: int, workdir: Path) -> tuple[Built, list, float, float]:
    """Inputs, then (timed) package import plus build.

    Returns (built, inputs, import seconds, set-up seconds including import).
    """
    inputs = make_inputs(workload, seed)
    t0 = time.perf_counter()
    mods = import_package()
    t1 = time.perf_counter()
    built = build(workload, mods, inputs, workdir)
    return built, inputs, t1 - t0, time.perf_counter() - t0


# --- operations and gates -----------------------------------------------------

def _call_verify(built: Built, i: int, spec, workdir: Path):
    name, path = built.objects["configs"][i]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = built.mods["cli"].main(["verify", "--config", str(path),
                                     "--out", str(workdir / f"out-{name}")])
    return rc, stdout.getvalue()


def _call_sigma(built: Built, i: int, spec, workdir: Path):
    kind, z = spec
    w = built.objects[kind](z)
    return float(w[0]), float(w[1])


def _call_period(built: Built, i: int, spec, workdir: Path):
    name, z = spec
    return float(built.mods["period"].period(built.objects["fields"][name], z,
                                             built.objects["cfg"]))


_CALL = {"verify-builtins": _call_verify, "sigma-userfield": _call_sigma,
         "period-sweep": _call_period}


@dataclass
class OpsResult:
    """Raw outcome of one pass: per-op latency and result (or exception)."""

    wall_s: float
    latencies: list[float]
    raws: list


def run_ops(built: Built, inputs: list, workdir: Path, tracer=None) -> OpsResult:
    """Run every operation of one pass once, closed loop, one at a time."""
    call = _CALL[built.workload]
    lat, raws = [], []
    t_pass = time.perf_counter()
    for i, spec in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            raw = call(built, i, spec, workdir)
        except Exception as exc:  # a failed operation is data; the pass goes on
            raw = exc
        lat.append(time.perf_counter() - t0)
        raws.append(raw)
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.op = -1
    return OpsResult(wall, lat, raws)


def _margin(tol: float, residual: float) -> float | None:
    """Decades between a residual and its tolerance; None for an exact result."""
    if residual <= 0.0:
        return None
    return math.log10(tol / residual)


def _report_margins(report: dict) -> list[float]:
    """Margins of the residual checks; lower-bound checks (tolerance 0, such
    as non-triviality) gate pass/fail but measure no accuracy."""
    out = []
    for c in report["checks"]:
        if c["tolerance"] > 0.0:
            m = _margin(c["tolerance"], c["max_residual"])
            if m is not None:
                out.append(m)
    return out


_PASS_LINE = re.compile(r"^PASS (\d+)/(\d+)$")


def _gate_verify(built, i, spec, raw, workdir):
    rc, stdout = raw
    name = spec[0]
    outdir = workdir / f"out-{name}"
    lines = stdout.strip().splitlines()
    m = _PASS_LINE.match(lines[-1]) if lines else None
    notes = []
    if rc != 0 or m is None or m.group(1) != m.group(2):
        notes.append(f"{name}: exit {rc}, summary {lines[-1:]!r}")
    report = outdir / "verify_report.json"
    h = hashlib.sha256(report.read_bytes() + (outdir / "verify_summary.csv").read_bytes())
    checks = json.loads(report.read_text())
    errors = sum(len(c.get("errors", ())) for c in checks["checks"])
    return (name, h.hexdigest()), _report_margins(checks), notes, errors


def _gate_sigma(built, i, spec, raw, workdir):
    kind, z = spec
    w = raw
    margins, notes = [], []
    de = abs(_USER_ENERGY(*w) - _USER_ENERGY(*z))
    m = _margin(1e-8, de)
    if m is not None:
        margins.append(m)
    if not de <= 1e-8:
        notes.append(f"op {i} {kind}: |H(sigma z) - H(z)| = {de:.3g}")
    if kind == "symmetry":
        move = math.hypot(w[0] - z[0], w[1] - z[1])
        if not move >= 0.1:
            notes.append(f"op {i}: symmetry moved the point by only {move:.3g}")
    if i % INVOLUTION_EVERY < 2:
        ww = built.objects[kind](w)
        res = math.hypot(ww[0] - z[0], ww[1] - z[1]) / (1.0 + math.hypot(*z))
        m = _margin(1e-7, res)
        if m is not None:
            margins.append(m)
        if not res <= 1e-7:
            notes.append(f"op {i} {kind}: involution residual {res:.3g}")
    return w, margins, notes, 0


def _gate_period(built, i, spec, raw, workdir):
    name, z = spec
    ref = reference_period(name, *z)
    tol, rel = _PERIOD_GATE[name]
    err = abs(raw - ref) / ref if rel else abs(raw - ref)
    m = _margin(tol, err)
    notes = [] if err <= tol else [f"op {i} {name} at {z}: T = {raw!r}, reference {ref!r}"]
    return raw, [] if m is None else [m], notes, 0


_GATE = {"verify-builtins": _gate_verify, "sigma-userfield": _gate_sigma,
         "period-sweep": _gate_period}


@dataclass
class Gated:
    failed: list[bool]
    outputs: list  # deterministic per-op outputs, compared bit for bit
    margins: list[float]  # log10(tolerance / residual) of every gated residual
    notes: list[str]
    sample_errors: int = 0  # per-sample errors recorded inside verification reports


def gate_ops(built: Built, inputs: list, ops: OpsResult, workdir: Path) -> Gated:
    """Check every output of a pass (untimed)."""
    gate = _GATE[built.workload]
    g = Gated([], [], [], [])
    for i, (spec, raw) in enumerate(zip(inputs, ops.raws)):
        if isinstance(raw, Exception):
            g.failed.append(True)
            g.outputs.append(None)
            g.notes.append(f"op {i}: {type(raw).__name__}: {raw}")
            continue
        try:
            out, margins, notes, errors = gate(built, i, spec, raw, workdir)
        except Exception as exc:  # e.g. a missing report file
            out, margins, notes, errors = None, [], [f"op {i} gate: {type(exc).__name__}: {exc}"], 0
        g.sample_errors += errors
        g.failed.append(bool(notes))
        g.outputs.append(out)
        g.margins.extend(margins)
        g.notes.extend(notes)
    return g
