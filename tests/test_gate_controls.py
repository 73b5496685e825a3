"""Every gate has a control that trips it.

``CONTROLS`` is one table.  Each row runs one real suite,
``verify_sigma_symmetry`` or ``verify_reversibility``, on a built-in field
with its default x-axis section, 4 annulus points at seed 7 and the times
0.7 and 2.9, with one perturbation in place.  It names the checks that must
fail and the checks that must pass; together they are every check of the
suite.  No check may fail through a per-sample error, so each failure is a
residual over its gate.  Every check name of both suites is in at least one
row's must-fail list.

A perturbation replaces, for one row, one thing the suite reads:

- the suite's map: ``SymmetryInvolution.__call__`` together with
  ``symmetry.sigma_symmetric`` (the uniqueness probe's half shift), or
  ``ReversibilityInvolution.__call__``;
- the cycle the uniqueness probe detects (``symmetry.detect_cycle``);
- the conjugate section the reversibility builds
  (``reversibility.conjugate_section``), rebuilt with
  ``section_from_points`` from moved points;
- the section the fixed-curve check is handed
  (``reversibility.fixed_set_distance``).

Where no perturbation can fail a check alone, the row fails the smallest
set of checks that fail together, and ``why`` says why.
"""

import dataclasses
import functools
import math

import pytest

from annulus_involutions import reversibility as rev_mod, symmetry as symmetry_mod
from annulus_involutions import verify as verify_mod
from annulus_involutions.fields import builtin_field, default_section_range
from annulus_involutions.flow import IntegratorConfig, as_point, integrate
from annulus_involutions.period import detect_cycle
from annulus_involutions.reversibility import verify_reversibility
from annulus_involutions.sections import make_section, section_from_points
from annulus_involutions.symmetry import verify_sigma_symmetry
from annulus_involutions.verify import annulus_points

SUITE_CHECKS = {
    "symmetry": {"involution", "flow_commutation", "period_invariance",
                 "field_condition_symmetry", "energy_invariance", "non_triviality",
                 "uniqueness_half_shift", "uniqueness_off_half_shifts"},
    "reversibility": {"flow_anticommutation", "involution", "fixed_curve", "well_posedness",
                      "field_condition_reversibility", "half_period_roundtrip"},
}
_SUITE = {"symmetry": verify_sigma_symmetry, "reversibility": verify_reversibility}
_TIMES = (0.7, 2.9)


# --- maps (field, cfg, z) -> point ----------------------------------------------

def _identity(field, cfg, z):
    return z


def _mirror(field, cfg, z):
    return z[0], -z[1]


def _scaled_mirror(field, cfg, z):
    return 1.01 * z[0], -1.01 * z[1]


def _skew_reflection(field, cfg, z):
    # an involution fixing the x-axis pointwise that the flow does not respect
    return z[0] + 0.2 * z[1], -z[1]


def _reflect_x(field, cfg, z):
    return 0.2 - z[0], z[1]


def _inversion(field, cfg, z):
    r2 = z[0] * z[0] + z[1] * z[1]
    return z[0] / r2, z[1] / r2


def _shift(field, cfg, z):
    """phi(0.45 T(z), z): commutes with the flow, and squares to phi(0.9 T)."""
    cyc = detect_cycle(field, z, cfg)
    return cyc.trajectory.state(0.45 * cyc.period)


# --- perturbations (monkeypatch, field, section) -> None ------------------------

def _suite_map(m):
    """The suite's map replaced by m, wherever the suite evaluates it."""

    def apply(mp, field, section):
        def call(self, z):
            return m(self.field, self.cfg, as_point(z))

        mp.setattr(symmetry_mod.SymmetryInvolution, "__call__", call)
        mp.setattr(rev_mod.ReversibilityInvolution, "__call__", call)
        mp.setattr(symmetry_mod, "sigma_symmetric",
                   lambda field, z, cfg=IntegratorConfig(): m(field, cfg, as_point(z)))

    return apply


def _probe_twice_round(mp, field, section):
    """The uniqueness probe's cycle taken twice round: period 2T."""

    def detect(field, z, cfg=IntegratorConfig(), **kw):
        cyc = detect_cycle(field, z, cfg, **kw)
        t2 = 2.0 * cyc.period
        return dataclasses.replace(cyc, period=t2,
                                   trajectory=integrate(field.rhs, z, t2, cfg))

    mp.setattr(symmetry_mod, "detect_cycle", detect)


def _moved_star(d, normal, every=1):
    """The conjugate section with its grid points i, i % every == every - 1
    (all of them, or for every = 2 the odd ones), moved by d along the
    curve's normal, or along its tangent."""

    def apply(mp, field, section):
        build = rev_mod.conjugate_section

        def moved(field, delta, cfg=IntegratorConfig()):
            star = build(field, delta, cfg)
            points = []
            for i, (s, (x, y)) in enumerate(zip(star.grid, star.points)):
                tx, ty = star.tangent(s)
                n = math.hypot(tx, ty)
                ux, uy = (-ty / n, tx / n) if normal else (tx / n, ty / n)
                step = d if i % every == every - 1 else 0.0
                points.append((x + step * ux, y + step * uy))
            out = section_from_points(field, star.grid, points, name=star.label)
            out.periods = star.periods
            return out

        mp.setattr(rev_mod, "conjugate_section", moved)

    return apply


def _fixed_curve_against(sx, sy):
    """The fixed-curve check handed the curve (sx, sy) over delta's range."""

    def apply(mp, field, section):
        wrong = make_section(field, sx, sy, (section.s_min, section.s_max))
        mp.setattr(rev_mod, "fixed_set_distance",
                   lambda sigma, samples, delta: verify_mod.fixed_set_distance(
                       sigma, samples, wrong))

    return apply


@dataclasses.dataclass(frozen=True)
class Control:
    suite: str
    field: str
    perturbation: str
    apply: object
    must_fail: frozenset
    must_pass: frozenset
    why: str


def _row(suite, field, perturbation, apply, must_fail, why):
    must_fail = frozenset(must_fail)
    return Control(suite, field, perturbation, apply, must_fail,
                   frozenset(SUITE_CHECKS[suite] - must_fail), why)


CONTROLS = [
    # the symmetry suite
    _row("symmetry", "duffing", "identity map", _suite_map(_identity),
         {"non_triviality"},
         "the identity commutes with the flow, keeps every period and energy and "
         "squares to itself; the uniqueness probe reads its shifts off the cycle"),
    _row("symmetry", "duffing", "shift f = 0.45", _suite_map(_shift),
         {"involution", "uniqueness_half_shift"},
         "the half-shift residual is the involution residual of the suite's map at "
         "the section's midpoint, so a map that squares to the identity nowhere "
         "fails both"),
    _row("symmetry", "duffing", "mirror (x, -y)", _suite_map(_mirror),
         {"flow_commutation", "field_condition_symmetry"},
         "the field condition is commutation differentiated at t = 0: a smooth map "
         "that fails one at the samples fails the other"),
    _row("symmetry", "duffing", "reflection (0.2 - x, y)", _suite_map(_reflect_x),
         {"flow_commutation", "field_condition_symmetry", "period_invariance",
          "energy_invariance"},
         "a map that commutes with the flow carries a T-periodic cycle to a "
         "T-periodic cycle, and on duffing's annulus T is a strictly monotone "
         "function of the energy: a map that changes T fails commutation, the field "
         "condition and energy invariance too"),
    _row("symmetry", "linear-center", "inversion z / |z|^2", _suite_map(_inversion),
         {"energy_invariance"},
         "the inversion maps circles to circles and commutes with the rotation, "
         "whose period is 2 pi everywhere"),
    _row("symmetry", "duffing", "probe cycle twice round (period 2T)", _probe_twice_round,
         {"uniqueness_off_half_shifts"},
         "with period 2T the quarter shift is phi(T/2), which squares to phi(T) = id"),
    # the reversibility suite
    _row("reversibility", "duffing", "identity map", _suite_map(_identity),
         {"flow_anticommutation", "fixed_curve", "field_condition_reversibility"},
         "the identity commutes instead of anti-commuting, and fixes every sample, "
         "on delta or not"),
    _row("reversibility", "duffing", "skew reflection (x + 0.2 y, -y)",
         _suite_map(_skew_reflection),
         {"flow_anticommutation", "field_condition_reversibility"},
         "the field condition is anti-commutation differentiated at t = 0: a smooth "
         "map that fails one at the samples fails the other; the map fixes the "
         "x-axis pointwise, delta included"),
    _row("reversibility", "linear-center", "scaled mirror 1.01 (x, -y)",
         _suite_map(_scaled_mirror),
         {"involution", "fixed_curve"},
         "a map that anti-commutes with the flow and fixes delta pointwise is the "
         "reversibility itself, an involution: an anti-commuting map that is not "
         "an involution moves delta"),
    _row("reversibility", "duffing", "delta* moved 1e-5 along its normal",
         _moved_star(1e-5, normal=True),
         {"well_posedness", "half_period_roundtrip"},
         "both checks read the moved curve, the roundtrip at its grid points and "
         "well-posedness at the crossings of the sample cycles; the next two rows "
         "fail each alone"),
    _row("reversibility", "duffing", "delta* moved 1e-5 along itself",
         _moved_star(1e-5, normal=False),
         {"half_period_roundtrip"},
         "the same curve gives the same crossings; only its grid points moved"),
    _row("reversibility", "duffing",
         "delta* moved 1e-5 along its normal at every second grid point",
         _moved_star(1e-5, normal=True, every=2),
         {"well_posedness"},
         "the roundtrip reads 9 of the 33 grid points, 0, 4, ..., 32, none of them "
         "moved; the spline between them is"),
    _row("reversibility", "duffing", "fixed_curve against the negative x-axis",
         _fixed_curve_against("-s", "0"),
         {"fixed_curve"},
         "the reversibility also fixes the negative x-axis (its delta*), but the "
         "section points it fixes are not on that curve"),
]


@functools.lru_cache(maxsize=None)
def _setup(name):
    field = builtin_field(name)
    cfg = IntegratorConfig()
    section = make_section(field, "s", "0", default_section_range(name), name="x-axis")
    return field, section, annulus_points(field, section, 4, cfg, seed=7), cfg


def test_every_check_has_a_control():
    for suite, names in SUITE_CHECKS.items():
        rows = [row for row in CONTROLS if row.suite == suite]
        for row in rows:
            assert row.must_fail and not row.must_fail & row.must_pass
            assert row.must_fail | row.must_pass == names
        assert set().union(*(row.must_fail for row in rows)) == names


@pytest.mark.parametrize("row", CONTROLS, ids=[f"{r.suite}-{r.field}-{r.perturbation}"
                                                for r in CONTROLS])
def test_control_trips_its_gates(row, monkeypatch):
    field, section, samples, cfg = _setup(row.field)
    row.apply(monkeypatch, field, section)
    report = _SUITE[row.suite](field, section, samples, _TIMES, cfg)
    checks = {c.name: c for c in report.checks}
    assert set(checks) == SUITE_CHECKS[row.suite]
    assert {name: c.errors for name, c in checks.items() if c.errors} == {}
    failed = {name for name, c in checks.items() if not c.passed}
    assert failed == row.must_fail, {n: (checks[n].max_residual, checks[n].tolerance)
                                     for n in failed ^ row.must_fail}
