import json
import math

import numpy as np
import pytest

from annulus_involutions.errors import DomainError, FlowError
from annulus_involutions.period import period
from annulus_involutions.sections import make_section, membership_tol
from annulus_involutions.symmetry import SymmetryInvolution
from annulus_involutions.verify import (
    CheckResult,
    VerificationReport,
    annulus_points,
    check_commutation,
    check_energy_invariance,
    check_field_condition,
    check_involution,
    check_lower_bound,
    check_period_invariance,
    config_digest,
    fixed_set_distance,
    sample_parameters,
    sample_time_fractions,
)


def mirror(z):
    return np.array([z[0], -z[1]])


def point_reflection(z):
    return -np.asarray(z, dtype=float)


def quarter_turn(z):
    return np.array([-z[1], z[0]])


SAMPLES = [np.array(p) for p in
           [(1.0, 0.0), (0.3, 0.8), (-0.5, 1.1), (1.4, -0.6), (-0.9, -0.9)]]


class TestCheckInvolution:
    def test_identity(self):
        r = check_involution(lambda z: z.copy(), SAMPLES)
        assert r.passed and r.max_residual == 0.0

    def test_mirror(self):
        r = check_involution(mirror, SAMPLES)
        assert r.passed and r.max_residual <= 1e-15

    def test_quarter_turn_fails(self):
        # rotating twice by a quarter turn is the half turn: residual 2|z|
        r = check_involution(quarter_turn, SAMPLES)
        assert not r.passed
        worst = max(SAMPLES, key=np.linalg.norm)
        expected = 2 * np.linalg.norm(worst) / (1 + np.linalg.norm(worst))
        assert r.max_residual == pytest.approx(expected)
        assert r.worst_point == tuple(worst)

    def test_evaluation_failure_recorded(self):
        def flaky(z):
            if z[0] < 0:
                raise DomainError("boom")
            return z.copy()

        r = check_involution(flaky, SAMPLES)
        assert not r.passed  # surviving samples all pass, failed ones fail the check
        assert len(r.errors) == 2

    def test_nan_residual_recorded(self):
        # NaN compares false with everything; it is an error line, never
        # the worst sample, and the error fails the check
        def nan_at_origin_left(z):
            return np.full(2, np.nan) if z[0] < 0 else z.copy()

        r = check_involution(nan_at_origin_left, SAMPLES)
        assert not r.passed and r.max_residual == 0.0
        assert r.errors == ["(-0.5, 1.1): residual is NaN", "(-0.9, -0.9): residual is NaN"]

    def test_all_nan_fails(self):
        r = check_involution(lambda z: np.full(2, np.nan), SAMPLES[:2])
        assert not r.passed and r.max_residual == math.inf
        assert r.worst_point is None
        assert r.errors == ["(1, 0): residual is NaN", "(0.3, 0.8): residual is NaN"]

    def test_nan_residual_names_its_time(self, linear_center, cfg):
        def nan_after_flow(z):
            return np.full(2, np.nan) if abs(z[1]) > 1e-12 else z.copy()

        r = check_commutation(linear_center, nan_after_flow, +1, SAMPLES[:1], [0.5], cfg)
        assert not r.passed
        assert r.errors == ["(1, 0): residual is NaN at t = 0.5"]

    def test_bug_propagates(self):
        # only known numerical failures are per-sample data; a bug crashes
        def buggy(z):
            raise TypeError("not a numerical failure")

        with pytest.raises(TypeError):
            check_involution(buggy, SAMPLES)


class TestCheckCommutation:
    def test_point_reflection_commutes(self, linear_center, cfg):
        r = check_commutation(linear_center, point_reflection, +1, SAMPLES,
                              [0.3, 1.0, 2.5], cfg)
        assert r.passed and r.max_residual <= 1e-9

    def test_mirror_anticommutes(self, linear_center, cfg):
        r = check_commutation(linear_center, mirror, -1, SAMPLES,
                              [0.3, 1.0, 2.5], cfg)
        assert r.passed and r.max_residual <= 1e-9

    def test_mirror_does_not_commute(self, linear_center, cfg):
        # negative control from the contract: mirror with sign +1 must fail
        r = check_commutation(linear_center, mirror, +1, SAMPLES,
                              [0.3, 1.0, 2.5], cfg)
        assert not r.passed
        assert r.max_residual > 0.5
        assert r.worst_time is not None


class TestCheckFieldCondition:
    def test_mirror_reversible(self, linear_center):
        r = check_field_condition(linear_center, mirror, -1, SAMPLES)
        assert r.passed and r.max_residual <= 1e-10

    def test_point_reflection_symmetric(self, linear_center):
        r = check_field_condition(linear_center, point_reflection, +1, SAMPLES)
        assert r.passed and r.max_residual <= 1e-10

    def test_wrong_sign_fails(self, linear_center):
        r = check_field_condition(linear_center, mirror, +1, SAMPLES)
        assert not r.passed

    def test_sigma_calls_per_sample(self, linear_center):
        # D sigma(z) V(z) is one central difference (two calls) and the
        # left side needs sigma(z)
        calls = []

        def counted(z):
            calls.append(z)
            return mirror(z)

        check_field_condition(linear_center, counted, -1, SAMPLES)
        assert len(calls) == 3 * len(SAMPLES)


class TestCheckPeriodInvariance:
    def test_symmetry_involution(self, pendulum, cfg):
        sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
        sigma = SymmetryInvolution(pendulum, cfg)
        samples = annulus_points(pendulum, sec, 4, cfg, seed=3)
        r = check_period_invariance(sigma.period_of, sigma, samples)
        assert r.passed and r.max_residual <= 1e-7

    def test_off_cycle_map_fails(self, pendulum, cfg):
        shrink = lambda z: 0.5 * np.asarray(z, dtype=float)
        r = check_period_invariance(lambda z: period(pendulum, z, cfg), shrink,
                                    [np.array([2.0, 0.0])])
        assert not r.passed


class TestEnergyInvariance:
    def test_mirror_preserves(self, pendulum):
        r = check_energy_invariance(pendulum, lambda z: np.array([-z[0], z[1]]),
                                    SAMPLES)
        assert r.passed

    def test_shrink_fails(self, pendulum):
        r = check_energy_invariance(pendulum, lambda z: 0.5 * z, SAMPLES)
        assert not r.passed

    @pytest.mark.parametrize("h, z", [("log(x)", (-1.0, 0.5)), ("x*1e308", (10.0, 0.0))],
                             ids=["math-error", "overflow"])
    def test_undefined_energy_recorded(self, h, z):
        # H undefined at one sample: that sample is an error line, which
        # fails the check, and the other is checked
        from annulus_involutions.expr import PlanarField
        field = PlanarField.from_strings("-y", "x", hamiltonian=h)
        r = check_energy_invariance(field, lambda w: w.copy(),
                                    [np.array([1.0, 0.5]), np.array(z)])
        assert not r.passed and r.max_residual == 0.0
        assert len(r.errors) == 1 and r.errors[0].startswith(f"({z[0]:.6g}, {z[1]:.6g}): ")

    def test_requires_first_integral(self):
        from annulus_involutions.expr import PlanarField
        bare = PlanarField.from_strings("-y", "x")
        with pytest.raises(ValueError):
            check_energy_invariance(bare, mirror, SAMPLES)


class TestFixedSetDistance:
    def test_mirror_x_axis(self, linear_center):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        samples = SAMPLES + [np.array([0.5, 0.0]), np.array([1.7, 0.0])]
        r = fixed_set_distance(mirror, samples, sec)
        assert r.passed
        assert r.extras["on_delta_move"] <= 1e-10
        assert r.extras["fixed_dist_to_delta"] <= 1e-10
        # (1, 0) from the generic samples also sits on the section
        assert r.extras["n_on_delta"] == 3

    def test_swap_diagonal(self, linear_center):
        sec = make_section(linear_center, "s", "s", (0.2, 2.0), name="diagonal")
        swap = lambda z: np.array([z[1], z[0]])
        samples = [np.array(p) for p in
                   [(0.3, 0.8), (-0.5, 1.1), (1.4, -0.6), (0.8, 0.8)]]
        r = fixed_set_distance(swap, samples, sec)
        assert r.passed
        assert r.extras["on_delta_move"] <= 1e-10

    def test_small_move_is_not_fixed(self, linear_center):
        # the identity on the section that shifts every other point by
        # 5e-8: off the section it moves more than the 1e-8 "does not move"
        # gate, so the two points far from the section are not fixed points
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")

        def shift_off(z):
            return z if sec.distance(z) <= membership_tol(z) else (z[0] + 5e-8, z[1])

        samples = [np.array(p) for p in [(0.5, 0.0), (1.5, 0.0), (0.3, 0.9), (-1.0, 0.4)]]
        r = fixed_set_distance(shift_off, samples, sec)
        assert r.passed
        assert r.extras["n_on_delta"] == r.extras["n_fixed"] == 2

    def test_swap_fixed_ray_off_segment_fails(self, linear_center):
        # the swap also fixes the opposite ray of the diagonal line, which is
        # far from the [0.2, 2] segment: the check must flag that
        sec = make_section(linear_center, "s", "s", (0.2, 2.0), name="diagonal")
        swap = lambda z: np.array([z[1], z[0]])
        r = fixed_set_distance(swap, [np.array([-0.9, -0.9])], sec)
        assert not r.passed
        assert r.extras["fixed_dist_to_delta"] > 1.0

    def test_point_reflection_is_fixed_point_free(self, linear_center):
        # the half-turn moves every annulus point; section samples move by 2|z|
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        samples = SAMPLES + [np.array([1.0, 0.0])]
        r = fixed_set_distance(point_reflection, samples, sec)
        assert not r.passed
        assert r.extras["n_fixed"] == 0
        assert r.extras["on_delta_move"] == pytest.approx(2.0)

    def test_fixed_points_off_section_fail(self, linear_center):
        # the mirror in the y-axis fixes (0, y) points far from the section
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        ymirror = lambda z: np.array([-z[0], z[1]])
        r = fixed_set_distance(ymirror, [np.array([0.0, 1.3])], sec)
        assert not r.passed
        assert r.extras["fixed_dist_to_delta"] > 1.0


class TestLowerBound:
    def test_pass_and_fail(self):
        ok = check_lower_bound("margin", 0.5, 0.1)
        assert ok.passed and ok.max_residual == pytest.approx(-0.4)
        bad = check_lower_bound("margin", 0.05, 0.1)
        assert not bad.passed
        # the report invariant pass <=> residual <= tolerance still holds
        assert (bad.max_residual <= bad.tolerance) == bad.passed


class TestSampling:
    def test_parameters_deterministic_and_in_range(self):
        a = np.array(sample_parameters(20, 0.2, 2.0, seed=3))
        b = np.array(sample_parameters(20, 0.2, 2.0, seed=3))
        assert np.array_equal(a, b)
        assert np.all((a > 0.2) & (a < 2.0))

    def test_seeds_differ(self):
        assert not np.array_equal(sample_parameters(10, 0.0, 1.0, 0),
                                  sample_parameters(10, 0.0, 1.0, 1))

    def test_fractions_avoid_special_values(self):
        # a single nudge of 0.037 would leave a fraction just below 1/2 or 1
        # within 0.02 of 1/2 or 0; seed 99992 draws one at 0.4815
        for n, seed in [(50, 2), (4, 99992), *((4, s) for s in range(3000))]:
            f = np.array(sample_time_fractions(n, seed=seed))
            for special in (0.0, 0.5, 1.0):
                assert np.abs(f - special).min() >= 0.02, (seed, f)

    def test_annulus_points_on_cycles(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        pts = annulus_points(linear_center, sec, 8, cfg, seed=0)
        radii = np.linalg.norm(pts, axis=1)
        assert np.all((radii > 0.2) & (radii < 2.0))
        # reproducible
        again = annulus_points(linear_center, sec, 8, cfg, seed=0)
        assert np.array_equal(pts, again)


class TestReport:
    def _demo_report(self):
        checks = [
            CheckResult("a", 1e-9, 1e-7, (1.0, 0.0), None),
            CheckResult("b", 2e-3, 1e-6, (0.3, 0.8), 1.5, ["(1, 2): nope"]),
        ]
        return VerificationReport(checks=checks, provenance={"field": "demo",
                                                             "config_digest": "abc"})

    def test_counts_and_lookup(self):
        rep = self._demo_report()
        assert rep.counts() == (1, 2)
        assert not rep.all_pass
        assert rep["a"].passed
        with pytest.raises(KeyError):
            rep["missing"]

    def test_json_schema(self):
        rep = self._demo_report()
        data = json.loads(rep.to_json())
        assert set(data) == {"provenance", "all_pass", "checks"}
        chk = data["checks"][0]
        assert set(chk) == {"check_name", "max_residual", "tolerance", "pass",
                            "worst_point"}
        assert chk["worst_point"] == {"point": [1.0, 0.0], "time": None}
        failing = data["checks"][1]
        assert failing["pass"] is False
        assert failing["errors"] == ["(1, 2): nope"]

    def test_pass_iff_residual_within_tolerance(self):
        rep = self._demo_report()
        for c in rep.checks:
            assert c.passed == (c.max_residual <= c.tolerance)

    def test_csv_schema(self):
        text = self._demo_report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "check,residual,tolerance,pass"
        assert lines[1].startswith("a,1e-09,1e-07,true")
        assert lines[2].endswith("false")

    def test_completeness_despite_errors(self, linear_center, cfg):
        def broken(z):
            raise FlowError("always fails")

        checks = [
            check_involution(broken, SAMPLES),
            check_commutation(linear_center, broken, +1, SAMPLES, [1.0], cfg),
            check_field_condition(linear_center, broken, +1, SAMPLES),
        ]
        rep = VerificationReport(checks=checks, provenance={})
        assert len(rep.checks) == 3
        for c in rep.checks:
            assert not c.passed
            assert math.isinf(c.max_residual)
            assert len(c.errors) == len(SAMPLES)

    def test_determinism(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        samples = annulus_points(linear_center, sec, 5, cfg, seed=1)
        a = check_commutation(linear_center, mirror, -1, samples, [0.7, 2.1], cfg)
        b = check_commutation(linear_center, mirror, -1, samples, [0.7, 2.1], cfg)
        assert a.max_residual == b.max_residual
        assert a.worst_point == b.worst_point


class TestDigest:
    def test_stable_and_order_independent(self):
        a = config_digest({"x": 1, "y": 2})
        b = config_digest({"y": 2, "x": 1})
        assert a == b and len(a) == 12
        assert config_digest({"x": 1, "y": 3}) != a


def test_iterator_inputs_give_the_list_report(linear_center, cfg):
    # every check reads the samples, and check_commutation reads the times
    # once per sample, so one-shot iterators must give the report of lists
    from annulus_involutions.reversibility import verify_reversibility
    from annulus_involutions.symmetry import verify_sigma_symmetry

    sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
    samples = annulus_points(linear_center, sec, 3, cfg, seed=1)
    times = [0.4, -1.1]
    sigma = SymmetryInvolution(linear_center, cfg)
    runs = {
        "symmetry": lambda s, t: verify_sigma_symmetry(linear_center, sec, s, t, cfg),
        "reversibility": lambda s, t: verify_reversibility(linear_center, sec, s, t, cfg),
        "commutation": lambda s, t: check_commutation(linear_center, sigma, +1, s, t, cfg),
    }
    for name, run in runs.items():
        listed = run(list(samples), list(times)).to_dict()
        assert listed == run(iter(samples), iter(times)).to_dict(), name
        assert listed.get("all_pass", listed.get("pass")), name
