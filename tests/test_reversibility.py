import math

import numpy as np
import pytest

from annulus_involutions import reversibility
from annulus_involutions.errors import DomainError, EventNotFound, NotACycle, NotASection
from annulus_involutions.expr import PlanarField
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import flow
from annulus_involutions.memo import suite_scope
from annulus_involutions.period import period
from annulus_involutions.reversibility import (
    BranchTag,
    ReversibilityInvolution,
    _nearest_crossing,
    check_half_period_roundtrip,
    check_well_posedness,
    classify,
    conjugate_section,
    sigma_reversible,
    tau,
    tau_star,
    verify_reversibility,
)
from annulus_involutions.sections import make_section
from annulus_involutions.verify import annulus_points

from oracles import T_PENDULUM_HALF_PI


@pytest.fixture(scope="module")
def lc_xaxis(linear_center):
    return make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")


@pytest.fixture(scope="module")
def lc_diag(linear_center):
    return make_section(linear_center, "s", "s", (0.2, 2.0), name="diagonal")


@pytest.fixture(scope="module")
def lc_star(linear_center, lc_xaxis, cfg):
    return conjugate_section(linear_center, lc_xaxis, cfg)


@pytest.fixture(scope="module")
def pend_xaxis(pendulum):
    return make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")


# each built-in's default x-axis section, and the parabola in the pendulum,
# whose conjugate section is a tabulated curve
STAR_CASES = [*builtin_names(), "parabola"]


@pytest.fixture(scope="module")
def star_case(request, cfg):
    """The reversibility of one of STAR_CASES."""
    if request.param == "parabola":
        field = builtin_field("pendulum")
        delta = make_section(field, "s", "0.3*s^2", (0.35, 1.75), name="parabola")
    else:
        field = builtin_field(request.param)
        delta = make_section(field, "s", "0", default_section_range(request.param),
                             name="x-axis")
    return ReversibilityInvolution(field, delta, cfg)


def on_circle(theta, r=1.0):
    return np.array([r * math.cos(theta), r * math.sin(theta)])


def star_rows(star):
    """(s, x_star, y_star, T) per grid point of a conjugate section."""
    return ((s, x, y, T) for s, (x, y), T in zip(star.grid, star.points, star.periods))


class TestConjugateSection:
    def test_linear_center_x_axis(self, linear_center, lc_xaxis, lc_star):
        # the half turn sends (s, 0) to (-s, 0)
        for s, x, y, T in star_rows(lc_star):
            assert x == pytest.approx(-s, abs=1e-9)
            assert abs(y) <= 1e-9
            assert T == pytest.approx(2 * math.pi, abs=1e-9)

    def test_linear_center_diagonal(self, linear_center, lc_diag, cfg):
        star = conjugate_section(linear_center, lc_diag, cfg)
        for s, x, y, T in star_rows(star):
            assert x == pytest.approx(-s, abs=1e-9)
            assert y == pytest.approx(-s, abs=1e-9)

    def test_pendulum_x_axis(self, pendulum, pend_xaxis, cfg):
        # energy symmetry puts the half-period point of (s, 0) at (-s, 0)
        star = conjugate_section(pendulum, pend_xaxis, cfg)
        for s, x, y, T in star_rows(star):
            assert x == pytest.approx(-s, abs=1e-6)
            assert abs(y) <= 1e-6

    def test_image_is_transversal(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "s", (0.3, 1.5), name="diagonal")
        star = conjugate_section(cubic_center, sec, cfg)
        assert star.min_transversality > 1e-6


    @pytest.mark.parametrize("q, domain, s_hi, error, start", [
        ("x + 0*log(1.5 + y)", (-100.0, 100.0, -100.0, 100.0), 2.0, DomainError,
         "conjugate section failed at s = 1.55: field evaluation failed at "),
        ("x", (-1.0, 2.0, -2.0, 2.0), 1.4, NotACycle,
         "conjugate section failed at s = 1.025: orbit of (1.025, 0) left the domain: "),
    ], ids=["undefined-field", "left-the-domain"])
    def test_failure_keeps_its_type_and_names_s(self, cfg, q, domain, s_hi, error, start):
        field = PlanarField.from_strings("-y", q, domain=domain)
        delta = make_section(field, "s", "0", (0.2, s_hi))
        with pytest.raises(error) as info:
            conjugate_section(field, delta, cfg)
        assert type(info.value) is error
        assert str(info.value).startswith(start)


class TestTau:
    def test_quarter_turn_back(self, linear_center, lc_xaxis, cfg):
        assert tau(linear_center, lc_xaxis, on_circle(math.pi / 2), cfg) == \
            pytest.approx(-math.pi / 2, abs=1e-9)

    def test_quarter_turn_forward(self, linear_center, lc_xaxis, cfg):
        assert tau(linear_center, lc_xaxis, on_circle(3 * math.pi / 2), cfg) == \
            pytest.approx(math.pi / 2, abs=1e-9)

    def test_zero_on_section(self, linear_center, lc_xaxis, cfg):
        assert tau(linear_center, lc_xaxis, [1.3, 0.0], cfg) == 0.0

    def test_shift_law_pendulum(self, pendulum, pend_xaxis, cfg):
        # tau(phi(t, z)) = tau(z) - t with tau((pi/2, 0)) = 0
        z0 = np.array([math.pi / 2, 0.0])
        z = flow(pendulum, z0, 1.0, cfg)
        assert tau(pendulum, pend_xaxis, z, cfg) == pytest.approx(-1.0, abs=1e-7)

    def test_shift_law_generic(self, duffing, cfg):
        sec = make_section(duffing, "s", "0", (0.3, 1.5), name="x-axis")
        z = np.array([1.0, 0.2])
        t0 = tau(duffing, sec, z, cfg)
        for t in (0.25, -0.4, 0.9):
            zt = flow(duffing, z, t, cfg)
            assert tau(duffing, sec, zt, cfg) == pytest.approx(t0 - t, abs=1e-7)

    def test_range(self, pendulum, pend_xaxis, cfg):
        z0 = np.array([1.5, 0.0])
        T = period(pendulum, z0, cfg)
        for frac in (0.1, 0.26, 0.43, 0.61, 0.77, 0.93):
            z = flow(pendulum, z0, frac * T, cfg)
            t = tau(pendulum, pend_xaxis, z, cfg)
            assert -T / 2 < t < T / 2

    @pytest.mark.parametrize("name", builtin_names())
    def test_tie_is_plus_half_period(self, name, cfg):
        # a point of delta_star is half a period from delta both ways (and a
        # point of delta from delta_star); the time is +T/2 whichever
        # crossing search comes out nearer in the last bits
        field = builtin_field(name)
        delta = make_section(field, "s", "0", default_section_range(name), name="x-axis")
        star = conjugate_section(field, delta, cfg)
        i = len(delta.grid) // 2
        half = 0.5 * star.periods[i]
        for t in (tau(field, delta, star.points[i], cfg),
                  tau_star(field, star, delta.point(delta.grid[i]), cfg)):
            assert t > 0.0
            assert t == pytest.approx(half, rel=1e-8)

    def test_hit_point_on_section(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "s", (0.3, 1.5), name="diagonal")
        z = flow(cubic_center, [1.0, 1.0], 1.1, cfg)
        t, z_hit = _nearest_crossing(cubic_center, sec, z, cfg)[:2]
        s_hit, _ = sec.project(z_hit)
        assert np.linalg.norm(np.subtract(z_hit, sec.point(s_hit))) <= 1e-8
        assert np.linalg.norm(np.subtract(flow(cubic_center, z, t, cfg), z_hit)) <= 1e-8

    @pytest.mark.parametrize("start, detections", [((0.4, 0.9), 1), ((0.8, 0.192), 0)],
                             ids=["off", "on"])
    def test_tau_projects_no_crossing(self, pendulum, cfg, monkeypatch, start, detections):
        # outside its one cycle detection tau projects once, for the
        # membership test: it does not project the crossing point;
        # (0.8, 0.3 * 0.8^2) lies on the section, so its tau detects nothing
        sec = make_section(pendulum, "s", "0.3*s^2", (0.35, 1.75), name="parabola")
        calls, during = [], []
        project = sec.project
        sec.project = lambda z: calls.append(1) or project(z)
        detect = reversibility.detect_cycle

        def counted(*args, **kwargs):
            before = len(calls)
            cycle = detect(*args, **kwargs)
            during.append(len(calls) - before)
            return cycle

        monkeypatch.setattr(reversibility, "detect_cycle", counted)
        t = tau(pendulum, sec, start, cfg)
        assert len(during) == detections
        assert len(calls) - sum(during) == 1
        assert (t == 0.0) == (detections == 0)

    def test_orbit_missing_section(self, linear_center, cfg):
        # the radius-1 cycle closes and never meets the short segment: the
        # crossing count over one period is 0, not a search to the horizon
        short = make_section(linear_center, "s", "0", (0.2, 0.5), name="short")
        with pytest.raises(EventNotFound) as exc:
            tau(linear_center, short, on_circle(math.pi / 2), cfg)
        assert "meets the cycle through" in str(exc.value)
        assert "0 times per period" in str(exc.value)

    def test_double_crossing_detected(self, linear_center, cfg):
        # a horizontal chord meets the r = 1.8 cycle twice; grid validation
        # would refuse it (tangency at x = 0), so build the curve directly,
        # set its certificate, and check the per-sample guard in tau
        from annulus_involutions.expr import parse
        from annulus_involutions.sections import ExpressionCurve

        grid = np.linspace(-1.9, 1.9, 33)
        chord = ExpressionCurve(parse("s", ("s",)), parse("1.2", ("s",)),
                                -1.9, 1.9, grid)
        chord.label, chord.orientation, chord.min_transversality = "chord", 1, 1.0
        with pytest.raises(NotASection):
            tau(linear_center, chord, on_circle(0.3, r=1.8), cfg)


class TestTauStar:
    def test_forward_quarter(self, linear_center, lc_star, cfg):
        assert tau_star(linear_center, lc_star, on_circle(math.pi / 2), cfg) == \
            pytest.approx(math.pi / 2, abs=1e-8)

    def test_backward_quarter(self, linear_center, lc_star, cfg):
        assert tau_star(linear_center, lc_star, on_circle(3 * math.pi / 2), cfg) == \
            pytest.approx(-math.pi / 2, abs=1e-8)

    def test_zero_on_conjugate(self, linear_center, lc_star, cfg):
        assert tau_star(linear_center, lc_star, [-1.3, 0.0], cfg) == 0.0

    def test_class_tau_star(self, linear_center, lc_xaxis, cfg):
        # the involution's tau_star is the module's on its own delta_star
        rev = ReversibilityInvolution(linear_center, lc_xaxis, cfg)
        for theta in (0.4, 2.0, 4.5):
            z = on_circle(theta, 1.1)
            assert rev.tau_star(z).hex() == tau_star(linear_center, rev.delta_star, z,
                                                     cfg).hex()

    def test_half_period_relation(self, pendulum, pend_xaxis, cfg):
        # tau* = tau + T/2 on the forward arc, tau - T/2 on the backward arc
        star = conjugate_section(pendulum, pend_xaxis, cfg)
        z0 = np.array([math.pi / 2, 0.0])
        T = T_PENDULUM_HALF_PI
        z_plus = flow(pendulum, z0, 0.2 * T, cfg)  # forward arc
        assert tau_star(pendulum, star, z_plus, cfg) == pytest.approx(
            tau(pendulum, pend_xaxis, z_plus, cfg) + T / 2, abs=1e-6)
        z_minus = flow(pendulum, z0, 0.8 * T, cfg)  # backward arc
        assert tau_star(pendulum, star, z_minus, cfg) == pytest.approx(
            tau(pendulum, pend_xaxis, z_minus, cfg) - T / 2, abs=1e-6)


class TestClassify:
    def test_forward_arc(self, linear_center, lc_xaxis, lc_star, cfg):
        tag, times = classify(linear_center, lc_xaxis, lc_star,
                              on_circle(math.pi / 2), cfg)
        assert tag is BranchTag.A_PLUS
        assert times["delta"] == pytest.approx(-math.pi / 2, abs=1e-8)
        assert times["delta_star"] == pytest.approx(-3 * math.pi / 2, abs=1e-8)

    def test_backward_arc(self, linear_center, lc_xaxis, lc_star, cfg):
        tag, times = classify(linear_center, lc_xaxis, lc_star,
                              on_circle(3 * math.pi / 2), cfg)
        assert tag is BranchTag.A_MINUS
        assert times["delta_star"] == pytest.approx(-math.pi / 2, abs=1e-8)

    def test_memberships(self, linear_center, lc_xaxis, lc_star, cfg):
        assert classify(linear_center, lc_xaxis, lc_star, [1.3, 0.0], cfg)[0] \
            is BranchTag.ON_DELTA
        assert classify(linear_center, lc_xaxis, lc_star, [-1.3, 0.0], cfg)[0] \
            is BranchTag.ON_DELTA_STAR

    def test_partition_samples(self, linear_center, lc_xaxis, lc_star, cfg):
        rng = np.random.default_rng(9)
        for _ in range(12):
            theta = rng.uniform(0.0, 2 * math.pi)
            r = rng.uniform(0.3, 1.9)
            tag, _ = classify(linear_center, lc_xaxis, lc_star,
                              on_circle(theta, r), cfg)
            if 1e-3 < theta < math.pi - 1e-3:
                assert tag is BranchTag.A_PLUS
            elif math.pi + 1e-3 < theta < 2 * math.pi - 1e-3:
                assert tag is BranchTag.A_MINUS


class TestSigmaReversible:
    def test_mirror_on_x_axis(self, linear_center, lc_xaxis, cfg):
        img = np.asarray(sigma_reversible(linear_center, lc_xaxis, [0.0, 1.0], cfg))
        assert np.abs(img - [0.0, -1.0]).max() <= 1e-9

    def test_swap_on_diagonal(self, linear_center, lc_diag, cfg):
        img = np.asarray(sigma_reversible(linear_center, lc_diag, [1.0, 0.0], cfg))
        assert np.abs(img - [0.0, 1.0]).max() <= 1e-9

    def test_mirror_everywhere(self, linear_center, lc_xaxis, cfg):
        rev = ReversibilityInvolution(linear_center, lc_xaxis, cfg)
        rng = np.random.default_rng(5)
        for _ in range(8):
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            r = rng.uniform(0.3, 1.9)
            z = on_circle(theta, r)
            assert np.abs(np.asarray(rev(z)) - [z[0], -z[1]]).max() <= 1e-8

    def test_pendulum_reversal_identity(self, pendulum, pend_xaxis, cfg):
        # sigma(phi(t, z0)) = phi(-t, z0) for z0 on the section
        rev = ReversibilityInvolution(pendulum, pend_xaxis, cfg)
        z0 = np.array([1.0, 0.0])
        z = flow(pendulum, z0, 0.7, cfg)
        expected = flow(pendulum, z0, -0.7, cfg)
        assert np.linalg.norm(np.subtract(rev(z), expected)) <= 1e-6

    def test_fixed_on_section(self, pendulum, pend_xaxis, cfg):
        rev = ReversibilityInvolution(pendulum, pend_xaxis, cfg)
        for s in (0.4, 1.1, 2.3):
            z = pend_xaxis.point(s)
            assert np.array_equal(rev(z), z)

    @pytest.mark.parametrize("i", range(33))
    @pytest.mark.parametrize("star_case", STAR_CASES, indirect=True)
    def test_conjugate_curve_also_fixed(self, star_case, i):
        # each cycle carries exactly two fixed points of the involution:
        # its section point and its conjugate point, which sigma reaches
        # through the tie's time +T/2 as phi(T, z), not by a membership test
        z = star_case.delta_star.points[i]
        assert math.dist(star_case(z), z) <= 1e-8

    def test_wiggle_spline_points_move(self, linear_center, cfg):
        # the README's known-limit section: every grid point sits on a zero
        # of its sine, so the spline delta_star is the straight negative
        # x-axis, which misses the true conjugate curve between grid points;
        # sigma reads delta alone, so a point of the spline moves 0.040, and
        # 5e-8 off it nothing compares the spline's time route with delta's
        delta = make_section(linear_center, "s", "0.02*sin(55.850536063818545*(s - 0.2))",
                             (0.2, 2.0), name="wiggle")
        rev = ReversibilityInvolution(linear_center, delta, cfg)
        star = rev.delta_star
        s = 0.5 * (star.grid[4] + star.grid[5])
        z = star.point(s)
        tx, ty = star.tangent(s)
        off = (z[0] - 5e-8 * ty / math.hypot(tx, ty), z[1] + 5e-8 * tx / math.hypot(tx, ty))
        for w in (z, off):
            image = rev(w)
            assert [c.hex() for c in image] == \
                [c.hex() for c in sigma_reversible(linear_center, delta, w, cfg)]
            assert math.dist(image, w) > 0.03

    def test_involution_property(self, duffing, cfg):
        sec = make_section(duffing, "s", "0", (0.3, 1.5), name="x-axis")
        rev = ReversibilityInvolution(duffing, sec, cfg)
        samples = annulus_points(duffing, sec, 6, cfg, seed=3)
        for z in samples:
            assert np.linalg.norm(np.subtract(rev(rev(z)), z)) <= 1e-7 * (1 + np.linalg.norm(z))

    def test_anticommutation(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "s", (0.3, 1.5), name="diagonal")
        rev = ReversibilityInvolution(cubic_center, sec, cfg)
        samples = annulus_points(cubic_center, sec, 4, cfg, seed=6)
        for z in samples:
            for t in (0.4, 1.2):
                a = rev(flow(cubic_center, z, t, cfg))
                b = flow(cubic_center, rev(z), -t, cfg)
                assert np.linalg.norm(np.subtract(a, b)) <= 1e-6

    def test_well_posedness_identity(self, pendulum, pend_xaxis, cfg):
        # phi(2 tau*(z), z) = phi(2 tau(z), z) off both curves
        star = conjugate_section(pendulum, pend_xaxis, cfg)
        z0 = np.array([1.2, 0.0])
        T = period(pendulum, z0, cfg)
        for frac in (0.13, 0.31, 0.68, 0.87):
            z = flow(pendulum, z0, frac * T, cfg)
            a = flow(pendulum, z, 2 * tau(pendulum, pend_xaxis, z, cfg), cfg)
            b = flow(pendulum, z, 2 * tau_star(pendulum, star, z, cfg), cfg)
            assert np.linalg.norm(np.subtract(a, b)) <= 1e-6

    def test_involution_via_shift_law(self, pendulum, pend_xaxis, cfg):
        # tau(sigma(z)) = -tau(z)
        rev = ReversibilityInvolution(pendulum, pend_xaxis, cfg)
        z = flow(pendulum, np.array([1.4, 0.0]), 1.9, cfg)
        t = rev.tau(z)
        assert rev.tau(rev(z)) == pytest.approx(-t, abs=1e-7)

    def test_class_tau_stays_in_half_period_window(self, pendulum, pend_xaxis, cfg):
        # (0, 1) reaches the section forward in time; tau must stay the
        # nearest crossing, in (-T/2, T/2], however often the class was used
        rev = ReversibilityInvolution(pendulum, pend_xaxis, cfg)
        z = np.array([0.0, 1.0])
        rev(z)
        t = rev.tau(z)
        assert t == tau(pendulum, pend_xaxis, z, cfg)
        assert abs(t) <= 0.5 * period(pendulum, z, cfg)
        assert np.linalg.norm(np.subtract(rev(z), sigma_reversible(pendulum, pend_xaxis, z, cfg))) <= 1e-9

    def test_class_tau_stays_in_half_period_window_in_suite_scope(self, pendulum,
                                                                  pend_xaxis, cfg):
        with suite_scope():
            self.test_class_tau_stays_in_half_period_window(pendulum, pend_xaxis, cfg)


class TestRectifiedChart:
    def test_sigma_is_time_reflection_in_flow_coordinates(self, duffing, cfg):
        # chart near the section: u = -tau(z), v = parameter of the backward
        # section hit; in these coordinates sigma is (u, v) -> (-u, v)
        sec = make_section(duffing, "s", "0", (0.3, 1.5), name="x-axis")
        rev = ReversibilityInvolution(duffing, sec, cfg)

        def chart(z):
            t, z_hit = _nearest_crossing(duffing, sec, z, cfg)[:2]
            s_hit, _ = sec.project(z_hit)
            return -t, s_hit

        rng = np.random.default_rng(17)
        for _ in range(6):
            z0 = sec.point(rng.uniform(0.5, 1.3))
            z = flow(duffing, z0, rng.uniform(-0.4, 0.4), cfg)
            u, v = chart(z)
            u_im, v_im = chart(rev(z))
            assert u_im == pytest.approx(-u, abs=1e-6)
            assert v_im == pytest.approx(v, abs=1e-6)


class TestDistinctness:
    def test_different_sections_give_different_involutions(self, linear_center,
                                                           lc_xaxis, lc_diag, cfg):
        rev1 = ReversibilityInvolution(linear_center, lc_xaxis, cfg)
        rev2 = ReversibilityInvolution(linear_center, lc_diag, cfg)
        # radii covered by both sections: x-axis spans [0.2, 2], the diagonal
        # segment spans [0.28, 2.83]
        samples = [on_circle(th, r) for th, r in
                   [(0.4, 0.5), (1.7, 1.0), (2.9, 1.5), (4.1, 0.8), (5.3, 1.9)]]
        gaps = [np.linalg.norm(np.subtract(rev1(z), rev2(z))) for z in samples]
        assert max(gaps) > 0.1


class TestVerifySuite:
    def test_linear_center_x_axis(self, linear_center, lc_xaxis, cfg):
        samples = annulus_points(linear_center, lc_xaxis, 10, cfg, seed=1)
        report = verify_reversibility(linear_center, lc_xaxis, samples,
                                      [0.3, 1.0, 2.5], cfg)
        assert report.all_pass
        assert report["flow_anticommutation"].max_residual <= 1e-8

    def test_duffing_x_axis(self, duffing, cfg):
        sec = make_section(duffing, "s", "0", (0.3, 1.5), name="x-axis")
        samples = annulus_points(duffing, sec, 8, cfg, seed=1)
        report = verify_reversibility(duffing, sec, samples, [0.4, 1.1, 2.0], cfg)
        assert report.all_pass

    def test_cubic_diagonal(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "s", (0.3, 1.5), name="diagonal")
        samples = annulus_points(cubic_center, sec, 6, cfg, seed=1)
        report = verify_reversibility(cubic_center, sec, samples, [0.5, 1.4], cfg)
        assert report.all_pass

    def test_check_functions_standalone(self, pendulum, pend_xaxis, cfg):
        star = conjugate_section(pendulum, pend_xaxis, cfg)
        samples = annulus_points(pendulum, pend_xaxis, 5, cfg, seed=2)
        wp = check_well_posedness(pendulum, pend_xaxis, star, samples, cfg)
        assert wp.passed and wp.max_residual <= 1e-6
        rt = check_half_period_roundtrip(pendulum, pend_xaxis, star, cfg)
        assert rt.passed and rt.max_residual <= 1e-6
