import math
from functools import partial

import numpy as np
import pytest

from annulus_involutions import symmetry
from annulus_involutions.expr import PlanarField
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import _dop853, flow
from annulus_involutions.memo import suite_scope
from annulus_involutions.period import detect_cycle, period
from annulus_involutions.sections import make_section
from annulus_involutions.symmetry import (
    SymmetryInvolution,
    sigma_symmetric,
    uniqueness_probe,
    verify_sigma_symmetry,
)
from annulus_involutions.verify import annulus_points

from oracles import T_PENDULUM_HALF_PI, scipy_dop853, uniqueness_probe_reference


class TestSigmaSymmetric:
    def test_linear_center_is_point_reflection(self, linear_center, cfg):
        assert np.abs(np.asarray(sigma_symmetric(linear_center, [1.0, 0.0], cfg))
                      - [-1.0, 0.0]).max() <= 1e-9
        assert np.abs(np.asarray(sigma_symmetric(linear_center, [0.6, 0.8], cfg))
                      - [-0.6, -0.8]).max() <= 1e-9

    def test_pendulum_amplitude_reflection(self, pendulum, cfg):
        # the orbit through (a, 0) has even energy U(x) = U(-x), so the
        # half-period point is (-a, 0)
        z = np.asarray(sigma_symmetric(pendulum, [math.pi / 2, 0.0], cfg))
        assert np.abs(z - [-math.pi / 2, 0.0]).max() <= 1e-7

    def test_involution_class_matches_function(self, duffing, cfg):
        sigma = SymmetryInvolution(duffing, cfg)
        z = np.array([0.9, 0.3])
        assert np.linalg.norm(np.subtract(sigma(z), sigma_symmetric(duffing, z, cfg))) <= 1e-9

    def test_two_wells_on_one_energy_level(self, cfg):
        # the level H = E has one cycle in each well, with different periods
        # (5.2396 right, 5.1310 left); evaluating the right well first must
        # not change sigma on the left well
        field = PlanarField.from_strings(
            "y", "x - x^3 - 0.3*x^2 - 0.1*x^5", name="asymmetric-wells",
            domain=(-3.0, 3.0, -3.0, 3.0),
            hamiltonian="y^2/2 - x^2/2 + x^4/4 + 0.1*x^3 + x^6/60")
        z_right = np.array([1.09291, 0.0])
        energy = field.energy(z_right)
        x_left = -1.2
        z_left = np.array([x_left, math.sqrt(2.0 * (energy - field.energy([x_left, 0.0])))])
        assert field.energy(z_left) == pytest.approx(energy, abs=1e-15)
        assert period(field, z_right, cfg) - period(field, z_left, cfg) > 0.1
        sigma = SymmetryInvolution(field, cfg)
        sigma(z_right)
        image = sigma(z_left)
        assert np.array_equal(sigma(z_left), image)
        assert np.linalg.norm(sigma(image) - z_left) <= 1e-7
        assert np.linalg.norm(np.subtract(image, sigma_symmetric(field, z_left, cfg))) <= 1e-9

    def test_two_wells_on_one_energy_level_in_suite_scope(self, cfg):
        # the memo keys on the exact point, so the wells stay apart there too
        with suite_scope():
            self.test_two_wells_on_one_energy_level(cfg)


def _step_holding(traj, s):
    """The accepted step of a forward trajectory that holds time s."""
    return next(st for st in reversed(traj.steps) if st.s0 <= s)


class TestImageAccuracy:
    """The image is the cycle detection's propagated solution at T/2: one
    partial step from the start of the step holding it, not an interpolant
    of that step."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_image_is_flow_from_step_start(self, name, cfg):
        field = builtin_field(name)
        z = (0.8, 0.3)
        cyc = detect_cycle(field, z, cfg)
        half = 0.5 * cyc.period
        step = _step_holding(cyc.trajectory, half)
        assert step.s0 < half < step.s0 + step.h
        image = sigma_symmetric(field, z, cfg)
        # the generic step, calling the field at every stage, gives the
        # field's own step's bits
        assert image == cyc.trajectory.state(half) == \
            step.state(partial(_dop853, field.rhs), 1.0, half)
        start = (step.c1x, step.c1y)
        assert math.dist(image, flow(field, start, half - step.s0, cfg)) <= 1e-12

    @pytest.mark.parametrize("name", builtin_names())
    def test_energy_error_below_dense_output(self, name, cfg):
        # 16 points at amplitudes 0.25 .. 1.9; the largest energy error of
        # DOP853's 7th-order dense output of the same step (scipy's, from
        # the step's start) is 3.6 (pendulum) to 78 (linear-center) times
        # the image's
        field = builtin_field(name)
        image_err = dense_err = 0.0
        for k in range(16):
            a, th = 0.25 + 0.11 * k, 0.7 * k + 0.3
            z = (a * math.cos(th), a * math.sin(th))
            cyc = detect_cycle(field, z, cfg)
            h = field.energy(z)
            image_err = max(image_err, abs(field.energy(sigma_symmetric(field, z, cfg)) - h))
            half = 0.5 * cyc.period
            step = _step_holding(cyc.trajectory, half)
            sol = scipy_dop853(field, (step.c1x, step.c1y), step.s0, step.s0 + 2.0 * step.h,
                               cfg, step.h)
            sol.step()
            dense = sol.dense_output()(half)
            dense_err = max(dense_err, abs(field.energy(dense) - h))
        assert image_err <= 0.5 * dense_err


class TestInvolutionProperties:
    def test_involution_residual(self, pendulum, cfg):
        sigma = SymmetryInvolution(pendulum, cfg)
        sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
        for z in annulus_points(pendulum, sec, 6, cfg, seed=2):
            err = np.linalg.norm(np.subtract(sigma(sigma(z)), z))
            assert err <= 1e-7 * (1.0 + np.linalg.norm(z))

    def test_flow_commutation(self, cubic_center, cfg):
        sigma = SymmetryInvolution(cubic_center, cfg)
        sec = make_section(cubic_center, "s", "0", (0.5, 2.0), name="x-axis")
        samples = annulus_points(cubic_center, sec, 5, cfg, seed=4)
        for z in samples:
            for t in (0.3, 1.0, 2.5):
                a = sigma(flow(cubic_center, z, t, cfg))
                b = flow(cubic_center, sigma(z), t, cfg)
                assert np.linalg.norm(np.subtract(a, b)) <= 1e-6

    def test_cycle_invariance(self, pendulum, cfg):
        sigma = SymmetryInvolution(pendulum, cfg)
        for a in (0.8, 1.6, 2.4):
            z = np.array([a, 0.0])
            tz = period(pendulum, z, cfg)
            tsz = period(pendulum, sigma(z), cfg)
            assert abs(tsz - tz) <= 1e-7 * tz
            assert abs(pendulum.energy(sigma(z)) - pendulum.energy(z)) <= 1e-8

    def test_non_trivial(self, linear_center, pendulum, duffing, cubic_center, cfg):
        for field, rng in [(linear_center, (0.2, 2.0)), (pendulum, (0.3, 2.5)),
                           (duffing, (0.3, 1.5)), (cubic_center, (0.25, 2.0))]:
            sec = make_section(field, "s", "0", rng, name="x-axis")
            sigma = SymmetryInvolution(field, cfg)
            moves = [np.linalg.norm(np.subtract(sigma(z), z))
                     for z in annulus_points(field, sec, 4, cfg, seed=5)]
            assert max(moves) > 0.1


class TestUniquenessProbe:
    def test_half_shift_is_involution(self, linear_center, cfg):
        assert uniqueness_probe(linear_center, [1.0, 0.0], [0.5], cfg)[0] <= 1e-9

    def test_quarter_shift_is_half_turn(self, linear_center, cfg):
        # two quarter-period shifts compose to the half turn: residual 2|z|
        [res] = uniqueness_probe(linear_center, [1.0, 0.0], [0.25], cfg)
        assert res == pytest.approx(2.0, abs=1e-9)

    def test_pendulum_generic_fraction(self, pendulum, cfg):
        [res] = uniqueness_probe(pendulum, [math.pi / 2, 0.0], [0.3], cfg)
        # displaced along the cycle by 0.6 T
        expected = np.linalg.norm(
            np.asarray(flow(pendulum, [math.pi / 2, 0.0], 0.6 * T_PENDULUM_HALF_PI, cfg))
            - [math.pi / 2, 0.0])
        assert res == pytest.approx(expected, abs=1e-8)
        assert res > 0.1

    def test_grid_dichotomy(self, linear_center, cfg):
        fractions = [0.05 * k for k in range(1, 20)]
        residuals = uniqueness_probe(linear_center, [1.0, 0.0], fractions, cfg)
        for k, res in enumerate(residuals, start=1):
            if k == 10:
                assert res <= 1e-8
            else:
                assert res > 1e-3

    def test_one_cycle_detection(self, pendulum, cfg, monkeypatch):
        # off the half both legs are read from the cycle of z; f = 1/2 is
        # sigma applied twice, to z and to its image
        calls = {"detect_cycle": [], "sigma_symmetric": []}
        for name, log in calls.items():
            real = getattr(symmetry, name)
            monkeypatch.setattr(symmetry, name, lambda field, z, *rest, _real=real, _log=log:
                                _log.append(z) or _real(field, z, *rest))
        z = (math.pi / 2, 0.0)
        grid = [round(0.05 * k, 2) for k in range(1, 20)]  # the suite's grid
        uniqueness_probe(pendulum, z, grid, cfg)
        assert calls["detect_cycle"] == [z]
        assert calls["sigma_symmetric"] == [z, sigma_symmetric(pendulum, z, cfg)]

    @pytest.mark.parametrize("name", builtin_names())
    def test_off_half_matches_two_detections(self, name, cfg):
        # phi(f T, phi(f T, z)) read from one cycle agrees with detecting
        # the cycle again at the image, at the probe point of the suite
        field = builtin_field(name)
        sec = make_section(field, "s", "0", default_section_range(name), name="x-axis")
        z = sec.point(0.5 * (sec.s_min + sec.s_max))
        off = [f for f in symmetry._UNIQUENESS_GRID if f != 0.5]
        got = uniqueness_probe(field, z, off, cfg)
        want = uniqueness_probe_reference(field, z, off, cfg)
        for f, g, w in zip(off, got, want):
            assert g == pytest.approx(w, rel=1e-9), f


class TestVerifySuite:
    def test_linear_center_report(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        samples = annulus_points(linear_center, sec, 10, cfg, seed=1)
        report = verify_sigma_symmetry(linear_center, sec, samples,
                                       [0.3, 1.0, 2.5], cfg)
        assert report.all_pass
        assert report["involution"].max_residual <= 1e-8
        assert report["flow_commutation"].max_residual <= 1e-8

    def test_pendulum_report(self, pendulum, cfg):
        sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
        samples = annulus_points(pendulum, sec, 10, cfg, seed=1)
        report = verify_sigma_symmetry(pendulum, sec, samples, [0.3, 1.0, 2.5], cfg)
        assert report.all_pass
        assert report["flow_commutation"].max_residual <= 1e-6

    def test_cubic_report(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "0", (0.5, 2.0), name="x-axis")
        samples = [cubic_center_pt for cubic_center_pt in
                   annulus_points(cubic_center, sec, 3, cfg, seed=1)]
        samples += [np.array([0.5, 0.0]), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        report = verify_sigma_symmetry(cubic_center, sec, samples, [0.4, 1.3], cfg)
        assert report.all_pass
        assert report["involution"].max_residual <= 1e-6

    def test_report_structure(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        samples = annulus_points(linear_center, sec, 4, cfg, seed=1)
        report = verify_sigma_symmetry(linear_center, sec, samples, [1.0], cfg)
        names = [c.name for c in report.checks]
        assert names == ["involution", "flow_commutation", "period_invariance",
                         "field_condition_symmetry", "energy_invariance",
                         "non_triviality", "uniqueness_half_shift",
                         "uniqueness_off_half_shifts"]
        assert len(set(names)) == len(names)
