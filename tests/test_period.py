import math

import numpy as np
import pytest

from annulus_involutions import period as period_mod
from annulus_involutions.errors import CriticalPointError, NotACycle
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import flow
from annulus_involutions.period import detect_cycle, period
from annulus_involutions.sections import curve_event, make_section

from oracles import (
    T_CUBIC_AMP1,
    T_DUFFING_AMP1,
    T_PENDULUM_HALF_PI,
    cubic_center_period,
    cubic_quarter_integral,
    duffing_period,
    pendulum_period,
    pendulum_period_energy,
)


class TestOracles:
    """The quadrature oracles agree with each other and the frozen constants."""

    def test_pendulum_two_routes(self):
        assert pendulum_period(math.pi / 2) == pytest.approx(T_PENDULUM_HALF_PI, abs=1e-12)
        assert pendulum_period_energy(math.pi / 2) == pytest.approx(T_PENDULUM_HALF_PI, abs=1e-9)

    def test_duffing_frozen(self):
        assert duffing_period(1.0) == pytest.approx(T_DUFFING_AMP1, abs=1e-11)

    def test_cubic_frozen(self):
        assert 4.0 * cubic_quarter_integral() == pytest.approx(T_CUBIC_AMP1, abs=1e-11)


class TestDetectCycle:
    def test_linear_center(self, linear_center, cfg):
        c = detect_cycle(linear_center, [1.0, 0.0], cfg)
        assert c.period == pytest.approx(2 * math.pi, abs=1e-9)
        assert c.closure_residual <= 1e-8 * 2.0

    def test_pendulum_vs_quadrature(self, pendulum, cfg):
        c = detect_cycle(pendulum, [math.pi / 2, 0.0], cfg)
        assert c.period == pytest.approx(T_PENDULUM_HALF_PI, abs=1e-6)

    def test_cubic_scaling_constant(self, cubic_center, cfg):
        vals = [period(cubic_center, [lam, 0.0], cfg) * lam ** 2
                for lam in (0.5, 1.0, 2.0)]
        ref = vals[1]
        for v in vals:
            assert abs(v - ref) <= 1e-5 * ref

    def test_critical_point(self, linear_center, cfg):
        with pytest.raises(CriticalPointError):
            detect_cycle(linear_center, [0.0, 0.0], cfg)

    def test_not_a_cycle_outside_separatrix(self, pendulum, cfg):
        # rotation orbits beyond the separatrix never return to the transversal
        with pytest.raises(NotACycle):
            detect_cycle(pendulum, [0.0, 2.5], cfg)

    @pytest.mark.parametrize("name", builtin_names())
    def test_watched_curve_keeps_the_bits(self, name, cfg):
        # a non-terminal event does not steer step control: watching the
        # section leaves the period, every step start and the end state
        # with the bits of the plain detection
        field = builtin_field(name)
        lo, hi = default_section_range(name)
        sec = make_section(field, "s", "0", (lo, hi), name="x-axis")
        z = flow(field, sec.point(0.5 * (lo + hi)), 0.3, cfg)
        plain = detect_cycle(field, z, cfg)
        watched = detect_cycle(field, z, cfg, events=[curve_event(sec, terminal=False)])

        def bits(cyc):
            traj = cyc.trajectory
            return ([(st.s0.hex(), st.h.hex(), st.c1x.hex(), st.c1y.hex()) for st in traj.steps],
                    [v.hex() for v in traj.z_final], cyc.period.hex())

        assert bits(watched) == bits(plain)
        # the section's one crossing, then the return that ends the detection
        assert [hit.index for hit in watched.trajectory.events] == [1, 0]

    def test_watched_curve_without_return(self, pendulum, cfg, monkeypatch):
        # a rotation orbit crosses the line x = 1 but never returns: the
        # crossing alone does not make a cycle
        monkeypatch.setattr(period_mod, "MAX_HORIZON", 1.0)
        line = make_section(pendulum, "1", "s", (2.0, 3.0), name="x = 1")
        with pytest.raises(NotACycle, match="no return"):
            detect_cycle(pendulum, [0.0, 2.5], cfg,
                         events=[curve_event(line, terminal=False)])

    def test_cached_trajectory_covers_period(self, duffing, cfg):
        c = detect_cycle(duffing, [1.0, 0.0], cfg)
        mid = np.asarray(c.trajectory.state(0.5 * c.period))
        assert np.abs(mid - [-1.0, 0.0]).max() <= 1e-8

    def test_minimality_duffing(self, duffing, cfg):
        # the orbit crosses the x-axis twice per period; the direction filter
        # must reject the mid-period crossing and report the full period
        T = period(duffing, [1.0, 0.0], cfg)
        assert T == pytest.approx(T_DUFFING_AMP1, abs=1e-6)
        assert abs(T - 0.5 * T_DUFFING_AMP1) > 1.0

    def test_minimality_linear_center(self, linear_center, cfg):
        assert period(linear_center, [0.7, 0.7], cfg) == pytest.approx(2 * math.pi, abs=1e-9)


class TestPeriodFunction:
    def test_linear_center_everywhere(self, linear_center, cfg):
        assert period(linear_center, [0.3, 0.4], cfg) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_first_integral_property(self, pendulum, cfg):
        # T(phi(t, z)) = T(z); spot check along one pendulum cycle
        z0 = np.array([math.pi / 2, 0.0])
        T0 = period(pendulum, z0, cfg)
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.0, T0, size=6):
            assert abs(period(pendulum, flow(pendulum, z0, float(t), cfg), cfg) - T0) \
                <= 1e-7 * T0

    def test_first_integral_all_builtins(self, linear_center, pendulum, duffing,
                                         cubic_center, cfg):
        rng = np.random.default_rng(11)
        cases = [(linear_center, [1.2, 0.0]), (pendulum, [1.0, 0.0]),
                 (duffing, [0.8, 0.0]), (cubic_center, [1.0, 0.0])]
        for field, z0 in cases:
            T0 = period(field, z0, cfg)
            for t in rng.uniform(-T0, T0, size=5):
                z = flow(field, np.asarray(z0, dtype=float), float(t), cfg)
                assert abs(period(field, z, cfg) - T0) <= 1e-7 * T0

    def test_duffing_vs_oracle(self, duffing, cfg):
        assert period(duffing, [1.0, 0.0], cfg) == pytest.approx(
            duffing_period(1.0), abs=1e-6)

    def test_degenerate_center_unbounded(self, cubic_center, cfg):
        t_small = period(cubic_center, [0.1, 0.0], cfg)
        t_one = period(cubic_center, [1.0, 0.0], cfg)
        assert t_small > 50.0 * t_one  # homogeneity gives the exact factor 100
        assert t_small / t_one == pytest.approx(100.0, rel=1e-5)

    def test_cubic_oracle_values(self, cubic_center, cfg):
        for lam in (0.5, 1.0, 2.0):
            assert period(cubic_center, [lam, 0.0], cfg) == pytest.approx(
                cubic_center_period(lam), rel=1e-8)


class TestSampleAnnulus:
    """Cycles detected along a seed curve, one per parameter, as the period
    command detects them."""

    def test_linear_center(self, linear_center, cfg):
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        periods = np.array([period(linear_center, sec.point(s), cfg) for s in (0.5, 1.0, 1.5)])
        assert np.abs(periods - 2 * math.pi).max() <= 1e-9

    def test_cubic_scaling(self, cubic_center, cfg):
        sec = make_section(cubic_center, "s", "0", (0.25, 2.5), name="x-axis")
        params = np.array([0.5, 1.0, 2.0])
        periods = np.array([period(cubic_center, sec.point(s), cfg) for s in params])
        scaled = periods * params ** 2
        assert np.abs(scaled - scaled[1]).max() <= 1e-5 * scaled[1]

    def test_pendulum_monotone(self, pendulum, cfg):
        sec = make_section(pendulum, "s", "0", (0.3, 3.05), name="x-axis")
        params = np.arange(0.5, 3.01, 0.5)
        periods = np.array([period(pendulum, sec.point(s), cfg) for s in params])
        assert np.all(np.diff(periods) > 0.0)
        # anchor against the quadrature oracle
        for s, T in zip(params, periods):
            assert T == pytest.approx(pendulum_period(float(s)), abs=1e-6)

    def test_consecutive_cycles_disjoint(self, duffing, cfg):
        sec = make_section(duffing, "s", "0", (0.3, 1.5), name="x-axis")
        # sample each trajectory and check pairwise separation
        clouds = []
        for s in (0.5, 1.0, 1.5):
            c = detect_cycle(duffing, sec.point(s), cfg)
            ts = np.linspace(0.0, c.period, 60, endpoint=False)
            clouds.append(np.array([c.trajectory.state(float(t)) for t in ts]))
        for a, b in zip(clouds, clouds[1:]):
            gaps = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
            assert gaps.min() > 1e-3

    def test_csv_rows(self, linear_center, cfg):
        # the period command's row (s, x0, y0, T, closure_residual)
        sec = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        c = detect_cycle(linear_center, sec.point(0.5), cfg)
        x0, y0 = c.base_point
        assert (x0, y0) == (0.5, 0.0)
        assert c.period == pytest.approx(2 * math.pi, abs=1e-9)
        assert c.closure_residual < 1e-8
