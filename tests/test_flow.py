import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from annulus_involutions.errors import (
    DomainError,
    DomainEscape,
    EventNotFound,
    StepLimitExceeded,
)
from annulus_involutions import expr as expr_mod, flow as flow_mod, period as period_mod
from annulus_involutions.expr import PlanarField, parse
from annulus_involutions.fields import builtin_field, builtin_names
from annulus_involutions.flow import (
    EventSpec,
    IntegratorConfig,
    brent,
    flow,
    flow_to_event,
    integrate,
    jacobian_fd,
)
from annulus_involutions.period import detect_cycle
from annulus_involutions.reversibility import conjugate_section
from annulus_involutions.sections import curve_event, make_section

from oracles import (
    T_DUFFING_AMP1,
    T_PENDULUM_HALF_PI,
    cubic_center_period,
    hermite,
    integrate_reference,
    linear_center_flow,
    pendulum_period,
    rotation_matrix,
    scipy_dop853,
    side_reference,
    step_cubic,
    variational_jacobian,
)
from test_expr import DEEPEST, _arg, _trees


class TestConfig:
    def test_defaults(self):
        c = IntegratorConfig()
        assert c.rtol == 1e-10 and c.atol == 1e-12
        assert [f.name for f in dataclasses.fields(c)] == ["rtol", "atol"]

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["rtol", "atol"])
    def test_non_finite_rejected(self, key, value):
        # NaN passes a plain "<= 0" test; each setting must be finite
        with pytest.raises(ValueError):
            IntegratorConfig(**{key: value})

    def test_frozen(self):
        # settings are hashed by value into memo keys, so they cannot change
        c = IntegratorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.rtol = 1e-8
        assert c == IntegratorConfig() and hash(c) == hash(IntegratorConfig())


class TestBrent:
    def test_simple_root(self):
        f = lambda x: x * x - 2.0
        assert brent(f, 0.0, 2.0, f(0.0), f(2.0)) == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_root_at_bracket_end(self):
        assert brent(lambda x: x, -1.0, 0.0, -1.0, 0.0) == 0.0

    def test_rejects_no_sign_change(self):
        with pytest.raises(ValueError):
            brent(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)

    def test_root_at_bracket_start(self):
        assert brent(lambda x: x - 0.25, 0.25, 1.0, 0.0, 0.75) == 0.25

    def test_bisection_fallback(self):
        # a flat triple root with a jump of 2e-12 across it: Brent refuses
        # some interpolation steps, as too slow or outside the bracket, and
        # bisects instead (d = e = m)
        f = lambda x: 1e6 * (x - 0.7) ** 3 + (1e-12 if x > 0.7 else -1e-12)
        assert brent(f, 0.0, 1.0, f(0.0), f(1.0)) == 0.6999999999999864

    def test_iteration_cap_returns_last_iterate(self, monkeypatch):
        monkeypatch.setattr(flow_mod, "_BRENT_MAXITER", 2)
        root = brent(lambda s: s ** 3 - 0.3, 0.0, 1.0, -0.3, 0.7)
        assert root == 0.6499999999999999
        assert 0.0 < root < 1.0


class TestFlow:
    def test_quarter_turn(self, linear_center, cfg):
        z = np.asarray(flow(linear_center, [1.0, 0.0], math.pi / 2, cfg))
        assert np.abs(z - [0.0, 1.0]).max() <= 1e-9

    def test_time_zero_identity(self, pendulum, cfg):
        z0 = np.array([0.7, -0.3])
        z = flow(pendulum, z0, 0.0, cfg)
        assert np.array_equal(z, z0)

    def test_pendulum_full_period(self, pendulum, cfg):
        z = np.asarray(flow(pendulum, [math.pi / 2, 0.0], T_PENDULUM_HALF_PI, cfg))
        assert np.abs(z - [math.pi / 2, 0.0]).max() <= 1e-7

    def test_negative_time(self, linear_center, cfg):
        z = np.asarray(flow(linear_center, [1.0, 0.0], -math.pi / 2, cfg))
        assert np.abs(z - [0.0, -1.0]).max() <= 1e-9

    # refused before any evaluation: a NaN time gave back z unchanged, and
    # an infinite one ran to the step cap
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, linear_center, cfg, t):
        with pytest.raises(ValueError, match="is not finite"):
            flow(linear_center, [1.0, 0.0], t, cfg)

    def test_domain_escape(self, cfg):
        field = PlanarField.from_strings("1", "0", domain=(-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(DomainEscape):
            flow(field, [0.0, 0.0], 10.0, cfg)

    def test_sign_field(self, cfg):
        # sign() subtracts two comparisons, which numpy scalars reject
        field = PlanarField.from_strings("sign(x)", "0")
        z = np.asarray(flow(field, [0.5, 0.2], 1.0, cfg))
        assert np.abs(z - [1.5, 0.2]).max() <= 1e-12

    def test_step_limit(self, linear_center, cfg, monkeypatch):
        monkeypatch.setattr(flow_mod, "_MAX_STEPS", 5)
        with pytest.raises(StepLimitExceeded, match="step limit 5 reached"):
            flow(linear_center, [1.0, 0.0], 100.0, cfg)

    def test_fast_centre_reaches_the_step_cap(self, cfg):
        # its steps are small but still advance t, so only the cap stops it
        field = PlanarField.from_strings("-1000*y", "1000*x")
        with pytest.raises(StepLimitExceeded) as exc:
            flow(field, [1.0, 0.0], 1e4, cfg)
        assert str(exc.value) == "step limit 100000 reached at t=12.8018"

    def test_zero_step_stops_at_once(self, cfg):
        # exp(1000 x) overflows the initial step's estimate, so h is 0 at
        # t = 0: no attempt is made, only the start and the trial stage
        field = PlanarField.from_strings("-y*exp(1000*x)", "x")
        calls = []

        def rhs(x, y):
            calls.append((x, y))
            return field.rhs(x, y)

        with pytest.raises(StepLimitExceeded) as exc:
            integrate(rhs, (0.383994, 0.0), 10.0, cfg)
        assert str(exc.value) == "step size 0 too small at t=0"
        assert len(calls) == 2

    def test_group_property(self, linear_center, pendulum, duffing, cubic_center, cfg):
        # |phi(s, phi(t, z)) - phi(s + t, z)| <= 1e-8 (1 + |z|)
        cases = [
            (linear_center, [1.3, 0.0], 2 * math.pi),
            (pendulum, [1.5, 0.0], 7.3),
            (duffing, [1.0, 0.0], T_DUFFING_AMP1),
            (cubic_center, [1.0, 0.0], 7.42),
        ]
        rng = np.random.default_rng(42)
        for field, z0, t_scale in cases:
            z0 = np.asarray(z0, dtype=float)
            for _ in range(5):
                s, t = rng.uniform(-1.0, 1.0, size=2) * t_scale
                a = np.asarray(flow(field, flow(field, z0, t, cfg), s, cfg))
                b = np.asarray(flow(field, z0, s + t, cfg))
                assert np.linalg.norm(a - b) <= 1e-8 * (1.0 + np.linalg.norm(z0))

    def test_reversal(self, pendulum, duffing, cfg):
        for field, z0 in [(pendulum, [1.2, 0.3]), (duffing, [0.9, -0.2])]:
            z0 = np.asarray(z0, dtype=float)
            for t in (0.4, 1.7, 5.0):
                back = flow(field, flow(field, z0, t, cfg), -t, cfg)
                assert np.linalg.norm(back - z0) <= 1e-8

    def test_tolerance_monotonicity(self, linear_center):
        # halving rtol never increases the error against the closed form
        z0 = np.array([1.0, 0.0])
        t = 3 * 2 * math.pi
        exact = linear_center_flow(z0, t)
        errs = []
        rtol = 1e-5
        for _ in range(7):
            c = IntegratorConfig(rtol=rtol, atol=1e-14)
            errs.append(np.linalg.norm(flow(linear_center, z0, t, c) - exact))
            rtol *= 0.5
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13


def _boundaries(traj):
    """Each step's start, then the end of the last step."""
    s0, h = traj.steps[-1][:2]
    return [st[0] for st in traj.steps] + [s0 + h]


def _boundary_states(traj):
    """Each step's start state, then z_final."""
    return [st[2:4] for st in traj.steps] + [traj.z_final]


class TestTrajectory:
    def test_boundary_states_exact(self, pendulum, cfg):
        traj = integrate(pendulum.rhs, [1.0, 0.0], 5.0, cfg, bounds=pendulum.domain)
        grid, states = _boundaries(traj), _boundary_states(traj)
        for i in (0, len(traj.steps) // 2, len(traj.steps)):
            assert traj.state(grid[i]) == states[i]
        assert traj.state(5.0) == traj.z_final

    def test_spans_tile_interval(self, pendulum, cfg):
        traj = integrate(pendulum.rhs, [1.0, 0.0], 5.0, cfg, bounds=pendulum.domain)
        grid = _boundaries(traj)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(5.0, abs=1e-12)
        assert np.all(np.diff(grid) > 0.0)
        # each step starts exactly where the previous ended
        for prev, step in zip(traj.steps, traj.steps[1:]):
            assert step[0] == prev[0] + prev[1]

    def test_time_zero(self, pendulum, cfg):
        traj = integrate(pendulum.rhs, (0.7, -0.3), 0.0, cfg)
        assert traj.steps == [] and traj.naccepted == 0
        assert traj.z_final == traj.state(0.0) == (0.7, -0.3)
        with pytest.raises(ValueError):
            traj.state(1e-9)

    @pytest.mark.parametrize("name, t", [("linear-center", 9.0), ("pendulum", -9.0)],
                             ids=["fwd", "bwd"])
    def test_terminal_stop_matches_reference(self, name, t, cfg):
        # a run stopped by a terminal event: state() at every step boundary
        # and z_final, the end of the step holding the root, equal the
        # reference's stored states to the bit
        field = builtin_field(name)
        events = [EventSpec(g=lambda x, y: y - 0.1 * x, direction=1)]
        got = integrate(field.rhs, (1.0, 0.3), t, cfg, events, field.domain)
        ref = integrate_reference(field, (1.0, 0.3), t, cfg, events, field.domain)
        [hit] = got.events
        s0, h = got.steps[-1][:2]
        assert s0 < abs(hit.t) <= s0 + h < abs(t)
        assert len(ref.s_grid) == len(got.steps) + 1
        for s, z in zip(ref.s_grid, ref.states):
            assert np.array(got.state(got.direction * float(s))).tobytes() == z.tobytes()
        assert isinstance(got.z_final, tuple)
        assert np.array(got.z_final).tobytes() == ref.states[-1].tobytes()

    def test_interpolation_accuracy(self, linear_center, cfg):
        traj = integrate(linear_center.rhs, [1.0, 0.0], 2 * math.pi, cfg,
                         bounds=linear_center.domain)
        for t in np.linspace(0.1, 6.1, 23):
            exact = linear_center_flow([1.0, 0.0], t)
            assert np.linalg.norm(traj.state(float(t)) - exact) <= 1e-9

    def test_stats_counted(self, pendulum, cfg):
        # without events: the start, the initial step's trial, 11 per attempt
        # and the end point of each accepted step
        traj = integrate(pendulum.rhs, [1.0, 0.0], 5.0, cfg, bounds=pendulum.domain)
        assert traj.naccepted == len(traj.steps)
        assert traj.nfev == 2 + 11 * (traj.naccepted + traj.nrejected) + traj.naccepted
        assert traj.nrejected >= 0

    def test_out_of_span_query(self, linear_center, cfg):
        traj = integrate(linear_center.rhs, [1.0, 0.0], 1.0, cfg,
                         bounds=linear_center.domain)
        with pytest.raises(ValueError):
            traj.state(2.0)
        with pytest.raises(ValueError):
            traj.state(-0.5)
        with pytest.raises(ValueError, match="outside integrated span"):
            traj.state(math.nan)

    @pytest.mark.parametrize("t_final", [5.0, -5.0], ids=["fwd", "bwd"])
    def test_step_start(self, pendulum, cfg, t_final):
        # state() inside a step is one DOP853 step of the partial length from
        # the start of the step holding it, k1 reused: at the full length it
        # is the kernel's own step end to the bit, and it agrees with a fresh
        # flow from the step's start; the generic step, which calls the field
        # at every stage, gives the bits of the field's own step
        traj = integrate(pendulum.rhs, [1.0, 0.0], t_final, cfg, bounds=pendulum.domain)
        generic = functools.partial(flow_mod._dop853, pendulum.rhs)
        sign = traj.direction
        grid, states = _boundaries(traj), _boundary_states(traj)
        full = [i for i, (s0, h, *_) in enumerate(traj.steps) if (s0 + h) - s0 == h]
        assert len(full) >= 3
        for i in full:
            st = traj.steps[i]
            s0, h, x, y, fx, fy = st
            assert flow_mod._replay(generic, float(sign), st, s0 + h) == states[i + 1]
            assert (fx, fy) == pendulum.rhs(x, y)
        i = len(traj.steps) // 3
        step = traj.steps[i]
        s0, h = step[:2]
        t = sign * (s0 + 0.37 * h)
        dt = t - sign * grid[i]
        assert dt * sign > 0.0 and abs(dt) < h
        assert traj.state(t) == flow_mod._replay(generic, float(sign), step, sign * t)
        assert math.dist(flow(pendulum, states[i], dt, cfg), traj.state(t)) <= 1e-11
        with pytest.raises(ValueError):
            traj.state(2.0 * t_final)
        with pytest.raises(ValueError):
            traj.state(-0.5 * t_final)

    @pytest.mark.parametrize("name", ["linear-center", "pendulum"])
    def test_nfev_counts_every_evaluation(self, name, cfg):
        # partial steps of the scan and Brent count 11 evaluations each;
        # state() after the run evaluates the field but is not counted
        field = builtin_field(name)
        calls = [0]

        def rhs(x, y):
            calls[0] += 1
            return field.rhs(x, y)

        events = [EventSpec(g=lambda x, y: y, terminal=False),
                  EventSpec(g=lambda x, y: x - 0.3 * y, direction=1, terminal=False)]
        traj = integrate(rhs, (1.0, 0.3), 9.0, cfg, events, field.domain)
        assert len(traj.events) >= 3
        assert calls[0] == traj.nfev > 2 + 12 * traj.naccepted + 11 * traj.nrejected
        traj.state(0.5)
        assert calls[0] == traj.nfev + 11


class TestEvents:
    def test_descending_crossing(self, linear_center, cfg):
        # from (0,1) the first y = 0 crossing forward in time is the
        # quarter-turn point (-1, 0), reached with g = y decreasing
        ev = EventSpec(g=lambda x, y: y, direction=-1)
        hit = flow_to_event(linear_center, [0.0, 1.0], ev, 1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        assert t_hit == pytest.approx(math.pi / 2, abs=1e-9)
        assert np.abs(z_hit - [-1.0, 0.0]).max() <= 1e-9

    def test_start_on_zero_set_skipped(self, linear_center, cfg):
        ev = EventSpec(g=lambda x, y: y, direction=0)
        hit = flow_to_event(linear_center, [1.0, 0.0], ev, 1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        assert t_hit == pytest.approx(math.pi, abs=1e-9)
        assert np.abs(z_hit - [-1.0, 0.0]).max() <= 1e-9

    def test_start_near_zero_set_is_not_skipped(self, linear_center, cfg):
        # 1e-10 off the zero set is above the start-zero floor
        # 1e-12 * (1 + |z|), so the crossing just after the start is the
        # hit, not the one at t = pi
        ev = EventSpec(g=lambda x, y: y - 1e-10)
        hit = flow_to_event(linear_center, [1.0, 0.0], ev, 1, cfg).events[0]
        assert hit.t == pytest.approx(1e-10, abs=1e-12)
        assert hit.z[1] == pytest.approx(1e-10, abs=1e-12)

    def test_root_on_step_boundary_is_the_boundary_state(self, linear_center, cfg):
        # g = x - c vanishes exactly at the start of step 7: the scan of
        # step 6 lands on zero at its end, where the root is the step's end
        # state, the next step's start to the bit
        z0 = (1.0, 0.3)
        plain = integrate(linear_center.rhs, z0, 9.0, cfg)
        s0, _, x, y, _, _ = plain.steps[7]
        event = EventSpec(g=lambda px, py: px - x, terminal=False)
        got = integrate(linear_center.rhs, z0, 9.0, cfg, [event])
        assert got.steps == plain.steps
        [hit] = [hit for hit in got.events if hit.t == s0]
        assert [v.hex() for v in hit.z] == [x.hex(), y.hex()]

    def test_time_direction_is_a_sign(self, linear_center, cfg):
        ev = EventSpec(g=lambda x, y: y, direction=0)
        with pytest.raises(ValueError, match=r"^t_direction must be \+1 or -1$") as info:
            flow_to_event(linear_center, [1.0, 0.0], ev, 0, cfg)
        assert type(info.value) is ValueError

    def test_duffing_half_period(self, duffing, cfg):
        ev = EventSpec(g=lambda x, y: y, direction=0)
        hit = flow_to_event(duffing, [1.0, 0.0], ev, 1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        assert t_hit == pytest.approx(0.5 * T_DUFFING_AMP1, abs=1e-8)
        assert np.abs(z_hit - [-1.0, 0.0]).max() <= 1e-8

    def test_event_consistency(self, pendulum, cfg):
        # g(z_hit) small and sign change in the requested direction
        ev = EventSpec(g=lambda x, y: y - 0.4, direction=1)
        hit = flow_to_event(pendulum, [1.0, 0.0], ev, 1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        scale = 1.0 + np.linalg.norm(z_hit)
        assert abs(z_hit[1] - 0.4) <= 1e-10 * scale
        eps = 1e-6
        before = flow(pendulum, [1.0, 0.0], t_hit - eps, cfg)
        after = flow(pendulum, [1.0, 0.0], t_hit + eps, cfg)
        assert before[1] - 0.4 < 0.0 < after[1] - 0.4

    def test_backward_event(self, linear_center, cfg):
        ev = EventSpec(g=lambda x, y: y, direction=0)
        hit = flow_to_event(linear_center, [0.0, 1.0], ev, -1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        assert t_hit == pytest.approx(-math.pi / 2, abs=1e-9)
        assert np.abs(z_hit - [1.0, 0.0]).max() <= 1e-9

    def test_no_event_before_horizon(self, linear_center, cfg, monkeypatch):
        monkeypatch.setattr(flow_mod, "MAX_HORIZON", 50.0)
        ev = EventSpec(g=lambda x, y: x - 5.0, direction=0)
        with pytest.raises(EventNotFound, match=r"within \|t\| <= 50 from"):
            flow_to_event(linear_center, [1.0, 0.0], ev, 1, cfg)

    def test_accept_hook_skips_vetoed_roots(self, linear_center, cfg):
        # reject the x < 0 half of the y = 0 line; the first accepted
        # crossing from (0,1) is then the full three-quarter turn at (1,0)
        ev = EventSpec(g=lambda x, y: y, direction=0, accept=lambda p: p[0] > 0.0)
        hit = flow_to_event(linear_center, [0.0, 1.0], ev, 1, cfg).events[0]
        t_hit, z_hit = hit.t, np.asarray(hit.z)
        assert t_hit == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert np.abs(z_hit - [1.0, 0.0]).max() <= 1e-9

    def test_nonterminal_events_recorded(self, linear_center, cfg):
        ev = EventSpec(g=lambda x, y: y, direction=0, terminal=False)
        traj = integrate(linear_center.rhs, np.array([0.0, 1.0]), 4 * math.pi,
                         cfg, events=[ev])
        times = [h.t for h in traj.events]
        expected = [math.pi / 2 + k * math.pi for k in range(4)]
        assert len(times) == len(expected)
        assert np.abs(np.array(times) - expected).max() <= 1e-9


    @pytest.mark.parametrize("t", [9.0, -9.0], ids=["fwd", "bwd"])
    def test_event_functions_get_floats(self, linear_center, cfg, t):
        # the scan, its Brent iterates and the start value all call g on
        # Python floats; from (1, 0.3) either way round, y = 0 is crossed
        # before y = -0.5 is crossed rising
        def y_of(x, y):
            assert type(x) is float and type(y) is float
            return y

        events = [EventSpec(g=y_of, direction=0, terminal=False),
                  EventSpec(g=lambda x, y: y_of(x, y) + 0.5, direction=1)]
        traj = integrate(linear_center.rhs, (1.0, 0.3), t, cfg, events=events)
        assert [e.index for e in traj.events] == [0, 1]

    @pytest.mark.parametrize("bound", [None, 1.0], ids=["scan", "skip"])
    @pytest.mark.parametrize("name, a, period", [
        ("pendulum", 3.1, pendulum_period(3.1)),
        ("cubic-center", 0.05, cubic_center_period(0.05)),
    ], ids=["pendulum-3.1", "cubic-center-0.05"])
    def test_every_crossing_over_ten_periods(self, name, a, period, bound, cfg):
        # three samples per step must bracket every crossing,
        # also with long steps: near the pendulum's separatrix and on the
        # cubic center's flat orbit near the origin.  From (a, 0) the orbit
        # meets y = 0 every half of the quadrature period, alternately at
        # x < 0 and at the return x > 0: 20 crossings in 10.25 periods,
        # with the x-axis watch fully scanned or skipped as detect_cycle's is
        field = builtin_field(name)
        ev = EventSpec(g=lambda x, y: y, terminal=False, lipschitz=bound)
        traj = integrate(field.rhs, (a, 0.0), 10.25 * period, cfg, [ev], field.domain)
        assert len(traj.events) == 20
        for k, hit in enumerate(traj.events, start=1):
            assert abs(hit.t - k * period / 2) <= 1e-8 * period
            assert (hit.z[0] > 0.0) == (k % 2 == 0)


def _jacobian_columns(map_fn, z):
    """[J e_x, J e_y] as the columns of a 2x2 array."""
    return np.column_stack([jacobian_fd(map_fn, z, (1.0, 0.0)),
                            jacobian_fd(map_fn, z, (0.0, 1.0))])


class TestJacobianFD:
    def test_identity(self):
        J = _jacobian_columns(lambda z: z, [0.4, -1.1])
        assert np.abs(J - np.eye(2)).max() <= 1e-12

    def test_mirror(self):
        J = _jacobian_columns(lambda z: np.array([z[0], -z[1]]), [0.3, 0.7])
        assert np.abs(J - np.diag([1.0, -1.0])).max() <= 1e-10

    def test_quarter_turn_flow_map(self, linear_center, cfg):
        # oracle: variational equations integrated with fixed-step RK4
        t = math.pi / 2
        J = _jacobian_columns(lambda z: flow(linear_center, z, t, cfg), [1.0, 0.0])
        expected = variational_jacobian(linear_center, [1.0, 0.0], t)
        assert np.abs(expected - rotation_matrix(t)).max() <= 1e-10
        assert np.abs(J - expected).max() <= 1e-7

    def test_pendulum_flow_map_vs_variational(self, pendulum, cfg):
        t = 1.3
        z = [1.1, 0.2]
        J = _jacobian_columns(lambda w: flow(pendulum, w, t, cfg), z)
        expected = variational_jacobian(pendulum, z, t)
        assert np.abs(J - expected).max() <= 1e-6
        v = (0.35, -0.8)
        jv = jacobian_fd(lambda w: flow(pendulum, w, t, cfg), z, v)
        assert np.abs(np.array(jv) - expected @ v).max() <= 1e-6 * math.hypot(*v)

    @pytest.mark.parametrize("matrix, z", [((1.0, 0.0, 0.0, 1.0), (0.4, -1.1)),
                                           ((1.0, 0.0, 0.0, -1.0), (0.3, 0.7))],
                             ids=["identity", "mirror"])
    @pytest.mark.parametrize("v", [(0.6, -1.3), (-2e-3, 5e-4), (3.0, 4.0)])
    def test_oblique_direction(self, matrix, z, v):
        # off the axes z +- h u is rounded to within an ulp of z, so J v is
        # off by up to about ulp(|z|) |v| / 2h, below 5e-12 |v| at these z
        a, b, c, d = matrix
        jv = jacobian_fd(lambda w: (a * w[0] + b * w[1], c * w[0] + d * w[1]), z, v)
        expected = (a * v[0] + b * v[1], c * v[0] + d * v[1])
        assert math.dist(jv, expected) <= 1e-11 * math.hypot(*v)

    def test_axis_directions_are_coordinate_differences(self, pendulum, cfg):
        # along e_x and e_y the stencil is z +- h e_i exactly, so J e_i is
        # bit for bit the coordinate central difference
        z = (1.1, 0.2)
        h = 2.0 ** round(math.log2(1e-5 * (1.0 + math.hypot(*z))))
        f = functools.partial(flow, pendulum, t=1.3, cfg=cfg)
        for i, v in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            zp, zm = list(z), list(z)
            zp[i] += h
            zm[i] -= h
            p, m = f(tuple(zp)), f(tuple(zm))
            column = ((p[0] - m[0]) / (2.0 * h), (p[1] - m[1]) / (2.0 * h))
            assert jacobian_fd(f, z, v) == column

    def test_zero_direction_skips_map(self):
        def never(z):
            raise AssertionError("map called for v = 0")

        assert jacobian_fd(never, (0.5, 0.5), (0.0, 0.0)) == (0.0, 0.0)


# (field, z0, t_final, cfg, events) runs of the kernel against the ndarray
# reference; the events are a non-terminal x-axis watch plus a terminal
# crossing of the line y = 0.1 x
_TILTED = [EventSpec(g=lambda x, y: y, direction=0, terminal=False),
           EventSpec(g=lambda x, y: y - 0.1 * x, direction=1)]
# the same pair with the bound |grad y| = 1 on the watch, so that the kernel
# skips the watch on steps where it scans the terminal event
_MIXED = [dataclasses.replace(_TILTED[0], lipschitz=1.0), _TILTED[1]]
_KERNEL_CASES = [
    pytest.param(name, (1.0, 0.3), t, IntegratorConfig(), events,
                 id=f"{name}-{'fwd' if t > 0 else 'bwd'}-{'event' if events else 'plain'}")
    for name in ("linear-center", "pendulum", "duffing", "cubic-center")
    for t in (9.0, -9.0)
    for events in ((), _TILTED)
] + [
    pytest.param("cubic-center", (3.5, 0.0), -3.0, IntegratorConfig(rtol=1e-6, atol=1e-9),
                 (), id="cubic-center-rejections"),
] + [
    pytest.param("pendulum", (1.0, 0.3), t, IntegratorConfig(), _MIXED,
                 id=f"pendulum-{'fwd' if t > 0 else 'bwd'}-mixed")
    for t in (9.0, -9.0)
]


def _assert_same_hits(got, ref):
    """Every event hit equal to the bit: index, time and state."""
    assert len(got.events) == len(ref.events)
    for e, r in zip(got.events, ref.events):
        assert e.index == r.index
        assert e.t.hex() == r.t.hex()
        assert isinstance(e.z, tuple) and np.array(e.z).tobytes() == np.asarray(r.z).tobytes()


def _assert_same_run(got, ref):
    """Step grid, states, work counts and every hit equal to the bit."""
    assert np.array_equal(_boundaries(got), ref.s_grid)
    assert np.array_equal(_boundary_states(got), ref.states)
    assert (got.naccepted, got.nrejected, got.nfev) == (
        ref.naccepted, ref.nrejected, ref.nfev)
    _assert_same_hits(got, ref)


_CURVE_CLASS = {"affine": "_AffineSegment", "diagonal": "_AffineSegment",
                "expression": "ExpressionCurve", "tabulated": "TabulatedCurve"}


@functools.lru_cache(maxsize=None)
def _section_case(kind):
    """(field, section, y0) for section events on one curve kind: the
    x-axis segment [0.2, 2] of the linear center (and its diagonal
    (s, s), a segment with |d| != 1), the parabola (s, 0.3 s^2) on
    [0.35, 1.75] in the pendulum, and that parabola's tabulated conjugate
    section.  Forward runs start at (0, y0), backward runs at (0, -y0)."""
    if kind in ("affine", "diagonal"):
        field = builtin_field("linear-center")
        sy = "0" if kind == "affine" else "s"
        return field, make_section(field, "s", sy, (0.2, 2.0), name=kind), 1.0
    field = builtin_field("pendulum")
    sec = make_section(field, "s", "0.3*s^2", (0.35, 1.75), name="parabola")
    if kind == "tabulated":
        return field, conjugate_section(field, sec, IntegratorConfig()), 1.0
    return field, sec, -1.0


def _recording_vetoes(ev, vetoed):
    def accept(z):
        ok = ev.accept(z)
        if not ok:
            vetoed.append(z)
        return ok

    return EventSpec(g=ev.g, direction=ev.direction, terminal=ev.terminal, accept=accept)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("name, z0, t, cfg, events", _KERNEL_CASES)
    def test_bit_identical(self, name, z0, t, cfg, events):
        field = builtin_field(name)
        got = integrate(field.rhs, z0, t, cfg, events, field.domain)
        ref = integrate_reference(field, z0, t, cfg, events, field.domain)
        _assert_same_run(got, ref)
        if name == "cubic-center" and cfg.rtol == 1e-6:
            assert got.nrejected >= 50
        for s0, h, *_ in got.steps:
            for w in (0.25, 0.5, 0.9):
                t_in = got.direction * (s0 + w * h)
                assert np.array_equal(got.state(t_in), ref.state(t_in))
        assert [e.index for e in got.events][-1:] == ([1] if events else [])

    @pytest.mark.parametrize("t", [9.0, -9.0], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("kind", ["affine", "diagonal", "expression", "tabulated"])
    def test_section_events(self, kind, t, cfg):
        # a non-terminal watch and a terminal event on one curve of each
        # kind; each run meets the curve's extension, where accept vetoes
        # the root, before it meets the curve.  The straight segments carry
        # a Lipschitz bound, so the kernel skips scans the reference makes.
        field, sec, y0 = _section_case(kind)
        assert curve_event(sec).lipschitz == (1.0 if kind in ("affine", "diagonal") else None)
        assert type(sec).__name__ == _CURVE_CLASS[kind]
        z0 = (0.0, y0 if t > 0 else -y0)
        runs = []
        for run in (integrate, integrate_reference):
            vetoed = []
            events = [_recording_vetoes(curve_event(sec, terminal=False), vetoed),
                      _recording_vetoes(curve_event(sec, terminal=True), vetoed)]
            rhs = field.rhs if run is integrate else field
            runs.append((run(rhs, z0, t, cfg, events, field.domain), vetoed))
        (got, got_vetoed), (ref, ref_vetoed) = runs
        _assert_same_run(got, ref)
        assert [e.index for e in got.events] == [0, 1]
        assert len(got_vetoed) >= 2
        assert [np.array(z).tobytes() for z in got_vetoed] == [z.tobytes() for z in ref_vetoed]

    @pytest.mark.parametrize("name", builtin_names())
    def test_cycle_transversal(self, name, cfg, monkeypatch):
        # the event detect_cycle builds, bound included, against the
        # reference scan, which ignores the bound
        field = builtin_field(name)
        runs = []

        def recording(rhs, z0, t, cfg, events=(), bounds=None):
            got = integrate(rhs, z0, t, cfg, events, bounds)
            runs.append((got, integrate_reference(field, z0, t, cfg, events, bounds)))
            return got

        monkeypatch.setattr(period_mod, "integrate", recording)
        cyc = detect_cycle(field, (0.8, 0.0), cfg)
        [(got, ref)] = runs
        assert got.events[0].index == 0 and got.events[0].t == cyc.period
        _assert_same_run(got, ref)

    @pytest.mark.parametrize("kind", ["affine", "diagonal", "expression", "tabulated"])
    def test_side_matches_reference(self, kind, cfg):
        # every side value a scan asks for -- start, dense-output samples,
        # Brent iterates -- equals the ndarray body's to the bit
        field, sec, y0 = _section_case(kind)
        assert type(sec).__name__ == _CURVE_CLASS[kind]
        seen = []

        def g(x, y):
            seen.append((x, y))
            return sec.side(x, y)

        traj = integrate(field.rhs, (0.0, y0), 9.0, cfg,
                         [EventSpec(g=g, terminal=False, accept=curve_event(sec).accept)],
                         field.domain)
        assert traj.events and len(seen) > 100
        for x, y in seen:
            assert sec.side(x, y).hex() == float(side_reference(sec, (x, y))).hex()

    @pytest.mark.parametrize("field, z0, t, max_steps, exc", [
        (builtin_field("linear-center"), (1.0, 0.0), 100.0, 5, StepLimitExceeded),
        (PlanarField.from_strings("1", "0", domain=(-1.0, 1.0, -1.0, 1.0)), (0.0, 0.0),
         -10.0, None, DomainEscape),
        (PlanarField.from_strings("-1", "sqrt(x)"), (0.5, 0.0), 2.0, None, DomainError),
        (PlanarField.from_strings("-y", "x^(-1)"), (0.383994, 0.0), 1.0, None,
         StepLimitExceeded),
    ], ids=["step-limit", "domain-escape", "domain-error", "step-size"])
    def test_same_failures(self, field, z0, t, max_steps, exc, cfg, monkeypatch):
        if max_steps is not None:  # both loops read the limit from flow
            monkeypatch.setattr(flow_mod, "_MAX_STEPS", max_steps)
        with pytest.raises(exc) as got:
            integrate(field.rhs, z0, t, cfg, bounds=field.domain)
        with pytest.raises(exc) as ref:
            integrate_reference(field, z0, t, cfg, bounds=field.domain)
        assert str(got.value) == str(ref.value)


# (field, z0) runs over [0, 40] against scipy's DOP853
_SCIPY_CASES = [("cubic-center", (1.0, 0.0)), ("pendulum", (3.1, 0.0)),
                ("duffing", (1.5, 0.0)), ("linear-center", (1.0, 0.3))]


class TestScipyDOP853:
    """The kernel against scipy's DOP853 steered by the same 5th-order
    error norm (``oracles.ScipyE5DOP853``), which shares no code or
    coefficient with the package: a check of the copied tableau, the dense
    output and the step control."""

    @pytest.mark.parametrize("name, z0", _SCIPY_CASES, ids=[c[0] for c in _SCIPY_CASES])
    def test_same_accepted_steps(self, name, z0, cfg):
        # started from the kernel's first step, scipy accepts as many steps
        # and ends at the same state.  Rejections may differ, because scipy
        # does not let a step grow right after a rejection.
        field = builtin_field(name)
        got = integrate(field.rhs, z0, 40.0, cfg)
        sol = scipy_dop853(field, z0, 0.0, 40.0, cfg, got.steps[0][1])
        accepted = 0
        while sol.status == "running":
            sol.step()
            accepted += 1
        assert sol.status == "finished" and sol.t == 40.0
        assert accepted == got.naccepted
        assert math.dist(sol.y, got.z_final) <= 1e-11

    @pytest.mark.parametrize("name, z0", _SCIPY_CASES, ids=[c[0] for c in _SCIPY_CASES])
    def test_each_step_and_its_dense_output(self, name, z0, cfg):
        # scipy's step from each accepted step's start state, with the same
        # length, is accepted too and ends where the kernel's does.  Inside
        # every fifth step, state() agrees with scipy run to that time at
        # rtol 1e-13 within the kernel's own largest step-end error there
        field = builtin_field(name)
        traj = integrate(field.rhs, z0, 40.0, cfg)
        ends = _boundary_states(traj)[1:]
        fine = IntegratorConfig(rtol=1e-13, atol=1e-16)

        def reference(z, s0, s1):
            sol = scipy_dop853(field, z, s0, s1, fine, None)
            while sol.status == "running":
                sol.step()
            return sol.y

        for step, end in zip(traj.steps, ends):
            s0, h, *z, _, _ = step
            sol = scipy_dop853(field, z, s0, s0 + 2.0 * h, cfg, h)
            sol.step()
            assert (sol.t_old, sol.t) == (s0, s0 + h)
            tol = 1e-13 * (1.0 + math.hypot(*z))
            assert math.dist(sol.y, end) <= tol
        end_err = inner_err = 0.0
        for step, end in list(zip(traj.steps, ends))[::5]:
            s0, h, *z, _, _ = step
            scale = 1.0 + math.hypot(*z)
            end_err = max(end_err, math.dist(reference(z, s0, s0 + h), end) / scale)
            for q in (0.1, 0.5, 0.9):
                s = s0 + q * h
                inner_err = max(inner_err, math.dist(reference(z, s0, s), traj.state(s)) / scale)
        assert 0.0 < inner_err <= end_err <= 1e-13


def _counting(ev, calls):
    """ev with its g counting calls into calls[0]; every other field kept."""
    def g(x, y):
        calls[0] += 1
        return ev.g(x, y)

    return dataclasses.replace(ev, g=g)


def _reach(traj, i, rhs):
    """The skip's reach of step i: |c2| + |c3| + |c4|, x terms then y."""
    c2x, c2y, c3x, c3y, c4x, c4y = step_cubic(traj, i, rhs)
    return abs(c2x) + abs(c3x) + abs(c4x) + abs(c2y) + abs(c3y) + abs(c4y)


class TestEventSkip:
    """The integrator skips an event's scan on a step whose start value
    clears 2 L B + floor, where L is the event's Lipschitz bound and B the
    step's reach, its absolute cubic coefficients c2..c4 summed."""

    def test_flow_to_event_keeps_the_bound(self, linear_center, cfg):
        # a full scan costs at least 1 + 3 g calls per accepted step
        section = make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")
        calls = [0]
        traj = flow_to_event(linear_center, (0.0, 1.0), _counting(curve_event(section), calls),
                             1, cfg)
        assert traj.events
        assert calls[0] < 1 + flow_mod._EVENT_SAMPLES * traj.naccepted

    @pytest.mark.parametrize("offset", [1e-12, -1e-12], ids=["outside", "inside"])
    def test_tight_margin(self, linear_center, cfg, offset):
        # the level line y = c puts the value carried into one step, g at its
        # start state, a relative 1e-12 outside or inside that step's margin:
        # only outside is the step skipped, and the hits of the whole run
        # equal the full scan's either way.  The value carried out of the
        # step is g at its end state, the next step's start.  A tick event,
        # first in the list, is a constant far above any margin, so it is
        # skipped and called once per accepted step, at its end state before
        # the level line's calls: it splits the g calls by step.
        z0 = (1.0, 0.0)
        traj = integrate(linear_center.rhs, z0, 9.0, cfg)
        steps = traj.steps
        i = next(i for i, st in enumerate(steps) if i > 0 and 0.3 < st[3] < 0.9)
        step, end = steps[i], steps[i + 1][2:4]
        x, y = step[2:4]
        reach = _reach(traj, i, linear_center.rhs)
        margin = 2.0 * 1.0 * reach + 1e-12 * (1.0 + abs(x) + abs(y))
        c = y - margin * (1.0 + offset)
        event = EventSpec(g=lambda x, y: y - c, direction=0, terminal=False, lipschitz=1.0)
        assert (abs(event.g(x, y)) > margin) == (offset > 0)

        seen = []  # g's arguments: the start's, then one list per accepted step

        def g(x, y):
            seen[-1].append((x, y))
            return event.g(x, y)

        def tick(x, y):
            seen.append([])
            return 1e300

        tick_event = EventSpec(g=tick, direction=0, terminal=False, lipschitz=1.0)
        got = integrate(linear_center.rhs, z0, 9.0, cfg,
                        [tick_event, dataclasses.replace(event, g=g)])
        assert got.steps[i][:2] == step[:2]
        assert len(seen) == 1 + got.naccepted
        assert len(seen[i + 1]) == (1 if offset > 0 else flow_mod._EVENT_SAMPLES)
        assert [v.hex() for v in seen[i + 1][-1]] == [v.hex() for v in end]

        full = integrate(linear_center.rhs, z0, 9.0, cfg,
                         [tick_event, dataclasses.replace(event, lipschitz=None)])
        assert len(full.events) >= 2
        _assert_same_hits(got, full)

    @pytest.mark.parametrize("bound", [1.0, None], ids=["bound", "no-bound"])
    @pytest.mark.parametrize("name", builtin_names())
    def test_g_call_identity(self, name, bound, cfg, monkeypatch):
        # detect_cycle's transversal: one g call at the start, one per
        # skipped step, three per scanned step (two cubic samples and the
        # end state), two more per flagged step (its partial-step samples)
        # and one per Brent iterate.  A step counts as scanned when g saw
        # its first cubic sample, and as flagged when g saw its first
        # partial-step sample.  Each partial step costs 11 evaluations.
        field = builtin_field(name)
        seen, iterates, runs = [], [0], []

        def counting_brent(f, *args):
            def counted(s):
                iterates[0] += 1
                return f(s)

            return brent(counted, *args)

        def recording(rhs, z0, t, cfg, events=(), bounds=None):
            [ev] = events
            assert ev.lipschitz == 1.0

            def g(x, y):
                seen.append((x, y))
                return ev.g(x, y)

            traj = integrate(rhs, z0, t, cfg,
                             [dataclasses.replace(ev, g=g, lipschitz=bound)], bounds)
            runs.append(traj)
            return traj

        monkeypatch.setattr(flow_mod, "brent", counting_brent)
        monkeypatch.setattr(period_mod, "integrate", recording)
        detect_cycle(field, (0.8, 0.0), cfg)
        [traj] = runs
        points = set(seen)
        q = flow_mod._SAMPLE_FRACTIONS[0]
        scanned = sum(hermite(step, step_cubic(traj, i, field.rhs), q) in points
                      for i, step in enumerate(traj.steps))
        flagged = sum(traj.state(s0 + q * h) in points for s0, h, *_ in traj.steps)
        assert iterates[0] > 0 and flagged >= 2
        if bound is None:
            assert scanned == traj.naccepted
            assert len(seen) == 1 + 3 * traj.naccepted + 2 * flagged + iterates[0]
        else:
            assert 0 < scanned < traj.naccepted / 2
            assert len(seen) == (1 + traj.naccepted + 2 * scanned + 2 * flagged
                                 + iterates[0])
        assert traj.nfev == (2 + 12 * traj.naccepted + 11 * traj.nrejected
                             + 11 * (2 * flagged + iterates[0]))


def _step_outcome(step, *args):
    """A step's four floats as hex, or the DomainError it raised: its class,
    its text and the class of its cause."""
    try:
        return [v.hex() for v in step(*args)]
    except DomainError as exc:
        return type(exc), str(exc), type(exc.__cause__)


class TestGeneratedStep:
    """A field's own step, P and Q inline at every stage, against the generic
    step that calls ``PlanarField.rhs`` at every stage: the same bits, or the
    same DomainError at the same stage point."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=_trees, q=_trees, x=_arg, y=_arg, fx=_arg, fy=_arg,
           h=strategies.floats(min_value=1e-3, max_value=2.0),
           sign=strategies.sampled_from([1.0, -1.0]))
    def test_same_bits_as_the_generic_step(self, p, q, x, y, fx, fy, h, sign):
        field = PlanarField(p, q)
        args = (x, y, fx, fy, sign * h)
        assert _step_outcome(flow_mod._field_step(field), *args) == \
            _step_outcome(functools.partial(flow_mod._dop853, field.rhs), *args)

    @pytest.mark.parametrize("q, message, cause", [
        ("sqrt(1.8 - x)", "field evaluation failed at ({}, {}): math domain error", ValueError),
        ("x*1e308", "non-finite field value at ({}, {})", type(None)),
    ], ids=["math-domain", "non-finite"])
    def test_failure_names_the_stage_point(self, q, message, cause):
        # x moves from 1.7 past 1.8 at stage 4, where Q fails
        field = PlanarField.from_strings("1", q)
        points = []

        def rhs(x, y):
            points.append((x, y))
            return field.rhs(x, y)

        args = (1.7, 0.0, 1.0, 0.0, 1.0)
        generic = _step_outcome(functools.partial(flow_mod._dop853, rhs), *args)
        assert len(points) == 3
        assert generic == (DomainError, message.format(*points[-1]), cause)
        assert _step_outcome(flow_mod._field_step(field), *args) == generic

    @pytest.mark.parametrize("make, n", list(DEEPEST.values()), ids=list(DEEPEST))
    def test_deepest_field_gets_a_step(self, make, n):
        # each stage holds P's text as _rhs does, nested no deeper, so a
        # field that constructs also compiles its step on first use
        field = PlanarField(parse(make(n)), parse("-x"))
        args = (0.5, 0.25, 0.1, -0.2, 0.01)
        outcome = _step_outcome(flow_mod._field_step(field), *args)
        assert len(outcome) == 4
        assert outcome == _step_outcome(functools.partial(flow_mod._dop853, field.rhs), *args)

    def test_step_compiled_on_first_integration(self, cfg, monkeypatch):
        # construction compiles _rhs alone; the first integration compiles
        # the step and keeps it on the field, and later ones reuse it; a
        # wrapper of rhs runs the generic step
        compiled = []
        real = expr_mod._exec

        def counted(src, name):
            compiled.append(name)
            return real(src, name)

        monkeypatch.setattr(expr_mod, "_exec", counted)
        monkeypatch.setattr(flow_mod, "_exec", counted)
        field = PlanarField.from_strings("-y", "x + 0.375*x^2")
        assert compiled == ["_rhs"] and field._step is None
        traj = integrate(field.rhs, (0.5, 0.0), 1.0, cfg)
        assert compiled == ["_rhs", "_dop853"] and traj.dop853 is field._step
        assert integrate(field.rhs, (0.25, 0.0), -1.0, cfg).dop853 is field._step
        wrapped = integrate(lambda x, y: field.rhs(x, y), (0.5, 0.0), 1.0, cfg)
        assert compiled == ["_rhs", "_dop853"] and wrapped.dop853.func is flow_mod._dop853
        assert wrapped.z_final == traj.z_final
