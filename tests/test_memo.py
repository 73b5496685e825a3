"""The suite memo: scoped, keyed by exact bits, and invisible in outputs."""

import contextlib

import numpy as np
import pytest

from annulus_involutions import cli, flow as flow_mod, memo, period as period_mod
from annulus_involutions import reversibility, symmetry
from annulus_involutions.errors import CriticalPointError, EventNotFound
from annulus_involutions.flow import IntegratorConfig
from annulus_involutions.memo import suite_scope
from annulus_involutions.period import period
from annulus_involutions.reversibility import (
    ReversibilityInvolution,
    _nearest_crossing,
    sigma_reversible,
    tau,
    verify_reversibility,
)
from annulus_involutions.sections import make_section
from annulus_involutions.symmetry import (
    SymmetryInvolution,
    sigma_symmetric,
    verify_sigma_symmetry,
)
from annulus_involutions.verify import annulus_points


@pytest.fixture()
def integrations(monkeypatch):
    """A one-item list counting every flow.integrate call."""
    calls = [0]
    orig = flow_mod.integrate

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "integrate", counted)
    monkeypatch.setattr(period_mod, "integrate", counted)
    return calls


@pytest.fixture(scope="module")
def lc_xaxis(linear_center):
    return make_section(linear_center, "s", "0", (0.2, 2.0), name="x-axis")


def test_nothing_stored_outside_a_scope(linear_center, cfg, integrations):
    z = np.array([0.6, 0.8])
    sigma = SymmetryInvolution(linear_center, cfg)
    assert memo._MEMO.get() is None
    sigma(z)
    sigma.period_of(z)
    assert integrations[0] == 2  # each call: one detection, read at T/2
    with suite_scope():
        sigma(z)
        assert integrations[0] == 3
        # the period is read from the image's record
        sigma.period_of(z)
        assert integrations[0] == 3
        assert len(memo._MEMO.get()) == 1
    assert memo._MEMO.get() is None
    sigma.period_of(z)
    assert integrations[0] == 4


def test_period_is_one_detection_per_call(linear_center, cfg, monkeypatch):
    detections = []
    real = period_mod.detect_cycle
    monkeypatch.setattr(period_mod, "detect_cycle",
                        lambda *args: detections.append(args[1]) or real(*args))
    z = (0.6, 0.8)
    period(linear_center, z, cfg)
    assert len(detections) == 1
    with suite_scope():
        period(linear_center, z, cfg)
        sigma_symmetric(linear_center, z, cfg)  # a record period() does not read
        period(linear_center, z, cfg)
        assert len(detections) == 4
    assert detections == [z] * 4


def test_default_settings_share_the_entry(linear_center, integrations):
    # the default IntegratorConfig() equals a fresh one, so both reach one entry
    z = np.array([0.6, 0.8])
    with suite_scope():
        SymmetryInvolution(linear_center).period_of(z)
        sigma_symmetric(linear_center, z, IntegratorConfig())
        assert integrations[0] == 1  # one detection, read at T/2


def test_hit_has_the_bits_of_a_fresh_call(pendulum, cfg):
    z = np.array([0.9, 0.4])
    sigma = SymmetryInvolution(pendulum, cfg)
    fresh = sigma(z), sigma.period_of(z)
    with suite_scope():
        sigma(z)
        hit = sigma(z), sigma.period_of(z)
    assert np.array(hit[0]).tobytes() == np.array(fresh[0]).tobytes()
    assert hit[1].hex() == fresh[1].hex()


def test_mutating_a_result_leaves_the_entry(linear_center, lc_xaxis, cfg, integrations):
    z = np.array([0.6, 0.8])
    w = (0.3, -0.9)  # off the section
    with suite_scope():
        image = sigma_symmetric(linear_center, z, cfg)
        kept = np.array(image)
        _, z_hit = _nearest_crossing(linear_center, lc_xaxis, w, cfg)[:2]
        kept_hit = np.array(z_hit)
        rev_image = sigma_reversible(linear_center, lc_xaxis, w, cfg)
        kept_rev = np.array(rev_image)
        for result in (image, z_hit, rev_image):
            with pytest.raises(TypeError):  # points are tuples
                result[0] = 99.0
        done = integrations[0]
        assert np.array_equal(sigma_symmetric(linear_center, z, cfg), kept)
        assert np.array_equal(_nearest_crossing(linear_center, lc_xaxis, w, cfg)[1], kept_hit)
        assert np.array_equal(sigma_reversible(linear_center, lc_xaxis, w, cfg), kept_rev)
        assert integrations[0] == done


def test_nested_scope_reuses_the_outer_one(linear_center, cfg, integrations):
    z = np.array([0.6, 0.8])
    with suite_scope():
        outer = memo._MEMO.get()
        with suite_scope():
            assert memo._MEMO.get() is outer
            sigma_symmetric(linear_center, z, cfg)
        assert memo._MEMO.get() is outer and len(outer) == 1
        sigma_symmetric(linear_center, z, cfg)
    assert integrations[0] == 1  # one detection, read at T/2


def test_failure_fails_once_per_scope(linear_center, lc_xaxis, cfg, monkeypatch):
    # a known failure is a record: inside a scope the second call raises
    # the same type and message without detecting the cycle again
    detections = [0]
    real = period_mod.detect_cycle

    def counted(*args, **kwargs):
        detections[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(period_mod, "detect_cycle", counted)
    monkeypatch.setattr(reversibility, "detect_cycle", counted)
    far = (3.0, 0.0)  # its cycle misses the segment [0.2, 2.0]
    calls = [(CriticalPointError, lambda: sigma_symmetric(linear_center, (0.0, 0.0), cfg)),
             (EventNotFound, lambda: tau(linear_center, lc_xaxis, far, cfg))]

    def failures():
        messages = []
        for kind, call in calls:
            with pytest.raises(kind) as info:
                call()
            assert type(info.value) is kind
            messages.append(str(info.value))
        return messages

    outside = failures()
    assert failures() == outside
    assert detections[0] == 4 and memo._MEMO.get() is None  # nothing stored
    with suite_scope():
        assert failures() == outside
        assert detections[0] == 6
        assert failures() == outside
        assert detections[0] == 6
        stored = [v for v in memo._MEMO.get().values() if isinstance(v, BaseException)]
        assert [type(v) for v in stored] == [CriticalPointError, EventNotFound]
        for exc in stored:  # no frames, even after being raised again
            assert exc.__traceback__ is None
            assert exc.__cause__ is None and exc.__context__ is None


def test_stored_values_are_floats_and_points(pendulum, cfg):
    # one record kind per construction; whole cycles or trajectories in the
    # memo would raise the suite's peak memory by tens of megabytes
    # (a failure is the bare exception, which holds no frames or steps)
    sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
    # the critical point (0, 0) fails in both constructions
    samples = annulus_points(pendulum, sec, 2, cfg, seed=3) + [(0.0, 0.0)]
    times = [1.3]
    with suite_scope():
        verify_sigma_symmetry(pendulum, sec, samples, times, cfg)
        verify_reversibility(pendulum, sec, samples, times, cfg)
        entries = memo._MEMO.get()
        assert {k[0] for k in entries} == {"half_period_image", "crossing"}
        failures = [v for v in entries.values() if isinstance(v, BaseException)]
        assert [type(v) for v in failures] == [CriticalPointError] * 2
        for value in entries.values():
            if isinstance(value, BaseException):
                assert value.__traceback__ is None
                assert value.__cause__ is None and value.__context__ is None
                continue
            assert type(value) is tuple
            for v in value:
                assert type(v) is float or (type(v) is tuple and len(v) == 2
                                            and all(type(c) is float for c in v))


def test_symmetry_period_invariance_runs_no_integration(pendulum, cfg, monkeypatch,
                                                         integrations):
    # the involution check has already made the records of z and sigma(z)
    sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
    samples = annulus_points(pendulum, sec, 3, cfg, seed=3)
    during = []
    orig = symmetry.check_period_invariance

    def check(*args):
        before = integrations[0]
        result = orig(*args)
        during.append(integrations[0] - before)
        return result

    monkeypatch.setattr(symmetry, "check_period_invariance", check)
    report = verify_sigma_symmetry(pendulum, sec, samples, [1.3], cfg)
    assert report["period_invariance"].passed
    assert during == [0]


def test_crossing_record_writes_the_symmetry_record(linear_center, lc_xaxis, cfg,
                                                    integrations):
    # the crossing's one detection also makes sigma(z), with the bits of
    # the symmetry's own computation
    z = (0.3, -0.9)
    fresh = sigma_symmetric(linear_center, z, cfg)
    with suite_scope():
        tau(linear_center, lc_xaxis, z, cfg)
        done = integrations[0]
        assert done == 2  # the symmetry's detection, then the crossing's
        assert np.array(sigma_symmetric(linear_center, z, cfg)).tobytes() == \
            np.array(fresh).tobytes()
        assert integrations[0] == done


def test_crossing_outside_a_scope_reads_both_images(linear_center, lc_xaxis, cfg,
                                                    monkeypatch):
    # with no scope to keep it in, the symmetry's record is still made:
    # tau evaluates the field once for the transversal's normal, inside its
    # one detection, and in two partial steps, the symmetry's image at T/2
    # and the crossing record's own at 2 t_f mod T
    calls, runs = [0], []
    field_type, rhs = type(linear_center), type(linear_center).rhs
    real = period_mod.integrate

    def counted(self, x, y):
        calls[0] += 1
        return rhs(self, x, y)

    monkeypatch.setattr(field_type, "rhs", counted)
    monkeypatch.setattr(period_mod, "integrate",
                        lambda *args, **kwargs: runs.append(real(*args, **kwargs)) or runs[-1])
    assert memo._MEMO.get() is None
    tau(linear_center, lc_xaxis, (0.3, -0.9), cfg)
    [traj] = runs
    assert calls[0] == 1 + traj.nfev + 22


def test_symmetry_after_reversibility_runs_no_integration(pendulum, cfg, integrations):
    sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
    samples = annulus_points(pendulum, sec, 3, cfg, seed=3)
    with suite_scope():
        verify_reversibility(pendulum, sec, samples, [1.3], cfg)
        done = integrations[0]
        for z in samples:
            sigma_symmetric(pendulum, z, cfg)
        assert integrations[0] == done


def test_second_involution_runs_no_integration(pendulum, cfg, integrations):
    # the suite stores every grid record of the conjugate section in the
    # scope, so building the involution again there reads them back, bits
    # and all; the parabola's conjugate section is a tabulated curve
    sec = make_section(pendulum, "s", "0.3*s^2", (0.35, 1.75), name="parabola")
    samples = annulus_points(pendulum, sec, 2, cfg, seed=3)
    with suite_scope():
        suite = verify_reversibility(pendulum, sec, samples, [1.3], cfg).involution
        done = integrations[0]
        second = ReversibilityInvolution(pendulum, sec, cfg)
        assert integrations[0] == done
    fresh = ReversibilityInvolution(pendulum, sec, cfg)  # no scope: integrates again
    assert integrations[0] == done + len(sec.grid)

    def bits(star):
        return ([v.hex() for p in star.points for v in p], [t.hex() for t in star.periods])

    assert bits(second.delta_star) == bits(suite.delta_star) == bits(fresh.delta_star)


def _verify_outputs(tmp_path, name, memo_on, monkeypatch, integrations):
    config = tmp_path / "lc.cfg"
    config.write_text("field = linear-center\nsamples = 2\ntimes = 1\nseed = 4\n",
                      encoding="utf-8")
    out = tmp_path / name
    with monkeypatch.context() as m:
        if not memo_on:
            for mod in (cli, symmetry, reversibility):
                m.setattr(mod, "suite_scope", contextlib.nullcontext)
        before = integrations[0]
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        ran = integrations[0] - before
    texts = [(out / f).read_bytes() for f in ("verify_report.json", "verify_summary.csv")]
    return texts, ran


def test_verify_same_report_with_fewer_integrations(tmp_path, monkeypatch, integrations):
    with_memo, ran_with = _verify_outputs(tmp_path, "on", True, monkeypatch, integrations)
    without, ran_without = _verify_outputs(tmp_path, "off", False, monkeypatch, integrations)
    assert with_memo == without
    assert ran_with < ran_without


@pytest.mark.parametrize("command", ["symmetry", "reversibility"])
def test_pairs_csv_runs_no_integration(tmp_path, monkeypatch, integrations, command):
    # every sample's image was already found by the suite's checks
    config = tmp_path / "lc.cfg"
    config.write_text("field = linear-center\nsamples = 2\ntimes = 1\n", encoding="utf-8")
    during = []
    orig = cli._pairs_csv

    def pairs(*args):
        before = integrations[0]
        text = orig(*args)
        during.append(integrations[0] - before)
        return text

    monkeypatch.setattr(cli, "_pairs_csv", pairs)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert during == [0]
