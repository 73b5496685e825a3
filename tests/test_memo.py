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
    _signed_crossing,
    sigma_reversible,
    tau,
    verify_reversibility,
)
from annulus_involutions.sections import make_section
from annulus_involutions.symmetry import sigma_symmetric, verify_sigma_symmetry
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
    assert memo._MEMO.get() is None
    period(linear_center, z, cfg)
    period(linear_center, z, cfg)
    assert integrations[0] == 2
    with suite_scope():
        period(linear_center, z, cfg)
        assert integrations[0] == 3
        # the image reuses the detection and adds one short flow to T/2
        sigma_symmetric(linear_center, z, cfg)
        assert integrations[0] == 4
        assert len(memo._MEMO.get()) == 2
    assert memo._MEMO.get() is None
    period(linear_center, z, cfg)
    assert integrations[0] == 5


def test_default_settings_share_the_entry(linear_center, integrations):
    # the default IntegratorConfig() equals a fresh one, so both reach one entry
    z = np.array([0.6, 0.8])
    with suite_scope():
        period(linear_center, z)
        sigma_symmetric(linear_center, z, IntegratorConfig())
        assert integrations[0] == 2  # one detection, one flow to T/2


def test_hit_has_the_bits_of_a_fresh_call(pendulum, cfg):
    z = np.array([0.9, 0.4])
    fresh = sigma_symmetric(pendulum, z, cfg), period(pendulum, z, cfg)
    with suite_scope():
        sigma_symmetric(pendulum, z, cfg)
        hit = sigma_symmetric(pendulum, z, cfg), period(pendulum, z, cfg)
    assert np.array(hit[0]).tobytes() == np.array(fresh[0]).tobytes()
    assert hit[1].hex() == fresh[1].hex()


def test_mutating_a_result_leaves_the_entry(linear_center, lc_xaxis, cfg, integrations):
    z = np.array([0.6, 0.8])
    w = np.array([0.3, -0.9])
    with suite_scope():
        image = sigma_symmetric(linear_center, z, cfg)
        kept = np.array(image)
        _, z_hit = _signed_crossing(linear_center, lc_xaxis, w, cfg)
        kept_hit = np.array(z_hit)
        rev_image = sigma_reversible(linear_center, lc_xaxis, w, cfg)
        kept_rev = np.array(rev_image)
        for result in (image, z_hit, rev_image):
            with pytest.raises(TypeError):  # points are tuples
                result[0] = 99.0
        done = integrations[0]
        assert np.array_equal(sigma_symmetric(linear_center, z, cfg), kept)
        assert np.array_equal(_signed_crossing(linear_center, lc_xaxis, w, cfg)[1], kept_hit)
        assert np.array_equal(sigma_reversible(linear_center, lc_xaxis, w, cfg), kept_rev)
        assert integrations[0] == done


def test_nested_scope_reuses_the_outer_one(linear_center, cfg, integrations):
    z = np.array([0.6, 0.8])
    with suite_scope():
        outer = memo._MEMO.get()
        with suite_scope():
            assert memo._MEMO.get() is outer
            sigma_symmetric(linear_center, z, cfg)
        assert memo._MEMO.get() is outer and len(outer) == 2
        sigma_symmetric(linear_center, z, cfg)
    assert integrations[0] == 2  # one detection, one flow to T/2


def test_failure_is_not_stored(linear_center, lc_xaxis, cfg, monkeypatch):
    monkeypatch.setattr(flow_mod, "MAX_HORIZON", 20.0)
    far = np.array([3.0, 0.0])  # its cycle misses the segment [0.2, 2.0]
    with suite_scope():
        messages = []
        for _ in range(2):
            with pytest.raises(CriticalPointError) as crit:
                sigma_symmetric(linear_center, [0.0, 0.0], cfg)
            with pytest.raises(EventNotFound) as miss:
                tau(linear_center, lc_xaxis, far, cfg)
            messages.append((str(crit.value), str(miss.value)))
        assert memo._MEMO.get() == {}
    with pytest.raises(EventNotFound) as outside:
        tau(linear_center, lc_xaxis, far, cfg)
    assert messages[0] == messages[1]
    assert messages[0][1] == str(outside.value)


def test_stored_values_are_floats_and_points(pendulum, cfg):
    # whole cycles or trajectories in the memo would raise the suite's
    # peak memory by tens of megabytes
    sec = make_section(pendulum, "s", "0", (0.3, 2.5), name="x-axis")
    samples = annulus_points(pendulum, sec, 2, cfg, seed=3)
    times = [1.3]
    with suite_scope():
        verify_sigma_symmetry(pendulum, sec, samples, times, cfg)
        verify_reversibility(pendulum, sec, samples, times, cfg)
        entries = memo._MEMO.get()
        assert {k[0] for k in entries} == {"half_period", "half_period_image", "crossing"}
        for value in entries.values():
            assert type(value) is tuple
            for v in value:
                assert type(v) is float or (type(v) is tuple and len(v) == 2
                                            and all(type(c) is float for c in v))


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
