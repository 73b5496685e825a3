import csv
import json
import math

import numpy as np
import pytest

from annulus_involutions.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRANSVERSALITY,
    _pairs_csv,
    load_config,
    main,
)
from annulus_involutions.errors import ConfigError, FlowError


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture()
def lc_config(tmp_path):
    return write_config(tmp_path / "lc.cfg", f"""
# linear center run
field = linear-center
section = x-axis [0.2, 2.0]
params = [0.5, 1.0, 1.5]
samples = 5
times = 2
seed = 1
out = {tmp_path / 'out'}
""")


class TestLoadConfig:
    def test_builtin(self, lc_config):
        config = load_config(lc_config)
        assert config.field.name == "linear-center"
        assert config.section_label == "x-axis"
        assert config.params == [0.5, 1.0, 1.5]
        assert config.rtol == 1e-10

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "field = pendulum\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_builtin(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "field = van-der-pol\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_field_file(self, tmp_path):
        write_config(tmp_path / "my_field.txt",
                     "P = -y\nQ = x\ndomain = [-3, 3, -3, 3]\n")
        path = write_config(tmp_path / "run.cfg",
                            "field = my_field.txt\nsection = x-axis [0.2, 2.0]\n")
        config = load_config(path)
        assert config.field.name == "my_field"
        assert np.allclose(config.field.velocity([1.0, 0.0]), [0.0, 1.0])

    def test_inline_field(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", """
P = -y
Q = x
domain = [-3, 3, -3, 3]
section = x-axis [0.2, 2.0]
""")
        config = load_config(path)
        assert config.field.name == "custom"

    def test_inline_needs_section(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "P = -y\nQ = x\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_expression_section(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", """
field = linear-center
sx = s
sy = 0.5*s
section_range = [0.3, 1.8]
section_grid = 17
""")
        config = load_config(path)
        sec = config.build_section()
        assert np.allclose(sec.point(1.0), [1.0, 0.5])
        assert len(sec.grid) == 17

    def test_default_section_for_builtin(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "field = pendulum\n")
        config = load_config(path)
        assert config.section_label == "x-axis"
        assert config.section_range == (0.3, 2.5)

    def test_overrides(self, lc_config, tmp_path):
        config = load_config(lc_config, rtol_override=1e-8, seed_override=7,
                             out_override=tmp_path / "elsewhere")
        assert config.rtol == 1e-8
        assert config.seed == 7
        assert config.out_dir == tmp_path / "elsewhere"

    def test_bad_expression_reported(self, tmp_path):
        path = write_config(tmp_path / "run.cfg",
                            "P = -y +\nQ = x\nsection = x-axis [0.2, 2]\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestPeriodCommand:
    def test_linear_center(self, lc_config, tmp_path, capsys):
        code = main(["period", "--config", lc_config])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS 3/3"
        rows = read_csv(tmp_path / "out" / "periods.csv")
        assert rows[0] == ["s", "x0", "y0", "T", "closure_residual"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[3]) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_cubic_scaling(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", f"""
field = cubic-center
section = x-axis [0.25, 2.5]
params = [0.5, 1.0, 2.0]
out = {tmp_path / 'out'}
""")
        assert main(["period", "--config", cfg]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "periods.csv")[1:]
        scaled = [float(r[3]) * float(r[0]) ** 2 for r in rows]
        for v in scaled:
            assert v == pytest.approx(scaled[1], rel=1e-5)

    def test_missing_config(self, capsys):
        assert main(["period", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_per_sample_failure(self, tmp_path, capsys):
        # the r = 1.3 circle exits the asymmetric working box at x = -1,
        # so that sample must fail while r = 0.5 succeeds
        cfg = write_config(tmp_path / "p.cfg", f"""
P = -y
Q = x
domain = [-1.0, 2.0, -2.0, 2.0]
section = x-axis [0.2, 1.4]
params = [0.5, 1.3]
out = {tmp_path / 'out'}
""")
        code = main(["period", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert captured.out.strip() == "FAIL 1/2"
        assert "1.3" in captured.err
        rows = read_csv(tmp_path / "out" / "periods.csv")
        assert len(rows) == 2  # header + the surviving sample


class TestSymmetryCommand:
    def test_linear_center_all_pass(self, lc_config, tmp_path, capsys):
        code = main(["symmetry", "--config", lc_config])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.startswith("PASS")
        report = json.loads((tmp_path / "out" / "symmetry_report.json").read_text())
        assert report["all_pass"] is True
        names = [c["check_name"] for c in report["checks"]]
        assert "uniqueness_half_shift" in names
        assert "uniqueness_off_half_shifts" in names
        pairs = read_csv(tmp_path / "out" / "symmetry_pairs.csv")
        assert pairs[0] == ["x", "y", "sigma_x", "sigma_y"]
        for row in pairs[1:]:
            x, y, sx, sy = map(float, row)
            assert abs(sx + x) <= 1e-7 and abs(sy + y) <= 1e-7  # sigma = -id

    def test_loose_rtol_fails_gates(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.cfg", f"""
field = pendulum
section = x-axis [0.3, 2.5]
samples = 4
times = 2
out = {tmp_path / 'out'}
""")
        code = main(["symmetry", "--config", cfg, "--rtol", "1e-3"])
        assert code == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.strip().startswith("FAIL")
        report = json.loads((tmp_path / "out" / "symmetry_report.json").read_text())
        assert report["all_pass"] is False


class TestReversibilityCommand:
    def test_linear_center_x_axis(self, lc_config, tmp_path, capsys):
        code = main(["reversibility", "--config", lc_config])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().startswith("PASS")
        report = json.loads((tmp_path / "out" / "reversibility_report.json").read_text())
        assert report["all_pass"] is True
        star = read_csv(tmp_path / "out" / "delta_star.csv")
        assert star[0] == ["s", "x_star", "y_star", "T"]
        for row in star[1:]:
            s, xs, ys, T = map(float, row)
            assert xs == pytest.approx(-s, abs=1e-8)
            assert abs(ys) <= 1e-8
        pairs = read_csv(tmp_path / "out" / "reversibility_pairs.csv")
        for row in pairs[1:]:
            x, y, sx, sy = map(float, row)
            assert abs(sx - x) <= 1e-7 and abs(sy + y) <= 1e-7  # mirror in x-axis

    def test_tangent_section_exit3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", f"""
field = linear-center
sx = cos(s)
sy = sin(s)
section_range = [0.1, 1.0]
out = {tmp_path / 'out'}
""")
        code = main(["reversibility", "--config", cfg])
        assert code == EXIT_TRANSVERSALITY
        assert "transversality" in capsys.readouterr().err

    def test_duffing_diagonal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "d.cfg", f"""
field = duffing
section = diagonal [0.2, 1.1]
samples = 5
times = 2
out = {tmp_path / 'out'}
""")
        assert main(["reversibility", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "reversibility_report.json").read_text())
        for c in report["checks"]:
            assert c["pass"], c["check_name"]


class TestVerifyCommand:
    def test_combined_report(self, lc_config, tmp_path, capsys):
        code = main(["verify", "--config", lc_config])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        names = [c["check_name"] for c in report["checks"]]
        assert any(n.startswith("symmetry/") for n in names)
        assert any(n.startswith("reversibility/") for n in names)
        assert len(set(names)) == len(names)
        summary = read_csv(tmp_path / "out" / "verify_summary.csv")
        assert summary[0] == ["check", "residual", "tolerance", "pass"]
        assert len(summary) == len(names) + 1


class TestPairsCsv:
    def test_dropped_sample_reported(self, capsys):
        def sigma(z):
            if z[0] < 0:
                raise FlowError("left the domain")
            return np.array([z[0], -z[1]])

        samples = [np.array([1.0, 0.5]), np.array([-0.25, 2.0]), np.array([0.5, 0.0])]
        text = _pairs_csv("symmetry_pairs", samples, sigma)
        assert text.splitlines() == ["x,y,sigma_x,sigma_y", "1.0,0.5,1.0,-0.5",
                                     "0.5,0.0,0.5,-0.0"]
        assert capsys.readouterr().err.splitlines() == [
            "symmetry_pairs: (-0.25, 2): left the domain"]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        text = """
field = linear-center
section = x-axis [0.2, 2.0]
params = [0.5, 1.0]
samples = 4
times = 2
seed = 3
"""
        cfg = write_config(tmp_path / "run.cfg", text)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["period", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["period", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "periods.csv").read_bytes() == (out2 / "periods.csv").read_bytes()
        assert main(["symmetry", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["symmetry", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("symmetry_report.json", "symmetry_pairs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
