import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from annulus_involutions import cli, period as period_mod, reversibility
from annulus_involutions.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRANSVERSALITY,
    _gather_samples,
    _pairs_csv,
    load_config,
    main,
)
from annulus_involutions.errors import ConfigError, FlowError, TransversalityError
from annulus_involutions.flow import IntegratorConfig
from annulus_involutions.period import detect_cycle
from annulus_involutions.symmetry import verify_sigma_symmetry


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
        assert config.cfg == IntegratorConfig(rtol=1e-10, atol=1e-12)

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
        assert np.allclose(config.field.rhs(1.0, 0.0), [0.0, 1.0])

    def test_inline_field(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", """
P = -y
Q = x
domain = [-3, 3, -3, 3]
section = x-axis [0.2, 2.0]
""")
        config = load_config(path)
        assert config.field.name == "custom"

    def test_domain_trailing_comma(self, tmp_path):
        # field files and inline fields read domain with the run config's
        # number-list reader, which skips empty entries
        write_config(tmp_path / "f.txt", "P = -y\nQ = x\ndomain = [-3, 3, -3, 3,]\n")
        for text in ("field = f.txt\n", "P = -y\nQ = x\ndomain = [-3, 3, -3, 3,]\n"):
            path = write_config(tmp_path / "run.cfg", text + "section = x-axis [0.2, 2]\n")
            assert load_config(path).field.domain == (-3.0, 3.0, -3.0, 3.0)

    def test_line_errors_located(self, tmp_path):
        # one key = value reader, located by config path or field-file line
        path = write_config(tmp_path / "run.cfg", "field = pendulum\nfield = duffing\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}:2: duplicate key 'field'$"):
            load_config(path)
        write_config(tmp_path / "f.txt", "P = -y\nQ x\n")
        path = write_config(tmp_path / "run.cfg", "field = f.txt\n")
        message = (f"field file {tmp_path.resolve() / 'f.txt'}: "
                   "line 2: expected 'key = value', got 'Q x'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

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

    # a field file's name is its stem; named after a built-in, it still gets
    # no default section
    @pytest.mark.parametrize("stem", ["pendulum", "myfield"])
    def test_field_file_gets_no_default_section(self, tmp_path, capsys, stem):
        (tmp_path / f"{stem}.txt").write_text("P = -y\nQ = x + x^2\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg",
                           f"field = {stem}.txt\nout = {tmp_path / 'out'}\n")
        assert main(["period", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: config needs a section (shorthand or sx/sy expressions)"]
        assert not (tmp_path / "out").exists()

    def test_overrides(self, lc_config, tmp_path):
        config = load_config(lc_config, out_override=tmp_path / "elsewhere")
        assert config.out_dir == tmp_path / "elsewhere"

    # a non-finite tolerance, sample or time counts below 1 (which would
    # make period's PASS 0/0 vacuous), and a seed beyond 2**53, outside the
    # range a run config admits
    @pytest.mark.parametrize("text, message", [
        ("samples = 2\ntimes = 1\nrtol = nan\n", "tolerances must be positive and finite"),
        ("samples = 2\ntimes = 1\nrtol = inf\n", "tolerances must be positive and finite"),
        ("samples = 2\ntimes = 1\natol = nan\n", "tolerances must be positive and finite"),
        ("samples = 0\ntimes = 1\n", "samples must be at least 1, got 0"),
        ("samples = -3\ntimes = 1\n", "samples must be at least 1, got -3"),
        ("samples = 2\ntimes = 0\n", "times must be at least 1, got 0"),
        ("seed = 100000000000000000\n", "seed must lie within ±2**53, got 100000000000000000"),
        ("seed = -100000000000000000\n", "seed must lie within ±2**53, got -100000000000000000"),
        (f"seed = 1{'0' * 400}\n", f"seed must lie within ±2**53, got 1{'0' * 400}"),
    ], ids=["rtol-nan", "rtol-inf", "atol-nan", "samples-0", "samples-negative", "times-0",
            "seed-1e17", "seed-minus-1e17", "seed-401-digits"])
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "run.cfg",
                           f"field = linear-center\n{text}out = {tmp_path / 'out'}\n")
        assert main(["period", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_largest_seed_loads(self, tmp_path):
        path = write_config(tmp_path / "run.cfg",
                            "field = linear-center\nseed = 9007199254740992\n")
        assert load_config(path).seed == 2**53

    @pytest.mark.parametrize("text, message", [
        ("rtol = tight", "rtol: expected a number, got 'tight'"),
        ("seed = 1.5", "seed: expected an integer, got '1.5'"),
        ("section_grid = 3e1", "section_grid: expected an integer, got '3e1'"),
    ])
    def test_unparsable_number(self, tmp_path, text, message):
        path = write_config(tmp_path / "run.cfg", f"field = linear-center\n{text}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    # each refusal of the field and section keys, and of an empty params
    # list, is one "config error:" line and exit 2; {dir} is the config's
    # directory
    @pytest.mark.parametrize("text, message", [
        ("field = linear-center\nP = -y\nQ = x\n",
         "give either 'field = <name-or-file>' or inline P/Q, not both"),
        ("field = f.txt\nsection = x-axis [0.2, 2.0]\n",
         "field file {dir}/f.txt: unexpected end of input (offset 3)"),
        ("field = domain.txt\nsection = x-axis [0.2, 2.0]\n",
         "field file {dir}/domain.txt: domain: expected a bracketed list, got '1, 2'"),
        ("field = no-p.txt\nsection = x-axis [0.2, 2.0]\n",
         "field file {dir}/no-p.txt: missing required key 'P'"),
        ("field = r.txt\nsection = x-axis [0.2, 2.0]\n",
         "field file {dir}/r.txt: unknown field keys: ['R']"),
        ("P = -y\nsection = x-axis [0.2, 2.0]\n", "inline field: missing required key 'Q'"),
        ("P = -y\nQ = x\ndomain = 1, 2\nsection = x-axis [0.2, 2.0]\n",
         "inline field: domain: expected a bracketed list, got '1, 2'"),
        ("field = linear-center\nsection = x-axis [0.2, 2.0]\nsx = s\n",
         "give either 'section = ...' shorthand or sx/sy, not both"),
        ("field = linear-center\nsection = y-axis [0.2, 2.0]\n",
         "unknown section shorthand 'y-axis' (use x-axis or diagonal)"),
        ("field = linear-center\nsx = s\nsection_range = [0.2, 2.0]\n",
         "expression sections need both sx and sy"),
        ("field = linear-center\nsx = s\nsy = 0\n",
         "expression sections need section_range = [smin, smax]"),
        ("field = linear-center\nparams = []\n", "params list is empty"),
    ], ids=["field-and-inline", "field-file-expression", "field-file-domain",
            "field-file-without-p", "field-file-unknown-key", "inline-without-q", "inline-domain",
            "shorthand-and-expressions", "unknown-shorthand", "expression-without-sy",
            "expression-without-range", "empty-params"])
    def test_refused_keys_one_line(self, tmp_path, capsys, text, message):
        for name, body in (("f.txt", "P = -y\nQ = x +\n"),
                           ("domain.txt", "P = -y\nQ = x\ndomain = 1, 2\n"),
                           ("no-p.txt", "Q = x\n"), ("r.txt", "P = -y\nQ = x\nR = 1\n")):
            write_config(tmp_path / name, body)
        cfg = write_config(tmp_path / "run.cfg", f"{text}out = {tmp_path / 'out'}\n")
        assert main(["period", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: " + message.format(dir=tmp_path.resolve())]
        assert not (tmp_path / "out").exists()

    def test_bad_expression_reported(self, tmp_path):
        path = write_config(tmp_path / "run.cfg",
                            "P = -y +\nQ = x\nsection = x-axis [0.2, 2]\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOutsideInput:
    # text that is not UTF-8, a name outside ASCII and an output path that
    # is a file are config errors: exit 2, one stderr line, before any
    # computation, instead of a traceback and exit 1
    @pytest.mark.parametrize("case, start", [
        ("config-not-utf8", "config error: config file "),
        ("field-file-not-utf8", "config error: field file "),
        ("non-ascii-name", "config error: inline field: "),
        ("out-is-a-file", "config error: out: "),
        ("out-under-a-file", "config error: out: "),
    ])
    def test_exit2_with_one_line(self, tmp_path, capsys, case, start):
        taken = tmp_path / "taken.csv"
        taken.write_text("kept\n", encoding="utf-8")
        out = {"out-is-a-file": taken, "out-under-a-file": taken / "out"}.get(
            case, tmp_path / "out")
        text = f"field = linear-center\nout = {out}\n"
        if case == "config-not-utf8":
            text = "# caf\u00e9\n" + text
        elif case == "field-file-not-utf8":
            (tmp_path / "f.txt").write_bytes("# caf\u00e9\nP = -y\nQ = x\n".encode("latin-1"))
            text = f"field = f.txt\nsection = x-axis [0.2, 2.0]\nout = {out}\n"
        elif case == "non-ascii-name":
            text = f"P = \u00e9\nQ = x\nsection = x-axis [0.2, 2.0]\nout = {out}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text.encode("latin-1" if case == "config-not-utf8" else "utf-8"))
        assert main(["period", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(start)
        assert taken.read_text(encoding="utf-8") == "kept\n"
        assert not (tmp_path / "out").exists()

    # a file that exists but cannot be read, as without read permission
    @pytest.mark.parametrize("unreadable, what", [
        ("run.cfg", "config file"), ("f.txt", "field file")], ids=["config", "field-file"])
    def test_unreadable_file(self, tmp_path, capsys, monkeypatch, unreadable, what):
        write_config(tmp_path / "f.txt", "P = -y\nQ = x\n")
        cfg = write_config(tmp_path / "run.cfg", "field = f.txt\nsection = x-axis [0.2, 2.0]\n"
                                                 f"out = {tmp_path / 'out'}\n")
        read_text = Path.read_text

        def refuse(self, *args, **kwargs):
            if self.name == unreadable:
                raise PermissionError(13, "Permission denied")
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["period", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        path = tmp_path / unreadable
        if what == "field file":
            path = path.resolve()  # a field file is named by its resolved path
        assert captured.err.splitlines() == [
            f"config error: {what} {path} cannot be read: [Errno 13] Permission denied"]
        assert not (tmp_path / "out").exists()

    # an output directory that cannot be created, or a file in it that
    # cannot be written, after the whole run: exit 2, one stderr line and no
    # summary line; a file written before the failure stays
    @pytest.mark.parametrize("command, error", [
        ("period", "[Errno 13] Permission denied"),
        ("symmetry", "[Errno 28] No space left on device"),
    ], ids=["mkdir", "write"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, command, error):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", "field = linear-center\nsamples = 1\n"
                                                 f"times = 1\nout = {out}\n")
        if command == "period":
            mkdir = Path.mkdir

            def refuse(self, *args, **kwargs):
                if self == out:
                    raise PermissionError(13, "Permission denied")
                return mkdir(self, *args, **kwargs)

            monkeypatch.setattr(Path, "mkdir", refuse)
        else:
            write_atomic = cli.write_atomic

            def full(path, text):
                if path.name != "symmetry_report.json":
                    raise OSError(28, "No space left on device")
                write_atomic(path, text)

            monkeypatch.setattr(cli, "write_atomic", full)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: output directory {out} cannot be written: {error}"]
        if command == "period":
            assert not out.exists()
        else:
            assert [p.name for p in out.iterdir()] == ["symmetry_report.json"]


class TestPeriodCommand:
    def test_linear_center(self, lc_config, tmp_path, capsys):
        code = main(["period", "--config", lc_config])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS 3/3"
        rows = read_csv(tmp_path / "out" / "periods.csv")
        assert rows[0] == ["s", "x0", "y0", "T", "closure_residual"]
        assert len(rows) == 4
        assert [row[0] for row in rows[1:]] == ["0.5", "1.0", "1.5"]  # repr of each float
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

    def test_long_flat_sum(self, tmp_path, capsys):
        # 201 terms; with every operation parenthesized the compiled field
        # nested past the compiler's limit of 200 parentheses
        q = "+".join(["0*x"] * 200) + "-x"
        cfg = write_config(tmp_path / "sum.cfg", f"""
P = y
Q = {q}
section = x-axis [0.3, 1.0]
params = [0.5, 0.9]
out = {tmp_path / 'out'}
""")
        assert main(["period", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS 2/2"

    def test_stalled_integration_stops_at_the_step_size(self, tmp_path, capsys):
        # Q = x^(-1) is singular at x = 0: the orbit from (0.383994, 0)
        # stalls at t = 0.481265, where the step no longer advances t, and
        # the sample fails there instead of running to the step cap
        cfg = write_config(tmp_path / "stall.cfg", f"""
P = -y
Q = x^(-1)
section = x-axis [0.2, 0.5]
params = [0.383994]
out = {tmp_path / 'out'}
""")
        assert main(["period", "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out.strip() == "FAIL 0/1"
        assert "too small at t=0.481265" in captured.err
        assert "Traceback" not in captured.err

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

    def test_rows_are_the_detected_cycles(self, lc_config, tmp_path):
        # each row is (s, x0, y0, T, closure_residual) of the cycle through
        # the seed point, to the bit
        assert main(["period", "--config", lc_config]) == EXIT_OK
        config = load_config(lc_config)
        section = config.build_section()
        rows = read_csv(tmp_path / "out" / "periods.csv")[1:]
        assert len(rows) == len(config.params) == 3
        for row, s in zip(rows, config.params):
            c = detect_cycle(config.field, section.point(s), config.cfg)
            assert row == [repr(v) for v in (s, *c.base_point, c.period, c.closure_residual)]

    def test_failures_recorded_not_fatal(self, tmp_path, capsys, monkeypatch):
        # the x = 3.1 cycle's period, about 21, exceeds the shortened
        # horizon: its sample fails with one stderr line, and the other
        # sample's row is written
        monkeypatch.setattr(period_mod, "MAX_HORIZON", 20.0)
        cfg = write_config(tmp_path / "p.cfg", f"""
field = pendulum
section = x-axis [0.3, 3.1]
params = [1.0, 3.1]
out = {tmp_path / 'out'}
""")
        assert main(["period", "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out.strip() == "FAIL 1/2"
        assert captured.err.splitlines() == [
            "sample s = 3.1 failed: no return to the transversal within t = 20 "
            "(not a cycle, or annulus boundary)"]
        rows = read_csv(tmp_path / "out" / "periods.csv")
        assert [row[0] for row in rows] == ["s", "1.0"]

    def test_field_math_error_recorded(self, tmp_path, capsys):
        # sqrt(x + 1) is real only for x >= -1: the r = 0.5 circle stays
        # there, the r = 1.3 circle does not
        cfg = write_config(tmp_path / "p.cfg", f"""
P = -y
Q = x + 0*sqrt(x + 1)
section = x-axis [0.2, 1.4]
params = [0.5, 1.3]
out = {tmp_path / 'out'}
""")
        code = main(["period", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert captured.out.strip() == "FAIL 1/2"
        assert "sample s = 1.3 failed: field evaluation failed" in captured.err
        assert len(read_csv(tmp_path / "out" / "periods.csv")) == 2

    def test_section_math_error_recorded(self, tmp_path, capsys):
        # log(s) is undefined at the parameter s = -1, outside the section's
        # range: that sample fails with a SectionError naming s, and the
        # s = 0.7 row is written
        cfg = write_config(tmp_path / "p.cfg", f"""
field = linear-center
sx = s
sy = 0.01*log(s)
section_range = [0.5, 1.0]
params = [-1.0, 0.7]
out = {tmp_path / 'out'}
""")
        assert main(["period", "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out.strip() == "FAIL 1/2"
        assert captured.err.splitlines() == [
            "sample s = -1 failed: section (s, 0.01*log(s)): curve undefined at s = -1: "
            "math domain error"]
        rows = read_csv(tmp_path / "out" / "periods.csv")
        assert [row[0] for row in rows] == ["s", "0.7"]


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

    def test_report_is_the_library_suite(self, lc_config, tmp_path):
        # the command writes the suite's report, uniqueness checks included;
        # only the digest differs (the command's covers the whole config)
        assert main(["symmetry", "--config", lc_config]) == EXIT_OK
        written = json.loads((tmp_path / "out" / "symmetry_report.json").read_text())
        config = load_config(lc_config)
        cfg = config.cfg
        section = config.build_section()
        samples, times = _gather_samples(config, section)
        suite = verify_sigma_symmetry(config.field, section, samples, times, cfg).to_dict()
        for report in (written, suite):
            del report["provenance"]["config_digest"]
        assert written == suite
        assert list(written["provenance"]) == ["field", "construction", "section"]
        assert [c["check_name"] for c in written["checks"]][-2:] == [
            "uniqueness_half_shift", "uniqueness_off_half_shifts"]

    def test_loose_rtol_fails_gates(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.cfg", f"""
field = pendulum
section = x-axis [0.3, 2.5]
samples = 4
times = 2
rtol = 1e-3
out = {tmp_path / 'out'}
""")
        code = main(["symmetry", "--config", cfg])
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

    def test_one_conjugate_section_per_run(self, lc_config, tmp_path, monkeypatch):
        # the pairs and delta_star.csv come from the involution the suite
        # built, so the conjugate section is tabulated once
        calls = []
        tabulate = reversibility.conjugate_section
        monkeypatch.setattr(reversibility, "conjugate_section",
                            lambda *args: calls.append(args) or tabulate(*args))
        assert main(["reversibility", "--config", lc_config]) == EXIT_OK
        assert len(calls) == 1
        assert len(read_csv(tmp_path / "out" / "delta_star.csv")) == 1 + 33


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

    def test_tolerances_match_readme_table(self, tmp_path):
        # the README lists every check with its gate; both suites on the
        # linear center must report exactly those checks and tolerances
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| check | suite | tolerance | passes when |") + 2
        documented = {}
        for row in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            name, suite, tolerance = (c.strip(" `") for c in row.strip("| ").split(" | ")[:3])
            for s in (("symmetry", "reversibility") if suite == "both" else (suite,)):
                documented[f"{s}/{name}"] = float(tolerance)
        assert len(documented) == 14
        cfg = write_config(tmp_path / "lc.cfg", "field = linear-center\nsamples = 2\n"
                           f"times = 1\nout = {tmp_path / 'out'}\n")
        assert main(["verify", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert {c["check_name"]: c["tolerance"] for c in report["checks"]} == documented


COMMANDS = ["period", "symmetry", "reversibility", "verify"]

# sections that cannot be built: a parse error, a curve undefined at a
# grid point or between two, a C'' undefined at a grid point (where
# projection's Newton step needs it), a field undefined at a section point
UNBUILDABLE_SECTIONS = {
    "parse-error": "field = linear-center\nsx = s +\nsy = 0\nsection_range = [0.2, 1.0]\n",
    "curve-undefined": ("field = linear-center\nsx = s\nsy = log(s)\n"
                        "section_range = [-0.5, 1.0]\n"),
    "field-undefined": "P = -y\nQ = x + 0*sqrt(x - 0.5)\nsection = x-axis [0.2, 1.0]\n",
    "curve-gap": ("field = linear-center\nsx = s\nsy = 0.1*s^2 + 0*sqrt((s-0.32)^2 - 0.0001)\n"
                  "section_range = [0.3, 1.5]\n"),
    "second-derivative-undefined": ("field = linear-center\nsx = s\nsy = (s - 0.3)^1.5\n"
                                    "section_range = [0.3, 1.5]\n"),
}

# a literal that parses to inf, a section whose derivative folds to inf,
# and section ranges with an infinite end or a length that overflows:
# (config, the stderr line's start)
NON_FINITE_CONSTANTS = {
    "literal": ("P = -y\nQ = x + 0*1e400\nsection = x-axis [0.2, 1.0]\n",
                "config error: inline field: number '1e400' is not finite"),
    "folded": ("field = linear-center\nsx = s\nsy = s*1e308*10\nsection_range = [0.3, 1.0]\n",
               "section error: section (s, s*1e+308*10.0): curve not finite at s = 0.3"),
    "range-end": ("field = linear-center\nsection = x-axis [0.2, inf]\n",
                  "section error: parameter range [0.2, inf] needs finite ends and a finite "
                  "length"),
    "range-length": ("field = linear-center\nsx = s\nsy = 0\n"
                     "section_range = [-1.7e308, 1.7e308]\n",
                     "section error: parameter range [-1.7e+308, 1.7e+308] needs finite ends "
                     "and a finite length"),
}

# field expressions nested deeper than the parser accepts, and a section
# whose second derivatives nest deeper than Python compiles: (config, the
# stderr line)
TOO_DEEP = {
    "nested-250": ("P = -y\nQ = " + "x+(" * 250 + "x" + ")" * 250
                   + "\nsection = x-axis [0.2, 1.0]\n",
                   "config error: inline field: expression nested deeper than 256 levels "
                   "(offset 256)"),
    "flat-1200": ("P = -y\nQ = " + "+".join(["x"] * 1200) + "\nsection = x-axis [0.2, 1.0]\n",
                  "config error: inline field: expression nested deeper than 256 levels "
                  "(offset 511)"),
    "section-derivatives": ("field = linear-center\nsx = s\nsy = " + "s/(" * 63 + "s"
                            + ")" * 63 + "\nsection_range = [0.5, 0.6]\n",
                            "section error: expression too deep to compile: 251 nested "
                            "parentheses, above Python's limit of 200"),
}

# cycles through the outer section points leave the working box
ESCAPE = ("P = -y\nQ = x\ndomain = [-1, 2, -2, 2]\nsection = x-axis [0.2, 1.4]\n"
          "params = [0.5, 1.3]\nsamples = 4\ntimes = 2\nseed = 7\n")


class TestOneDriver:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", list(UNBUILDABLE_SECTIONS))
    def test_unbuildable_section_exit2(self, tmp_path, capsys, case, command):
        cfg = write_config(tmp_path / "s.cfg",
                           UNBUILDABLE_SECTIONS[case] + f"out = {tmp_path / 'out'}\n")
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("section error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", list(TOO_DEEP))
    def test_too_deep_expression_exit2(self, tmp_path, capsys, case, command):
        text, line = TOO_DEEP[case]
        cfg = write_config(tmp_path / "d.cfg", text + f"out = {tmp_path / 'out'}\n")
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines() == [line]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", list(NON_FINITE_CONSTANTS))
    def test_non_finite_constant_exit2(self, tmp_path, capsys, case, command):
        text, start = NON_FINITE_CONSTANTS[case]
        cfg = write_config(tmp_path / "n.cfg", text + f"out = {tmp_path / 'out'}\n")
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(start)
        assert not (tmp_path / "out").exists()

    def test_failed_samples_fail_their_checks(self, tmp_path, capsys):
        # the suite degrades to section points and some samples fail: each
        # check that recorded an error fails, so the run prints FAIL, exit 1
        cfg = write_config(tmp_path / "e.cfg", ESCAPE + f"out = {tmp_path / 'out'}\n")
        assert main(["symmetry", "--config", cfg]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.startswith("FAIL ")
        report = json.loads((tmp_path / "out" / "symmetry_report.json").read_text())
        with_errors = [c for c in report["checks"] if c.get("errors")]
        assert with_errors and not any(c["pass"] for c in with_errors)

    @pytest.mark.parametrize("command, code", zip(COMMANDS, [
        EXIT_CONFIG, EXIT_CONFIG, EXIT_TRANSVERSALITY, EXIT_TRANSVERSALITY]))
    def test_tangent_section(self, tmp_path, capsys, command, code):
        # a seed section that fails transversality is a config error
        cfg = write_config(tmp_path / "t.cfg", f"""
field = linear-center
sx = cos(s)
sy = sin(s)
section_range = [0.1, 1.0]
out = {tmp_path / 'out'}
""")
        assert main([command, "--config", cfg]) == code
        prefix = "section error: " if code == EXIT_CONFIG else "transversality error: "
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["reversibility", "verify"])
    def test_transversality_error_in_body_exit3(self, lc_config, tmp_path, capsys,
                                                monkeypatch, command):
        # the conjugate section is certified inside the command's body: a
        # transversality failure there exits 3 and writes no files
        def refuse(field, grid, points, name):
            raise TransversalityError(f"section {name}: crossing orientation flips")

        monkeypatch.setattr(reversibility, "section_from_points", refuse)
        assert main([command, "--config", lc_config]) == EXIT_TRANSVERSALITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "transversality error: section x-axis_star: crossing orientation flips"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["reversibility", "verify"])
    def test_conjugate_section_failure_names_s(self, tmp_path, capsys, command):
        # log(1.5 + y) is undefined below y = -1.5, which the half-period
        # image of the s = 1.55 grid point reaches: a numerical failure
        # (exit 1) whose line names the grid point
        cfg = write_config(tmp_path / "c.cfg", f"""
P = -y
Q = x + 0*log(1.5 + y)
section = x-axis [0.2, 2.0]
samples = 2
times = 1
out = {tmp_path / 'out'}
""")
        assert main([command, "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: conjugate section failed at s = 1.55: field evaluation failed at "
            "(-0.34519410257151384, -1.5110728083055331): math domain error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS[1:])
    def test_undefined_field_exits_like_domain_escape(self, tmp_path, capsys, command):
        # outer cycles leave the working box in one config and reach
        # x < -1, where sqrt(x + 1) is undefined, in the other: the
        # DomainError takes the path of the FlowError
        codes, last = {}, {}
        for name, field in (("box", "Q = x\ndomain = [-1.0, 2.0, -2.0, 2.0]\n"),
                            ("sqrt", "Q = x + 0*sqrt(x + 1)\n")):
            cfg = write_config(tmp_path / f"{name}.cfg", f"""
P = -y
{field}section = x-axis [0.2, 1.4]
samples = 4
times = 2
out = {tmp_path / name}
""")
            codes[name] = main([command, "--config", cfg])
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("sample generation degraded to section points: ")
            last[name] = err[-1].split(":")[0]
        assert codes["sqrt"] == codes["box"]
        assert last["sqrt"] == last["box"]
        if command != "symmetry":
            assert codes["sqrt"] == EXIT_CHECK_FAILED and last["sqrt"] == "error"
            assert not (tmp_path / "sqrt").exists()


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

    @pytest.mark.parametrize("command, suite", [("symmetry", "verify_sigma_symmetry"),
                                                ("reversibility", "verify_reversibility")])
    def test_rows_are_the_reported_involution(self, lc_config, tmp_path, monkeypatch,
                                              command, suite):
        # the pairs are the images of the map the suite verified, to the bit
        reports = []
        run_suite = getattr(cli, suite)
        monkeypatch.setattr(cli, suite, lambda *args: reports.append(run_suite(*args))
                            or reports[-1])
        assert main([command, "--config", lc_config]) == EXIT_OK
        [report] = reports
        rows = read_csv(tmp_path / "out" / f"{command}_pairs.csv")[1:]
        assert len(rows) == 5
        for row in rows:
            z = tuple(map(float, row[:2]))
            assert row == [repr(v) for v in (*z, *report.involution(z))]


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
