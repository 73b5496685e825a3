"""The byte matrix's compare mode on small output trees: a change that
moves only numbers passes, and any other difference fails it.  Its
configs' CSV files read back as the cells they were written from."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

from annulus_involutions import cli, verify

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_matrix.py"
_spec = importlib.util.spec_from_file_location("byte_matrix", SCRIPT)
byte_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_matrix)

REPORT = ('{\n  "check_name": "involution",\n  "max_residual": 1.2345678901234567e-10,\n'
          '  "pass": true,\n  "tolerance": 1e-07\n}\n')
SUMMARY = "check,residual,tolerance,pass\ninvolution,-0.25,0.0,true\n"
FILES = {
    "case/verify.exit": "0\n",
    "case/verify.stdout": "PASS 5/5\n",
    "case/verify/verify_report.json": REPORT,
    "case/verify/verify_summary.csv": SUMMARY,
}


def _tree(root: Path, changes=None, drop=()) -> Path:
    files = {**FILES, **(changes or {})}
    for rel, text in files.items():
        if rel in drop:
            continue
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def _compare(tmp_path, capsys, changes=None, drop=()):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", changes, drop)
    code = byte_matrix.compare(a, b)
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0
    assert out == ["compare: 4 files, 0 with moved numbers only, 0 failing a requirement"]


@pytest.mark.parametrize("rel, text", [
    ("case/verify/verify_report.json",
     REPORT.replace("1.2345678901234567e-10", "1.2345678901234568e-10")),
    ("case/verify/verify_summary.csv", SUMMARY.replace("-0.25", "0.25")),
], ids=["last-digit", "sign-flip"])
def test_moved_number_passes(tmp_path, capsys, rel, text):
    code, out = _compare(tmp_path, capsys, {rel: text})
    assert code == 0
    assert out[0].startswith(f"moved {rel}: largest relative change")
    assert out[-1] == "compare: 4 files, 1 with moved numbers only, 0 failing a requirement"


@pytest.mark.parametrize("rel, text, problem", [
    ("case/verify.exit", "1\n", "exit code 0 -> 1"),
    ("case/verify.stdout", "FAIL 4/5\n", "summary ['PASS 5/5'] -> ['FAIL 4/5']"),
    ("case/verify/verify_summary.csv", SUMMARY + "energy,0.0,0.0,true\n", "2 lines -> 3"),
    ("case/verify/verify_report.json", REPORT.replace("true", "false"),
     "line 4 differs beyond its numbers"),
    # a gate is not a result: a moved tolerance fails even where the
    # text around it is unchanged
    ("case/verify/verify_report.json", REPORT.replace("1e-07", "1e-06"),
     "tolerance ['1e-07'] -> ['1e-06']"),
    ("case/verify/verify_summary.csv", SUMMARY.replace("-0.25,0.0", "-0.25,0.5"),
     "tolerance ['0.0'] -> ['0.5']"),
], ids=["exit", "summary", "line-count", "word", "json-tolerance", "csv-tolerance"])
def test_other_change_fails(tmp_path, capsys, rel, text, problem):
    code, out = _compare(tmp_path, capsys, {rel: text})
    assert code == 1
    assert out[0].startswith(f"FAIL {rel}: {problem}")
    assert out[-1].endswith("0 with moved numbers only, 1 failing a requirement")


@pytest.mark.parametrize("side", ["a", "b"])
def test_file_in_one_tree_fails(tmp_path, capsys, side):
    a = _tree(tmp_path / "a", drop=() if side == "a" else ("case/verify.stdout",))
    b = _tree(tmp_path / "b", drop=() if side == "b" else ("case/verify.stdout",))
    assert byte_matrix.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"FAIL case/verify.stdout: only in {tmp_path / side}"
    assert out[-1] == "compare: 4 files, 0 with moved numbers only, 1 failing a requirement"


def test_compare_file_reports_the_largest_change():
    a = "x 1.0 2.0\ny 4.0\n"
    b = "x 1.0 2.5\ny 3.0\n"
    assert byte_matrix._compare_file("t.stdout", a, b) == (
        None, "0.25 over 3 numbers (line 2: 4.0 -> 3.0)")
    assert byte_matrix._compare_file("t.stdout", a, a) == (None, "0 over 3 numbers")


@pytest.mark.parametrize("name", list(byte_matrix.CONFIGS))
def test_csv_cells_read_back(tmp_path, monkeypatch, name):
    # the table writer quotes nothing, so every CSV the four commands write
    # on a byte-matrix config must read back, with the csv module's reader,
    # as exactly the cells the writer was given
    given = {}

    def spy(rows):
        rows = [list(row) for row in rows]
        text = write(rows)
        given[text] = rows
        return text

    write = verify.table_text
    monkeypatch.setattr(verify, "table_text", spy)
    monkeypatch.setattr(cli, "table_text", spy)
    config = tmp_path / "run.cfg"
    config.write_text(byte_matrix.config_text(name), encoding="utf-8")
    for command in byte_matrix.COMMANDS:
        cli.main([command, "--config", str(config), "--out", str(tmp_path / command)])
    written = sorted(tmp_path.glob("*/*.csv"))
    # tangent's section is refused; escape's and loose's reversibility fails
    assert len(written) == {"tangent": 0, "escape": 2, "loose": 2}.get(name, 5)
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert list(csv.reader(io.StringIO(text))) == given[text], path.name
