"""Run every CLI command on ten configs, and the period function on a
grid, and keep everything they leave.

    python3 scripts/byte_matrix.py --src <source tree> --out <dir>

Each config has samples 4, times 2 and seed 7, and params = [0.5, 1.0,
1.5] unless it names its own.  Five cover the constructions: the four
built-ins with their default x-axis sections, and the inline field
P = y, Q = -sin(x) with the section (s, 0.3*s^2) on [0.35, 1.75].  Five
reach the driver's other paths:

- ``shorthand-x``: linear-center with ``section = x-axis [0.2, 2.0]``;
- ``shorthand-diag``: duffing with ``section = diagonal [0.2, 1.1]``;
- ``tangent``: linear-center with the arc (cos(s), sin(s)) on [0.1, 1.0],
  tangent to the flow (a section error or a transversality error);
- ``escape``: P = -y, Q = x in the box [-1, 2] x [-2, 2] on
  ``x-axis [0.2, 1.4]`` with params [0.5, 1.3], whose outer cycles leave
  the box (degraded samples and the ``error:`` line);
- ``loose``: the pendulum with rtol = 1e-3 (failing gates).

Each of period, symmetry, reversibility and verify runs in a fresh
interpreter with the package imported from ``<src>/src``.  Under
``<out>/<config>/`` it writes ``run.cfg``, and for each command the output
directory ``<command>/`` plus ``<command>.stdout``, ``<command>.stderr`` and
``<command>.exit``.  An eleventh case, ``<out>/period-grid/``, holds
``grid.stdout`` (with ``.stderr`` and ``.exit``): the repr of ``period()``
at 24 points (x, 0) spread over each built-in's default section range,
with the pendulum's range stretched to x = 3.1 so that near-separatrix
orbits are covered.  A twelfth, ``<out>/time-maps/``, holds ``maps.stdout``:
for each built-in with its default x-axis section, the repr of ``tau``,
``tau_star`` and ``classify`` at six points (a section point, the conjugate
point of the same grid parameter and four ``annulus_points``), or the
failure a point raised.  No command prints these library time maps.  Runs
are made from inside their case directory with relative paths, so two
trees give the same files exactly when their outputs agree, and

    diff -r <out of tree A> <out of tree B>

is empty.  The exit code is 0 when all 42 runs completed, whatever they
printed.

A change that may move numbers but nothing else is checked with

    python3 scripts/byte_matrix.py --compare <out of tree A> <out of tree B>

which requires, of every file the two trees hold:

- the same set of files, and identical ``*.exit`` files (exit codes);
- identical ``PASS k/k`` / ``FAIL j/k`` summary lines;
- identical gates: every JSON ``"tolerance"`` field and every value of a
  CSV ``tolerance`` column, spelled the same;
- identical text once every number is masked, which covers the JSON
  ``pass`` and ``all_pass`` flags, the CSV ``pass`` column and each
  stderr line.

It prints one line per file that differs: a failed requirement, or the
largest relative change of any of its numbers, |a - b| / max(|a|, |b|),
and where it is.  It exits 1 when a requirement fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

PARAMS = "params = [0.5, 1.0, 1.5]\n"
COMMON = "samples = 4\ntimes = 2\nseed = 7\n"
CONFIGS = {
    "linear-center": "field = linear-center\n",
    "pendulum": "field = pendulum\n",
    "duffing": "field = duffing\n",
    "cubic-center": "field = cubic-center\n",
    "inline-pendulum": ("P = y\nQ = -sin(x)\nsx = s\nsy = 0.3*s^2\n"
                        "section_range = [0.35, 1.75]\n"),
    "shorthand-x": "field = linear-center\nsection = x-axis [0.2, 2.0]\n",
    "shorthand-diag": "field = duffing\nsection = diagonal [0.2, 1.1]\n",
    "tangent": ("field = linear-center\nsx = cos(s)\nsy = sin(s)\n"
                "section_range = [0.1, 1.0]\n"),
    "escape": ("P = -y\nQ = x\ndomain = [-1, 2, -2, 2]\n"
               "section = x-axis [0.2, 1.4]\nparams = [0.5, 1.3]\n"),
    "loose": "field = pendulum\nrtol = 1e-3\n",
}
COMMANDS = ("period", "symmetry", "reversibility", "verify")
PERIOD_GRID = """
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.period import period
for name in builtin_names():
    field = builtin_field(name)
    lo, hi = default_section_range(name)
    if name == "pendulum":
        hi = 3.1
    for i in range(24):
        x = lo + i * (hi - lo) / 23
        print(name, repr(x), repr(period(field, (x, 0.0))))
"""
TIME_MAPS = """
from annulus_involutions.errors import SAMPLE_FAILURES
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range
from annulus_involutions.flow import IntegratorConfig
from annulus_involutions.reversibility import classify, conjugate_section, tau, tau_star
from annulus_involutions.sections import make_section
from annulus_involutions.verify import annulus_points
cfg = IntegratorConfig()
for name in builtin_names():
    field = builtin_field(name)
    delta = make_section(field, "s", "0", default_section_range(name), name="x-axis")
    star = conjugate_section(field, delta, cfg)
    s = delta.grid[len(delta.grid) // 2]
    points = [delta.point(s), star.point(s)] + annulus_points(field, delta, 4, cfg, seed=5)
    maps = {"tau": lambda z: tau(field, delta, z, cfg),
            "tau_star": lambda z: tau_star(field, star, z, cfg),
            "classify": lambda z: classify(field, delta, star, z, cfg)}
    for z in points:
        for label, fn in maps.items():
            try:
                out = repr(fn(z))
            except SAMPLE_FAILURES as exc:
                out = f"{type(exc).__name__}: {exc}"
            print(name, repr(z), label, out)
"""


def config_text(name: str) -> str:
    """The run.cfg of one config: its text, the default params unless it
    names its own, and the common sample settings."""
    text = CONFIGS[name]
    return text + ("" if "params" in text else PARAMS) + COMMON


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src / "src")
    return env


def _check_origin(src: Path, env: dict) -> None:
    out = subprocess.run(
        [sys.executable, "-c", "import annulus_involutions as a; print(a.__file__)"],
        env=env, capture_output=True, text=True, check=True, cwd=src,
    ).stdout.strip()
    if (src / "src").resolve() not in Path(out).resolve().parents:
        raise SystemExit(f"byte_matrix: imported the package from {out}, not from {src}/src")


def _keep(case: Path, stem: str, run: subprocess.CompletedProcess) -> None:
    (case / f"{stem}.stdout").write_text(run.stdout, encoding="utf-8")
    (case / f"{stem}.stderr").write_text(run.stderr, encoding="utf-8")
    (case / f"{stem}.exit").write_text(f"{run.returncode}\n", encoding="utf-8")


# a number not glued to a name (x0, sigma_x) or a file name; repr and JSON
# spellings of non-finite values count as numbers
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|inf|nan|Infinity|NaN)(?![\w.])")
SUMMARY = re.compile(r"^(?:PASS|FAIL) \d+/\d+$", re.MULTILINE)
TOLERANCE_FIELD = re.compile(r'"tolerance": ([^,\s}]+)')


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _gates(rel: str, text: str) -> list[str]:
    """The gate values a file states, which no change may move: its JSON
    ``"tolerance"`` fields, or a CSV's ``tolerance`` column."""
    if rel.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if rows and "tolerance" in rows[0]:
            col = rows[0].index("tolerance")
            return [row[col] for row in rows[1:]]
        return []
    return TOLERANCE_FIELD.findall(text)


def _compare_file(rel: str, text_a: str, text_b: str) -> tuple[str | None, str]:
    """(failed requirement or None, report of the numbers) for one file."""
    if rel.endswith(".exit") and text_a != text_b:
        return f"exit code {text_a.strip()} -> {text_b.strip()}", ""
    if SUMMARY.findall(text_a) != SUMMARY.findall(text_b):
        return f"summary {SUMMARY.findall(text_a)} -> {SUMMARY.findall(text_b)}", ""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines -> {len(lines_b)}", ""
    gates_a, gates_b = _gates(rel, text_a), _gates(rel, text_b)
    if gates_a != gates_b:
        return f"tolerance {gates_a} -> {gates_b}", ""
    worst, where, count = 0.0, "", 0
    for lineno, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if NUMBER.sub("#", la) != NUMBER.sub("#", lb):
            return f"line {lineno} differs beyond its numbers: {la!r} -> {lb!r}", ""
        for ma, mb in zip(NUMBER.finditer(la), NUMBER.finditer(lb)):
            count += 1
            change = _relative_change(float(ma.group()), float(mb.group()))
            if change > worst:
                worst, where = change, f" (line {lineno}: {ma.group()} -> {mb.group()})"
    return None, f"{worst:.3g} over {count} numbers{where}"


def compare(tree_a: Path, tree_b: Path) -> int:
    """Check two output trees against each other; 1 if a requirement fails."""
    files_a = {p.relative_to(tree_a).as_posix() for p in tree_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree_b).as_posix() for p in tree_b.rglob("*") if p.is_file()}
    failed = moved = 0
    for rel in sorted(files_a ^ files_b):
        print(f"FAIL {rel}: only in {tree_a if rel in files_a else tree_b}")
        failed += 1
    for rel in sorted(files_a & files_b):
        text_a = (tree_a / rel).read_text(encoding="utf-8")
        text_b = (tree_b / rel).read_text(encoding="utf-8")
        problem, numbers = _compare_file(rel, text_a, text_b)
        if problem is not None:
            print(f"FAIL {rel}: {problem}")
            failed += 1
        elif text_a != text_b:
            print(f"moved {rel}: largest relative change {numbers}")
            moved += 1
    print(f"compare: {len(files_a | files_b)} files, {moved} with moved numbers only, "
          f"{failed} failing a requirement")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        help="source tree whose src/ holds the package")
    parser.add_argument("--out", type=Path,
                        help="directory for the configs and everything the runs leave")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two output trees instead of running")
    args = parser.parse_args(argv)
    if args.compare is not None:
        if args.src is not None or args.out is not None:
            parser.error("--compare takes no --src or --out")
        return compare(*args.compare)
    if args.src is None or args.out is None:
        parser.error("--src and --out are required unless --compare is given")
    src = args.src.resolve()
    env = _env(src)
    _check_origin(src, env)
    for name in CONFIGS:
        case = args.out / name
        case.mkdir(parents=True, exist_ok=True)
        (case / "run.cfg").write_text(config_text(name), encoding="utf-8")
        for command in COMMANDS:
            run = subprocess.run(
                [sys.executable, "-m", "annulus_involutions.cli", command,
                 "--config", "run.cfg", "--out", command],
                env=env, cwd=case, capture_output=True, text=True,
            )
            _keep(case, command, run)
            print(f"{name} {command}: exit {run.returncode}")
    case = args.out / "period-grid"
    case.mkdir(parents=True, exist_ok=True)
    run = subprocess.run([sys.executable, "-c", PERIOD_GRID],
                         env=env, cwd=case, capture_output=True, text=True)
    _keep(case, "grid", run)
    print(f"period-grid: exit {run.returncode}")
    case = args.out / "time-maps"
    case.mkdir(parents=True, exist_ok=True)
    run = subprocess.run([sys.executable, "-c", TIME_MAPS],
                         env=env, cwd=case, capture_output=True, text=True)
    _keep(case, "maps", run)
    print(f"time-maps: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
