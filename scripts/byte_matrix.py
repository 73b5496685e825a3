"""Run every CLI command on five configs and keep everything they leave.

    python3 scripts/byte_matrix.py --src <source tree> --out <dir>

The configs are the four built-ins with their default x-axis sections and
the inline field P = y, Q = -sin(x) with the section (s, 0.3*s^2) on
[0.35, 1.75]; each has params = [0.5, 1.0, 1.5], samples 4, times 2 and
seed 7.  Each of period, symmetry, reversibility and verify runs in a fresh
interpreter with the package imported from ``<src>/src``.  Under
``<out>/<config>/`` it writes ``run.cfg``, and for each command the output
directory ``<command>/`` plus ``<command>.stdout``, ``<command>.stderr`` and
``<command>.exit``.  Runs are made from inside ``<out>/<config>`` with
relative paths, so two trees give the same files exactly when their outputs
agree, and

    diff -r <out of tree A> <out of tree B>

is empty.  The exit code is 0 when all 20 runs completed, whatever they
printed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

COMMON = "params = [0.5, 1.0, 1.5]\nsamples = 4\ntimes = 2\nseed = 7\n"
CONFIGS = {
    "linear-center": "field = linear-center\n",
    "pendulum": "field = pendulum\n",
    "duffing": "field = duffing\n",
    "cubic-center": "field = cubic-center\n",
    "inline-pendulum": ("P = y\nQ = -sin(x)\nsx = s\nsy = 0.3*s^2\n"
                        "section_range = [0.35, 1.75]\n"),
}
COMMANDS = ("period", "symmetry", "reversibility", "verify")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="source tree whose src/ holds the package")
    parser.add_argument("--out", required=True, type=Path,
                        help="directory for the configs and everything the runs leave")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    env = _env(src)
    _check_origin(src, env)
    for name, text in CONFIGS.items():
        case = args.out / name
        case.mkdir(parents=True, exist_ok=True)
        (case / "run.cfg").write_text(text + COMMON, encoding="utf-8")
        for command in COMMANDS:
            run = subprocess.run(
                [sys.executable, "-m", "annulus_involutions.cli", command,
                 "--config", "run.cfg", "--out", command],
                env=env, cwd=case, capture_output=True, text=True,
            )
            (case / f"{command}.stdout").write_text(run.stdout, encoding="utf-8")
            (case / f"{command}.stderr").write_text(run.stderr, encoding="utf-8")
            (case / f"{command}.exit").write_text(f"{run.returncode}\n", encoding="utf-8")
            print(f"{name} {command}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
