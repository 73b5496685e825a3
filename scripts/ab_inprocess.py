"""Interleaved in-process timing of one workload on two source trees.

    python3 scripts/ab_inprocess.py --a <tree A> [--b <tree B>] \\
        --workload period-sweep [--seed 301] [--rounds 15]

The package ``src/annulus_involutions`` of each tree is copied into a
temporary directory under two distinct names, ``annulus_involutions_a``
and ``annulus_involutions_b``, and both are imported into this one
interpreter; the package imports only relatively, so neither copy sees the
other.  ``--b`` defaults to the tree this script sits in; passing the same
tree twice gives the A/A floor.

The workload's inputs, objects and operations are those of this tree's
``bench/workloads.py`` (``make_inputs``, ``build`` and ``run_ops``), which
is only imported.  Each side gets its own working directory.  Every round
times one pass over all inputs on each side, after a garbage collection,
A first in even rounds and B first in odd ones, and asserts that both
sides returned equal outputs; at the end the files the passes wrote must
be equal too.  The script prints the minimum, first quartile and median pass time of each
side and the B/A ratio of each.

This is a quick check that a change is no slower, below the benchmark's
run-to-run noise.  It is not evidence for a speed claim: a claim needs
alternating fresh-interpreter pairs, ``scripts/bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYERS = ("expr", "fields", "flow", "period", "sections", "symmetry",
           "reversibility", "verify", "cli")


def _import_copy(tree: Path, name: str, dest: Path) -> dict:
    """Copy tree's package to dest/name and import its layers."""
    shutil.copytree(tree / "src" / "annulus_involutions", dest / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {n: importlib.import_module(f"{name}.{n}") for n in _LAYERS}


def _outcome(raw):
    """An operation's result, comparable across the two copies: floats by
    their bits, and an exception by its class name and text."""
    if isinstance(raw, BaseException):
        return type(raw).__name__, str(raw)
    if isinstance(raw, float):
        return raw.hex()
    if isinstance(raw, tuple):
        return tuple(_outcome(v) for v in raw)
    return raw


def _same_files(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_files(a / d, b / d) for d in cmp.common_dirs)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="source tree A")
    ap.add_argument("--b", type=Path, default=ROOT, help="source tree B (default: this tree)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=301)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as W

    inputs = W.make_inputs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "pkg"))
        sides = {}
        for key, tree in (("a", args.a), ("b", args.b)):
            mods = _import_copy(tree.resolve(), f"annulus_involutions_{key}", tmp / "pkg")
            workdir = tmp / f"work_{key}"
            workdir.mkdir()
            sides[key] = (W.build(args.workload, mods, inputs, workdir), workdir)

        times = {"a": [], "b": []}
        for r in range(args.rounds):
            outcomes = {}
            for key in ("ab" if r % 2 == 0 else "ba"):
                built, workdir = sides[key]
                gc.collect()
                ops = W.run_ops(built, inputs, workdir)
                times[key].append(ops.wall_s)
                outcomes[key] = [_outcome(raw) for raw in ops.raws]
            if outcomes["a"] != outcomes["b"]:
                raise SystemExit(f"ab_inprocess: round {r}: the two trees' outputs differ")
        if not _same_files(sides["a"][1], sides["b"][1]):
            raise SystemExit("ab_inprocess: the two trees wrote different files")

    print(f"{args.workload}, seed {args.seed}, {len(inputs)} ops, {args.rounds} rounds; "
          f"A = {args.a}, B = {args.b}")
    print(f"{'':8}{'A (s)':>10}{'B (s)':>10}{'B/A':>8}")
    for label, stat in (("min", min),
                        ("q1", lambda v: statistics.quantiles(v, n=4, method="inclusive")[0]),
                        ("median", statistics.median)):
        a, b = stat(times["a"]), stat(times["b"])
        print(f"{label:8}{a:10.4f}{b:10.4f}{b / a:8.3f}")


if __name__ == "__main__":
    main()
