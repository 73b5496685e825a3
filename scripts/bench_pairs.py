"""Alternating before/after runs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py --workloads period-sweep verify-builtins \\
        --seeds 1601 1602 ... --claim period-sweep:wall_s \\
        --trace-seed 301 --out BENCH_N.json

The base side is the commit ``HEAD``, exported with ``git archive`` into a
temporary directory that is removed at exit.  The change side is the
working tree this script sits in.  For each workload, pair i of ``PAIRS``
runs ``bench/run.py --workload W --seed S --trace 0`` once on each side,
with S the i-th seed (cycling through ``--seeds``); the run length is
``bench/run.py``'s own default.  Even pairs
run the base first and odd pairs the change first, so slow drift of the host
falls on both sides alike.  A run that exits non-zero or reports
``correct: false`` stops the script.

The output file holds every run's metrics and, per workload and side, the
median and quartiles (``statistics.quantiles``, inclusive method) of every
end-to-end metric.  Each ``--claim W:metric`` adds how many pairs the change
won, the gap between the medians and the base's interquartile range; the
direction comes from ``BENCHMARK.json``.  ``--trace-seed N`` adds one
``--trace 1`` run per side and workload at seed N, whose deterministic work
counters must agree between the sides for a change that moves no output.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a speed claim needs ten alternating pairs
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The files of rev, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    for workload, metric in claims:
        if workload not in args.workloads or metric not in better:
            ap.error(f"--claim {workload}:{metric} names no measured workload and metric")

    base_rev = _git("rev-parse", "HEAD")
    report = {
        "base": base_rev,
        "change": {"dirty": bool(_git("status", "--porcelain", "--", "src", "bench"))},
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "processor": platform.processor()},
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        _export(base_rev, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        for workload in args.workloads:
            runs = []
            for i in range(PAIRS):
                seed = args.seeds[i % len(args.seeds)]
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    metrics = _run(trees[side], workload, seed, 0)
                    runs.append({"pair": i, "seed": seed, "side": side, "metrics": metrics})
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"wall_s {metrics['wall_s']:.4g}", file=sys.stderr)
            summary = {side: {name: _spread([r["metrics"][name] for r in runs
                                             if r["side"] == side])
                              for name in better}
                       for side in trees}
            entry = {"runs": runs, "summary": summary, "claims": {}}
            for claimed_workload, metric in claims:
                if claimed_workload != workload:
                    continue
                sign = 1.0 if better[metric] == "lower" else -1.0
                value = {(r["pair"], r["side"]): r["metrics"][metric] for r in runs}
                wins = sum(sign * (value[i, "base"] - value[i, "change"]) > 0.0
                           for i in range(PAIRS))
                base, change = summary["base"][metric], summary["change"][metric]
                entry["claims"][metric] = {
                    "better": better[metric],
                    "wins": wins,
                    "pairs": PAIRS,
                    "median_gap": sign * (base["median"] - change["median"]),
                    "base_iqr": base["q3"] - base["q1"],
                }
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed, **{
                    side: _run(trees[side], workload, args.trace_seed, 1)
                    for side in trees}}
            report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, entry in report["workloads"].items():
        for metric, claim in entry["claims"].items():
            print(f"{workload} {metric}: change won {claim['wins']}/{claim['pairs']} pairs, "
                  f"median gap {claim['median_gap']:.4g} against base IQR "
                  f"{claim['base_iqr']:.4g}")


if __name__ == "__main__":
    main()
