"""Benchmark of annulus-involutions: one workload, one fresh interpreter.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ``src/`` next
to this directory.  Each run is a closed loop with one client in a single
thread: one operation at a time, the next only after the previous returned.

--trace 0  measures the end-to-end metrics.  Set-up (package import plus
           building the workload's objects) is timed in this process and
           in 2 * SETUP_CHILDREN fresh child interpreters, half of them
           before and half after the timed phase, in which whole passes
           over the seeded inputs repeat for about --seconds.
--trace 1  runs one untraced pass, then one traced pass (set-up included)
           with spans around every layer's public functions, and reports
           the per-layer metrics and the tracing overhead.  Both passes
           must give bit-identical outputs.

Every output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one thread per process: the BLAS under numpy must not start a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Import time drifts with the host over tens of seconds, so the set-up
# samples are split between the start and the end of the run.
SETUP_CHILDREN = 3
CHILD_TIMEOUT_S = 120

import workloads as W  # noqa: E402  (after the thread settings)


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_path() -> None:
    if not (SRC / "annulus_involutions" / "__init__.py").is_file():
        _fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _check_origin(mods: dict) -> None:
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        _fail(f"imported the package from {origin}, not from {SRC}")


def _code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "annulus_involutions").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _setup_child(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _p90(lat: list[float]) -> tuple[float, int]:
    """Nearest-rank p90 and the number of samples above it."""
    s = sorted(lat)
    k = math.ceil(0.9 * len(s))
    return s[k - 1], len(s) - k


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _report_notes(notes: list[str]) -> None:
    for note in notes[:20]:
        print(f"bench: {note}", file=sys.stderr)
    if len(notes) > 20:
        print(f"bench: ... {len(notes) - 20} more", file=sys.stderr)


def _ledger_check(workload: str, seed: int, outputs: list, notes: list[str]) -> list[bool]:
    """verify-builtins: report hashes must repeat across the runs made on one
    checkout with the same code and seed.  Returns per-op mismatch flags."""
    if workload != "verify-builtins":
        return [False] * len(outputs)
    path = OUT / "verify_hashes.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    code = _code_digest()
    bad = []
    for out in outputs:
        if out is None:
            bad.append(False)
            continue
        key = f"{code}/{seed}/{out[0]}"
        seen = ledger.setdefault(key, out[1])
        bad.append(seen != out[1])
        if seen != out[1]:
            notes.append(f"{out[0]}: report hash {out[1][:12]} differs from an earlier "
                         f"run's {seen[:12]}")
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return bad


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "min_margin_decades": "decades", "peak_rss_mb": "MB"}


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> None:
    built, inputs, _, setup_main = W.timed_setup(workload, seed, workdir)
    _check_origin(built.mods)
    setups = [setup_main] + [_setup_child(workload, seed, workdir / f"child{k}")
                             for k in range(SETUP_CHILDREN)]
    # whole passes while, at the last pass's pace, the next one would end
    # less than half a pass after --seconds: a run lasts --seconds give or
    # take half a pass (the first pass always runs)
    passes, gated = [], []
    t_start = time.perf_counter()
    while True:
        ops = W.run_ops(built, inputs, workdir)
        passes.append(ops)
        gated.append(W.gate_ops(built, inputs, ops, workdir))
        if time.perf_counter() - t_start + 0.5 * ops.wall_s > seconds:
            break
    setups += [_setup_child(workload, seed, workdir / f"child{k}")
               for k in range(SETUP_CHILDREN, 2 * SETUP_CHILDREN)]
    notes = [n for g in gated for n in g.notes]
    failed = [f for g in gated for f in g.failed]
    first = gated[0].outputs
    for k, g in enumerate(gated[1:], start=2):  # deterministic across passes
        for i, (a, b) in enumerate(zip(first, g.outputs)):
            if a != b and not g.failed[i]:
                failed[(k - 1) * len(inputs) + i] = True
                notes.append(f"pass {k} op {i}: output differs from pass 1")
    for i, bad in enumerate(_ledger_check(workload, seed, first, notes)):
        if bad:
            failed[i] = True
    lat = [x for p in passes for x in p.latencies]
    walls = [p.wall_s for p in passes]
    margins = [m for g in gated for m in g.margins]
    n_failed = sum(failed)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(lat) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "min_margin_decades": min(margins, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90, beyond = _p90(lat)
    _report_notes(notes)
    print(f"workload {workload}  seed {seed}  passes {len(passes)} x {len(inputs)} ops"
          f"  (closed loop, 1 client, 1 thread)")
    counts = {"setup_s": f"n={len(setups)} set-ups, median",
              "wall_s": f"n={len(walls)} passes, median",
              "ops_per_s": f"n={len(lat)} ops",
              "op_p50_ms": f"n={len(lat)} ops",
              "min_margin_decades": f"n={len(margins)} gated residuals, min",
              "peak_rss_mb": "max resident set of this process"}
    for k, v in metrics.items():
        print(f"  {k:<20} {v:12.6g} {E2E_UNITS[k]:<8} {counts[k]}")
    if beyond >= 10:
        print(f"  {'op_p90_ms':<20} {1e3 * p90:12.6g} {'ms':<8} n={len(lat)} ops, "
              f"{beyond} beyond")
    else:
        print(f"  {'op_p90_ms':<20} {'-':>12} {'ms':<8} not reported: {beyond} samples "
              f"beyond p90 of n={len(lat)} (needs 10)")
    print(f"  {'failed_ratio':<20} {n_failed / len(failed):12.6g} {'1':<8} "
          f"{n_failed}/{len(failed)} ops failed")
    _emit(n_failed == 0, len(failed), n_failed, metrics, E2E_UNITS)


def run_traced(workload: str, seed: int, workdir: Path) -> None:
    from tracing import PER_LAYER, Tracer, layer_metrics

    built, inputs, import_s, _ = W.timed_setup(workload, seed, workdir)
    _check_origin(built.mods)
    plain = W.run_ops(built, inputs, workdir)
    g_plain = W.gate_ops(built, inputs, plain, workdir)

    tracer = Tracer()
    tracer.install(built.mods)
    try:
        built_t = W.build(workload, built.mods, inputs, workdir)
        traced = W.run_ops(built_t, inputs, workdir, tracer)
    finally:
        tracer.uninstall()
    g_traced = W.gate_ops(built_t, inputs, traced, workdir)

    notes = g_plain.notes + g_traced.notes
    failed = g_plain.failed + g_traced.failed
    for i, (a, b) in enumerate(zip(g_plain.outputs, g_traced.outputs)):
        if a != b:
            failed[len(inputs) + i] = True
            notes.append(f"op {i}: traced output differs from the untraced one")
    for i, bad in enumerate(_ledger_check(workload, seed, g_plain.outputs, notes)):
        if bad:
            failed[i] = True
    metrics = layer_metrics(tracer)
    metrics["verify.sample_errors"] = g_traced.sample_errors
    metrics["import.package_s"] = import_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
    tracer.write(OUT / "trace" / f"{workload}-seed{seed}.jsonl")
    _report_notes(notes)
    print(f"workload {workload}  seed {seed}  traced pass of {len(inputs)} ops, "
          f"{len(tracer.spans)} spans; untraced pass {plain.wall_s:.4g} s, "
          f"traced {traced.wall_s:.4g} s")
    for k, (unit, _) in PER_LAYER.items():
        print(f"  {k:<40} {metrics[k]:14.6g} {unit}")
    n_failed = sum(failed)
    _emit(n_failed == 0, len(failed), n_failed, {k: metrics[k] for k in PER_LAYER},
          {k: unit for k, (unit, _) in PER_LAYER.items()})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_path()
    if args.setup_probe:
        args.workdir.mkdir(parents=True, exist_ok=True)
        _, _, _, setup_s = W.timed_setup(args.workload, args.seed, args.workdir)
        print(json.dumps({"setup_s": setup_s}))
        return
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run_traced(args.workload, args.seed, workdir)
        else:
            run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
