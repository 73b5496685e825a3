"""Self-checks of the benchmark itself, kept apart from the package's tests.

    python3 -m pytest bench/check_bench.py -q

They run small slices of each workload in-process: tracing must leave the
outputs bit-identical, the deterministic counters must repeat exactly, and
the seed must change the inputs.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

DETERMINISTIC = (
    "flow.steps_accepted", "flow.steps_rejected", "flow.nfev", "flow.integrations",
    "expr.rhs_calls", "flow.event_g_calls", "flow.brent_calls", "flow.brent_iters",
    "sections.side_calls", "sections.project_calls", "period.detect_cycle_calls",
    "reversibility.tau_calls", "reversibility.flow_to_event_per_tau",
    "symmetry.cache_hit_ratio", "reversibility.cache_hit_ratio", "cli.bytes_written",
)
SLICE = {"verify-builtins": slice(0, 1), "sigma-userfield": slice(0, 8),
         "period-sweep": slice(0, 12)}


def test_seed_determines_inputs():
    for w in W.WORKLOADS:
        assert W.make_inputs(w, 5) == W.make_inputs(w, 5)
        assert W.make_inputs(w, 5) != W.make_inputs(w, 6)


def test_benchmark_json_lists_the_per_layer_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == [(k, u, b) for k, (u, b) in PER_LAYER.items()]


def test_reference_periods_match_the_frozen_oracles():
    # tests/oracles.py: T_PENDULUM_HALF_PI, T_DUFFING_AMP1, T_CUBIC_AMP1
    assert abs(W.reference_period("pendulum", 1.5707963267948966, 0.0)
               - 7.416298709205488) < 1e-12
    assert abs(W.reference_period("duffing", 1.0, 0.0) - 4.768022029102461) < 1e-12
    assert abs(W.reference_period("cubic-center", 1.0, 0.0) - 7.416298709205488) < 1e-12


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tracing_keeps_outputs_and_counters_repeat(workload, tmp_path):
    inputs = W.make_inputs(workload, 3)[SLICE[workload]]
    mods = W.import_package()
    built = W.build(workload, mods, inputs, tmp_path)
    plain = W.gate_ops(built, inputs, W.run_ops(built, inputs, tmp_path), tmp_path)
    assert not any(plain.failed), plain.notes
    counters = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(mods)
        try:
            built = W.build(workload, mods, inputs, tmp_path)
            ops = W.run_ops(built, inputs, tmp_path, tracer)
        finally:
            tracer.uninstall()
        assert not hasattr(mods["period"].integrate, "__wrapped__")
        assert not hasattr(mods["expr"].PlanarField.rhs, "__wrapped__")
        traced = W.gate_ops(built, inputs, ops, tmp_path)
        assert traced.outputs == plain.outputs
        m = layer_metrics(tracer)
        assert set(PER_LAYER) - set(m) <= {"verify.sample_errors", "import.package_s",
                                            "trace.overhead_s", "trace.overhead_ratio"}
        counters.append({k: m[k] for k in DETERMINISTIC})
    assert counters[0] == counters[1]
    assert counters[0]["flow.integrations"] > 0
