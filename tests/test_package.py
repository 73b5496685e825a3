"""Package surface: submodules stay reachable, exported names resolve, and
the names the traced benchmark looks up still exist."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import annulus_involutions

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
LAYERS = ("expr", "fields", "flow", "period", "sections", "symmetry",
          "reversibility", "verify", "cli")


def test_submodules_and_exports():
    # a re-exported function must not shadow the submodule of the same name
    for info in pkgutil.iter_modules(annulus_involutions.__path__):
        mod = importlib.import_module(f"annulus_involutions.{info.name}")
        attr = getattr(annulus_involutions, info.name)
        assert isinstance(attr, types.ModuleType), info.name
        assert attr is mod, info.name
    for name in annulus_involutions.__all__:
        assert hasattr(annulus_involutions, name), name


def _tracing():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH_DIR))


def _layer_modules() -> dict:
    return {n: importlib.import_module(f"annulus_involutions.{n}") for n in LAYERS}


def test_traced_benchmark_names_exist():
    # bench/tracing.py finds its targets by name (getattr and cls.__dict__);
    # installing and removing the tracer performs every one of those lookups
    tracing = _tracing()
    mods = _layer_modules()
    for kind in tracing.CURVE_KINDS:
        assert isinstance(getattr(mods["sections"], kind), type), kind
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
    finally:
        tracer.uninstall()
    assert not hasattr(mods["flow"].flow, "__wrapped__")
    assert not hasattr(mods["expr"].PlanarField.rhs, "__wrapped__")


def test_import_loads_no_scipy():
    # scipy and numpy are test-only dependencies; a fresh interpreter shows
    # what the package itself imports
    code = ("import sys; import annulus_involutions; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


def _section(mods, field, kind):
    make_section = mods["sections"].make_section
    if kind == "affine":
        return make_section(field, "s", "0", (0.2, 2.0), name="x-axis")
    wavy = make_section(field, "s", "0.2*sin(3*s)", (0.3, 1.8), name="wavy")
    return wavy if kind == "expression" else mods["reversibility"].conjugate_section(field, wavy)


@pytest.mark.parametrize("kind", ["affine", "expression", "tabulated"])
def test_traced_event_counters(kind):
    # the benchmark counts event work through wrappers it puts around g,
    # rhs and brent's function; one period and one curve-event search must
    # show every call the scan makes, and find the untraced crossing
    tracing = _tracing()
    mods = _layer_modules()
    field = mods["fields"].builtin_field("linear-center")
    section = _section(mods, field, kind)
    assert tracing.CURVE_KINDS[type(section).__name__] == kind
    untraced = mods["flow"].flow_to_event(field, (0.0, 1.0), section.event(), 1)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        mods["period"].period(field, (1.0, 0.0))
        traced = mods["flow"].flow_to_event(field, (0.0, 1.0), section.event(), 1)
    finally:
        tracer.uninstall()
    assert (traced.events, traced.z_final) == (untraced.events, untraced.z_final)
    spans = [(rec[0], rec[5] or {}) for rec in tracer.spans]

    def total(key, name=None):
        return sum(c.get(key, 0) for n, c in spans if name in (None, n))

    assert total("g.transversal") > 0 and total(f"g.{kind}") > 0
    assert total("rhs", "flow.integrate") == total("nfev") > 0
    # each integration evaluates g once at the start, once per dense-output
    # sample of each accepted step, and once per Brent iterate
    integrations = sum(1 for n, _ in spans if n == "flow.integrate")
    assert integrations == 2
    assert total("g.transversal") + total(f"g.{kind}") == (
        integrations + mods["flow"]._EVENT_SAMPLES * total("accepted")
        + total("brent_iter"))


def test_traced_field_condition_matches_untraced():
    # the traced benchmark pass must produce the untraced outputs; the
    # check makes one directional difference per sample
    tracing = _tracing()
    mods = _layer_modules()
    field = mods["fields"].builtin_field("linear-center")
    sigma = mods["symmetry"].SymmetryInvolution(field)
    samples = [(0.8, 0.3)]
    plain = mods["verify"].check_field_condition(field, sigma, +1, samples)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced = mods["verify"].check_field_condition(field, sigma, +1, samples)
    finally:
        tracer.uninstall()
    names = [rec[0] for rec in tracer.spans]
    assert names.count("flow.jacobian_fd") == len(samples)
    assert names.count("symmetry.SymmetryInvolution.__call__") == 3 * len(samples)
    assert traced.to_dict() == plain.to_dict()
