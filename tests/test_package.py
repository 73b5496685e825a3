"""Package surface: submodules stay reachable, exported names resolve, and
the names the traced benchmark looks up still exist."""

import importlib
import pkgutil
import sys
import types
from pathlib import Path

import annulus_involutions

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
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


def test_traced_benchmark_names_exist():
    # bench/tracing.py finds its targets by name (getattr and cls.__dict__);
    # installing and removing the tracer performs every one of those lookups
    sys.path.insert(0, str(BENCH_DIR))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH_DIR))
    mods = {n: importlib.import_module(f"annulus_involutions.{n}") for n in LAYERS}
    for kind in tracing.CURVE_KINDS:
        assert isinstance(getattr(mods["sections"], kind), type), kind
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
    finally:
        tracer.uninstall()
    assert not hasattr(mods["flow"].flow, "__wrapped__")
    assert not hasattr(mods["expr"].PlanarField.rhs, "__wrapped__")
