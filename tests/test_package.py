"""Package surface: submodules stay reachable, exported names resolve,
every import is used, the names the traced benchmark looks up still
exist, and the README's library example prints what it says."""

import ast
import importlib
import math
import os
import pkgutil
import re
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


def _imported_names(tree) -> set:
    """The names a module's import statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _exported_names(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    # a deletion can leave an import behind; each imported name must be
    # read somewhere in its module or be re-exported through __all__
    src = ROOT / "src" / "annulus_involutions"
    unused = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = _imported_names(tree) - used - _exported_names(tree)
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


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
    # scipy and numpy are test-only dependencies, and the package writes
    # its CSV text without the csv module; a fresh interpreter shows what
    # the package itself imports
    code = ("import sys; import annulus_involutions; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy', 'csv', '_csv')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


def test_readme_library_example():
    # the README's python block, run in a fresh interpreter, prints what
    # its comments claim: the period, then sigma and rev at one point each
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    out = subprocess.run([sys.executable, "-c", block], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    t, half, mirrored = out.splitlines()[:3]
    assert t.startswith("7.416298709")
    half, mirrored = ast.literal_eval(half), ast.literal_eval(mirrored)
    assert isinstance(half, tuple) and math.dist(half, (-math.pi / 2, 0.0)) <= 1e-9
    assert math.dist(mirrored, (0.0, -1.0)) <= 1e-9


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
    # curve_event is looked up at each call, so the traced search uses the
    # wrapper the tracer installs
    sections = mods["sections"]
    untraced = mods["flow"].flow_to_event(field, (0.0, 1.0), sections.curve_event(section), 1)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        mods["period"].period(field, (1.0, 0.0))
        traced = mods["flow"].flow_to_event(field, (0.0, 1.0), sections.curve_event(section), 1)
    finally:
        tracer.uninstall()
    assert (traced.events, traced.z_final) == (untraced.events, untraced.z_final)
    spans = [(rec[0], rec[5] or {}) for rec in tracer.spans]

    def total(key, name=None):
        return sum(c.get(key, 0) for n, c in spans if name in (None, n))

    assert total("g.transversal") > 0 and total(f"g.{kind}") > 0
    # the partial steps Brent takes count into nfev; the tracer books
    # their evaluations to the Brent span inside the integration
    assert total("rhs", "flow.integrate") + total("rhs", "flow.brent") == total("nfev") > 0
    # each integration evaluates g once at the start, once per sample of
    # each accepted step (the cubic's and the end state), and once per
    # partial step: the samples of a flagged step and the Brent iterates.
    # A partial step is 11 of nfev beyond 2 per integration, 12 per
    # accepted and 11 per rejected step
    integrations = sum(1 for n, _ in spans if n == "flow.integrate")
    assert integrations == 2
    partial, rest = divmod(total("nfev") - 2 * integrations - 12 * total("accepted")
                           - 11 * total("rejected"), 11)
    assert rest == 0 and partial > total("brent_iter") > 0
    assert total("g.transversal") + total(f"g.{kind}") == (
        integrations + mods["flow"]._EVENT_SAMPLES * total("accepted") + partial)


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
