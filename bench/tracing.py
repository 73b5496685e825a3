"""Traced mode: spans around the calls into each layer's public functions.

The tracer replaces each listed function in its defining module and in
every package module that imported it by name (``period`` imports
``integrate``; ``verify``, ``symmetry``, ``reversibility`` and ``cli``
import ``flow``, ``detect_cycle``, the checks and ``write_atomic``), and
restores all of them on ``uninstall``.  Nothing in the package changes.

A span is ``[name, start, end, parent index, operation id, counters]``.
Hot leaves (``PlanarField.rhs``, curve projections, event ``g``/``accept``,
Brent iterates) get no span of their own: their calls and busy time are
added to the counters of the enclosing span.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

_pc = time.perf_counter

# public functions wrapped in a span, by defining module (= layer)
SPANNED = {
    "flow": ("integrate", "flow", "flow_to_event", "brent", "jacobian_fd"),
    "period": ("detect_cycle", "period"),
    "sections": ("make_section", "section_from_points", "curve_event"),
    "symmetry": ("sigma_symmetric", "uniqueness_probe", "verify_sigma_symmetry"),
    "reversibility": ("conjugate_section", "tau", "tau_star", "classify",
                      "sigma_reversible", "verify_reversibility",
                      "check_well_posedness", "check_half_period_roundtrip"),
    "verify": ("check_involution", "check_commutation", "check_field_condition",
               "check_period_invariance", "check_energy_invariance",
               "check_lower_bound", "fixed_set_distance", "annulus_points",
               "write_atomic"),
    "cli": ("main", "load_config"),
}
SPANNED_METHODS = {
    ("symmetry", "SymmetryInvolution"): ("__call__", "period_of"),
    ("reversibility", "ReversibilityInvolution"): ("__call__", "tau", "tau_star"),
}
# spans of these names are tau evaluations (nested ones count once)
_TAU = {"reversibility.ReversibilityInvolution.tau",
        "reversibility.ReversibilityInvolution.tau_star",
        "reversibility.tau", "reversibility.tau_star"}
# the verification checks, reported as verify.check_s.<short name>
CHECKS = {
    "involution": "verify.check_involution",
    "commutation": "verify.check_commutation",
    "field_condition": "verify.check_field_condition",
    "period_invariance": "verify.check_period_invariance",
    "energy_invariance": "verify.check_energy_invariance",
    "lower_bound": "verify.check_lower_bound",
    "fixed_set_distance": "verify.fixed_set_distance",
    "well_posedness": "reversibility.check_well_posedness",
    "half_period_roundtrip": "reversibility.check_half_period_roundtrip",
    "uniqueness_probe": "symmetry.uniqueness_probe",
}
# per-layer metric -> (unit, better); BENCHMARK.json lists the same
PER_LAYER = {
    "flow.us_per_step": ("us", "lower"),
    "flow.integrate_self_s": ("s", "lower"),
    "flow.steps_accepted": ("count", "lower"),
    "flow.steps_rejected": ("count", "lower"),
    "flow.step_accept_ratio": ("ratio", "higher"),
    "flow.nfev": ("count", "lower"),
    "flow.integrations": ("count", "lower"),
    "expr.rhs_calls": ("count", "lower"),
    "expr.rhs_busy_s": ("s", "lower"),
    "flow.event_g_calls": ("count", "lower"),
    "flow.brent_calls": ("count", "lower"),
    "flow.brent_iters": ("count", "lower"),
    "flow.event_accept_ratio": ("ratio", "higher"),
    "sections.side_us.affine": ("us", "lower"),
    "sections.side_us.expression": ("us", "lower"),
    "sections.side_us.tabulated": ("us", "lower"),
    "sections.side_calls": ("count", "lower"),
    "sections.project_calls": ("count", "lower"),
    "period.detect_cycle_calls": ("count", "lower"),
    "period.detect_cycle_p50_ms": ("ms", "lower"),
    "symmetry.sigma_p50_ms": ("ms", "lower"),
    "symmetry.cache_hit_ratio": ("ratio", "higher"),
    "reversibility.sigma_p50_ms": ("ms", "lower"),
    "reversibility.tau_calls": ("count", "lower"),
    "reversibility.flow_to_event_per_tau": ("count", "lower"),
    "reversibility.cache_hit_ratio": ("ratio", "higher"),
    "reversibility.conjugate_section_s": ("s", "lower"),
    **{f"verify.check_s.{c}": ("s", "lower") for c in CHECKS},
    "verify.annulus_points_s": ("s", "lower"),
    "verify.sample_errors": ("count", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "import.package_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
CURVE_KINDS = {"_AffineSegment": "affine", "ExpressionCurve": "expression",
               "TabulatedCurve": "tabulated"}


class Tracer:
    """In-memory spans and leaf counters; ``op`` tags spans with the
    operation index the caller is running (-1 outside operations)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.root: dict = {}  # counters of leaves called outside any span
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _counters(self) -> dict:
        if self.stack:
            rec = self.spans[self.stack[-1]]
            if rec[5] is None:
                rec[5] = {}
            return rec[5]
        return self.root

    def count(self, key: str, n=1) -> None:
        c = self._counters()
        c[key] = c.get(key, 0) + n

    def leaf(self, key: str, busy: float) -> None:
        c = self._counters()
        c[key] = c.get(key, 0) + 1
        c[key + ":s"] = c.get(key + ":s", 0.0) + busy

    def span(self, name: str, fn, post=None):
        """Wrap fn in a span; post(record, args, result) may add counters."""
        tr = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1, tr.op, None]
            tr.stack.append(len(tr.spans))
            tr.spans.append(rec)
            rec[1] = _pc()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = _pc()
                tr.stack.pop()
            if post is not None:
                post(rec, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_fn(self, key: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.leaf(key, _pc() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mods: list, orig, wrapped) -> None:
        """Point every package module's name for orig at wrapped."""
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapped)

    def install(self, layer_mods: dict) -> None:
        mods = [m for n, m in sys.modules.items()
                if n == "annulus_involutions" or n.startswith("annulus_involutions.")]
        for layer, names in SPANNED.items():
            for fn_name in names:
                orig = getattr(layer_mods[layer], fn_name)
                self._rebind(mods, orig, self._special(layer, fn_name, orig))
        for (layer, cls_name), names in SPANNED_METHODS.items():
            cls = getattr(layer_mods[layer], cls_name)
            for meth in names:
                self._set(cls, meth, self.span(f"{layer}.{cls_name}.{meth}",
                                               cls.__dict__[meth]))
        expr, sections = layer_mods["expr"], layer_mods["sections"]
        self._set(expr.PlanarField, "rhs",
                  self.leaf_fn("rhs", expr.PlanarField.__dict__["rhs"]))
        for cls in (sections._CurveBase, sections._AffineSegment):
            self._set(cls, "project", self.leaf_fn("project", cls.__dict__["project"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    def _special(self, layer: str, name: str, orig):
        """Span wrapper, plus the counters some functions carry."""
        tr = self
        if (layer, name) == ("flow", "integrate"):
            from annulus_involutions.flow import EventSpec

            def steps(rec, args, traj):
                _add(rec, "accepted", traj.naccepted)
                _add(rec, "rejected", traj.nrejected)
                _add(rec, "nfev", traj.nfev)

            spanned = self.span("flow.integrate", orig, steps)

            def integrate(rhs, z0, t_final, cfg, events=(), bounds=None):
                # transversal events (cycle detection) are wrapped here;
                # curve events arrive already wrapped by curve_event
                events = [ev if hasattr(ev.g, "__wrapped__") else
                          EventSpec(g=tr.leaf_fn("g.transversal", ev.g),
                                    direction=ev.direction, terminal=ev.terminal,
                                    accept=ev.accept)
                          for ev in events]
                return spanned(rhs, z0, t_final, cfg, events, bounds)

            return integrate
        if (layer, name) == ("flow", "brent"):
            spanned = self.span("flow.brent", orig)

            def brent(f, *args, **kwargs):
                def counted(s):
                    tr.count("brent_iter")
                    return f(s)

                return spanned(counted, *args, **kwargs)

            return brent
        if (layer, name) == ("sections", "curve_event"):
            from annulus_involutions.flow import EventSpec

            spanned = self.span("sections.curve_event", orig)

            def curve_event(curve, direction=0, terminal=True):
                ev = spanned(curve, direction, terminal)
                kind = CURVE_KINDS[type(curve).__name__]
                accept = ev.accept

                def counted_accept(z):
                    ok = accept(z)
                    if not ok:
                        tr.count("root_vetoed")
                    return ok

                return EventSpec(g=tr.leaf_fn(f"g.{kind}", ev.g), direction=ev.direction,
                                 terminal=ev.terminal,
                                 accept=tr.leaf_fn(f"accept.{kind}", counted_accept))

            return curve_event
        if (layer, name) == ("verify", "write_atomic"):
            return self.span("verify.write_atomic", orig,
                             lambda rec, args, res: _add(rec, "bytes_written",
                                                         len(args[1].encode("utf-8"))))
        return self.span(f"{layer}.{name}", orig)

    # --- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _add(rec: list, key: str, n) -> None:
    if rec[5] is None:
        rec[5] = {}
    rec[5][key] = rec[5].get(key, 0) + n


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers over every span the tracer recorded."""
    spans = tracer.spans
    n = len(spans)
    dur = [r[2] - r[1] for r in spans]
    child = [0.0] * n
    by_name: dict[str, list[int]] = {}
    otau = [-1] * n  # outermost enclosing tau span
    for i, r in enumerate(spans):
        p = r[3]
        if p >= 0:
            child[p] += dur[i]
        by_name.setdefault(r[0], []).append(i)
        if p >= 0 and otau[p] >= 0:
            otau[i] = otau[p]
        elif r[0] in _TAU:
            otau[i] = i
    total: dict[str, float] = dict(tracer.root)
    for r in spans:
        for k, v in (r[5] or {}).items():
            total[k] = total.get(k, 0) + v

    def names(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(dur[i] for i in names(name))

    integ = names("flow.integrate")
    self_s = rhs_in = 0.0
    for i in integ:
        c = spans[i][5] or {}
        leaves = sum(v for k, v in c.items() if k.endswith(":s") and k != "project:s")
        self_s += dur[i] - child[i] - leaves
        rhs_in += c.get("rhs:s", 0.0)
    acc, rej = total.get("accepted", 0), total.get("rejected", 0)
    brent_calls = len(names("flow.brent"))
    period_of = names("symmetry.SymmetryInvolution.period_of")
    po = set(period_of)
    dc_under = sum(1 for i in names("period.detect_cycle") if spans[i][3] in po)
    fte: dict[int, int] = {}
    for i in names("flow.flow_to_event"):
        if otau[i] >= 0:
            fte[otau[i]] = fte.get(otau[i], 0) + 1
    taus = [i for i in range(n) if otau[i] == i]
    with_fte = [fte[i] for i in taus if fte.get(i, 0) >= 1]
    kinds = ("affine", "expression", "tabulated")
    m = {
        "flow.us_per_step": 1e6 * _ratio(self_s + rhs_in, acc + rej),
        "flow.integrate_self_s": self_s,
        "flow.steps_accepted": acc,
        "flow.steps_rejected": rej,
        "flow.step_accept_ratio": _ratio(acc, acc + rej),
        "flow.nfev": total.get("nfev", 0),
        "flow.integrations": len(integ),
        "expr.rhs_calls": total.get("rhs", 0),
        "expr.rhs_busy_s": total.get("rhs:s", 0.0),
        "flow.event_g_calls": sum(v for k, v in total.items()
                                  if k.startswith("g.") and not k.endswith(":s")),
        "flow.brent_calls": brent_calls,
        "flow.brent_iters": total.get("brent_iter", 0),
        "flow.event_accept_ratio": _ratio(brent_calls - total.get("root_vetoed", 0),
                                          brent_calls),
        "sections.side_calls": sum(total.get(f"g.{k}", 0) for k in kinds),
        "sections.project_calls": total.get("project", 0),
        "period.detect_cycle_calls": len(names("period.detect_cycle")),
        "period.detect_cycle_p50_ms": 1e3 * _median([dur[i] for i in names("period.detect_cycle")]),
        "symmetry.sigma_p50_ms": 1e3 * _median(
            [dur[i] for i in names("symmetry.SymmetryInvolution.__call__")]),
        "symmetry.cache_hit_ratio": 1.0 - _ratio(dc_under, len(period_of)) if period_of else 0.0,
        "reversibility.sigma_p50_ms": 1e3 * _median(
            [dur[i] for i in names("reversibility.ReversibilityInvolution.__call__")]),
        "reversibility.tau_calls": len(taus),
        "reversibility.flow_to_event_per_tau": _ratio(sum(fte.values()), len(taus)),
        "reversibility.cache_hit_ratio": _ratio(sum(1 for v in with_fte if v == 1),
                                                len(with_fte)),
        "reversibility.conjugate_section_s": busy("reversibility.conjugate_section"),
        "verify.annulus_points_s": busy("verify.annulus_points"),
        "cli.load_config_s": busy("cli.load_config"),
        "cli.write_s": busy("verify.write_atomic"),
        "cli.bytes_written": total.get("bytes_written", 0),
    }
    for k in kinds:
        m[f"sections.side_us.{k}"] = 1e6 * _ratio(total.get(f"g.{k}:s", 0.0),
                                                   total.get(f"g.{k}", 0))
    for short, name in CHECKS.items():
        m[f"verify.check_s.{short}"] = busy(name)
    return m
