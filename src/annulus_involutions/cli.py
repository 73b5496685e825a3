"""Command-line driver: load a field and config, run the constructions and
verification suites, emit plot-ready CSV and JSON reports.

Config files are flat ``key = value`` text; see README for the full key
list.  Exit codes: 0 all checks/samples passed, 1 some check or sample
failed, 2 config error or a section that cannot be built, 3 section failed
transversality validation (for the reversibility and verify commands).

All four commands (period, symmetry, reversibility, verify) run through
one driver, ``_run``; each supplies only a body that returns its counts,
the files it writes and its stderr lines.  The driver catches exactly the
known failure modes: section parse and validation failures, and the
numerical failures in ``errors.SAMPLE_FAILURES``.  A sample whose sigma
fails is left out of the pairs CSV with one stderr line.  One command run
is one memo scope (see :mod:`.memo`), so the checks and the pairs CSV
share each point's cycle detection and section crossings, or their
failure.  The pairs and ``delta_star.csv`` are written from the
involution on the suite's report, the map the checks verified.  Commands
keep records, not orbits: ``period`` writes each cycle's row as it
detects it and a failed parameter as one stderr line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    SAMPLE_FAILURES,
    ConfigError,
    ExpressionError,
    SectionError,
    TransversalityError,
)
from .expr import (PlanarField, field_from_entries, parse_field_text, parse_key_values,
                   parse_number_list)
from .fields import builtin_field, builtin_names, default_section_range
from .flow import IntegratorConfig
from .memo import suite_scope
from .period import detect_cycle
from .reversibility import verify_reversibility
from .sections import Section, make_section
from .symmetry import SymmetryInvolution, verify_sigma_symmetry
from .verify import (
    VerificationReport,
    annulus_points,
    config_digest,
    sample_parameters,
    sample_time_fractions,
    table_text,
    write_atomic,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_TRANSVERSALITY = 3


@dataclass
class RunConfig:
    field: PlanarField
    section_sx: str
    section_sy: str
    section_range: tuple[float, float]
    section_grid: int
    section_label: str
    params: list[float] | None
    cfg: IntegratorConfig
    samples: int
    times: int
    seed: int
    out_dir: Path
    raw: dict

    def build_section(self) -> Section:
        return make_section(
            self.field,
            self.section_sx,
            self.section_sy,
            self.section_range,
            n_grid=self.section_grid,
            name=self.section_label,
        )


def _parse_number(entries, key, default, kind=float):
    if key not in entries:
        return default
    try:
        return kind(entries[key])
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {entries[key]!r}") from exc


_KNOWN_KEYS = {
    "field", "P", "Q", "domain", "section", "sx", "sy", "section_range",
    "section_grid", "params", "rtol", "atol", "samples", "times", "seed", "out",
}


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _resolve_field(entries: dict[str, str], config_dir: Path) -> PlanarField:
    named = entries.get("field")
    inline = "P" in entries or "Q" in entries
    if named and inline:
        raise ConfigError("give either 'field = <name-or-file>' or inline P/Q, not both")
    if named:
        if named in builtin_names():
            return builtin_field(named)
        path = (config_dir / named).resolve() if not Path(named).is_absolute() else Path(named)
        if not path.is_file():
            raise ConfigError(
                f"field {named!r} is neither a built-in "
                f"({', '.join(builtin_names())}) nor an existing file"
            )
        text = _read_text(path, "field file")
        try:
            return parse_field_text(text, name=path.stem)
        except (ExpressionError, ConfigError) as exc:
            raise ConfigError(f"field file {path}: {exc}") from exc
    if inline:
        if "P" not in entries or "Q" not in entries:
            raise ConfigError("inline field needs both P and Q")
        try:
            return field_from_entries(entries, "custom")
        except ExpressionError as exc:
            raise ConfigError(f"inline field: {exc}") from exc
    raise ConfigError("config must name a field (built-in or file) or define P and Q")


def _resolve_section(entries: dict[str, str], field: PlanarField):
    shorthand = entries.get("section")
    expressions = "sx" in entries or "sy" in entries
    if shorthand and expressions:
        raise ConfigError("give either 'section = ...' shorthand or sx/sy, not both")
    if shorthand:
        parts = shorthand.split("[", 1)
        kind = parts[0].strip()
        if len(parts) != 2 or not parts[1].rstrip().endswith("]"):
            raise ConfigError(f"section shorthand needs a range: {shorthand!r}")
        rng = parse_number_list("[" + parts[1], "section range")
        if len(rng) != 2:
            raise ConfigError("section range needs exactly [smin, smax]")
        if kind == "x-axis":
            return "s", "0", (rng[0], rng[1]), "x-axis"
        if kind == "diagonal":
            return "s", "s", (rng[0], rng[1]), "diagonal"
        raise ConfigError(f"unknown section shorthand {kind!r} (use x-axis or diagonal)")
    if expressions:
        if "sx" not in entries or "sy" not in entries:
            raise ConfigError("expression sections need both sx and sy")
        if "section_range" not in entries:
            raise ConfigError("expression sections need section_range = [smin, smax]")
        rng = parse_number_list(entries["section_range"], "section_range")
        if len(rng) != 2:
            raise ConfigError("section_range needs exactly [smin, smax]")
        label = f"({entries['sx']}, {entries['sy']})"
        return entries["sx"], entries["sy"], (rng[0], rng[1]), label
    if field.name in builtin_names():
        lo, hi = default_section_range(field.name)
        return "s", "0", (lo, hi), "x-axis"
    raise ConfigError("config needs a section (shorthand or sx/sy expressions)")


def load_config(path, *, out_override=None, rtol_override=None, seed_override=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    entries = parse_key_values(_read_text(path, "config file"), f"{path}:")
    unknown = set(entries) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    field = _resolve_field(entries, path.parent)
    sx, sy, rng, label = _resolve_section(entries, field)
    rtol = _parse_number(entries, "rtol", 1e-10)
    if rtol_override is not None:
        rtol = rtol_override
    atol = _parse_number(entries, "atol", max(1e-12, 0.01 * rtol))
    seed = _parse_number(entries, "seed", 0, int)
    if seed_override is not None:
        seed = seed_override
    params = None
    if "params" in entries:
        params = parse_number_list(entries["params"], "params")
        if not params:
            raise ConfigError("params list is empty")
    samples = _parse_number(entries, "samples", 10, int)
    times = _parse_number(entries, "times", 3, int)
    for key, count in (("samples", samples), ("times", times)):
        if count < 1:
            raise ConfigError(f"{key} must be at least 1, got {count}")
    out_dir = Path(out_override) if out_override is not None else Path(entries.get("out", "out"))
    # refused here rather than when the files are written, after the whole run
    for existing in (out_dir, *out_dir.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigError(f"out: {existing} exists and is not a directory")
            break
    raw = dict(entries)
    raw["rtol"] = repr(rtol)
    raw["seed"] = repr(seed)
    try:
        cfg = IntegratorConfig(rtol=rtol, atol=atol)
    except ValueError as exc:
        raise ConfigError(f"{exc} (rtol {rtol!r}, atol {atol!r})") from exc
    return RunConfig(
        field=field,
        section_sx=sx,
        section_sy=sy,
        section_range=rng,
        section_grid=_parse_number(entries, "section_grid", 33, int),
        section_label=label,
        params=params,
        cfg=cfg,
        samples=samples,
        times=times,
        seed=seed,
        out_dir=out_dir,
        raw=raw,
    )


def _csv_text(header: list[str], rows) -> str:
    return table_text([header, *([repr(float(v)) for v in row] for row in rows)])


def _pairs_csv(name: str, samples, sigma) -> str:
    """(z, sigma(z)) rows; a sample whose sigma fails is dropped, with one
    stderr line in the form check errors use."""
    rows = []
    for z in samples:
        try:
            image = sigma(z)
        except SAMPLE_FAILURES as exc:
            print(f"{name}: ({z[0]:.6g}, {z[1]:.6g}): {exc}", file=sys.stderr)
            continue
        rows.append((*z, *image))
    return _csv_text(["x", "y", "sigma_x", "sigma_y"], rows)


def _gather_samples(config: RunConfig, section, cfg) -> tuple[list, list[float]]:
    """Annulus samples and flow times for the verification suites.

    If cycle detection cannot certify closures (e.g. deliberately loose
    tolerances), falls back to raw section points and a unit-scale time
    ladder so the suites still run and the report records the failures;
    each fallback prints one stderr line.
    """
    try:
        samples = list(annulus_points(config.field, section, config.samples, cfg,
                                      config.seed))
    except SAMPLE_FAILURES as exc:
        print(f"sample generation degraded to section points: {exc}", file=sys.stderr)
        params = sample_parameters(config.samples, section.s_min, section.s_max,
                                   config.seed)
        samples = [section.point(s) for s in params]
    try:
        mid = 0.5 * (section.s_min + section.s_max)
        t_ref = SymmetryInvolution(config.field, cfg).period_of(section.point(mid))
    except SAMPLE_FAILURES as exc:
        print(f"reference period unavailable, using unit-scale times: {exc}",
              file=sys.stderr)
        t_ref = 2.0 * 3.141592653589793
    fracs = sample_time_fractions(config.times, config.seed + 1)
    times = [float(0.2 + 0.8 * f) * t_ref for f in fracs]
    return samples, times


def _outcome(report: VerificationReport, files):
    """A suite's outcome: its check counts, its files and one stderr line
    per check error."""
    errors = [f"{c.name}: {err}" for c in report.checks for err in c.errors]
    return report.counts(), files, errors


def _period_command(config: RunConfig, section, cfg):
    if config.params is not None:
        params = config.params
    else:
        params = sorted(sample_parameters(config.samples, section.s_min,
                                          section.s_max, config.seed))
    rows, errors = [], []
    for s in params:
        try:
            cyc = detect_cycle(config.field, section.point(s), cfg)
        except SAMPLE_FAILURES as exc:
            errors.append(f"sample s = {s:.6g} failed: {exc}")
            continue
        rows.append((s, *cyc.base_point, cyc.period, cyc.closure_residual))
    periods = _csv_text(["s", "x0", "y0", "T", "closure_residual"], rows)
    return (len(rows), len(params)), [("periods.csv", periods)], errors


def _symmetry_command(config: RunConfig, section, cfg):
    samples, times = _gather_samples(config, section, cfg)
    report = verify_sigma_symmetry(config.field, section, samples, times, cfg)
    report.provenance["config_digest"] = config_digest(config.raw)
    pairs = _pairs_csv("symmetry_pairs", samples, report.involution)
    return _outcome(report, [("symmetry_report.json", report.to_json()),
                             ("symmetry_pairs.csv", pairs)])


def _reversibility_command(config: RunConfig, section, cfg):
    samples, times = _gather_samples(config, section, cfg)
    report = verify_reversibility(config.field, section, samples, times, cfg)
    report.provenance["config_digest"] = config_digest(config.raw)
    pairs = _pairs_csv("reversibility_pairs", samples, report.involution)
    star = report.involution.delta_star
    star_csv = _csv_text(["s", "x_star", "y_star", "T"],
                         ((s, *p, t) for s, p, t in zip(star.grid, star.points,
                                                        star.periods)))
    return _outcome(report, [("reversibility_report.json", report.to_json()),
                             ("delta_star.csv", star_csv),
                             ("reversibility_pairs.csv", pairs)])


def _verify_command(config: RunConfig, section, cfg):
    samples, times = _gather_samples(config, section, cfg)
    # the reversibility's crossings make the symmetry's records of their points
    rev = verify_reversibility(config.field, section, samples, times, cfg)
    sym = verify_sigma_symmetry(config.field, section, samples, times, cfg)
    for prefix, suite in (("symmetry", sym), ("reversibility", rev)):
        for c in suite.checks:
            c.name = f"{prefix}/{c.name}"
    report = VerificationReport(
        checks=sym.checks + rev.checks,
        provenance={
            "field": config.field.name,
            "section": section.label,
            "config_digest": config_digest(config.raw),
        },
    )
    return _outcome(report, [("verify_report.json", report.to_json()),
                             ("verify_summary.csv", report.to_csv())])


# command -> (body, seed_only).  A body returns ((passed, total), files in
# write order, stderr lines); seed_only marks a command whose section only
# seeds the samples, so that a transversality failure is a config error.
_COMMANDS = {
    "period": (_period_command, True),
    "symmetry": (_symmetry_command, True),
    "reversibility": (_reversibility_command, False),
    "verify": (_verify_command, False),
}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _run(config: RunConfig, command: str) -> int:
    """The driver of every command.

    Builds the section, runs the command's body in one memo scope, writes
    its files, prints its stderr lines and the summary line.  A section
    that cannot be built exits 2, or 3 for a transversality failure of a
    section that is more than a seed.  A known numerical failure that
    escapes the body exits 3 for transversality and 1 otherwise, with no
    files written.
    """
    body, seed_only = _COMMANDS[command]
    try:
        section = config.build_section()
    except (ExpressionError, SectionError) as exc:
        if isinstance(exc, TransversalityError) and not seed_only:
            return _fail(EXIT_TRANSVERSALITY, f"transversality error: {exc}")
        return _fail(EXIT_CONFIG, f"section error: {exc}")
    with suite_scope():
        try:
            (npass, total), files, errors = body(config, section, config.cfg)
        except TransversalityError as exc:
            return _fail(EXIT_TRANSVERSALITY, f"transversality error: {exc}")
        except SAMPLE_FAILURES as exc:
            return _fail(EXIT_CHECK_FAILED, f"error: {exc}")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        write_atomic(config.out_dir / name, text)
    for line in errors:
        print(line, file=sys.stderr)
    passed = npass == total
    print(f"{'PASS' if passed else 'FAIL'} {npass}/{total}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="annulus-involutions",
        description="Construct and verify flow-built involutions of planar period annuli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--rtol", type=float, default=None,
                       help="integrator relative tolerance (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="sample sequence seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, out_override=args.out,
                             rtol_override=args.rtol, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run(config, args.command)


if __name__ == "__main__":
    raise SystemExit(main())
