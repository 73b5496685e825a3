"""Derandomized fuzz of outside input: config, field-file and expression
text, valid and broken.

Loading a config, compiling its field and building its section may raise
only the input errors (``ConfigError``, ``ExpressionError``,
``SectionError``), and a CLI run on a cheap config ends with a documented
exit code and no traceback.  Examples are derandomized and never shrunk, so
every run draws the same inputs and a failure is reported as found.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from annulus_involutions.cli import load_config, main
from annulus_involutions.errors import ConfigError, ExpressionError, SectionError
from annulus_involutions.expr import (
    _FUNC_IMPL,
    Bin,
    Call,
    Const,
    Neg,
    Var,
    parse_field_text,
    to_source,
)

INPUT_ERRORS = (ConfigError, ExpressionError, SectionError)
FUZZ = settings(deadline=None, derandomize=True, database=None,
                phases=(Phase.explicit, Phase.generate))


def _valid(variables):
    """Printed trees over the variables: text the parser accepts."""
    leaves = st.one_of(st.floats(min_value=0.0, max_value=10.0).map(Const),
                       st.sampled_from([Var(v) for v in variables]))
    trees = st.recursive(leaves, lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(sorted(_FUNC_IMPL)), children)), max_leaves=8)
    return trees.map(to_source)


# pieces of broken text: stray and unbalanced tokens, unknown names,
# non-finite and malformed numbers, non-ASCII letters, digits and spaces
_FRAGMENTS = ["x", "y", "s", "z", "(", ")", ",", "+", "-", "*", "/", "^", "**", "1", "0",
              "0.5", ".", "1e400", "1e-3", "2e", "sin(", "log(", "sqrt(", "foo(", "sign",
              "\u00e9", "\uff58", "\u0663", "\u3000", " ", "#", "=", "[", "]"]


def _expr(variables):
    """Expression text: a printed tree three times as often as token soup or
    a printed tree with a fragment spliced in."""
    valid = _valid(variables)
    return st.one_of(
        valid, valid, valid,
        st.lists(st.sampled_from(_FRAGMENTS), max_size=10).map("".join),
        st.tuples(valid, st.sampled_from(_FRAGMENTS), st.integers(0, 40)).map(
            lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]))


_RANGE = st.sampled_from(["[0.2, 1.0]", "[0.5, 1.5]", "[1, 1]", "[2, 0.5]", "[nan, 1]",
                          "[0.2, inf]", "[0.2]", "[0.2, 1, 2]", "[]", "0.2, 1", "[a, b]",
                          "[0.2, 1.0,]", "[-1e308, 1e308]"])
_NUMBER_LIST = st.sampled_from(["[0.5, 1.0]", "[0.7]", "[]", "[nan]", "[1e400]", "[x]",
                                "0.5", "[0.5,,1.0]", "[-2, 2, -2, 2]", "[1, 0, 0, 1]",
                                "[0, 1, 0, 1]", "[nan, 1, 0, 1]", "[-inf, inf, -inf, inf]"])
_COUNT = st.sampled_from(["1", "2", "0", "-3", "2.5", "x", "1e3", ""])
_TOLERANCE = st.sampled_from(["1e-10", "1e-3", "0", "-1e-8", "nan", "inf", "x", ""])

_VALUES = {
    "field": st.sampled_from(["linear-center", "pendulum", "duffing", "cubic-center",
                              "nope", "field.txt", "missing.txt", "", "."]),
    "P": _expr(("x", "y")),
    "Q": _expr(("x", "y")),
    "domain": _NUMBER_LIST,
    "section": st.one_of(st.sampled_from(["x-axis", "diagonal", "spiral", ""]),
                         st.tuples(st.sampled_from(["x-axis", "diagonal", "spiral"]),
                                   _RANGE).map(" ".join)),
    "sx": _expr(("s",)),
    "sy": _expr(("s",)),
    "section_range": _RANGE,
    "section_grid": st.sampled_from(["33", "4", "3", "0", "-5", "x", "9.5"]),
    "params": _NUMBER_LIST,
    "rtol": _TOLERANCE,
    "atol": _TOLERANCE,
    "samples": _COUNT,
    "times": _COUNT,
    "seed": st.sampled_from(["7", "-1", "x", "1e3"]),
    "out": st.sampled_from(["out", "taken.txt", "taken.txt/out"]),
}
_BROKEN_LINE = st.sampled_from(["no equals sign", "= 1", "P", "\u00e9 = 1", "colour = blue"])
_OPTIONS = ["domain", "section_grid", "params", "rtol", "atol", "samples", "times", "seed",
            "out"]
# a field (named, or inline P and Q), a section (the built-in default, the
# shorthand, or sx, sy and their range), options, and now and then a
# broken line or a key given twice
_CONFIG = st.tuples(
    st.one_of(_VALUES["field"].map(lambda v: [f"field = {v}"]),
              st.tuples(_VALUES["P"], _VALUES["Q"]).map(lambda pq: [f"P = {pq[0]}",
                                                                     f"Q = {pq[1]}"])),
    st.one_of(st.just([]), st.just(["section = x-axis [0.2, 1.0]"]),
              _VALUES["section"].map(lambda v: [f"section = {v}"]),
              st.tuples(_VALUES["sx"], _VALUES["sy"], _RANGE).map(
                  lambda t: [f"sx = {t[0]}", f"sy = {t[1]}", f"section_range = {t[2]}"])),
    st.lists(st.sampled_from(_OPTIONS).flatmap(
        lambda key: _VALUES[key].map(lambda value: f"{key} = {value}")), max_size=3,
        unique_by=lambda line: line.split(" = ")[0]),
    st.lists(st.one_of(_BROKEN_LINE, st.just("# comment"), st.just("")), max_size=1),
).map(lambda parts: "\n".join(line for part in parts for line in part) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "taken.txt").write_text("kept\n", encoding="utf-8")
    return root


def _write(workdir, config: str, field_file: str) -> str:
    (workdir / "field.txt").write_text(field_file, encoding="utf-8")
    path = workdir / "run.cfg"
    path.write_text(config, encoding="utf-8")
    return str(path)


_FIELD_FILE = st.lists(st.one_of(
    st.tuples(st.sampled_from(["P", "Q"]), _expr(("x", "y"))).map(" = ".join),
    st.just("domain = [-3, 3, -3, 3]"), st.just("extra = 1"), st.just("Q")), max_size=4).map(
    "\n".join)


@settings(FUZZ, max_examples=400)
@given(config=_CONFIG, field_file=_FIELD_FILE)
def test_loading_and_building_raise_only_input_errors(workdir, config, field_file):
    # any other exception escapes and fails the example
    try:
        load_config(_write(workdir, config, field_file)).build_section()
    except INPUT_ERRORS:
        pass
    try:
        parse_field_text(field_file)
    except INPUT_ERRORS:
        pass


# inline fields that cost little to integrate: centres, a saddle, a field
# that vanishes, one undefined left of x = -1 and broken text (the broken
# kinds are drawn far more often by the test above)
_CHEAP_FIELDS = [("-y", "x"), ("y", "-sin(x)"), ("-y", "x + x^3"), ("y", "x"), ("0", "0"),
                 ("-y", "x + 0*sqrt(x + 1)"), ("-y +", "x")]


@settings(FUZZ, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["period", "symmetry", "reversibility", "verify"]),
       field=st.sampled_from(_CHEAP_FIELDS),
       section=st.sampled_from(["section = x-axis [0.2, 1.0]", "section = diagonal [0.2, 0.8]",
                                "sx = s\nsy = 0.3*s^2\nsection_range = [0.35, 1.0]",
                                "sx = cos(s)\nsy = sin(s)\nsection_range = [0.1, 1.0]",
                                "section = x-axis [1, 1]"]),
       overrides=st.lists(st.sampled_from([
           ("params", "[0.5]"), ("params", "[0.5, 1e3]"), ("samples", "0"), ("times", "2.5"),
           ("rtol", "1e-3"), ("domain", "[-1, 2, -2, 2]"), ("section_grid", "3"),
           ("seed", "3"), ("out", "taken.txt")]), max_size=1))
def test_cheap_cli_runs_end_cleanly(workdir, capsys, command, field, section, overrides):
    entries = {"P": field[0], "Q": field[1], "samples": "2", "times": "1", "out": "out",
               **dict(overrides)}
    entries["out"] = str(workdir / entries["out"])  # absolute: nothing lands in the cwd
    text = "\n".join([section, *(f"{key} = {value}" for key, value in entries.items())])
    # an exception escaping main fails the example, as a traceback would
    code = main([command, "--config", _write(workdir, text + "\n", "")])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in capsys.readouterr().err
