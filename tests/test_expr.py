import math
import operator
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_involutions.errors import (
    ConfigError,
    DomainError,
    LexicalError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from annulus_involutions.expr import (
    _FUNC_IMPL,
    _source,
    MAX_DEPTH,
    Bin,
    Call,
    Const,
    compile_fn,
    Neg,
    PlanarField,
    Var,
    differentiate,
    evaluate,
    parse,
    parse_field_text,
    to_source,
    tokenize,
)
from annulus_involutions.fields import builtin_field, builtin_names, default_section_range

from oracles import field_jacobian


class TestTokenize:
    def test_power(self):
        kinds = [(t.kind, t.text) for t in tokenize("x^3")]
        assert kinds == [("ident", "x"), ("op", "^"), ("num", "3")]

    def test_unary_minus(self):
        kinds = [(t.kind, t.text) for t in tokenize("-y")]
        assert kinds == [("op", "-"), ("ident", "y")]

    def test_call(self):
        kinds = [(t.kind, t.text) for t in tokenize("sin(x)*y")]
        assert kinds == [("ident", "sin"), ("lparen", "("), ("ident", "x"),
                         ("rparen", ")"), ("op", "*"), ("ident", "y")]

    def test_whitespace_skipped(self):
        assert len(tokenize("  x  +\t y ")) == 3

    def test_scientific_notation(self):
        toks = tokenize("1.5e-3")
        assert len(toks) == 1 and toks[0].text == "1.5e-3"

    def test_lexical_error_offset(self):
        with pytest.raises(LexicalError) as exc:
            tokenize("x + $y")
        assert exc.value.offset == 4

    # names and numbers are ASCII: a letter or digit outside it is an
    # unexpected character, not an identifier or the number it reads as
    @pytest.mark.parametrize("source, offset", [
        ("\u00e9", 0), ("x + \uff58", 4), ("\u0663", 0), ("1\u0663", 1),
    ], ids=["e-acute", "fullwidth-x", "arabic-indic-3", "digit-then-arabic-indic"])
    def test_non_ascii_is_unexpected(self, source, offset):
        with pytest.raises(LexicalError) as exc:
            tokenize(source)
        assert exc.value.offset == offset

    def test_offsets_are_bytes(self):
        assert [t.offset for t in tokenize("x + y")] == [0, 2, 4]

    def test_every_code_point(self):
        # each character after an ideographic space (three UTF-8 bytes):
        # whitespace is skipped, an ASCII token character is its token, a
        # lone "." is a malformed number and anything else is unexpected
        kinds = {**dict.fromkeys(string.digits, "num"),
                 **dict.fromkeys(string.ascii_letters + "_", "ident"),
                 **dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen", ",": "comma"}
        wrong = []
        for c in range(0x110000):
            ch = chr(c)
            try:
                got = [(t.kind, t.text, t.offset) for t in tokenize("\u3000" + ch)]
            except LexicalError as exc:
                got = (str(exc), exc.offset)
            if ch.isspace():
                want = []
            elif ch in kinds:
                want = [(kinds[ch], ch, 3)]
            elif ch == ".":
                want = ("malformed number starting with '.' (offset 3)", 3)
            else:
                want = (f"unexpected character {ch!r} (offset 3)", 3)
            if got != want:
                wrong.append((hex(c), got, want))
        assert wrong == []

    @pytest.mark.parametrize("after", ["", "x", "e5", ".", "+1", " 1", "\u00e9", "\u3000"])
    def test_dot_without_digit_is_malformed(self, after):
        with pytest.raises(LexicalError) as exc:
            tokenize("y + ." + after)
        assert str(exc.value) == "malformed number starting with '.' (offset 4)"


# shapes of source text, as (make, n): make(n) is as deep as parse accepts
DEEPEST = {
    "flat": (lambda n: "+".join(["x"] * n), MAX_DEPTH),
    "nested": (lambda n: "x+(" * n + "x" + ")" * n, 85),
    "signs": (lambda n: "-" * n + "x", 85),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, 85),
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, 127),
    "powers": (lambda n: "^".join(["x"] * n), 86),
}


class TestParse:
    def test_precedence_add_mul(self):
        assert parse("x + y * 2") == Bin("+", Var("x"), Bin("*", Var("y"), Const(2.0)))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2") == Neg(Bin("^", Var("x"), Const(2.0)))
        assert evaluate(parse("-x^2"), 2.0, 0.0) == -4.0

    def test_power_right_associative(self):
        assert parse("x^3^2") == Bin("^", Var("x"), Bin("^", Const(3.0), Const(2.0)))

    def test_negative_exponent(self):
        assert evaluate(parse("2^-2"), 0.0, 0.0) == 0.25

    def test_incomplete_input(self):
        with pytest.raises(ParseError) as exc:
            parse("x +")
        assert exc.value.offset == 3

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("sinh(x)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse("x + z")

    def test_section_variable(self):
        assert parse("2*s", variables=("s",)) == Bin("*", Const(2.0), Var("s"))
        with pytest.raises(UnknownVariableError):
            parse("x", variables=("s",))

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x + y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x y")

    @pytest.mark.parametrize("literal", ["1e400", "2.5e308"])
    def test_non_finite_literal_rejected(self, literal):
        # float() rounds these to inf, which generated code cannot spell
        with pytest.raises(ParseError) as exc:
            parse(f"x + 0*{literal}")
        assert str(exc.value) == f"number {literal!r} is not finite (offset 6)"

    @pytest.mark.parametrize("source, offset", [
        ("x+(" * 250 + "x" + ")" * 250, 256),
        ("+".join(["x"] * 1200), 511),
        ("(" * 5000, 127),
    ], ids=["nested-250", "flat-1200", "unclosed-5000"])
    def test_too_deep_rejected(self, source, offset):
        # refused at the first token whose node would sit too deep, before
        # the parser or anything walking the tree runs out of frames
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == (
            f"expression nested deeper than {MAX_DEPTH} levels (offset {offset})")

    @pytest.mark.parametrize("make, n", list(DEEPEST.values()), ids=list(DEEPEST))
    def test_deepest_accepted_is_usable(self, make, n):
        # at the limit (a leaf inside 127 parentheses is 255 deep): one more
        # level is refused, and the tree compiles, differentiates and prints
        # back to itself
        tree = parse(make(n))
        with pytest.raises(ParseError):
            parse(make(n + 1))
        compile_fn((tree,), ("x", "y"))(0.5, 0.25)
        differentiate(tree, "x")
        assert parse(to_source(tree)) == tree


class TestEvaluate:
    def test_cube(self):
        assert evaluate(parse("x^3"), 2.0, 0.0) == 8.0

    def test_sin_product(self):
        assert evaluate(parse("sin(x)*y"), 0.0, 5.0) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), 0.0, 1.0)

    def test_log_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), -1.0, 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), -4.0, 0.0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("exp(x)"), 1e9, 0.0)

    def test_signed_zero_constants_compile_apart(self):
        # the two trees compare equal, so a cache keyed by the trees would
        # hand the second the first one's function
        assert Const(-0.0) == Const(0.0)
        assert math.copysign(1.0, compile_fn((Const(0.0),))(0.0, 0.0)[0]) == 1.0
        assert math.copysign(1.0, compile_fn((Const(-0.0),))(0.0, 0.0)[0]) == -1.0

    def test_purity_bit_identical(self):
        e = parse("sin(x)*cos(y) + x^3/(1 + y^2)")
        vals = {evaluate(e, 0.7310987, -1.2345678) for _ in range(50)}
        assert len(vals) == 1


class TestRoundTrip:
    SOURCES = [
        "x + y * 2",
        "-x^2",
        "x^3^2",
        "(x + y)^2",
        "x - y - 1",
        "x / y / 2",
        "sin(x)*y",
        "-(x + y)",
        "1/(1 + x^2)",
        "sqrt(abs(x))",
        "2^-3",
        "x*-y",
        "cos(x - y)^2 + sin(x - y)^2",
        "x^(y + 1)",
        "--x",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_print_reparse_identical(self, src):
        ast = parse(src)
        assert parse(to_source(ast)) == ast

    @pytest.mark.parametrize("src", SOURCES)
    def test_print_reparse_same_values(self, src):
        ast = parse(src)
        back = parse(to_source(ast))
        for x, y in [(0.3, 0.7), (1.5, -0.4), (-2.0, 1.1)]:
            try:
                a = evaluate(ast, x, y)
            except DomainError:
                continue
            assert evaluate(back, x, y) == a

    def test_random_trees_round_trip(self):
        from annulus_involutions.expr import Bin as B, Call as C, Const as K, Neg as N, Var as V

        rng = np.random.default_rng(998877)
        funcs = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]

        def random_tree(depth):
            kind = rng.integers(0, 5 if depth > 0 else 2)
            if kind == 0:
                return K(float(round(rng.uniform(0.0, 9.0), 3)))
            if kind == 1:
                return V("x" if rng.integers(0, 2) == 0 else "y")
            if kind == 2:
                return N(random_tree(depth - 1))
            if kind == 3:
                op = "+-*/^"[rng.integers(0, 5)]
                return B(op, random_tree(depth - 1), random_tree(depth - 1))
            return C(funcs[rng.integers(0, len(funcs))], random_tree(depth - 1))

        for _ in range(300):
            tree = random_tree(4)
            assert parse(to_source(tree)) == tree


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}


def _walk(e, x, y):
    """The tree's arithmetic, one node at a time, left operand first."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -_walk(e.arg, x, y)
    if isinstance(e, Call):
        return _FUNC_IMPL[e.fn](_walk(e.arg, x, y))
    return _BINARY[e.op](_walk(e.left, x, y), _walk(e.right, x, y))


def _outcome(fn, *args):
    """The value's bits, or the math error's type."""
    try:
        value = fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    return float(value).hex()


# constants of either sign: differentiate and its folding make negative ones
_trees = st.recursive(
    st.one_of(st.floats(min_value=-1e3, max_value=1e3).map(Const),
              st.sampled_from([Var("x"), Var("y")])),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(sorted(_FUNC_IMPL)), children)),
    max_leaves=24)
_arg = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=_trees, x=_arg, y=_arg)
def test_compiled_arithmetic_is_the_trees(tree, x, y):
    # the emitted source drops every parenthesis precedence does not need;
    # the operations and their order, and so every bit, stay the tree's
    compiled = compile_fn((tree,), ("x", "y"))
    assert _outcome(lambda: compiled(x, y)[0]) == _outcome(_walk, tree, x, y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=_trees, x=_arg, y=_arg)
def test_compiled_derivatives_are_the_trees(tree, x, y):
    for var in ("x", "y"):
        d = differentiate(tree, var)
        compiled = compile_fn((d,), ("x", "y"))
        assert _outcome(lambda: compiled(x, y)[0]) == _outcome(_walk, d, x, y)


def _has_power(e):
    if isinstance(e, Bin):
        return e.op == "^" or _has_power(e.left) or _has_power(e.right)
    return isinstance(e, (Neg, Call)) and _has_power(e.arg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=_trees)
def test_compiled_source_is_the_printed_source(tree):
    # one printer: the compiler's text is to_source's, with calls prefixed
    # (and a power spelled as a call, so trees with one are left out)
    if not _has_power(tree):
        assert _source(tree, python=True).replace("_fn_", "") == to_source(tree)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=_trees, x=_arg, y=_arg)
def test_printed_trees_reparse_to_the_same_values(tree, x, y):
    # a negative constant comes back as a sign of its magnitude, with the
    # same bits; on the left of ^ it keeps its parentheses
    assert _outcome(_walk, parse(to_source(tree)), x, y) == _outcome(_walk, tree, x, y)


def test_folded_negative_constant_prints_as_a_sign():
    d = differentiate(parse("x^0.5"), "x")
    assert to_source(d) == "0.5*x^(-0.5)"
    assert parse(to_source(d)) == Bin("*", Const(0.5), Bin("^", Var("x"), Neg(Const(0.5))))
    assert to_source(Bin("^", Const(-2.0), Var("x"))) == "(-2.0)^x"


def test_long_flat_sum_compiles():
    # 250 terms: parenthesizing each sum nested past the compiler's limit
    tree = parse("+".join(["x*y"] * 249) + "-x")
    assert compile_fn((tree,), ("x", "y"))(0.5, 3.0) == (_walk(tree, 0.5, 3.0),)


class TestDifferentiate:
    def test_cube(self):
        d = differentiate(parse("x^3"), "x")
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert evaluate(d, x, 0.0) == pytest.approx(3 * x * x, abs=1e-12)

    def test_product(self):
        d = differentiate(parse("sin(x)*y"), "x")
        for x, y in [(0.0, 5.0), (1.2, -0.3), (-2.0, 2.0)]:
            assert evaluate(d, x, y) == pytest.approx(math.cos(x) * y, abs=1e-12)

    def test_other_variable_is_constant(self):
        assert differentiate(parse("y"), "x") == Const(0.0)

    def test_constant_power_of_negative_base(self):
        # the power rule must not introduce log(x) for literal exponents
        d = differentiate(parse("x^3"), "x")
        assert evaluate(d, -2.0, 0.0) == 12.0

    def test_abs_sign_convention(self):
        d = differentiate(parse("abs(x)"), "x")
        assert evaluate(d, 3.0, 0.0) == 1.0
        assert evaluate(d, -3.0, 0.0) == -1.0
        assert evaluate(d, 0.0, 0.0) == 0.0

    def test_folds_division_by_one_and_zeroth_power(self):
        # d log(1)/dx takes (1 / 1) * 0, and d x^1/dx takes 1 * x^0 * 1
        assert differentiate(parse("log(1)"), "x") == Const(0.0)
        assert differentiate(parse("x^1"), "x") == Const(1.0)

    def test_general_power(self):
        d = differentiate(parse("x^y"), "x")
        assert evaluate(d, 2.0, 3.0) == pytest.approx(12.0, rel=1e-12)

    def test_non_finite_product_not_folded(self):
        # 1e308*10 overflows: it stays an operation, so the derivative
        # compiles and evaluation reports the overflow
        d = differentiate(parse("x*1e308*10"), "x")
        assert d == Bin("*", Const(1e308), Const(10.0))
        assert parse(to_source(d)) == d
        assert compile_fn((d,))(0.5, 0.0) == (math.inf,)
        with pytest.raises(DomainError):
            evaluate(d, 0.5, 0.0)
        assert differentiate(parse("x*1e308*0.5"), "x") == Const(5e307)

    @pytest.mark.parametrize("src", [
        "x^3", "sin(x)*y", "exp(x*y)", "log(1 + x^2)", "sqrt(1 + y^2)",
        "tan(x/2)*y", "cos(x)^2 - sin(y)^2", "x/y", "x^2*y^3 - 2*x*y",
        "1/(1 + x^2 + y^2)",
    ])
    @pytest.mark.parametrize("var", ["x", "y"])
    def test_against_central_differences(self, src, var):
        e = parse(src)
        d = differentiate(e, var)
        rng = np.random.default_rng(20240811)
        h = 1e-6
        checked = 0
        while checked < 100:
            x, y = rng.uniform(-2.0, 2.0, size=2)
            if abs(y) < 1e-2:
                y = y + 0.5  # keep clear of the x/y pole
            try:
                if var == "x":
                    fd = (evaluate(e, x + h, y) - evaluate(e, x - h, y)) / (2 * h)
                else:
                    fd = (evaluate(e, x, y + h) - evaluate(e, x, y - h)) / (2 * h)
                val = evaluate(d, x, y)
            except DomainError:
                continue
            assert abs(val - fd) <= 1e-5 * (1.0 + abs(val))
            checked += 1


class TestPlanarField:
    def test_velocity(self, linear_center):
        assert np.allclose(linear_center.rhs(1.0, 2.0), [-2.0, 1.0])

    def test_exact_partials_match_finite_differences(self, pendulum):
        # the variational-equation oracle differentiates the field itself
        jacobian = field_jacobian(pendulum)
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            jac = jacobian([x, y])
            for j, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
                plus = np.array(pendulum.rhs(x + dx, y + dy))
                minus = np.array(pendulum.rhs(x - dx, y - dy))
                fd = (plus - minus) / (2 * h)
                assert np.abs(jac[:, j] - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())

    def test_energy(self, pendulum):
        assert pendulum.energy([0.0, 0.0]) == 0.0
        assert pendulum.energy([math.pi / 2, 0.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", builtin_names())
    def test_energy_matches_compiled_hamiltonian(self, name):
        # energy goes through evaluate; finite values keep their bits
        field = builtin_field(name)
        hf = compile_fn((field.hamiltonian,))
        for x, y in np.random.default_rng(5).uniform(-3.0, 3.0, size=(50, 2)).tolist():
            assert field.energy((x, y)).hex() == hf(x, y)[0].hex()

    @pytest.mark.parametrize("h, z, message", [
        ("log(x)", (-1.0, 0.0), "evaluation failed at (-1.0, 0.0): math domain error"),
        ("x*1e308", (10.0, 0.0), "non-finite result inf at (10.0, 0.0)"),
    ], ids=["math-error", "overflow"])
    def test_energy_domain_error(self, h, z, message):
        field = PlanarField.from_strings("-y", "x", hamiltonian=h)
        with pytest.raises(DomainError) as exc:
            field.energy(z)
        assert str(exc.value) == message

    def test_contains(self, pendulum):
        assert pendulum.contains([0.0, 0.0])
        assert not pendulum.contains([10.0, 0.0])

    @pytest.mark.parametrize("q, x", [("sqrt(x)", -1.0), ("log(x)", -1.0),
                                      ("exp(x)", 1000.0), ("x^-1", 0.0)])
    def test_rhs_math_error_is_domain_error(self, q, x):
        # the math functions raise ValueError or OverflowError here
        field = PlanarField.from_strings("-y", q)
        with pytest.raises(DomainError):
            field.rhs(x, 0.0)

    @pytest.mark.parametrize("name", builtin_names())
    def test_rhs_matches_compiled_components(self, name):
        # rhs is generated as one function; each component equals its
        # expression compiled on its own, to the bit
        field = builtin_field(name)
        pf, qf = compile_fn((field.p,)), compile_fn((field.q,))
        for x, y in np.random.default_rng(3).uniform(-3.0, 3.0, size=(200, 2)).tolist():
            px, qy = field.rhs(x, y)
            assert (px.hex(), qy.hex()) == (pf(x, y)[0].hex(), qf(x, y)[0].hex())

    @pytest.mark.parametrize("p, q, z, cause, message", [
        ("-y", "sqrt(x)", (-1.0, 0.0), ValueError,
         "field evaluation failed at (-1.0, 0.0): math domain error"),
        ("x*1e308", "x", (10.0, 0.0), None, "non-finite field value at (10.0, 0.0)"),
        ("x*1e308", "sqrt(y)", (10.0, -1.0), ValueError,
         "field evaluation failed at (10.0, -1.0): math domain error"),
    ], ids=["math-error", "non-finite-p", "non-finite-p-q-raises"])
    def test_rhs_error_messages(self, p, q, z, cause, message):
        with pytest.raises(DomainError) as info:
            PlanarField.from_strings(p, q).rhs(*z)
        assert str(info.value) == message
        assert type(info.value.__cause__) is (cause or type(None))

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown built-in field 'nope'"):
            builtin_field("nope")
        with pytest.raises(ConfigError, match="unknown built-in field 'nope'"):
            default_section_range("nope")

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            PlanarField.from_strings("-y", "x", domain=(1.0, -1.0, 0.0, 1.0))
        with pytest.raises(ConfigError):
            PlanarField.from_strings("-y", "x", domain=(-1.0, 1.0))


class TestFieldText:
    def test_basic(self):
        field = parse_field_text("P = -y\nQ = x\ndomain = [-2, 2, -2, 2]\n")
        assert np.allclose(field.rhs(0.5, 0.25), [-0.25, 0.5])
        assert field.domain == (-2.0, 2.0, -2.0, 2.0)

    def test_comments_and_blanks(self):
        field = parse_field_text("# a field\nP = y\n\nQ = -sin(x)  # rhs\n")
        assert np.allclose(field.rhs(0.0, 1.0), [1.0, 0.0])

    def test_missing_q(self):
        with pytest.raises(ConfigError):
            parse_field_text("P = -y\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_field_text("P = -y\nQ = x\nR = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_field_text("P = -y\nP = y\nQ = x\n")

    def test_bad_domain(self):
        with pytest.raises(ConfigError):
            parse_field_text("P = -y\nQ = x\ndomain = [1, 2]\n")
