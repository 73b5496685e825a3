"""Expression trees for planar vector fields: parsing, evaluation, differentiation.

Grammar (standard precedence; ``^`` is right-associative and binds tighter
than unary minus, so ``-x^2`` means ``-(x^2)``)::

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

The functions are the keys of ``_FUNC_IMPL``: sin, cos, tan, exp, log,
sqrt, abs, and sign, which differentiating ``abs`` produces.  Identifiers
other than the declared variables are rejected at parse time, so no free
names survive into an AST.

Evaluation goes through generated Python code, the :func:`to_source` text
with calls and powers spelled as Python calls: ``compile_fn`` turns a tuple
of ASTs into one function that returns their values (a section's curve,
its first and second derivatives form one such tuple), and each field's P
and Q are fused with their domain and finiteness checks behind
``PlanarField.rhs``.  The same lines (``_evaluation`` inside ``_guarded``)
put P and Q inline at every stage of the field's DOP853 step, which
:mod:`.flow` compiles from its template on the field's first integration.
All generated code is compiled once per text (``_exec``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Union

from .errors import (
    ConfigError,
    DomainError,
    ExpressionError,
    LexicalError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ExprAst",
    "Token",
    "tokenize",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "compile_fn",
    "PlanarField",
    "parse_field_text",
    "field_from_entries",
    "parse_key_values",
    "parse_number_list",
]


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, Neg, Bin, Call]

_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
    "sign": lambda v: float((v > 0.0) - (v < 0.0)),  # sign(0) = 0
}


# --- tokenizer -------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | lparen | rparen | comma
    text: str
    offset: int  # byte offset into the UTF-8 source


# one named group per token kind, after any whitespace
_TOKEN_RE = re.compile(r"""\s*(?:
      (?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
)?""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    """Split source into number/identifier/operator tokens, skipping whitespace."""
    tokens = []
    i = offset = 0  # offset: the UTF-8 byte offset of source[i]
    while True:
        m = _TOKEN_RE.match(source, i)
        kind, end = m.lastgroup, m.end()
        start = m.start(kind) if kind else end
        # skipped whitespace may be non-ASCII; every token is ASCII
        offset += len(source[i:start].encode("utf-8"))
        if kind is None:
            if end == len(source):
                return tokens
            ch = source[end]  # a number needs a digit
            what = "malformed number starting with" if ch == "." else "unexpected character"
            raise LexicalError(f"{what} {ch!r}", offset)
        tokens.append(Token(kind, m.group(kind), offset))
        offset += end - start
        i = end


# --- parser ----------------------------------------------------------------

# The deepest expression ``parse`` accepts.  Depth counts, along any path
# from the root to a leaf, one level per tree node, two more per pair of
# written parentheses (grouping, a call's argument) and two more per call,
# sign or power, though generated code, being the source text, puts a sign
# in parentheses only around a sum or product.  Printing, compiling, hashing
# and differentiating a tree recurse once per node, and the recursive-descent
# parser takes at most five frames per two levels, so all of them stay well
# inside the interpreter's default 1000 frames; the generated code nests at
# most 128 parentheses, below CPython's limit of 200.  A flat sum of 250
# terms, two levels each, is 252 deep.
MAX_DEPTH = 256


class _Parser:
    """Recursive descent over the grammar; each rule returns (node, depth),
    and ``level`` is the depth the enclosing rules add above the current
    position, so a node sits at ``level + depth`` (see ``MAX_DEPTH``)."""

    def __init__(self, source: str, variables: tuple[str, ...]):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.variables = variables
        self.level = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.source.encode("utf-8")))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.offset)

    def _too_deep(self, tok: Token) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.offset)

    def nested(self, extra: int, rule, tok: Token) -> tuple[ExprAst, int]:
        """``rule()`` parsed ``extra`` levels further down, refused at tok
        when even a leaf there would be too deep."""
        self.level += extra
        if self.level + 1 > MAX_DEPTH:
            raise self._too_deep(tok)
        node, depth = rule()
        self.level -= extra
        return node, depth

    def built(self, node: ExprAst, depth: int, tok: Token) -> tuple[ExprAst, int]:
        """(node, depth), refused at tok when the node is too deep."""
        if self.level + depth > MAX_DEPTH:
            raise self._too_deep(tok)
        return node, depth

    def parse(self) -> ExprAst:
        node, _ = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.offset)
        return node

    def expr(self) -> tuple[ExprAst, int]:
        node, depth = self.term()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "+-":
            self.advance()
            right, d = self.nested(1, self.term, tok)
            node, depth = self.built(Bin(tok.text, node, right), max(depth, d) + 1, tok)
        return node, depth

    def term(self) -> tuple[ExprAst, int]:
        node, depth = self.unary()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "*/":
            self.advance()
            right, d = self.nested(1, self.unary, tok)
            node, depth = self.built(Bin(tok.text, node, right), max(depth, d) + 1, tok)
        return node, depth

    def unary(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.advance()
            arg, d = self.nested(3, self.unary, tok)
            return self.built(Neg(arg), d + 3, tok)
        return self.power()

    def power(self) -> tuple[ExprAst, int]:
        node, depth = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.advance()
            right, d = self.nested(3, self.unary, tok)
            return self.built(Bin("^", node, right), max(depth, d) + 3, tok)
        return node, depth

    def atom(self) -> tuple[ExprAst, int]:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} is not finite", tok.offset)
            return Const(value), 1
        if tok.kind == "lparen":
            node, d = self.nested(2, self.expr, tok)
            self.expect("rparen")
            return self.built(node, d + 2, tok)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "lparen":
                if tok.text not in _FUNC_IMPL:
                    raise UnknownFunctionError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                arg, d = self.nested(3, self.expr, tok)
                self.expect("rparen")
                return self.built(Call(tok.text, arg), d + 3, tok)
            if tok.text not in self.variables:
                raise UnknownVariableError(
                    f"unknown variable {tok.text!r} (allowed: {', '.join(self.variables)})",
                    tok.offset,
                )
            return Var(tok.text), 1
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse(source: str, variables: tuple[str, ...] = ("x", "y")) -> ExprAst:
    """Parse source text into an AST over the given variables; an
    expression deeper than ``MAX_DEPTH`` is a ParseError."""
    return _Parser(source, variables).parse()


# --- printing --------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: ExprAst) -> int:
    if isinstance(e, Bin):
        return _PRECEDENCE[e.op]
    if isinstance(e, Neg) or (isinstance(e, Const) and math.copysign(1.0, e.value) < 0):
        return 3  # a negative constant prints with its sign
    return 5


def _source(e: ExprAst, python: bool) -> str:
    """The tree as grammar text, or as the Python the compiler runs: a call
    spelled ``_fn_<name>(...)`` and ``a^b`` as ``_fn_pow(a, b)``.  Python
    ranks a sign above ``*`` and ``/`` as the grammar does, so both place
    parentheses only where precedence needs them and keep every operation
    and its order."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{'_fn_' if python else ''}{e.fn}({_source(e.arg, python)})"
    if isinstance(e, Neg):
        inner = _source(e.arg, python)
        return f"-({inner})" if _prec(e.arg) < 3 else f"-{inner}"
    left, right = _source(e.left, python), _source(e.right, python)
    if e.op == "^" and python:
        return f"_fn_pow({left}, {right})"
    # ^ groups to the right and the others to the left, so an operand of the
    # same rank needs parentheses on the other side
    p, rightward = _PRECEDENCE[e.op], e.op == "^"
    if _prec(e.left) < p + rightward:
        left = f"({left})"
    if _prec(e.right) < p + (not rightward):
        right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"


def to_source(e: ExprAst) -> str:
    """Render an AST as parseable text.  Reparsing the text of a tree that
    :func:`parse` returned yields an identical tree; any other tree reparses
    to one of the same value (``differentiate`` folds negative constants, so
    ``0.5*x^(-0.5)`` reparses with ``Neg(Const(0.5))`` for ``Const(-0.5)``)."""
    return _source(e, python=False)


# --- compilation and evaluation ---------------------------------------------

# raised by compiled expressions outside their real domain (sqrt(-1), exp(1000))
_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


@lru_cache(maxsize=None)
def _exec(src: str, name: str) -> Callable:
    """Define ``name`` by executing generated source, with the function
    implementations the emitted code calls in its namespace.  Cached by the
    text, not the trees: ``Const(-0.0) == Const(0.0)``, but their texts and
    results differ.  Text nested deeper than the 200 parentheses CPython
    compiles (a section's second derivatives can be) is an ExpressionError."""
    nesting = max(accumulate((c == "(") - (c == ")") for c in src))
    if nesting > 200:
        raise ExpressionError(f"expression too deep to compile: {nesting} nested "
                              "parentheses, above Python's limit of 200")
    ns = {f"_fn_{fn}": impl for fn, impl in _FUNC_IMPL.items()}
    ns["_fn_pow"] = math.pow
    ns.update(_MATH_ERRORS=_MATH_ERRORS, DomainError=DomainError, _isfinite=math.isfinite)
    exec(compile(src, "<field-expr>", "exec"), ns)
    return ns[name]


def compile_fn(exprs: tuple[ExprAst, ...],
               variables: tuple[str, ...] = ("x", "y")) -> Callable[..., tuple[float, ...]]:
    """Compile a tuple of ASTs into one plain positional-argument function
    that returns their values as a tuple of floats.

    The emitted code performs exactly the arithmetic of each tree (same
    operations in the same order), so results are bit-identical across
    calls.  Domain failures surface as one of ``_MATH_ERRORS``, which
    :func:`evaluate` maps to DomainError.
    """
    values = "".join(f"{_source(e, python=True)}, " for e in exprs)
    return _exec(f"def _compiled({', '.join(variables)}):\n    return ({values})\n",
                 "_compiled")


def _evaluation(p: ExprAst, q: ExprAst, kx: str, ky: str) -> list[str]:
    """Lines that set ``kx`` and ``ky`` to P and Q at (x, y), with a
    non-finite value raised as DomainError."""
    return [f"{kx} = {_source(p, python=True)}",
            f"{ky} = {_source(q, python=True)}",
            f"if not (_isfinite({kx}) and _isfinite({ky})):",
            "    raise DomainError(f'non-finite field value at ({x}, {y})')"]


def _guarded(name: str, params: str, lines: list[str]) -> str:
    """Source of ``def name(params)`` that runs ``lines`` in one try block,
    with a math-domain failure raised as DomainError at the point (x, y)
    being evaluated."""
    body = "".join(f"        {line}\n" for line in lines)
    return (f"def {name}({params}):\n    try:\n{body}"
            "    except _MATH_ERRORS as exc:\n"
            "        raise DomainError(f'field evaluation failed at ({x}, {y}): {exc}') from exc\n")


def evaluate(e: ExprAst, x: float, y: float) -> float:
    """Evaluate at (x, y) in IEEE double; non-finite results raise DomainError."""
    fn = compile_fn((e,), ("x", "y"))
    try:
        v, = fn(float(x), float(y))
    except _MATH_ERRORS as exc:
        raise DomainError(f"evaluation failed at ({x}, {y}): {exc}") from exc
    if not math.isfinite(v):
        raise DomainError(f"non-finite result {v} at ({x}, {y})")
    return v


# --- differentiation --------------------------------------------------------

def _is_const(e: ExprAst, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _fold(op: str, a: ExprAst, b: ExprAst, value: Callable[[float, float], float]) -> ExprAst:
    """Const(value) of two constants when finite; otherwise the operation
    stays, so that no non-finite constant reaches generated code."""
    if isinstance(a, Const) and isinstance(b, Const):
        v = value(a.value, b.value)
        if math.isfinite(v):
            return Const(v)
    return Bin(op, a, b)


def _add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold("+", a, b, lambda u, v: u + v)


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0) and not isinstance(b, Const):
        return Neg(b)
    return _fold("-", a, b, lambda u, v: u - v)


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold("*", a, b, lambda u, v: u * v)


def _div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Bin("/", a, b)


def _pow(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return Bin("^", a, b)


# each function's derivative, as a tree in its argument u
_OUTER_DERIVATIVE = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _div(Const(1.0), _pow(Call("cos", u), Const(2.0))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _div(Const(1.0), u),
    "sqrt": lambda u: _div(Const(1.0), _mul(Const(2.0), Call("sqrt", u))),
    "abs": lambda u: Call("sign", u),
    "sign": lambda u: Const(0.0),
}


def differentiate(e: ExprAst, var: str) -> ExprAst:
    """Symbolic partial derivative with respect to ``var``.

    Only literal constant arithmetic is folded; the result is compared
    pointwise against finite differences in the test suite rather than
    simplified.  ``abs`` differentiates to ``sign`` with sign(0) = 0.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        d = differentiate(e.arg, var)
        return Const(-d.value) if isinstance(d, Const) else Neg(d)
    if isinstance(e, Bin):
        u, v = e.left, e.right
        du, dv = differentiate(u, var), differentiate(v, var)
        if e.op == "+":
            return _add(du, dv)
        if e.op == "-":
            return _sub(du, dv)
        if e.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if e.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Const(2.0)))
        # power: use the plain rule for constant exponents so polynomial
        # derivatives never introduce log(u)
        if isinstance(v, Const):
            return _mul(_mul(v, _pow(u, Const(v.value - 1.0))), du)
        logterm = _add(_mul(dv, Call("log", u)), _div(_mul(v, du), u))
        return _mul(_pow(u, v), logterm)
    assert isinstance(e, Call)
    return _mul(_OUTER_DERIVATIVE[e.fn](e.arg), differentiate(e.arg, var))


# --- planar fields -----------------------------------------------------------

_DEFAULT_DOMAIN = (-100.0, 100.0, -100.0, 100.0)


class PlanarField:
    """An autonomous planar vector field (P(x,y), Q(x,y)).

    Immutable after construction; evaluation is reentrant.  ``domain`` is the
    working box (xmin, xmax, ymin, ymax), edges included, that integration
    must stay inside.  ``hamiltonian`` is an optional first integral, used
    by the energy-invariance check of the built-in examples.
    """

    def __init__(
        self,
        p: ExprAst,
        q: ExprAst,
        *,
        name: str = "field",
        domain: tuple[float, float, float, float] = _DEFAULT_DOMAIN,
        hamiltonian: ExprAst | None = None,
    ):
        self.name = name
        self.p = p
        self.q = q
        self.domain = tuple(float(v) for v in domain)
        if len(self.domain) != 4:
            raise ConfigError(f"domain needs 4 numbers, got {len(self.domain)}")
        if not (self.domain[0] < self.domain[1] and self.domain[2] < self.domain[3]):
            raise ConfigError(f"degenerate domain box {self.domain}")
        self.hamiltonian = hamiltonian
        self._rhs = _exec(_guarded("_rhs", "x, y",
                                   [*_evaluation(p, q, "px", "qy"), "return px, qy"]), "_rhs")
        # the field's DOP853 step, compiled by flow on its first integration
        self._step = None

    @classmethod
    def from_strings(
        cls,
        p: str,
        q: str,
        *,
        name: str = "field",
        domain: tuple[float, float, float, float] = _DEFAULT_DOMAIN,
        hamiltonian: str | None = None,
    ) -> "PlanarField":
        h = parse(hamiltonian) if hamiltonian is not None else None
        return cls(parse(p), parse(q), name=name, domain=domain, hamiltonian=h)

    def __repr__(self):
        return f"PlanarField({self.name!r}: P={to_source(self.p)}, Q={to_source(self.q)})"

    def rhs(self, x: float, y: float) -> tuple[float, float]:
        """Right-hand side V(x, y) = (P, Q), as two floats, through one
        generated function that evaluates P and Q.  Math-domain failures and
        non-finite values raise DomainError.

        Passed to ``flow.integrate``, this method selects the field's own
        generated step, which evaluates P and Q inline and does not call it;
        any other callable, a wrapper of this method included, is called at
        every stage.
        """
        return self._rhs(x, y)

    def energy(self, z) -> float | None:
        """H(z) through :func:`evaluate`, or None without a first integral;
        math-domain failures and non-finite values raise DomainError."""
        if self.hamiltonian is None:
            return None
        return evaluate(self.hamiltonian, float(z[0]), float(z[1]))


def parse_key_values(text: str, prefix: str) -> dict[str, str]:
    """The ``key = value`` lines of a config or field text.

    ``#`` starts a comment and blank lines are skipped.  A line without
    ``=`` or a repeated key raises ConfigError, located as ``prefix``
    followed by the line number (``"line "`` or ``"<path>:"``).
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{prefix}{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"{prefix}{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_number_list(text: str, what: str) -> list[float]:
    """A bracketed, comma-separated number list; empty entries are skipped,
    so a trailing comma is allowed."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ConfigError(f"{what}: expected a bracketed list, got {text!r}")
    try:
        return [float(p.strip()) for p in body[1:-1].split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what}: bad number ({exc})") from exc


def parse_field_text(text: str, name: str = "field") -> PlanarField:
    """Parse the field definition format: ``P = <expr>``, ``Q = <expr>``,
    optional ``domain = [xmin, xmax, ymin, ymax]``, one entry per line.
    ``#`` starts a comment."""
    entries = parse_key_values(text, "line ")
    unknown = set(entries) - {"P", "Q", "domain"}
    if unknown:
        raise ConfigError(f"unknown field keys: {sorted(unknown)}")
    return field_from_entries(entries, name)


def field_from_entries(entries: dict[str, str], name: str) -> PlanarField:
    """The field of the ``P``, ``Q`` and optional ``domain`` entries; others are ignored."""
    for required in ("P", "Q"):
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")
    domain = _DEFAULT_DOMAIN
    if "domain" in entries:
        domain = parse_number_list(entries["domain"], "domain")
    return PlanarField.from_strings(entries["P"], entries["Q"], name=name, domain=domain)
