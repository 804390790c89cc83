"""Symbolic scalar expressions over state variables x1..xn.

Expression trees are the language of the library: vector field
components and output maps are Expr values, parsed from and printed to
the DSL, simplified and evaluated at one point. Derivatives are computed
on canonical polynomials in chenfliess.lie (differentiate,
lie_derivative) and rendered back as Expr. Analytic nonlinearities
(sigmoid, tanh, ...) enter through a registry of primitives that can
evaluate and bound any derivative order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ExprError(ValueError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text. ``offset`` is the 0-based position of the
    offending character (byte offset for the ASCII grammar)."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownPrimitiveError(ExprError):
    pass


class VariableIndexError(ExprError):
    pass


# ---------------------------------------------------------------------------
# Node types


@dataclass(frozen=True)
class Expr:
    """Immutable expression node. Subclasses are the only valid nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int  # integer >= 0; general powers go through primitives


@dataclass(frozen=True)
class Primitive(Expr):
    """A registered analytic function applied at derivative order ``order``.

    ``Primitive("sigma", 2, arg)`` denotes sigma''(arg). Orders are data,
    not new function names, so the chain rule stays closed under
    differentiation at any depth.
    """

    name: str
    order: int
    arg: Expr


ZERO = Constant(0.0)
ONE = Constant(1.0)


# ---------------------------------------------------------------------------
# Primitive registry


@dataclass(frozen=True)
class PrimitiveSpec:
    """Evaluation and bounding rules for one analytic primitive.

    ``evaluate(order, x)`` returns the order-th derivative at x: a float
    for a float x, and elementwise an array of the same shape for a 1-D
    float array x (the feature kernel ``LieTable.evaluate`` at many points
    passes one).
    ``magnitude_bound(order, interval)`` returns an upper bound on
    |f^(order)| over the interval (bounds here are global over R, the
    interval argument is accepted for future tightening).
    ``growth = (a, b)`` are constants with sup |f^(k)| <= b * a^k * k!,
    shipped as documented defaults and freely overridable per instance.
    """

    name: str
    evaluate: Callable[[int, float], float]
    magnitude_bound: Callable[[int, tuple], float]
    growth: tuple

    def with_growth(self, a, b):
        return PrimitiveSpec(self.name, self.evaluate, self.magnitude_bound, (a, b))


_REGISTRY: dict = {}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_VAR_RE = re.compile(r"x([0-9]+)\Z")


def register_primitive(spec, overwrite=False):
    if not _NAME_RE.match(spec.name) or _VAR_RE.match(spec.name):
        raise ExprError(f"invalid primitive name {spec.name!r}")
    if spec.name in _REGISTRY and not overwrite:
        raise ExprError(f"primitive {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def get_primitive(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPrimitiveError(f"unknown primitive {name!r}") from None


def registered_primitives():
    return dict(_REGISTRY)


# Derivatives of the logistic function are integer polynomials in s = sigma(x)
# (from s' = s - s^2); tanh derivatives are integer polynomials in t = tanh(x)
# (from t' = 1 - t^2). Coefficient lists are cached per order.


def _poly_derivative(coeffs):
    return [j * c for j, c in enumerate(coeffs)][1:] or [0]


def _poly_multiply(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class _SelfPolynomialPrimitive:
    """Primitive whose derivatives are polynomials in its own value."""

    def __init__(self, base_value, base_poly, chain_poly):
        self._value = base_value
        self._polys = [list(base_poly)]
        self._chain = list(chain_poly)

    def _poly(self, order):
        while len(self._polys) <= order:
            self._polys.append(
                _poly_multiply(_poly_derivative(self._polys[-1]), self._chain)
            )
        return self._polys[order]

    def evaluate(self, order, x):
        if order < 0:
            raise ExprError("derivative order must be >= 0")
        return _poly_eval(self._poly(order), self._value(x))

    def magnitude_bound(self, order, interval=None):
        # The self-value lies in [-1, 1] for both shipped primitives, so the
        # coefficient sum is a valid (coarse) global bound.
        return float(sum(abs(c) for c in self._poly(order)))


def _logistic(x):
    if isinstance(x, np.ndarray):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _tanh(x):
    return np.tanh(x) if isinstance(x, np.ndarray) else math.tanh(x)


# Growth constants via Cauchy's estimate on a horizontal strip: the logistic
# function has poles at +/- i*pi and |sigma| <= 1/sin(3) on |Im z| <= 3, so
# sup |sigma^(k)| <= 7.1 * k!/3^k; tanh has poles at +/- i*pi/2 and
# |tanh| <= tan(1.4) on |Im z| <= 1.4, so sup |tanh^(k)| <= 5.8 * k!/1.4^k.
# Proved for these shipped constants; PrimitiveSpec.with_growth sets the user's.
LOGISTIC_GROWTH = (0.34, 7.1)
TANH_GROWTH = (0.72, 5.8)

_logistic_impl = _SelfPolynomialPrimitive(_logistic, [0, 1], [0, 1, -1])
_tanh_impl = _SelfPolynomialPrimitive(_tanh, [0, 1], [1, 0, -1])

register_primitive(
    PrimitiveSpec(
        "sigma", _logistic_impl.evaluate, _logistic_impl.magnitude_bound, LOGISTIC_GROWTH
    )
)
register_primitive(
    PrimitiveSpec("tanh", _tanh_impl.evaluate, _tanh_impl.magnitude_bound, TANH_GROWTH)
)


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(e, x):
    """Evaluate ``e`` in float arithmetic at the point ``x`` (a sequence
    indexed by x1..xn); sums are compensated (math.fsum)."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        if e.index > len(x):
            raise VariableIndexError(
                f"x{e.index} out of range for point of dimension {len(x)}"
            )
        return float(x[e.index - 1])
    if isinstance(e, Sum):
        return math.fsum(eval_expr(t, x) for t in e.terms)
    if isinstance(e, Product):
        acc = 1.0
        for f in e.factors:
            acc *= eval_expr(f, x)
        return acc
    if isinstance(e, Power):
        return power(eval_expr(e.base, x), e.exponent)
    if isinstance(e, Primitive):
        return get_primitive(e.name).evaluate(e.order, eval_expr(e.arg, x))
    raise ExprError(f"not an expression node: {e!r}")


def power(base, exponent):
    """base**exponent for a float or an array base; overflow saturates to
    +/-inf, so integrator blow-up detection sees the sign."""
    if isinstance(base, np.ndarray):
        with np.errstate(over="ignore"):  # saturates to +/-inf as below
            return base**exponent
    try:
        return base**exponent
    except OverflowError:
        return math.inf if base > 0 or exponent % 2 == 0 else -math.inf


def max_var_index(e):
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Sum):
        return max((max_var_index(t) for t in e.terms), default=0)
    if isinstance(e, Product):
        return max((max_var_index(f) for f in e.factors), default=0)
    if isinstance(e, Power):
        return max_var_index(e.base)
    if isinstance(e, Primitive):
        return max_var_index(e.arg)
    return 0


# ---------------------------------------------------------------------------
# Simplification

def simplify(e):
    """Syntactic clean-up: constant folding, zero/one elimination and
    flattening of nested sums and products. A folded constant leads its
    sum or product; the other children keep their construction order.

    Idempotent and evaluation-equivalent, but not a normal form: it does
    not reorder, factor, expand or collect like terms, so cost stays
    predictable.
    """
    if isinstance(e, (Constant, Var)):
        return e
    if isinstance(e, Sum):
        terms = []
        const = 0.0
        for t in e.terms:
            t = simplify(t)
            if isinstance(t, Sum):
                inner = t.terms
            else:
                inner = (t,)
            for u in inner:
                if isinstance(u, Constant):
                    const += u.value
                else:
                    terms.append(u)
        if const != 0.0:
            terms.insert(0, Constant(const))
        if not terms:
            return ZERO
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))
    if isinstance(e, Product):
        factors = []
        const = 1.0
        for f in e.factors:
            f = simplify(f)
            if isinstance(f, Product):
                inner = f.factors
            else:
                inner = (f,)
            for u in inner:
                if isinstance(u, Constant):
                    const *= u.value
                else:
                    factors.append(u)
        if const == 0.0:
            return ZERO
        if const != 1.0:
            factors.insert(0, Constant(const))
        if not factors:
            return ONE
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))
    if isinstance(e, Power):
        if e.exponent < 0:
            raise ExprError("Power exponent must be a nonnegative integer")
        base = simplify(e.base)
        if e.exponent == 0:
            return ONE
        if e.exponent == 1:
            return base
        if isinstance(base, Constant):
            return Constant(base.value**e.exponent)
        return Power(base, e.exponent)
    if isinstance(e, Primitive):
        return Primitive(e.name, e.order, simplify(e.arg))
    raise ExprError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (precedence ^ > unary - > * > binary + -, with + - and * left
# associative; ^ takes a literal nonnegative integer exponent):
#
#   expr    := term (('+' | '-') term)*
#   term    := factor ('*' factor)*
#   factor  := '-' factor | power
#   power   := atom ('^' INT)?
#   atom    := NUMBER | VAR | NAME PRIME* '(' expr ')' | '(' expr ')'
#
# VAR is x1, x2, ...; NAME is a registered primitive; PRIME is an
# apostrophe raising the derivative order (so pretty-printed derivative
# primitives round-trip).

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                if value == "-":
                    rhs = Product((Constant(-1.0), rhs))
                e = Sum((e, rhs))
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                e = Product((e, self.factor()))
            else:
                return e

    def factor(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Product((Constant(-1.0), self.factor()))
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "number" or not re.fullmatch(r"\d+", value):
                raise ExprSyntaxError("exponent must be a nonnegative integer", offset)
            self.advance()
            return Power(base, int(value))
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            return Constant(float(value))
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            name = value.rstrip("'")
            order = len(value) - len(name)
            var = _VAR_RE.match(name)
            if var and order == 0:
                index = int(var.group(1))
                if not 1 <= index <= self.n:
                    raise VariableIndexError(
                        f"variable x{index} out of range for n={self.n}"
                    )
                return Var(index)
            if name not in _REGISTRY:
                raise UnknownPrimitiveError(
                    f"unknown primitive {name!r} at offset {offset}"
                )
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Primitive(name, order, arg)
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse_expr(text, n):
    """Parse the vector-field DSL into a simplified Expr over x1..xn."""
    return simplify(_Parser(text, n).parse())


# ---------------------------------------------------------------------------
# Pretty printing


def _fmt_constant(v):
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e):
    """Render an Expr in the DSL grammar; parse_expr(to_text(e), n) is
    evaluation-equivalent to e."""
    if isinstance(e, Constant):
        return _fmt_constant(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Sum):
        parts = [to_text(t) for t in e.terms]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = to_text(f)
            if isinstance(f, Sum):
                s = f"({s})"
            elif s.startswith("-") and parts:
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Power):
        s = to_text(e.base)
        if isinstance(e.base, (Sum, Product, Power)) or s.startswith("-"):
            s = f"({s})"
        return f"{s}^{e.exponent}"
    if isinstance(e, Primitive):
        return f"{e.name}{chr(39) * e.order}({to_text(e.arg)})"
    raise ExprError(f"not an expression node: {e!r}")
