import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chenfliess.expressions import (
    Constant,
    ExprSyntaxError,
    Power,
    Primitive,
    Product,
    Sum,
    UnknownPrimitiveError,
    Var,
    VariableIndexError,
    eval_expr,
    get_primitive,
    parse_expr,
    power,
    simplify,
    to_text,
)
from chenfliess.lie import differentiate

from conftest import sympy_sigma


# ---------------------------------------------------------------------------
# parsing


def test_parse_atom_variable():
    assert parse_expr("x1", 2) == Var(1)


def test_parse_grammar_exercise():
    e = parse_expr("2*x1 + x2^2", 2)
    # canonical ordering may permute the two summands
    assert isinstance(e, Sum)
    assert set(e.terms) == {Product((Constant(2.0), Var(1))), Power(Var(2), 2)}


def test_parse_primitive_application():
    assert parse_expr("sigma(x2)", 2) == Primitive("sigma", 0, Var(2))


def test_parse_prime_suffix_orders():
    assert parse_expr("sigma''(x1)", 1) == Primitive("sigma", 2, Var(1))


def test_parse_precedence_unary_minus_vs_power():
    # ^ binds tighter than unary minus
    assert eval_expr(parse_expr("-x1^2", 1), (3.0,)) == -9.0


def test_parse_left_associativity():
    assert eval_expr(parse_expr("5 - 3 - 1", 1), (0.0,)) == 1.0


def test_parse_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + ?", 1)
    assert err.value.offset == 5


def test_parse_unknown_primitive():
    with pytest.raises(UnknownPrimitiveError):
        parse_expr("gauss(x1)", 1)


def test_parse_variable_out_of_range():
    with pytest.raises(VariableIndexError):
        parse_expr("x3", 2)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^2.5", 1)


# ---------------------------------------------------------------------------
# differentiation


def test_differentiate_product_rule_single_term():
    e = Product((Var(1), Var(2)))
    assert differentiate(e, 1) == Var(2)


def test_differentiate_constant():
    assert differentiate(Constant(3.0), 1) == Constant(0.0)


def test_differentiate_primitive_chain_rule():
    e = Primitive("sigma", 0, Var(2))
    assert differentiate(e, 2) == Primitive("sigma", 1, Var(2))


def test_differentiate_power_rule():
    e = Power(Var(1), 3)
    d = differentiate(e, 1)
    assert eval_expr(d, (2.0,)) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_sum():
    assert eval_expr(Sum((Var(1), Var(2))), (1.0, 2.0)) == 3.0


def test_eval_power():
    assert eval_expr(Power(Var(1), 3), (2.0, 5.0)) == 8.0


def test_eval_power_saturates_silently_at_a_point_and_in_a_batch():
    x = np.array([1e200, -1e200, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, signs in ((3, (1, -1)), (4, (1, 1))):
            got = power(x, k)
            assert list(got[:2]) == [s * math.inf for s in signs]
            assert got[2] == 2.0**k
            assert [eval_expr(Power(Var(1), k), (v,)) for v in x] == list(got)


def test_eval_parsed_hand_arithmetic():
    # 2*1.5 + 2^2 = 7
    assert eval_expr(parse_expr("2*x1 + x2^2", 2), (1.5, 2.0)) == pytest.approx(7.0)


def test_eval_dimension_error():
    with pytest.raises(VariableIndexError):
        eval_expr(Var(3), (1.0, 2.0))
    with pytest.raises(VariableIndexError):
        eval_expr(Var(3), np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# simplification


def test_simplify_zero_product():
    assert simplify(Product((Constant(0.0), Var(1)))) == Constant(0.0)


def test_simplify_zero_summand():
    assert simplify(Sum((Var(1), Constant(0.0)))) == Var(1)


def test_simplify_constant_folding():
    e = simplify(Product((Constant(2.0), Constant(3.0), Var(1))))
    assert e == Product((Constant(6.0), Var(1)))


def test_simplify_keeps_construction_order():
    # no sort: children stay in the order they were built, and only a
    # folded constant moves to the front
    assert to_text(simplify(Sum((Var(2), Var(1))))) == "x2 + x1"
    e = Product((Var(2), Constant(2.0), Product((Var(1), Constant(3.0)))))
    assert simplify(e) == Product((Constant(6.0), Var(2), Var(1)))
    e = Sum((Power(Var(1), 10), Constant(1.0), Power(Var(1), 2)))
    assert to_text(simplify(e)) == "1 + x1^10 + x1^2"


def test_simplify_power_edge_cases():
    assert simplify(Power(Var(1), 0)) == Constant(1.0)
    assert simplify(Power(Var(1), 1)) == Var(1)
    assert simplify(Power(Constant(2.0), 3)) == Constant(8.0)


# ---------------------------------------------------------------------------
# property tests

_names = st.sampled_from(["sigma", "tanh"])


def expr_strategy(n=2, max_order=2):
    atoms = st.one_of(
        st.integers(1, n).map(Var),
        st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: Constant(float(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Sum(ab)),
            st.tuples(children, children).map(lambda ab: Product(ab)),
            st.tuples(children, st.integers(0, 3)).map(lambda be: Power(*be)),
            st.tuples(_names, st.integers(0, max_order), children).map(
                lambda t: Primitive(*t)
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


points = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@given(expr_strategy(), points)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_evaluation(e, x):
    a = eval_expr(e, x)
    b = eval_expr(simplify(e), x)
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


@given(expr_strategy(), points)
@settings(max_examples=200, deadline=None)
def test_eval_at_a_point_returns_a_python_float(e, x):
    v = eval_expr(e, x)
    assert type(v) is float
    w = eval_expr(e, np.array(x))
    assert type(w) is float
    assert w == v or (math.isnan(v) and math.isnan(w))


@given(expr_strategy(), points)
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(e, x):
    s = simplify(e)
    assert simplify(s) == s


@given(expr_strategy(), points, st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_derivative_matches_central_differences(e, x, j):
    h = 1e-5
    d = eval_expr(differentiate(e, j), x)
    xp = list(x)
    xm = list(x)
    xp[j - 1] += h
    xm[j - 1] -= h
    fd = (eval_expr(e, xp) - eval_expr(e, xm)) / (2.0 * h)
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def _sympy(e, xs):
    """The Expr e as a sympy expression over the symbols xs, with exact
    rational constants and closed-form primitives."""
    import sympy as sp

    if isinstance(e, Constant):
        return sp.Rational(e.value)
    if isinstance(e, Var):
        return xs[e.index - 1]
    if isinstance(e, Sum):
        return sp.Add(*(_sympy(t, xs) for t in e.terms))
    if isinstance(e, Product):
        return sp.Mul(*(_sympy(f, xs) for f in e.factors))
    if isinstance(e, Power):
        return _sympy(e.base, xs) ** e.exponent
    s = sp.Symbol("s")
    f = {"sigma": sympy_sigma, "tanh": sp.tanh}[e.name](s)
    return sp.diff(f, s, e.order).subs(s, _sympy(e.arg, xs))


@given(expr_strategy(), points, st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_derivative_matches_sympy(e, x, j):
    # expanded polynomials cancel, so the tolerance scales with the terms
    import mpmath
    import sympy as sp

    xs = sp.symbols("x1:3")
    want_expr = sp.diff(_sympy(e, xs), xs[j - 1])
    with mpmath.workdps(40):
        want = float(sp.lambdify(xs, want_expr, "mpmath")(*map(mpmath.mpf, x)))
    d = differentiate(e, j)
    terms = d.terms if isinstance(d, Sum) else (d,)
    scale = 1.0 + math.fsum(abs(eval_expr(t, x)) for t in terms)
    assert abs(eval_expr(d, x) - want) <= 1e-12 * scale


@given(expr_strategy(), points)
@settings(max_examples=200, deadline=None)
def test_pretty_print_round_trips(e, x):
    text = to_text(simplify(e))
    back = parse_expr(text, 2)
    assert eval_expr(back, x) == pytest.approx(eval_expr(e, x), rel=1e-12, abs=1e-12)


def test_simplify_order_is_the_same_in_every_process():
    # child order must not depend on hash() or id(), which vary by process
    import chenfliess

    script = ("from chenfliess import LieTable, builtin_system\n"
              "from chenfliess.expressions import to_text\n"
              "table = LieTable(builtin_system('hopfield2').spec)\n"
              "print(to_text(table.entry((2, 4, 3))))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(chenfliess.__file__)))
    texts = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        texts.append(out.stdout)
    assert texts[0] == texts[1]
    assert "sigma" in texts[0]


# ---------------------------------------------------------------------------
# primitives


@given(_names, st.integers(0, 6), st.floats(-4.0, 4.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_magnitude_bound_dominates_samples(name, order, x):
    spec = get_primitive(name)
    assert abs(spec.evaluate(order, x)) <= spec.magnitude_bound(order, (-4.0, 4.0))


@pytest.mark.parametrize("name", ["sigma", "tanh"])
def test_growth_constants_dominate_sampled_sups(name):
    # dense-grid check of sup |f^(k)| <= b a^k k! for the shipped defaults
    spec = get_primitive(name)
    a, b = spec.growth
    xs = [i / 50.0 for i in range(-1000, 1001)]
    for k in range(0, 11):
        sup = max(abs(spec.evaluate(k, x)) for x in xs)
        assert sup <= b * a**k * math.factorial(k) * (1 + 1e-12)


@pytest.mark.parametrize("name, y, strip_sup", [
    ("sigma", 3.0, 1.0 / math.sin(3.0)),
    ("tanh", 1.4, math.tan(1.4)),
])
def test_growth_constants_follow_from_the_strip_bound(name, y, strip_sup):
    # Cauchy's estimate on circles of radius y inside |Im z| <= y (below the
    # first pole) gives sup |f^(k)| <= strip_sup k!/y^k; the shipped (a, b)
    # are claims only if b >= strip_sup and a >= 1/y
    z = np.linspace(-40.0, 40.0, 80001)[None, :] + np.array([[y], [-y]]) * 1j
    f = 1.0 / (1.0 + np.exp(-z)) if name == "sigma" else np.tanh(z)
    sup = float(np.max(np.abs(f)))
    assert strip_sup * (1 - 1e-6) < sup <= strip_sup * (1 + 1e-12)
    a, b = get_primitive(name).growth
    assert b >= strip_sup and a >= 1.0 / y


def test_logistic_low_order_values():
    spec = get_primitive("sigma")
    assert spec.evaluate(0, 0.0) == pytest.approx(0.5)
    assert spec.evaluate(1, 0.0) == pytest.approx(0.25)
    # f'' = f'(1-2f): at 0 -> 0.25 * 0 = 0
    assert spec.evaluate(2, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", ["sigma", "tanh"])
def test_primitives_act_elementwise_on_arrays(name):
    spec = get_primitive(name)
    xs = np.linspace(-40.0, 40.0, 161)
    for k in range(0, 5):
        got = spec.evaluate(k, xs)
        assert got.shape == xs.shape
        for x, v in zip(xs, got):
            want = spec.evaluate(k, float(x))
            assert abs(v - want) <= 1e-13 * (1.0 + abs(want))


def test_tanh_low_order_values():
    spec = get_primitive("tanh")
    assert spec.evaluate(0, 0.0) == pytest.approx(0.0)
    assert spec.evaluate(1, 0.0) == pytest.approx(1.0)
    assert spec.evaluate(1, 1.0) == pytest.approx(1.0 / math.cosh(1.0) ** 2)
