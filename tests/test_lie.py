import math
import re
import time

import numpy as np
import pytest

from chenfliess import (
    Dataset,
    LieTable,
    ResourceCapError,
    bilinear_system,
    builtin_system,
    chen_fliess_eval,
    constant_path,
    differentiate,
    domain_grid,
    erm_fit,
    feature_matrix,
    iterated_lie,
    lambda_k,
    lie_derivative,
    signature_matrix,
    system_from_exprs,
    words_of_length,
    words_up_to,
)
from chenfliess.expressions import (
    Primitive,
    Product,
    Var,
    eval_expr,
    parse_expr,
    to_text,
)

from chenfliess.lie import _halton, _Ring, polynomial, render

from conftest import bilinear_lie_oracle, sympy_sigma


# ---------------------------------------------------------------------------
# words


def test_word_count_is_m_to_the_k():
    for m in (1, 2, 3):
        for k in (0, 1, 2, 3):
            assert len(list(words_of_length(m, k))) == m**k


def test_words_up_to_length_lex_order():
    ws = words_up_to(2, 2)
    assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_empty_word_distinct_from_length_one():
    assert () not in list(words_of_length(2, 1))


# ---------------------------------------------------------------------------
# lie_derivative


def test_lie_derivative_linear_output_reads_field():
    # c = (1, 0), g = (x2, 0): L_g c^T x = c^T g = x2
    g = (parse_expr("x2", 2), parse_expr("0", 2))
    assert lie_derivative(Var(1), g) == Var(2)


def test_lie_derivative_matrix_oracle():
    # g = A x with A = [[0,1],[-1,0]]: L_g x1 = (A x)_1 = x2
    g = (parse_expr("x2", 2), parse_expr("-x1", 2))
    assert lie_derivative(Var(1), g) == Var(2)


def test_lie_derivative_primitive_field():
    g = (Primitive("sigma", 0, Var(1)), parse_expr("0", 2))
    assert lie_derivative(Var(1), g) == Primitive("sigma", 0, Var(1))


# ---------------------------------------------------------------------------
# iterated_lie


def test_empty_word_is_output_map():
    sys = bilinear_system([np.eye(2)], c=(1.0, 0.0), r=1.0, M=1.0, T=1.0)
    table = LieTable(sys)
    assert iterated_lie(table, ()) == Var(1)


def test_bilinear_entries_match_ordered_matrix_product():
    rng = np.random.default_rng(5)
    A = [rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]
    c = (0.3, -1.1)
    sys = bilinear_system(A, c=c, r=1.0, M=1.0, T=1.0)
    table = LieTable(sys)
    for k in range(0, 5):
        for w in words_of_length(2, k):
            e = table.entry(w)
            for _ in range(3):
                x = rng.uniform(-1, 1, size=2)
                want = bilinear_lie_oracle(A, c, w, x)
                assert eval_expr(e, x) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_scalar_bilinear_closed_form():
    # n = m = 1, g = a x: entry for |w| = k is a^k x (up to rounding in the
    # folded constant)
    a = 1.7
    sys = system_from_exprs(1, 1, [[f"{a}*x1"]], (1.0,), r=1.0, M=1.0, T=1.0)
    table = LieTable(sys)
    for k in range(6):
        e = table.entry((1,) * k)
        assert eval_expr(e, (1.0,)) == pytest.approx(a**k, rel=1e-12)
        if k > 0:
            assert isinstance(e, Product) and e.factors[1] == Var(1)


def test_prefix_consistency():
    rng = np.random.default_rng(9)
    A = [rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]
    sys = bilinear_system(A, c=(1.0, 0.5), r=1.0, M=1.0, T=1.0)
    table = LieTable(sys)
    for w in words_up_to(2, 3):
        for i in (1, 2):
            direct = lie_derivative(table.entry(w), sys.g[i - 1])
            assert table.entry(w + (i,)) == direct


def test_lie_table_size_formula():
    sys = bilinear_system(
        [np.eye(2), np.ones((2, 2))], c=(1.0, 0.0), r=1.0, M=1.0, T=1.0
    )
    table = LieTable(sys)
    for K in range(0, 5):
        table.ensure_depth(K)
        assert len(table) == (2 ** (K + 1) - 1) // (2 - 1)


def test_lie_table_growth_budget():
    # best of three fresh tables on a 2-vCPU x86_64 Xeon: analytic1d K=10
    # in about 0.17 ms, hopfield2 depth 6 in about 0.017 s; each budget
    # fails a slowdown of 10x (the expression trees took 1.2 s and 0.85 s)
    for name, K, budget, entries in (("analytic1d", 10, 0.0015, 11),
                                     ("hopfield2", 6, 0.15, 5461)):
        spec = builtin_system(name).spec
        best = math.inf
        for _ in range(3):
            table = LieTable(spec)
            t0 = time.perf_counter()
            table.ensure_depth(K)
            best = min(best, time.perf_counter() - t0)
        assert best < budget, name
        assert len(table) == entries


def _key(p):
    # a polynomial by atom keys, comparable across tables
    return tuple((tuple((a.key, e) for a, e in m), c) for m, c in p)


def test_zero_entries_share_one_row_and_are_never_differentiated(monkeypatch):
    sys = builtin_system("hopfield2").spec
    words = words_up_to(sys.m, 6)
    # the same ring operation along every word, zero entries included
    ring = _Ring()
    fields = [tuple(ring.poly(comp) for comp in field) for field in sys.g]
    caches = [{} for _ in sys.g]
    grown = {(): ring.poly(parse_expr("x1", sys.n))}
    for w in words[1:]:
        i = w[-1] - 1
        grown[w] = ring.lie(grown[w[:-1]], fields[i], caches[i], w)
    differentiated = set()
    lie = _Ring.lie

    def spy(self, h, field, cache, what):
        differentiated.add(what)
        return lie(self, h, field, cache, what)

    monkeypatch.setattr(_Ring, "lie", spy)
    table = LieTable(sys)
    table.ensure_depth(6)
    for w in words:
        assert _key(table.polynomial(w)) == _key(grown[w]), w
    zero = [w for w in words if not grown[w]]
    assert len(zero) == 4542
    # only the extensions of nonzero entries are differentiated
    assert differentiated == {w for w in words[1:] if grown[w[:-1]]}
    nonzero = len(words) - len(zero)
    assert len(table._ring.polys) <= nonzero + 3
    X = domain_grid(sys.n, sys.r, 200 - 2 * sys.n)
    for points in (X[:1], X):
        assert np.all(table.evaluate(zero, points) == 0.0)


def test_equal_entries_share_one_row():
    # that every word's polynomial is the one grown along it is checked by
    # test_zero_entries_share_one_row_and_are_never_differentiated
    table = LieTable(builtin_system("hopfield2").spec)
    table.ensure_depth(6)
    keys = [_key(p) for p in table._ring.polys]
    # no two stored rows are equal polynomials
    assert len(set(keys)) == len(keys) == 471
    assert len(table) == 5461
    # the argument of sigma(x1) is x1, the entry of the empty word
    x1 = _key(table.polynomial(()))
    (atom,) = [a for a in table._ring._atoms.values()
               if a.key[:3] == (1, "sigma", 0) and _key(a.arg) == x1]
    assert atom.arg_row == table._rows[()]
    bilinear = LieTable(builtin_system("bilinear2d").spec)
    bilinear.ensure_depth(10)
    assert len(bilinear._ring.polys) == 3


@pytest.mark.parametrize("name,K_max,n_live", [("bilinear2d", 14, 15),
                                               ("analytic1d", 9, 10),
                                               ("hopfield2", 6, 919)])
def test_live_walk_is_the_nonzero_columns(monkeypatch, name, K_max, n_live):
    sys = builtin_system(name).spec
    words = words_up_to(sys.m, K_max)
    dense = LieTable(sys)
    dense.ensure_depth(K_max)
    nonzero = [j for j, w in enumerate(words) if dense.polynomial(w[::-1])]
    assert len(nonzero) == n_live
    differentiated = set()
    lie = _Ring.lie

    def spy(self, h, field, cache, what):
        differentiated.add(what)
        return lie(self, h, field, cache, what)

    monkeypatch.setattr(_Ring, "lie", spy)
    table = LieTable(sys)
    for K in range(K_max + 1):  # an order sweep on one table
        cols, rows = table.live(K)
        assert cols.tolist() == [j for j in nonzero if len(words[j]) <= K], K
        for j, row in zip(cols.tolist(), rows.tolist()):
            assert _key(table._ring.polys[row]) == _key(dense.polynomial(words[j][::-1]))
    # the extensions of the nonzero entries shorter than K_max, and nothing else
    assert differentiated == {words[j][::-1] + (i,) for j in nonzero
                              if len(words[j]) < K_max for i in range(1, sys.m + 1)}


def test_live_walk_stops_at_the_caps(monkeypatch):
    table = LieTable(builtin_system("bilinear2d").spec)
    assert len(table.live(24)[0]) == 25  # 2^24 words of length 24, one nonzero
    # the columns of length 62 over 2 channels pass np.intp
    with pytest.raises(ResourceCapError, match="overflow a column index"):
        table.live(70)
    monkeypatch.setattr("chenfliess.lie.WORD_CAP", 8)
    table = LieTable(builtin_system("hopfield2").spec)
    assert len(table.live(2)[0]) == 7  # 1, 2 and 4 nonzero entries
    with pytest.raises(ResourceCapError, match="entries of length 3 exceed the cap of 8"):
        table.live(3)


def test_entries_round_trip_through_the_dsl():
    for name, K in (("bilinear2d", 6), ("analytic1d", 8), ("hopfield2", 4)):
        sys = builtin_system(name).spec
        table = LieTable(sys)
        texts = {}
        for w in words_up_to(sys.m, K):
            e = table.entry(w)
            text = to_text(e)
            back = polynomial(parse_expr(text, sys.n))
            assert _key(back) == _key(table.polynomial(w)), (name, w)
            assert render(back) == e, (name, w)
            texts.setdefault(_key(back), set()).add(text)
        # equal entries print the same
        assert all(len(t) == 1 for t in texts.values()), name


def test_polynomial_is_canonical():
    # built in another order, the same polynomial is the same and prints the same
    for a, b in (("x2 + x1", "x1 + x2"),
                 ("x2*x1 - sigma(x2 + 0.5*x1)^2",
                  "-sigma(0.5*x1 + x2)*sigma(x2 + x1*0.5) + x1*x2"),
                 ("(x1 - x2)*(x1 + x2)", "x1^2 - x2^2")):
        pa, pb = polynomial(parse_expr(a, 2)), polynomial(parse_expr(b, 2))
        assert _key(pa) == _key(pb), (a, b)
        assert to_text(render(pa)) == to_text(render(pb)), (a, b)
    # a monomial lists its atoms in key order, whatever order built it
    p = polynomial(parse_expr("x3*x1^2*x2 + x2*x3*x1*x1", 3))
    assert [[(a.key, e) for a, e in m] for m, _ in p] == [[((0, 1), 2), ((0, 2), 1),
                                                          ((0, 3), 1)]]
    assert to_text(render(p)) == "2*x1^2*x2*x3"


def test_term_cap_stops_growth_naming_the_word(monkeypatch):
    # the term count roughly triples per order: 31, 108, 339, 949 at k = 3..6
    sys = system_from_exprs(2, 1, [["x1*x2 + tanh(x1 - x2)", "x1^2 + sigma(x2)"]],
                            (1.0, 0.0), r=1.0, M=1.0, T=0.1)
    monkeypatch.setattr("chenfliess.lie.TERM_CAP", 500)
    table = LieTable(sys)
    table.ensure_depth(5)
    with pytest.raises(ResourceCapError) as info:
        table.ensure_depth(6)
    got = re.search(r"word \(1, 1, 1, 1, 1, 1\) reached (\d+) terms, over the cap "
                    r"of 500", str(info.value))
    # it stops while collecting, before the whole 949-term entry is built
    assert got and 500 < int(got.group(1)) < 949
    assert (1,) * 6 not in table and len(table) == 6
    with pytest.raises(ResourceCapError, match="over the cap of 500"):
        feature_matrix(sys, [[0.1, 0.2]], 6)


# ---------------------------------------------------------------------------
# independent oracle: sympy differentiates the closed forms


def _sympy_field(text, xs):
    import sympy as sp

    s = sp.Symbol("s")
    names = {"sigma": sympy_sigma, "dsigma": sp.Lambda(s, sp.diff(sympy_sigma(s), s)),
             "tanh": sp.tanh, **{f"x{j + 1}": x for j, x in enumerate(xs)}}
    return sp.sympify(text.replace("^", "**").replace("sigma'", "dsigma"),
                      locals=names)


def _sympy_features(sys, texts, K, X):
    """Iterated Lie derivatives of c^T x in sympy, evaluated at 40 digits."""
    import mpmath
    import sympy as sp

    xs = sp.symbols(f"x1:{sys.n + 1}")
    g = [[_sympy_field(t, xs) for t in field] for field in texts]
    entries = {(): sum(ci * x for ci, x in zip(sys.c, xs))}
    out = np.empty((len(X), len(words_up_to(sys.m, K))))
    with mpmath.workdps(40):
        for j, w in enumerate(words_up_to(sys.m, K)):
            if w:
                h = entries[w[:-1]]
                entries[w] = sum(gj * sp.diff(h, x) for gj, x in zip(g[w[-1] - 1], xs))
            f = sp.lambdify(xs, entries[w], "mpmath")
            for i, p in enumerate(X):
                out[i, j] = float(f(*[mpmath.mpf(float(v)) for v in p]))
    return out


def test_lie_entries_match_sympy():
    tanh_g = [["tanh(x2)", "0.5*x1"], ["1", "tanh(x1)*x2"]]
    mixed_g = [["tanh(0.5*x1 - x2)^2", "sigma'(x2)"], ["x2", "-x1*sigma(x1)"]]
    cases = [(builtin_system("hopfield2").spec, None, 4),
             (builtin_system("analytic1d").spec, None, 8),
             (system_from_exprs(2, 2, tanh_g, (0.6, 0.8), 1.0, 1.0, 0.2), tanh_g, 4),
             (system_from_exprs(2, 2, mixed_g, (1.0, -0.5), 1.0, 1.0, 0.2), mixed_g, 3)]
    for sys, texts, K in cases:
        texts = texts or sys.to_json_dict()["g"]
        X = domain_grid(sys.n, sys.r, n_points=2)
        want = _sympy_features(sys, texts, K, X)
        table = LieTable(sys)
        words = words_up_to(sys.m, K)
        batch = table.evaluate(words, X)
        single = np.vstack([table.evaluate(words, X[i:i + 1]) for i in range(len(X))])
        for got in (batch, single):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), texts


# ---------------------------------------------------------------------------
# lambda_k


def test_lambda_zero_attains_radius():
    sys = bilinear_system([np.eye(2)], c=(0.6, 0.8), r=2.5, M=1.0, T=1.0)
    rep = lambda_k(sys, 0, n_points=16)
    assert rep.value == pytest.approx(2.5, rel=1e-12)
    assert rep.word == ()


def test_lambda_scalar_bilinear_closed_form():
    sys = system_from_exprs(1, 1, [["2*x1"]], (1.0,), r=1.0, M=1.0, T=1.0)
    rep = lambda_k(sys, 3, n_points=32)
    assert rep.value == pytest.approx(8.0, rel=1e-12)


def test_lambda_k_below_family_bound_bilinear():
    built = builtin_system("bilinear2d")
    table = LieTable(built.spec)
    for k in range(0, 7):
        rep = lambda_k(built.spec, k, n_points=64, table=table)
        assert rep.value <= built.family.lambda_bound(k) * (1 + 1e-12)


def test_lambda_k_below_family_bound_analytic():
    built = builtin_system("analytic1d")
    table = LieTable(built.spec)
    for k in range(0, 7):
        rep = lambda_k(built.spec, k, n_points=64, table=table)
        assert rep.value <= built.family.lambda_bound(k) * (1 + 1e-12)


def test_lambda_k_below_family_bound_hopfield():
    built = builtin_system("hopfield2")
    table = LieTable(built.spec)
    for k in range(0, 7):
        rep = lambda_k(built.spec, k, n_points=16, table=table)
        assert rep.value <= built.family.lambda_bound(k) * (1 + 1e-12)


def _lambda_k_pointwise(sys, k, n_points, table):
    # reference: one eval_expr call per (word, point), first strict max wins
    chat = np.asarray(sys.c, dtype=float) / sys.c_norm()
    grid = domain_grid(sys.n, sys.r, n_points, [sys.r * chat, -sys.r * chat])
    best, best_word, best_point = -1.0, None, None
    for w in words_of_length(sys.m, k):
        e = table.entry(w)
        for row in grid:
            v = abs(eval_expr(e, row))
            if v > best:
                best, best_word, best_point = v, w, tuple(float(x) for x in row)
    return best, best_word, best_point


def test_lambda_k_matches_pointwise_reference():
    # nilpotent: every word of length >= 2 has the ZERO entry
    nil = bilinear_system([np.array([[0.0, 1.0], [0.0, 0.0]])], c=(1.0, 0.0),
                          r=1.0, M=1.0, T=1.0)
    cases = [(builtin_system("bilinear2d").spec, 5, 32, 0.0),
             (builtin_system("analytic1d").spec, 6, 32, 1e-13),
             (builtin_system("hopfield2").spec, 3, 8, 1e-13),
             (nil, 3, 8, 0.0)]
    for sys, K, n_points, rel in cases:
        table = LieTable(sys)
        for k in range(K + 1):
            rep = lambda_k(sys, k, n_points=n_points, table=table)
            value, word, point = _lambda_k_pointwise(sys, k, n_points, table)
            assert rep.value == pytest.approx(value, rel=rel, abs=0.0), (sys, k)
            assert (rep.word, rep.point) == (word, point), (sys, k)
    # ties: |x1| = 1 at +e1, -e1 and +/- c; the first grid point, +e1, wins
    rep = lambda_k(builtin_system("bilinear2d").spec, 0, n_points=32)
    assert rep.point == (1.0, 0.0)
    # every entry ZERO: value 0 at the first word and the first grid point
    rep = lambda_k(nil, 2, n_points=8)
    assert (rep.value, rep.word, rep.point) == (0.0, (1, 1), (1.0, 0.0))


def test_lambda_k_resource_guard():
    built = builtin_system("hopfield2")
    with pytest.raises(ResourceCapError):
        lambda_k(built.spec, 10)


def test_one_word_cap(monkeypatch):
    # every enumerating call reads lie.WORD_CAP when it runs
    sys = builtin_system("bilinear2d").spec
    u = constant_path((1.0, 0.0), sys.T)
    monkeypatch.setattr("chenfliess.lie.WORD_CAP", 2**5)
    feature_matrix(sys, [[0.1, 0.2]], 5)
    for call in (lambda: feature_matrix(sys, [[0.1, 0.2]], 6),
                 lambda: chen_fliess_eval(sys, (0.1, 0.2), u, 6),
                 lambda: erm_fit(Dataset([[0.1, 0.2]], [0.0], sys.r, 1.0), sys, 6),
                 lambda: signature_matrix([u], 6),
                 lambda: lambda_k(sys, 6),
                 lambda: LieTable(sys).ensure_depth(6)):
        with pytest.raises(ResourceCapError, match="2\\^6 = 64 words exceeds the cap of 32"):
            call()


def test_expansion_stops_at_the_term_cap(monkeypatch):
    # (x1 + ... + x5)^k has C(k + 4, 4) terms: the 20th factor would make
    # 10,626, and the guard trips within one row of the product past 10,000
    text = "(x1 + x2 + x3 + x4 + x5)^24"
    sys = system_from_exprs(5, 1, [[text, "0", "0", "0", "0"]], (1.0, 0, 0, 0, 0),
                            r=1.0, M=1.0, T=0.1)
    with pytest.raises(ResourceCapError, match=(
            r"expanding \(x1 \+ x2 \+ x3 \+ x4 \+ x5\)\^24 reached 1000[1-5] terms, "
            r"over the cap of 10000")):
        LieTable(sys)
    # a product of two factors each under the cap (1,820 terms) stops while
    # multiplying, not after all 1,820^2 monomial products
    half = "(x1 + x2 + x3 + x4 + x5)^12"
    with pytest.raises(ResourceCapError, match=r"reached 10\d\d\d terms, over the cap"):
        polynomial(parse_expr(f"{half} * {half}", 5))
    # differentiate expands a factored power too, so it raises where a tree
    # derivative would not; at a lower cap to save time (the 9th factor: 715)
    monkeypatch.setattr("chenfliess.lie.TERM_CAP", 500)
    with pytest.raises(ResourceCapError, match=r"reached 50[1-5] terms, over the cap of 500"):
        differentiate(parse_expr(text, 5), 1)
    # an argument under the cap whose derivative is over it is named as a
    # derivative, with no word order to lower
    wide = "sigma(x1 + x2) * (x1 + x2 + x3 + x4 + x5)^5"  # 126 terms, 196 in d/dx1
    assert len(polynomial(parse_expr(wide, 5))) == 126
    monkeypatch.setattr("chenfliess.lie.TERM_CAP", 150)
    with pytest.raises(ResourceCapError) as info:
        differentiate(parse_expr(wide, 5), 1)
    assert str(info.value).startswith("d/dx1 of sigma(x1 + x2)*")
    assert "over the cap of 150 terms" in str(info.value)
    assert "order" not in str(info.value)
    monkeypatch.undo()
    assert len(polynomial(parse_expr("(x1 + x2)^50", 2))) == 51
    sys = system_from_exprs(2, 1, [["(x1 + x2)^50", "x1"]], (1.0, 0.0), r=1.0, M=1.0,
                            T=0.1)
    assert len(LieTable(sys).polynomial((1,))) == 51


@pytest.mark.parametrize("call", [
    lambda sys, u: feature_matrix(sys, [[0.1, 0.2]], -1),
    lambda sys, u: erm_fit(Dataset([[0.1, 0.2]], [0.0], sys.r, 1.0), sys, -1),
    lambda sys, u: lambda_k(sys, -1),
    lambda sys, u: chen_fliess_eval(sys, (0.1, 0.2), u, -1),
    lambda sys, u: signature_matrix([u], -1),
], ids=["feature_matrix", "erm_fit", "lambda_k", "chen_fliess_eval", "signature_matrix"])
def test_negative_order_rejected(call):
    sys = builtin_system("bilinear2d").spec
    with pytest.raises(ValueError, match="need K >= 0"):
        call(sys, constant_path((1.0, 0.0), sys.T))


def test_lambda_report_serializes():
    sys = system_from_exprs(1, 1, [["x1"]], (1.0,), r=1.0, M=1.0, T=1.0)
    rep = lambda_k(sys, 1, n_points=8)
    d = rep.to_json_dict()
    assert d["word"] == [1]
    assert isinstance(d["value"], float)
    rep.to_json()


# ---------------------------------------------------------------------------
# grid


def test_domain_grid_contains_axis_points_and_stays_in_ball():
    grid = domain_grid(3, 2.0, n_points=40)
    norms = np.linalg.norm(grid, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 2.0
        assert any(np.allclose(row, e) for row in grid)
        assert any(np.allclose(row, -e) for row in grid)


def test_domain_grid_deterministic():
    g1 = domain_grid(2, 1.0, n_points=25)
    g2 = domain_grid(2, 1.0, n_points=25)
    assert np.array_equal(g1, g2)


def test_domain_grid_high_dimension_without_rejection():
    domain_grid(2, 1.0, n_points=1)  # the first call pays for one-time imports
    start = time.perf_counter()
    grid = domain_grid(20, 2.0, n_points=256)
    assert time.perf_counter() - start < 0.25
    assert grid.shape == (2 * 20 + 256, 20)
    assert np.all(np.isfinite(grid))
    assert np.all(np.linalg.norm(grid, axis=1) <= 2.0 * (1 + 1e-12))


# scipy is the oracle for the grid: the unscrambled Halton points and the
# Gaussian quantiles the grid took from scipy.stats.qmc and scipy.special


def _scipy_grid(n, r, n_points=256, extra_points=()):
    from scipy.special import ndtri
    from scipy.stats import qmc

    pts = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = r
        pts.append(e.copy())
        pts.append(-e)
    pts.extend(np.asarray(p, dtype=float) for p in extra_points)
    h = qmc.Halton(d=n + 1, scramble=False).fast_forward(1).random(n_points)
    z = ndtri(h[:, 1:])
    pts.extend(z / np.linalg.norm(z, axis=1, keepdims=True)
               * (r * h[:, :1] ** (1.0 / n)))
    return np.array(pts)


def test_halton_is_bit_identical_to_scipy():
    from scipy.stats import qmc

    for d, count in ((1, 256), (2, 256), (3, 1000), (21, 256)):
        expected = qmc.Halton(d=d, scramble=False).fast_forward(1).random(count)
        assert np.array_equal(_halton(d, count), expected), (d, count)


def test_grid_quantiles_match_ndtri():
    from statistics import NormalDist

    from scipy.special import ndtri

    u = _halton(21, 4096)
    z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u)
    expected = ndtri(u)
    assert np.all(np.abs(z - expected) <= 2e-15 * np.maximum(1.0, np.abs(expected)))


def test_domain_grid_matches_scipy_grid():
    grid = domain_grid(20, 2.0, n_points=256)
    expected = _scipy_grid(20, 2.0, n_points=256)
    assert grid.shape == expected.shape
    assert np.max(np.abs(grid - expected)) <= 4e-15


def test_lambda_k_matches_scipy_grid_reference(monkeypatch):
    for name, K in (("bilinear2d", 6), ("analytic1d", 8), ("hopfield2", 4)):
        sys = builtin_system(name).spec
        table = LieTable(sys)
        reports = [lambda_k(sys, k, table=table) for k in range(K + 1)]
        with monkeypatch.context() as mp:
            mp.setattr("chenfliess.lie.domain_grid", _scipy_grid)
            expected = [lambda_k(sys, k, table=table) for k in range(K + 1)]
        for k, (rep, ref) in enumerate(zip(reports, expected)):
            assert rep.word == ref.word, (name, k)
            assert rep.value == pytest.approx(ref.value, rel=1e-14, abs=1e-14), (name, k)
            assert np.allclose(rep.point, ref.point, rtol=0.0, atol=1e-14), (name, k)
