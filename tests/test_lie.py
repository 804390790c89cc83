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

from chenfliess.lie import _halton, polynomial, render

from conftest import bilinear_lie_oracle


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
    # about 1.5 s on a 2-vCPU x86_64; a simplify that re-sorts children by
    # a key rebuilt for each subtree takes about 9 s here
    table = LieTable(builtin_system("analytic1d").spec)
    t0 = time.perf_counter()
    table.ensure_depth(10)
    assert time.perf_counter() - t0 < 4.0
    assert len(table) == 11


def _key(p):
    # a polynomial by atom keys, comparable across tables
    return tuple((tuple((a.key, e) for a, e in m), c) for m, c in p)


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

    def sigma(z):
        return 1 / (1 + sp.exp(-z))

    names = {"sigma": sigma, "dsigma": sp.Lambda(s, sp.diff(sigma(s), s)),
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
        lambda_k(built.spec, 10, word_cap=1000)


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
