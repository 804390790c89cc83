import math
import warnings

import numpy as np
import pytest

from chenfliess import (
    AnalyticFamily,
    BilinearFamily,
    ControlPath,
    ConvergenceWarning,
    GeometricFamily,
    LieTable,
    OdeBlowupError,
    absorb_drift,
    bilinear_system,
    builtin_system,
    chen_fliess_eval,
    constant_path,
    feature_matrix,
    lambda_k,
    ode_reference,
    parse_expr,
    system_from_exprs,
    truncation_tail,
)
from chenfliess.expressions import Constant, Power, Primitive, Product, Sum, Var, eval_expr
from chenfliess.learning import random_control_path, sample_ball
from chenfliess.lie import SystemSpec, words_up_to
from chenfliess.series import _rk4_step
from chenfliess.signatures import signature_up_to

from conftest import random_path, rk4_vector_oracle

A_UP = np.array([[0.0, 1.0], [0.0, 0.0]])
A_DOWN = np.array([[0.0, 0.0], [1.0, 0.0]])


def noncommuting_system(T=0.3):
    return bilinear_system([A_UP, A_DOWN], c=(1.0, 0.0), r=1.0, M=1.0, T=T)


# ---------------------------------------------------------------------------
# composition-convention bootstrap (mandatory)


def test_composition_convention_bootstrap():
    """Fix the word-pairing convention against the RK4 oracle at K=3.

    The implemented pairing (signature word w with the Lie entry for
    reversed w) must reproduce the ODE within the truncation budget on a
    noncommuting two-channel system; the naive same-word pairing must
    fail by a visible margin on the same run.
    """
    sys = noncommuting_system()
    u = ControlPath(2, (0.0, 0.15, 0.3), ((1.0, 0.0), (0.0, 1.0)), 1.0)
    x0 = (0.7, 0.4)
    ode = ode_reference(sys, x0, u, 1e-3)
    family = BilinearFamily(r=1.0, a=1.0)
    table = LieTable(sys)
    for K in (3, 10):
        ev = chen_fliess_eval(sys, x0, u, K, family=family, lie_table=table)
        budget = ev.tail_bound + 10.0 * ode.error_estimate + 1e-13
        assert abs(ev.value - ode.y) <= budget

        # same-word pairing violates the certified budget at both orders
        sig = signature_up_to(u, K)
        naive = math.fsum(
            sig[w] * eval_expr(table.entry(w), x0) for w in words_up_to(2, K)
        )
        assert abs(naive - ode.y) > budget
    # at K=10 the tail is ~1e-10 while the naive error stays macroscopic
    assert abs(naive - ode.y) > 1e-2


# ---------------------------------------------------------------------------
# series evaluation


def test_scalar_exponential():
    sys = system_from_exprs(1, 1, [["x1"]], (1.0,), r=2.0, M=1.0, T=0.5)
    u = constant_path((1.0,), 0.5)
    ev = chen_fliess_eval(sys, (1.0,), u, 15)
    assert ev.value == pytest.approx(math.exp(0.5), abs=1e-9)


def test_order_zero_is_output_at_x0():
    sys = noncommuting_system()
    u = constant_path((0.5, -0.5), 0.3)
    ev = chen_fliess_eval(sys, (0.25, 0.75), u, 0)
    assert ev.value == pytest.approx(0.25)
    assert ev.contributions == (0.25,)


def test_contributions_sum_to_value():
    sys = noncommuting_system()
    u = random_path(np.random.default_rng(3), 2, 1.0, 0.3)
    ev = chen_fliess_eval(sys, (0.4, -0.2), u, 6)
    assert math.fsum(ev.contributions) == pytest.approx(ev.value, rel=1e-14)


def test_noncommuting_matches_rk4_within_tail():
    sys = noncommuting_system()
    rng = np.random.default_rng(42)
    u = random_path(rng, 2, 1.0, 0.3, max_pieces=3)
    family = BilinearFamily(r=1.0, a=1.0)
    x0 = (0.5, -0.3)
    ode = ode_reference(sys, x0, u, 1e-3)
    lie = LieTable(sys)
    prev = None
    for K in range(2, 11):
        ev = chen_fliess_eval(sys, x0, u, K, family=family, lie_table=lie)
        d = abs(ev.value - ode.y)
        assert d <= ev.tail_bound + 10.0 * ode.error_estimate + 1e-13
        if prev is not None and K >= 4:
            assert d <= prev * 1.001 + 1e-13
        prev = d
    assert d <= 1e-8


def test_per_order_contribution_linked_to_lambda_k():
    built = builtin_system("bilinear2d")
    sys = built.spec
    u = random_path(np.random.default_rng(8), 2, 1.0, 0.3, max_pieces=3)
    x0 = (sys.r, 0.0)  # an axis grid point, so the sampled max covers it
    ev = chen_fliess_eval(sys, x0, u, 6)
    table = LieTable(sys)
    for k, contrib in enumerate(ev.contributions):
        lam = lambda_k(sys, k, n_points=32, table=table).value
        cap = (sys.m * sys.M * sys.T) ** k / math.factorial(k) * lam
        assert abs(contrib) <= cap * (1 + 1e-12) + 1e-15


def test_shared_tables_reused_across_calls():
    sys = noncommuting_system()
    u = constant_path((1.0, -1.0), 0.3)
    lie = LieTable(sys)
    sig = signature_up_to(u, 8)
    a = chen_fliess_eval(sys, (0.1, 0.2), u, 8, lie_table=lie, sig_table=sig)
    b = chen_fliess_eval(sys, (0.3, -0.4), u, 8, lie_table=lie, sig_table=sig)
    assert a.value != b.value
    # the nonzero entries are the alternating words 1, 12, 121, ... (one of
    # each length); the walk stores them and their 2 x 8 extensions, and no
    # word below a zero entry
    assert len(lie) == 1 + 2 * 8


def test_order_sweep_on_one_table_is_a_fresh_table_per_order():
    rng = np.random.default_rng(41)
    for name, K_max in (("bilinear2d", 8), ("analytic1d", 7), ("hopfield2", 5)):
        built = builtin_system(name)
        sys = built.spec
        table = LieTable(sys)
        for _ in range(2):  # the second sweep starts on a grown table
            u = random_path(rng, sys.m, sys.M, sys.T)
            x0 = tuple(sample_ball(rng, sys.n, sys.r, 1)[0])
            sig = signature_up_to(u, K_max)
            for K in range(1, K_max + 1):
                got = chen_fliess_eval(sys, x0, u, K, family=built.family,
                                       lie_table=table, sig_table=sig)
                want = chen_fliess_eval(sys, x0, u, K, family=built.family)
                assert got.to_json() == want.to_json(), (name, K)


def test_one_point_memo_follows_the_point_and_the_table():
    sys = bilinear_system([[[0.0, 1.0], [0.5, 0.2]], [[0.3, -0.7], [0.4, 0.1]]],
                          c=(1.0, 0.0), r=1.0, M=1.0, T=1.0)
    table = LieTable(sys)

    def fresh(K, X):
        return feature_matrix(sys, X, K, lie_table=LieTable(sys))[1].tobytes()

    # the feature of word (1,) is x2, so the two points differ in sign only there
    plus, minus = np.array([[0.3, 0.0]]), np.array([[0.3, -0.0]])
    assert fresh(2, plus) != fresh(2, minus)
    sizes = []
    for K, X in ((2, plus), (2, minus), (2, plus), (4, plus), (6, plus), (6, minus),
                 (3, plus)):
        assert feature_matrix(sys, X, K, lie_table=table)[1].tobytes() == fresh(K, X)
        sizes.append(len(table._ring.polys))
    assert sizes == [8, 8, 8, 32, 128, 128, 128]  # the table grows between calls
    # N > 1 takes the batch path: the same bytes as a fresh table
    X = np.array([[0.3, 0.0], [0.1, -0.2], [0.3, -0.0]])
    assert (feature_matrix(sys, X, 6, lie_table=table)[1].tobytes()
            == feature_matrix(sys, X, 6, lie_table=LieTable(sys))[1].tobytes())
    for shared in (table, LieTable(sys)):
        got = feature_matrix(sys, X, 5, lie_table=shared)[1]
        assert got.tobytes() == LieTable(sys).evaluate(
            [w[::-1] for w in words_up_to(sys.m, 5)], X).tobytes()


def test_a_stored_row_that_overflows_is_not_asked_for():
    # math.fsum of the order-1 entry 1e308 x1 + 1e308 x2 overflows at x0;
    # with channel 1 held at 0 only the order-0 feature is asked for, and
    # the memo must not raise
    sys = bilinear_system([[[1e308, 1e308], [0.0, 0.0]]], c=(1.0, 0.0), r=2.0,
                          M=1.0, T=0.3)
    table = LieTable(sys)
    table.ensure_depth(2)
    ev = chen_fliess_eval(sys, (1.0, 1.0), constant_path((0.0,), 0.3), 2, lie_table=table)
    assert ev.contributions == (1.0, 0.0, 0.0)
    with pytest.raises(FloatingPointError, match="non-finite features"):
        chen_fliess_eval(sys, (1.0, 1.0), constant_path((1.0,), 0.3), 2, lie_table=table)


def _per_word_pairing(sys, x0, K, lie_table, sig_table):
    """Oracle: the per-word loop, one float walk per word with a nonzero
    signature entry, and one fsum per order."""
    per_order = [[] for _ in range(K + 1)]
    for w in words_up_to(sys.m, K):
        s = sig_table[w]
        per_order[len(w)].append(
            0.0 if s == 0.0 else s * eval_expr(lie_table.entry(w[::-1]), x0))
    return tuple(math.fsum(terms) for terms in per_order)


def test_pairing_matches_per_word_oracle_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = []
    for name, K_max in (("bilinear2d", 8), ("analytic1d", 7), ("hopfield2", 4)):
        sys = builtin_system(name).spec
        for _ in range(2):
            cases.append((sys, K_max, random_path(rng, sys.m, sys.M, sys.T),
                          tuple(sample_ball(rng, sys.n, sys.r, 1)[0])))
    sys = noncommuting_system()
    cases.append((sys, 6, random_path(rng, 2, 1.0, 0.3), (0.7, 0.4)))
    # zero control: every feature past order 0 is inf at x0 and adds exactly 0
    huge = bilinear_system([[[0.0, 1e200], [1e200, 0.0]]], c=(1.0, 0.0), r=1.0,
                           M=1.0, T=0.3)
    cases.append((huge, 3, constant_path((0.0,), 0.3, M=1.0), (0.5, 0.5)))
    # zero control again: the order-2 feature at x0 is inf - inf
    opposed = bilinear_system([[[1e200, 1e200], [-1e200, -1e200]]], c=(1.0, 0.0),
                              r=1.0, M=1.0, T=0.3)
    cases.append((opposed, 3, constant_path((0.0,), 0.3, M=1.0), (0.5, 0.3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys, K_max, u, x0 in cases:
            lie = LieTable(sys)
            sig = signature_up_to(u, K_max)  # shared, and reused at smaller K
            for K in range(K_max + 1):
                ev = chen_fliess_eval(sys, x0, u, K, lie_table=lie, sig_table=sig)
                want = _per_word_pairing(sys, x0, K, lie, sig)
                assert ev.contributions == want
                assert ev.value == math.fsum(want)
    assert ev.value == 0.5 and ev.contributions == (0.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("N", [1, 2])
def test_overflowing_features_raise_at_any_point_count(N):
    # the order-2 feature is inf - inf: one point is walked in floats
    # (math.fsum), two points in a numpy batch; both raise one error
    sys = bilinear_system([[[1e200, 1e200], [-1e200, -1e200]]], c=(1.0, 0.0), r=1.0,
                          M=1.0, T=0.3)
    X = np.array([[0.5, 0.3], [0.1, 0.2]])[:N]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite features"):
            feature_matrix(sys, X, 2)
        with pytest.raises(FloatingPointError, match="non-finite features"):
            chen_fliess_eval(sys, tuple(X[-1]), constant_path((1.0,), 0.3), 2)


def test_sig_table_for_another_control_rejected():
    sys = builtin_system("bilinear2d").spec
    u = constant_path((1.0, 0.0), 0.3)
    assert chen_fliess_eval(sys, (0.1, 0.2), u, 3).value == pytest.approx(0.16)
    for other in (constant_path((1.0, 0.0, 0.0), 0.3), constant_path((1.0, 0.0), 0.9),
                  constant_path((0.5, 0.0), 0.3)):
        with pytest.raises(ValueError, match=r"another \(m, M, T\)"):
            chen_fliess_eval(sys, (0.1, 0.2), u, 3, sig_table=signature_up_to(other, 3))


def test_divergence_warning():
    sys = system_from_exprs(1, 1, [["1 + 0.25*x1^2"]], (1.0,), r=1.0, M=1.0, T=5.0)
    u = constant_path((1.0,), 5.0)
    family = AnalyticFamily(r=1.0, n=1, a_r=3.25)
    with pytest.warns(ConvergenceWarning):
        ev = chen_fliess_eval(sys, (0.0,), u, 3, family=family)
    assert math.isinf(ev.tail_bound)


def test_mismatched_control_rejected():
    sys = noncommuting_system()
    u = constant_path((1.0,), 0.3)  # one channel instead of two
    with pytest.raises(ValueError):
        chen_fliess_eval(sys, (0.0, 0.0), u, 2)


@pytest.mark.parametrize("x0", [(0.1, 0.2, 0.3), (0.1,)])
def test_state_dimension_checked(x0):
    sys = builtin_system("bilinear2d").spec
    u = constant_path((1.0, 0.0), sys.T, M=sys.M)
    with pytest.raises(ValueError, match=r"system has n = 2"):
        chen_fliess_eval(sys, x0, u, 2)
    with pytest.raises(ValueError, match=r"system has n = 2"):
        ode_reference(sys, x0, u, 1e-2)


# ---------------------------------------------------------------------------
# RK4 reference


def test_zero_control_is_identity():
    sys = noncommuting_system()
    u = constant_path((0.0, 0.0), 0.3, M=1.0)
    res = ode_reference(sys, (0.3, -0.7), u, 1e-2)
    assert np.allclose(res.final_state, (0.3, -0.7), atol=0.0)


def test_scalar_exponential_ode():
    sys = system_from_exprs(1, 1, [["x1"]], (1.0,), r=3.0, M=1.0, T=1.0)
    u = constant_path((1.0,), 1.0)
    res = ode_reference(sys, (1.0,), u, 1e-3)
    assert res.y == pytest.approx(math.e, abs=1e-8)
    assert res.error_estimate < 1e-10


def test_rotation_quarter_turn():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = bilinear_system([A], c=(1.0, 0.0), r=2.0, M=1.0, T=math.pi / 2)
    u = constant_path((1.0,), math.pi / 2)
    res = ode_reference(sys, (1.0, 0.0), u, 1e-3)
    assert np.allclose(res.final_state, (0.0, -1.0), atol=1e-6)


def test_steps_align_with_breakpoints():
    sys = noncommuting_system(T=1.0)
    u = ControlPath(2, (0.0, 0.3333, 1.0), ((1.0, 0.0), (0.0, 1.0)), 1.0)
    res = ode_reference(sys, (0.5, 0.5), u, 0.1)
    assert any(abs(t - 0.3333) < 1e-12 for t in res.times)


def test_blowup_detection():
    sys = system_from_exprs(1, 1, [["x1^2"]], (1.0,), r=3.0, M=1.0, T=2.0)
    u = constant_path((1.0,), 2.0)
    with pytest.raises(OdeBlowupError) as err:
        ode_reference(sys, (1.0,), u, 1e-3)
    assert err.value.t > 0.9  # true blow-up time is 1


def test_sparse_control_grows_only_the_entries_it_needs():
    # channel 2 held at 0: the live words are 1^k, and only they are built;
    # the entry for 11 is zero, so nothing below it is
    sys = noncommuting_system(T=1.0)
    u = ControlPath(2, (0.0, 0.4, 1.0), ((0.7, 0.0), (-0.9, 0.0)), 1.0)
    x0 = (0.6, -0.3)
    table = LieTable(sys)
    for K in range(1, 9):
        value = chen_fliess_eval(sys, x0, u, K, lie_table=table).value
        assert len(table) == min(K + 1, 3)
        dense = LieTable(sys)
        dense.ensure_depth(K)
        assert value.hex() == chen_fliess_eval(sys, x0, u, K, lie_table=dense).value.hex()
        assert value.hex() == chen_fliess_eval(sys, x0, u, K).value.hex()


def test_channels_held_at_zero_are_never_walked():
    # hopfield2 at order 6 with channels 3 and 4 held at 0: the walk visits
    # only the suffix closure of the words over channels 1 and 2
    sys = builtin_system("hopfield2").spec
    u = ControlPath(4, (0.0, 0.008, 0.02), ((0.9, -0.4, 0.0, 0.0), (-0.6, 1.0, 0.0, 0.0)),
                    1.0)
    x0 = (0.5, -0.6)
    table = LieTable(sys)
    value = chen_fliess_eval(sys, x0, u, 6, lie_table=table).value
    assert not any(3 in w or 4 in w for w in table._rows)
    # 65 nonzero entries over channels 1 and 2 and 2 zero extensions, of
    # the 127 words over them
    assert len(table) == 67
    full = LieTable(sys)
    full.live(6)
    assert len(full) == 941  # what the unrestricted walk stores
    assert value.hex() == chen_fliess_eval(sys, x0, u, 6, lie_table=full).value.hex()
    dense = LieTable(sys)
    dense.ensure_depth(6)
    assert value.hex() == chen_fliess_eval(sys, x0, u, 6, lie_table=dense).value.hex()


def _assert_same_bits(res, oracle):
    times, states, y, y_coarse, err = oracle
    assert res.times.tobytes() == times.tobytes()
    assert res.states.shape == states.shape
    assert res.states.tobytes() == states.tobytes()
    assert [v.hex() for v in (res.y, res.y_coarse, res.error_estimate)] == [
        v.hex() for v in (y, y_coarse, err)]


@pytest.mark.parametrize("name", ["bilinear2d", "analytic1d", "hopfield2"])
def test_float_rk4_is_the_vector_rk4_bit_for_bit(name):
    spec = builtin_system(name).spec
    for seed in range(4):
        rng = np.random.default_rng([seed, 14])
        u = random_control_path(rng, spec.m, spec.M, spec.T, pieces=1 + seed)
        x0 = tuple(sample_ball(rng, spec.n, spec.r, 1)[0])
        for step in (1e-3, 3e-3):
            _assert_same_bits(ode_reference(spec, x0, u, step),
                              rk4_vector_oracle(spec, x0, u, step))


def test_float_rk4_bits_with_a_channel_held_at_zero_and_at_t0():
    sys = noncommuting_system(T=1.0)
    u = ControlPath(2, (0.0, 0.2, 0.55, 1.0),
                    ((0.8, 0.0), (0.0, -0.6), (-0.3, 0.0)), 1.0)
    for x0 in ((0.5, -0.25), (0.0, 0.0), (-0.0, 0.7)):
        _assert_same_bits(ode_reference(sys, x0, u, 0.01),
                          rk4_vector_oracle(sys, x0, u, 0.01))
    # a zero field component adds an exact 0.0 as well
    zeros = system_from_exprs(2, 2, [["0", "-x1*x2"], ["x2^2", "0"]], (1.0, 1.0),
                              r=1.0, M=1.0, T=1.0)
    _assert_same_bits(ode_reference(zeros, (0.3, -0.4), u, 0.01),
                      rk4_vector_oracle(zeros, (0.3, -0.4), u, 0.01))
    at_zero = noncommuting_system(T=0.0)
    u0 = constant_path((0.5, 0.5), 0.0, M=1.0)
    res = ode_reference(at_zero, (0.1, 0.2), u0, 1e-3)
    _assert_same_bits(res, rk4_vector_oracle(at_zero, (0.1, 0.2), u0, 1e-3))
    assert res.times.tolist() == [0.0] and res.final_state.tolist() == [0.1, 0.2]


def test_float_rk4_blows_up_at_the_vector_rk4_time():
    sys = system_from_exprs(1, 1, [["x1^2"]], (1.0,), r=3.0, M=1.0, T=2.0)
    u = constant_path((1.0,), 2.0)
    with pytest.raises(OdeBlowupError) as got:
        ode_reference(sys, (1.0,), u, 1e-3)
    with pytest.raises(OdeBlowupError) as want:
        rk4_vector_oracle(sys, (1.0,), u, 1e-3)
    assert got.value.t.hex() == want.value.t.hex()


def _eval_expr_step(sys, x, v, h):
    """One RK4 step with eval_expr at every stage, every channel with
    v_i != 0 and every component included, in the vector form's order."""
    def f(y):
        out = []
        for j in range(sys.n):
            acc = 0.0
            for vi, g in zip(v, sys.g):
                if vi != 0.0:
                    acc += vi * eval_expr(g[j], y)
            out.append(acc)
        return out

    k1 = f(x)
    k2 = f([a + 0.5 * h * b for a, b in zip(x, k1)])
    k3 = f([a + 0.5 * h * b for a, b in zip(x, k2)])
    k4 = f([a + h * b for a, b in zip(x, k3)])
    return [a + h / 6.0 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _outcome(f, *args):
    """The bytes of f's result, or the type of the error it raises."""
    try:
        return np.array(f(*args)).tobytes()
    except ArithmeticError as err:
        return type(err)


def _nested(depth):
    e = Var(1)
    for k in range(depth):
        e = Primitive("tanh" if k % 2 else "sigma", k % 3, e)
    return e


def _step_cases():
    cases = [(name, builtin_system(name).spec) for name in ("bilinear2d", "analytic1d",
                                                             "hopfield2")]
    x1, x2 = Var(1), Var(2)
    # x1^400 saturates to +inf, x1^401 to -inf and x2^-3 near -0 to -inf;
    # at x2 = -0.0 both paths raise ZeroDivisionError
    cases.append(("saturating powers", SystemSpec(
        n=2, m=2, g=((Power(x1, 400), Power(x2, -3)),
                     (Product((Constant(-1.0), Power(x1, 401))), Power(x2, -1))),
        c=(1.0, 0.0), r=20.0, M=1.0, T=0.5)))
    prims = [Primitive(name, k, Sum((x1, Product((Constant(0.5), x2)))))
             for name in ("sigma", "tanh") for k in range(4)]
    cases.append(("sigma and tanh at orders 0-3", SystemSpec(
        n=2, m=2, g=((Sum(tuple(prims[:4])), Product(tuple(prims[4:]))),
                     (Sum(tuple(prims[4:])), Product(tuple(prims[:4])))),
        c=(1.0, 1.0), r=1.0, M=1.0, T=0.5)))
    cases.append(("constants 1e308, -0.0 and inf", SystemSpec(
        n=2, m=2, g=((Product((Constant(1e308), Constant(1e-308), x2,
                               Power(Constant(math.inf), 0))),
                      Sum((Product((Constant(-0.0), x1)), Constant(-0.0)))),
                     (Constant(-0.0), Product((Constant(1e-308), Sum((
                         Constant(1e308), Product((Constant(-1e308), x1)))))))),
        c=(1.0, 0.0), r=1.0, M=1.0, T=0.3)))

    def product(count):
        return Product(tuple(Constant(1.0 + (k % 7) * 1e-5) if k % 50 else Var(1 + k % 2)
                             for k in range(count)))

    # 5,000 factors: longer than one line of generated code may chain
    cases.append(("products of 500 and 5000 factors", SystemSpec(
        n=2, m=2, g=((product(500), Sum((x1, Product((Constant(-1.0), x2))))),
                     (x2, product(5000))),
        c=(1.0, 0.0), r=1.0, M=1.0, T=0.03)))
    cases.append(("nesting 250 levels deep", SystemSpec(
        n=1, m=1, g=((_nested(250),),), c=(1.0,), r=1.0, M=1.0, T=0.05)))
    cases.append(("a blow-up", system_from_exprs(1, 1, [["x1^2"]], (1.0,), r=3.0,
                                                 M=1.0, T=2.0)))
    return cases


_STEP_CASES = _step_cases()


@pytest.mark.parametrize("name,sys", _STEP_CASES, ids=[name for name, _ in _STEP_CASES])
def test_generated_step_is_eval_expr_and_the_vector_rk4_bit_for_bit(name, sys):
    rng = np.random.default_rng([21, sys.n, sys.m])
    points = [tuple(float(v) for v in sample_ball(rng, sys.n, min(sys.r, 1.0), 1)[0])
              for _ in range(3)]
    if name == "saturating powers":
        points += [(10.0, -1e-110), (-10.0, 1e-110), (0.5, -0.0)]
    values = [tuple(float(v) for v in rng.uniform(-1.0, 1.0, sys.m)) for _ in range(2)]
    values.append((0.0,) + values[0][1:])  # channel 1 held at 0
    for v in values:
        live = tuple(vi != 0.0 for vi in v)
        step = _rk4_step(sys, live)
        for x in points:
            for h in (1e-3, 0.25):
                got = _outcome(step, list(x), v, h, 0.5 * h, h / 6.0)
                assert got == _outcome(_eval_expr_step, sys, list(x), v, h), (x, v, h)
    for seed in range(2):
        u = random_path(np.random.default_rng([seed, 21]), sys.m, sys.M, sys.T)
        for x0 in points[:2]:
            try:
                want = rk4_vector_oracle(sys, x0, u, 1e-2)
            except OdeBlowupError as err:
                with pytest.raises(OdeBlowupError) as got:
                    ode_reference(sys, x0, u, 1e-2)
                assert got.value.t.hex() == err.t.hex()
                continue
            _assert_same_bits(ode_reference(sys, x0, u, 1e-2), want)
    if name in ("saturating powers", "a blow-up"):
        x0 = (10.0, -1e-110) if sys.n == 2 else (1.0,)
        with pytest.raises(OdeBlowupError) as got:
            ode_reference(sys, x0, constant_path((1.0,) * sys.m, sys.T), 1e-3)
        with pytest.raises(OdeBlowupError) as want:
            rk4_vector_oracle(sys, x0, constant_path((1.0,) * sys.m, sys.T), 1e-3)
        assert got.value.t.hex() == want.value.t.hex()


# ---------------------------------------------------------------------------
# drift absorption


def test_absorb_zero_drift_adds_zero_channel():
    sys = noncommuting_system()
    zero = (parse_expr("0", 2), parse_expr("0", 2))
    absorbed = absorb_drift(sys, zero, 1.0)
    assert absorbed.m == 3
    from chenfliess.expressions import Constant

    assert absorbed.g[0] == (Constant(0.0), Constant(0.0))
    assert absorbed.g[1:] == sys.g


def test_absorb_scalar_drift_matches_exact_solution():
    # x' = x + u x with u = u0 constant: x(T) = x0 exp((1 + u0) T)
    sys = system_from_exprs(1, 1, [["x1"]], (1.0,), r=5.0, M=1.0, T=0.8)
    drift = (parse_expr("x1", 1),)
    absorbed = absorb_drift(sys, drift, 1.0)
    u0 = 0.6
    u = constant_path((u0,), 0.8).prepend_channel(1.0)
    res = ode_reference(absorbed, (1.2,), u, 1e-3)
    assert res.y == pytest.approx(1.2 * math.exp(1.6 * 0.8), abs=1e-9)


def test_absorb_linear_drift_scaling():
    # drift A x with M0 = 2: channel-0 field is A x / 2, control 2
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = bilinear_system([np.zeros((2, 2))], c=(1.0, 0.0), r=2.0, M=1.0,
                          T=math.pi / 2)
    drift = tuple(parse_expr(s, 2) for s in ("x2", "-x1"))
    absorbed = absorb_drift(sys, drift, 2.0)
    assert absorbed.M == 2.0
    half = [eval_expr(comp, (1.0, 0.0)) for comp in absorbed.g[0]]
    assert np.allclose(half, (0.0, -0.5))
    u = constant_path((0.0,), math.pi / 2).prepend_channel(2.0)
    res = ode_reference(absorbed, (1.0, 0.0), u, 1e-3)
    assert np.allclose(res.final_state, (0.0, -1.0), atol=1e-6)


def test_absorb_drift_rejects_zero_scale():
    sys = noncommuting_system()
    with pytest.raises(ValueError):
        absorb_drift(sys, sys.g[0], 0.0)


# ---------------------------------------------------------------------------
# truncation tails


def test_bilinear_tail_is_exponential_remainder():
    family = BilinearFamily(r=1.3, a=0.9)
    m, M, T, K = 2, 1.0, 0.5, 4
    x = m * M * T * family.a
    want = 1.3 * (math.exp(x) - math.fsum(x**k / math.factorial(k)
                                          for k in range(K + 1)))
    assert truncation_tail(family, m, M, T, K) == pytest.approx(want, rel=1e-10)


def test_analytic_tail_divergence_at_boundary():
    family = AnalyticFamily(r=1.0, n=1, a_r=1.0)
    # 2^n n mMT a_r >= r
    assert math.isinf(truncation_tail(family, 1, 1.0, 0.5, 3))
    assert truncation_tail(family, 1, 1.0, 0.1, 3) > 0.0


def test_zero_horizon_tail_vanishes():
    for family in (
        BilinearFamily(r=1.0, a=1.0),
        AnalyticFamily(r=1.0, n=2, a_r=1.0),
        GeometricFamily(C=1.0, rho=2.0, s=1),
    ):
        assert truncation_tail(family, 2, 1.0, 0.0, 5) == 0.0


def test_geometric_family_tails():
    fac = GeometricFamily(C=2.0, rho=0.5, s=1)
    # terms are C (mMT rho)^k: geometric remainder
    q = 2 * 1.0 * 0.4 * 0.5
    want = 2.0 * q**4 / (1 - q)
    assert truncation_tail(fac, 2, 1.0, 0.4, 3) == pytest.approx(want, rel=1e-12)
    assert math.isinf(truncation_tail(GeometricFamily(C=1.0, rho=1.0, s=1),
                                      1, 1.0, 1.0, 2))
    smooth = GeometricFamily(C=3.0, rho=0.7, s=0)
    x = 1 * 1.0 * 0.5 * 0.7
    want = 3.0 * (math.exp(x) - 1.0 - x - x**2 / 2.0)
    assert truncation_tail(smooth, 1, 1.0, 0.5, 2) == pytest.approx(want, rel=1e-9)


def test_series_convergence_on_builtins():
    # |y_K - y_ode| nonincreasing beyond a burn-in and below the tail
    # budget, for each shipped system at its own scale
    cases = [
        ("bilinear2d", 10, 1e-3),
        ("analytic1d", 10, 1e-3),
        ("hopfield2", 5, 1e-3),
    ]
    for name, K_max, step in cases:
        built = builtin_system(name)
        sys = built.spec
        u = random_path(np.random.default_rng(17), sys.m, sys.M, sys.T,
                        max_pieces=3)
        x0 = tuple(0.3 / math.sqrt(sys.n) for _ in range(sys.n))
        ode = ode_reference(sys, x0, u, step)
        lie = LieTable(sys)
        discs = []
        for K in range(2, K_max + 1):
            ev = chen_fliess_eval(sys, x0, u, K, family=built.family,
                                  lie_table=lie)
            d = abs(ev.value - ode.y)
            assert d <= ev.tail_bound + 10.0 * ode.error_estimate + 1e-13, (
                f"{name} K={K}"
            )
            discs.append(d)
        assert discs[-1] <= discs[0] * 1.001 + 1e-13
