import math

import numpy as np
import pytest

from chenfliess import (
    AnalyticFamily,
    BilinearFamily,
    GeometricFamily,
    HopfieldFamily,
    PreconditionError,
    analytic_bound,
    bilinear_bound,
    central_binomial_gf,
    excess_risk_bound,
    family_from_json_dict,
    gamma_k,
    hopfield_bound,
    loss_contraction,
    max_spectral_norm,
    parse_expr,
    polynomial_polydisc_bound,
    spectral_norm,
    theorem1_bound,
)


# ---------------------------------------------------------------------------
# theorem1_bound


def test_constant_class_collapses_to_radius_term():
    report = theorem1_bound([2.5, 0.0, 0.0, 0.0], m=2, M=1.0, T=1.0, N=25)
    assert report.partial_sum == pytest.approx(2.5 / 5.0)
    assert report.tail is None
    assert "truncated" in report.note


def test_family_partial_plus_tail_matches_bilinear_closed_form():
    family = BilinearFamily(r=1.2, a=0.8)
    m, M, T, N = 2, 1.0, 0.7, 50
    report = theorem1_bound(family, m, M, T, N, K=60)
    want = bilinear_bound(1.2, m, M, T, 0.8, N)
    assert report.total == pytest.approx(want, rel=1e-12)
    assert report.precondition_ok


def test_zero_horizon_keeps_order_zero_term():
    family = BilinearFamily(r=0.9, a=3.0)
    report = theorem1_bound(family, m=3, M=1.0, T=0.0, N=16, K=5)
    assert report.total == pytest.approx(0.9 / 4.0)


def test_sequence_input_matches_family_partial_sum():
    family = BilinearFamily(r=1.0, a=0.5)
    m, M, T, N, K = 2, 1.0, 0.4, 10, 12
    lams = [family.lambda_bound(k) for k in range(K + 1)]
    seq = theorem1_bound(lams, m, M, T, N)
    fam = theorem1_bound(family, m, M, T, N, K=K)
    assert seq.partial_sum == pytest.approx(fam.partial_sum, rel=1e-12)


def test_divergent_tail_reports_precondition_failure():
    family = AnalyticFamily(r=1.0, n=1, a_r=2.0)
    report = theorem1_bound(family, m=1, M=1.0, T=1.0, N=4, K=5)
    assert not report.precondition_ok
    assert math.isinf(report.total)
    assert report.partial_sum > 0.0
    assert report.to_json_dict()["tail"] == "divergent"


def test_convergent_series_beyond_float_range_raises_not_divergent():
    # margin 0, but e^1000 does not fit in a float
    family = BilinearFamily(r=1.0, a=1.0)
    assert family.margin(1, 1000.0, 1.0) == 0.0
    with pytest.raises(OverflowError, match="exceeds the float range"):
        bilinear_bound(1, 1, 1000, 1, 1, 100)
    with pytest.raises(OverflowError, match="exceeds the float range"):
        theorem1_bound(family, 1, 1000, 1, 100, K=5)
    # below the float limit the same family is finite and certified
    report = theorem1_bound(family, 1, 700, 1, 100, K=5)
    assert report.precondition_ok and math.isfinite(report.total)


def test_theorem1_term_overflow_raises_float_range_error():
    family = BilinearFamily(r=1.0, a=1.0)
    # a single term (mMT)^k/k! near k = 1000 overflows; at K=1000 the tail
    # overflows too, at K=2000 only the terms do
    for K in (1000, 2000):
        with pytest.raises(OverflowError, match="converges .margin 0. but its value "
                                                "exceeds the float range"):
            theorem1_bound(family, 1, 1000, 1, 100, K=K)
    values = [1.0] * 1001
    with pytest.raises(OverflowError, match="exceeds the float range") as info:
        theorem1_bound(values, 1, 1000, 1, 100)
    assert "math range error" not in str(info.value)
    with pytest.raises(OverflowError, match="converges .margin 0. but its value "
                                            "exceeds the float range"):
        theorem1_bound(values, 1, 1000, 1, 100, tail_family=family)
    # finite partial sum and tail whose total overflows: not "divergent"
    with pytest.raises(OverflowError, match="converges"):
        theorem1_bound([1e308, 0.0], 1, 1.0, 1.0, 1,
                       tail_family=BilinearFamily(r=1.5e308, a=1.0))
    # a divergent series whose partial sum overflows says so
    with pytest.raises(OverflowError, match="diverges .margin 2. and its partial sum"):
        theorem1_bound(AnalyticFamily(r=1.0, n=1, a_r=1.0), 1, 1.0, 1.0, 1, K=2000)


def test_partial_sums_nondecreasing_and_converge_to_closed_forms():
    cases = [
        (BilinearFamily(r=1.0, a=1.0), 1, 1.0, 1.0,
         bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, 100)),
        # half the convergence boundary for the other two families
        (AnalyticFamily(r=1.0, n=2, a_r=1.0), 2, 1.0, 1.0 / 32.0,
         analytic_bound(1.0, 2, 2, 1.0, 1.0 / 32.0, 1.0, 100)),
        (HopfieldFamily(r=1.0, n=2, a=0.5, b=1.0), 4, 1.0, 1.0 / 16.0,
         hopfield_bound(1.0, 2, 1.0, 1.0 / 16.0, 0.5, 1.0, 100)),
    ]
    for family, m, M, T, closed in cases:
        prev = 0.0
        for K in (1, 5, 10, 20, 40, 60):
            partial = theorem1_bound(family, m, M, T, 100, K=K).partial_sum
            assert partial >= prev - 1e-15
            prev = partial
        assert prev == pytest.approx(closed, rel=1e-10)
        assert prev <= closed * (1 + 1e-12)


# ---------------------------------------------------------------------------
# closed forms


def test_bilinear_values():
    assert bilinear_bound(1.0, 1, 1.0, 1.0, 0.0, 25) == pytest.approx(0.2)
    assert bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, 100) == pytest.approx(
        math.e / 10.0, rel=1e-12
    )
    assert bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, 400) == pytest.approx(
        bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, 100) / 2.0, rel=1e-15
    )


def test_analytic_values():
    n = 4
    assert analytic_bound(1.5, n, 2, 1.0, 0.0, 1.0, 9) == pytest.approx(
        (1 + 2 * math.sqrt(n)) * 1.5 / 3.0, rel=1e-12
    )
    # worked arithmetic: q = 0.2 so the factor is 1.25
    assert analytic_bound(1.0, 1, 1, 1.0, 0.1, 1.0, 100) == pytest.approx(
        0.375, rel=1e-12
    )
    with pytest.raises(PreconditionError) as err:
        analytic_bound(1.0, 1, 1, 1.0, 0.5, 1.0, 100)  # q = 1 exactly
    assert err.value.margin == pytest.approx(1.0)


def test_hopfield_values():
    # T = 0: the two 1/(2a) terms cancel
    assert hopfield_bound(1.0, 3, 1.0, 0.0, 2.0, 1.0, 4) == pytest.approx(0.5)
    assert hopfield_bound(1.0, 1, 1.0, 0.1, 1.0, 1.0, 100) == pytest.approx(
        (1.0 - 0.5 + 0.5 / math.sqrt(0.6)) / 10.0, rel=1e-12
    )
    with pytest.raises(PreconditionError):
        hopfield_bound(1.0, 1, 1.0, 0.25, 1.0, 1.0, 100)


def test_bounds_diverge_near_precondition_boundary():
    # analytic: scale T toward the boundary 2^n n mMT a_r = r
    t_boundary = 1.0 / (2.0 * 1 * 1 * 1.0)  # n=1, m=1, a_r=1, r=1
    lo = analytic_bound(1.0, 1, 1, 1.0, 0.5 * t_boundary, 1.0, 100)
    hi = analytic_bound(1.0, 1, 1, 1.0, 0.99 * t_boundary, 1.0, 100)
    assert hi > 10.0 * lo
    t_boundary = 1.0 / (4.0 * 1 * 1.0 * 1.0)  # hopfield n=1, b=a=1
    lo = hopfield_bound(1.0, 1, 1.0, 0.5 * t_boundary, 1.0, 1.0, 100)
    hi = hopfield_bound(1.0, 1, 1.0, 0.9999 * t_boundary, 1.0, 1.0, 100)
    assert hi > 10.0 * lo


def test_one_over_sqrt_n_scaling_everywhere():
    rng = np.random.default_rng(21)
    for _ in range(10):
        r = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.0, 1.5))
        M = float(rng.uniform(0.1, 1.0))
        T = float(rng.uniform(0.01, 0.5))
        N = int(rng.integers(10, 1000))
        v1 = bilinear_bound(r, 2, M, T, a, N)
        v4 = bilinear_bound(r, 2, M, T, a, 4 * N)
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-15)
        a_r = float(rng.uniform(0.01, 0.2))
        if 2 * M * T * a_r < r:  # n=1, m=1
            v1 = analytic_bound(r, 1, 1, M, T, a_r, N)
            v4 = analytic_bound(r, 1, 1, M, T, a_r, 4 * N)
            assert v4 == pytest.approx(v1 / 2.0, rel=1e-15)
        b = float(rng.uniform(0.1, 1.0))
        if 4 * M * T * b * max(a, 0.05) < 1:  # n=1
            aa = max(a, 0.05)
            v1 = hopfield_bound(r, 1, M, T, aa, b, N)
            v4 = hopfield_bound(r, 1, M, T, aa, b, 4 * N)
            assert v4 == pytest.approx(v1 / 2.0, rel=1e-15)
        family = GeometricFamily(C=r, rho=a, s=0)
        t1 = theorem1_bound(family, 2, M, T, N, K=20).total
        t4 = theorem1_bound(family, 2, M, T, 4 * N, K=20).total
        assert t4 == pytest.approx(t1 / 2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# one margin per family


# margin = mMT exactly for the analytic, hopfield and factorial geometric
# families below; bilinear and smooth geometric have margin 0
MARGIN_FAMILIES = [
    BilinearFamily(r=1.3, a=0.9),
    AnalyticFamily(r=1.0, n=1, a_r=0.5),
    HopfieldFamily(r=1.0, n=1, a=0.5, b=0.5),
    GeometricFamily(C=2.0, rho=1.0, s=1),
    GeometricFamily(C=2.0, rho=1.5, s=0),
]
# includes mMT = 1 exactly (1*1*1, 2*0.5*1, 2*1*0.5)
MARGIN_GRID = [(m, M, T) for m in (1, 2) for M in (0.0, 0.25, 0.5, 1.0)
               for T in (0.0, 0.5, 1.0, 2.0)]


def test_margin_drives_convergent_tail_and_closed_form():
    seen_boundary = False
    for family in MARGIN_FAMILIES:
        for m, M, T in MARGIN_GRID:
            margin = family.margin(m, M, T)
            seen_boundary |= margin == 1.0
            ok = family.convergent(m, M, T)
            assert ok == (margin < 1.0)
            for K in (0, 3):
                assert math.isfinite(family.tail(m, M, T, K)) == ok, (family, m, M, T)
            assert math.isfinite(family.closed_form(m, M, T)) == ok, (family, m, M, T)
    assert seen_boundary


def test_closed_form_matches_long_partial_sum():
    checked = 0
    for family in MARGIN_FAMILIES:
        for m, M, T in MARGIN_GRID:
            if family.margin(m, M, T) > 0.5:
                continue
            partial = theorem1_bound(family, m, M, T, N=1, K=200).partial_sum
            assert family.closed_form(m, M, T) == pytest.approx(partial, rel=1e-12)
            checked += 1
    assert checked > 30


def test_wrappers_raise_with_the_family_margin():
    for m, M, T in MARGIN_GRID:
        assert math.isfinite(bilinear_bound(1.3, m, M, T, 0.9, 100))
        family = AnalyticFamily(r=1.0, n=1, a_r=0.5)
        if family.margin(m, M, T) >= 1.0:
            with pytest.raises(PreconditionError) as err:
                analytic_bound(1.0, 1, m, M, T, 0.5, 100)
            assert err.value.margin == family.margin(m, M, T)
        # hopfield has n^2 channels: n = 1 and n = 2 give m = 1 and m = 4
        for n in (1, 2):
            family = HopfieldFamily(r=1.0, n=n, a=0.5, b=0.5)
            if family.margin(n * n, M, T) >= 1.0:
                with pytest.raises(PreconditionError) as err:
                    hopfield_bound(1.0, n, M, T, 0.5, 0.5, 100)
                assert err.value.margin == family.margin(n * n, M, T)


BAD_FAMILIES = [
    ("bilinear", {"r": 0.0, "a": 1.0}, "r"),
    ("bilinear", {"r": -1.0, "a": 1.0}, "r"),
    ("bilinear", {"r": 1.0, "a": -1.0}, "a"),
    ("analytic", {"r": 0.0, "n": 1, "a_r": 1.0}, "r"),
    ("analytic", {"r": 1.0, "n": 0, "a_r": 1.0}, "n"),
    ("analytic", {"r": 1.0, "n": 1, "a_r": -0.5}, "a_r"),
    ("hopfield", {"r": 0.0, "n": 1, "a": 1.0, "b": 1.0}, "r"),
    ("hopfield", {"r": 1.0, "n": 0, "a": 1.0, "b": 1.0}, "n"),
    ("hopfield", {"r": 1.0, "n": 1, "a": 0.0, "b": 1.0}, "a"),
    ("hopfield", {"r": 1.0, "n": 1, "a": 1.0, "b": -1.0}, "b"),
    ("geometric", {"C": -1.0, "rho": 1.0}, "C"),
    ("geometric", {"C": 1.0, "rho": -1.0}, "rho"),
    ("geometric", {"C": 1.0, "rho": 1.0, "s": 2}, "s"),
]


@pytest.mark.parametrize("kind, args, field", BAD_FAMILIES)
def test_family_rejects_bad_parameters(kind, args, field):
    cls = {"bilinear": BilinearFamily, "analytic": AnalyticFamily,
           "hopfield": HopfieldFamily, "geometric": GeometricFamily}[kind]
    with pytest.raises(ValueError, match=rf"\b{field} must be"):
        cls(**args)
    with pytest.raises(ValueError, match=rf"\b{field} must be"):
        family_from_json_dict({"kind": kind, **args})


def test_bilinear_bound_rejects_negative_a():
    with pytest.raises(ValueError, match=r"\ba must be"):
        bilinear_bound(1.0, 1, 1.0, 1.0, -1.0, 100)


# ---------------------------------------------------------------------------
# combinatorics


def test_gamma_k_small_values_exact():
    assert gamma_k(1) == 1
    assert gamma_k(2) == 6
    assert gamma_k(3) == 60
    assert isinstance(gamma_k(3), int)


def test_gamma_k_rejects_zero():
    with pytest.raises(ValueError):
        gamma_k(0)


def test_gamma_k_large_matches_exact_ratio():
    exact = math.factorial(25) * math.comb(50, 25) // 2
    assert gamma_k(25) == pytest.approx(float(exact), rel=1e-12)


def test_central_binomial_gf():
    assert central_binomial_gf(0.0) == 1.0
    want = 1.0 / math.sqrt(0.6)
    assert central_binomial_gf(0.1) == pytest.approx(want, rel=1e-14)
    partial = math.fsum(math.comb(2 * k, k) * 0.1**k for k in range(31))
    assert abs(partial - central_binomial_gf(0.1)) < 1e-6
    with pytest.raises(ValueError):
        central_binomial_gf(0.25)
    with pytest.raises(ValueError):
        central_binomial_gf(-0.3)


# ---------------------------------------------------------------------------
# contraction and excess risk


def test_loss_contraction_values():
    assert loss_contraction("absolute", 0.0, N=100, R_F=0.1) == pytest.approx(0.2)
    assert loss_contraction("squared", 1.0, 1.0, N=100, R_F=0.05) == pytest.approx(1.2)
    assert loss_contraction("absolute", 1.0, N=25, R_F=0.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        loss_contraction("squared", 1.0, None, N=100, R_F=0.1)
    with pytest.raises(ValueError):
        loss_contraction("hinge", 1.0, 1.0, N=100, R_F=0.1)


def test_excess_risk_values():
    # delta -> 1 with zero complexity: certificate collapses to zero
    assert excess_risk_bound(0.0, 1.0, 100, 1 - 1e-12) < 1e-6
    want = 0.4 + math.sqrt(2.0 * math.log(20.0) / 200.0)
    assert excess_risk_bound(0.1, 1.0, 200, 0.05) == pytest.approx(want, rel=1e-12)
    assert excess_risk_bound(0.3, 0.0, 10, 0.5) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        excess_risk_bound(0.1, 1.0, 10, 0.0)


# ---------------------------------------------------------------------------
# input helpers


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        assert spectral_norm(A) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0], rel=1e-8
        )
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_max_spectral_norm():
    A1 = np.diag([1.0, 2.0])
    A2 = np.diag([3.0, 0.5])
    assert max_spectral_norm([A1, A2]) == pytest.approx(3.0, rel=1e-9)


def test_polydisc_bound_known_polynomial():
    g = ((parse_expr("1 + 0.25*x1^2", 1),),)
    assert polynomial_polydisc_bound(g, 1.0) == pytest.approx(3.25)


def test_polydisc_bound_no_cross_monomial_cancellation():
    # (x1 - x2)(x1 + x2) = x1^2 - x2^2: both quadratic monomials count
    g = ((parse_expr("(x1 - x2)*(x1 + x2)", 2),),)
    assert polynomial_polydisc_bound(g, 1.0) == pytest.approx(18.0)


def test_polydisc_bound_rejects_primitives():
    g = ((parse_expr("sigma(x1)", 1),),)
    with pytest.raises(ValueError):
        polynomial_polydisc_bound(g, 1.0)
