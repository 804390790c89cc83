"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS line (failures raise, so a printed line means the criterion
passed). Run with `pytest tests/test_acceptance.py -v -rA` to see the
lines in the summary.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from chenfliess import (
    BilinearFamily,
    LieTable,
    analytic_bound,
    bilinear_bound,
    bilinear_system,
    builtin_system,
    central_binomial_gf,
    chen_fliess_eval,
    constant_path,
    empirical_rademacher,
    erm_fit,
    gamma_k,
    hopfield_bound,
    jensen_lemma_check,
    make_dataset,
    ode_reference,
    parse_expr,
    sample_ball,
    signature_norm_bound,
    signature_up_to,
    system_from_exprs,
    theorem1_bound,
)
from chenfliess.learning import coefficient_box
from chenfliess.lie import words_up_to

from conftest import quadrature_signature_oracle, random_path


def _report(number, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.2f}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {budget:.0f}s) {detail}")


def test_criterion_1_series_vs_exact_exponential():
    t0 = time.monotonic()
    sys = system_from_exprs(1, 1, [["x1"]], (1.0,), r=2.0, M=1.0, T=0.5)
    u = constant_path((1.0,), 0.5)
    ev = chen_fliess_eval(sys, (1.0,), u, 15)
    err = abs(ev.value - math.exp(0.5))
    assert err <= 1e-9
    _report(1, time.monotonic() - t0, 1.0,
            f"K=15 value within {err:.2e} of exp(0.5)")


def test_criterion_2_series_vs_rk4_noncommuting():
    t0 = time.monotonic()
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    sys = bilinear_system([A1, A2], c=(1.0, 0.0), r=1.0, M=1.0, T=0.3)
    family = BilinearFamily(r=1.0, a=1.0)
    u = random_path(np.random.default_rng(2024), 2, 1.0, 0.3, max_pieces=3)
    x0 = (0.6, -0.5)
    ode = ode_reference(sys, x0, u, 1e-3)
    lie = LieTable(sys)
    disc = None
    for K in range(2, 11):
        ev = chen_fliess_eval(sys, x0, u, K, family=family, lie_table=lie)
        disc = abs(ev.value - ode.y)
        budget = ev.tail_bound + 10.0 * ode.error_estimate
        assert disc <= budget, f"K={K}: {disc} > {budget}"
    assert disc <= 1e-8
    _report(2, time.monotonic() - t0, 5.0,
            f"K=2..10 inside tail budget, final discrepancy {disc:.2e}")


def test_criterion_3_signature_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(3000)
    violations = 0
    # simplex bound and the one-channel identity over 1000 random paths
    for _ in range(1000):
        M = float(rng.uniform(0.2, 2.0))
        T = float(rng.uniform(0.2, 2.0))
        u = random_path(rng, 2, M, T, max_pieces=6)
        table = signature_up_to(u, 5)
        s1 = table[(1,)]
        for w in table.words():
            if abs(table[w]) > signature_norm_bound(M, T, len(w)) * (1 + 1e-12):
                violations += 1
        for k in range(1, 6):
            want = s1**k / math.factorial(k)
            got = table[(1,) * k]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert violations == 0
    # exact propagation vs the adaptive-quadrature oracle on 50 paths
    words = words_up_to(2, 3)[1:]
    deep = [(1, 2, 2, 1), (2, 1, 1, 2, 1)]
    for i in range(50):
        u = random_path(rng, 2, 1.0, 1.0, max_pieces=4)
        for w in list(words) + deep:
            got = signature_up_to(u, len(w))[w]
            want = quadrature_signature_oracle(u, w)
            assert abs(got - want) <= 1e-10, f"path {i}, word {w}"
    _report(3, time.monotonic() - t0, 30.0,
            "0 bound violations in 1000 paths; shuffle identity at 1e-12; "
            "quadrature oracle at 1e-10 on 50 paths")


def test_criterion_4_closed_form_agreement():
    t0 = time.monotonic()
    N = 100
    fam = BilinearFamily(r=1.0, a=1.0)
    got = theorem1_bound(fam, 1, 1.0, 1.0, N, K=60).partial_sum
    want = bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, N)
    assert got == pytest.approx(want, rel=1e-12)
    # analytic at half the precondition boundary: 2^n n mMT a_r = r/2
    from chenfliess import AnalyticFamily, HopfieldFamily

    n, m, M, a_r, r = 2, 2, 1.0, 1.0, 1.0
    T = r / (2.0**n * n * m * M * a_r) / 2.0
    fam = AnalyticFamily(r=r, n=n, a_r=a_r)
    got = theorem1_bound(fam, m, M, T, N, K=60).partial_sum
    want = analytic_bound(r, n, m, M, T, a_r, N)
    assert got == pytest.approx(want, rel=1e-10)
    # saturating net at half the boundary: 4 n^2 MT b a = 1/2
    n, a, b = 2, 0.5, 1.0
    T = 1.0 / (4.0 * n * n * b * a) / 2.0
    fam = HopfieldFamily(r=1.0, n=n, a=a, b=b)
    got = theorem1_bound(fam, n * n, 1.0, T, N, K=60).partial_sum
    want = hopfield_bound(1.0, n, 1.0, T, a, b, N)
    assert got == pytest.approx(want, rel=1e-10)
    _report(4, time.monotonic() - t0, 1.0,
            "theorem sum at K=60 matches all three closed forms")


def test_criterion_5_combinatorics():
    t0 = time.monotonic()
    assert gamma_k(1) == 1 and gamma_k(2) == 6 and gamma_k(3) == 60
    partial = math.fsum(math.comb(2 * k, k) * 0.1**k for k in range(31))
    assert abs(partial - central_binomial_gf(0.1)) <= 1e-6
    assert central_binomial_gf(0.1) == pytest.approx(1.0 / math.sqrt(0.6),
                                                     rel=1e-14)
    _report(5, time.monotonic() - t0, 1.0,
            "gamma values exact; generating function matches partial sums")


def test_criterion_6_sign_average_harness():
    t0 = time.monotonic()
    rep = jensen_lemma_check(lambda x: 1.0, np.zeros((4, 1)), method="exact")
    assert rep.estimate == pytest.approx(1.5)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.passed
    rng = np.random.default_rng(600)
    points = sample_ball(rng, 2, 1.0, 100)
    for i in range(20):
        coef = rng.uniform(-2, 2, size=3)
        e = parse_expr(
            f"{coef[0]}*x1 + {coef[1]}*x2^2 + {coef[2]}*sigma(x1)", 2
        )
        rep = jensen_lemma_check(e, points, n_eps=10_000, seed=600 + i)
        assert rep.passed, f"psi {i} failed by {-rep.margin}"
    _report(6, time.monotonic() - t0, 10.0,
            "exact N=4 enumeration gives 1.5 <= 2; 20 random MC checks pass")


def test_criterion_7_empirical_below_certified():
    t0 = time.monotonic()
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 50, 6, seed=777)
    est = empirical_rademacher(data, built.spec, 6, n_controls=256,
                               n_eps=512, seed=777)
    cert = bilinear_bound(built.family.r, built.spec.m, built.spec.M,
                          built.spec.T, built.family.a, 50)
    assert est.estimate + 3.0 * est.stderr <= cert
    _report(7, time.monotonic() - t0, 120.0,
            f"estimate {est.estimate:.4f} + 3se <= certified {cert:.4f}")


def test_criterion_8_planted_model_erm():
    t0 = time.monotonic()
    built = builtin_system("bilinear2d")
    train, planted = make_dataset(built.spec, built.family, 500, 4, seed=888)
    test, _ = make_dataset(built.spec, built.family, 500, 4, seed=889,
                           planted=planted)
    model = erm_fit(train, built.spec, 4, loss="squared")
    test_risk = model.risk(test.x, test.y)
    assert model.train_risk <= 1e-6
    assert test_risk <= 1e-4
    assert np.all(np.abs(model.theta) <= model.box * (1 + 1e-12))
    # the planted signature itself respects the box
    words = model.words
    sig = signature_up_to(planted, 4)
    box = coefficient_box(words, built.spec.M, built.spec.T)
    assert np.all(np.abs([sig[w] for w in words]) <= box * (1 + 1e-12))
    _report(8, time.monotonic() - t0, 120.0,
            f"train risk {model.train_risk:.2e}, test risk {test_risk:.2e}, "
            "box respected")


def test_criterion_9_experiment_determinism(tmp_path):
    t0 = time.monotonic()
    config = {
        "system": "bilinear2d", "order": 4, "n_train": 80, "n_test": 80,
        "delta": 0.05, "seed": 999, "n_controls": 32, "n_eps": 64,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def run(out_name, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(threads)
        out = tmp_path / out_name
        subprocess.run(
            [sys.executable, "-m", "chenfliess.cli", "experiment",
             "--config", str(cfg), "--out", str(out)],
            check=True, env=env, capture_output=True,
        )
        return out.read_bytes()

    a = run("a.json", 1)
    b = run("b.json", 1)
    c = run("c.json", 4)
    assert a == b == c
    _report(9, time.monotonic() - t0, 120.0,
            "byte-identical reports across repeat runs and thread counts")


def test_criterion_10_scaling_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    for _ in range(10):
        r = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.05, 1.5))
        M = float(rng.uniform(0.1, 1.0))
        T = float(rng.uniform(0.01, 0.3))
        N = int(rng.integers(10, 2000))
        v1 = bilinear_bound(r, 2, M, T, a, N)
        assert bilinear_bound(r, 2, M, T, a, 4 * N) == pytest.approx(
            v1 / 2.0, rel=1e-15)
        a_r = float(rng.uniform(0.01, 0.2))
        if 2.0 * M * T * a_r < r:
            v1 = analytic_bound(r, 1, 1, M, T, a_r, N)
            assert analytic_bound(r, 1, 1, M, T, a_r, 4 * N) == pytest.approx(
                v1 / 2.0, rel=1e-15)
        b = float(rng.uniform(0.1, 1.0))
        if 4.0 * M * T * b * a < 1.0:
            v1 = hopfield_bound(r, 1, M, T, a, b, N)
            assert hopfield_bound(r, 1, M, T, a, b, 4 * N) == pytest.approx(
                v1 / 2.0, rel=1e-15)
        fam = BilinearFamily(r=r, a=a)
        v1 = theorem1_bound(fam, 2, M, T, N, K=20).total
        assert theorem1_bound(fam, 2, M, T, 4 * N, K=20).total == pytest.approx(
            v1 / 2.0, rel=1e-14)
    _report(10, time.monotonic() - t0, 5.0,
            "bound(4N) = bound(N)/2 for all calculators on 10 random sets")
