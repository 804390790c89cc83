import json
import math
import warnings

import numpy as np
import pytest

from chenfliess import (
    ControlPath,
    analytic_bound,
    Dataset,
    DataValidationError,
    bilinear_bound,
    bilinear_system,
    builtin_system,
    empirical_rademacher,
    erm_fit,
    feature_matrix,
    generalization_experiment,
    hopfield_bound,
    jensen_lemma_check,
    make_dataset,
    model_sup_bound,
    parse_expr,
    random_control_path,
    report_to_json,
    sample_ball,
    signature_up_to,
)
from chenfliess import learning
from chenfliess.expressions import ONE, ZERO, eval_expr
from chenfliess.learning import coefficient_box, random_controls
from chenfliess.lie import LieTable, ResourceCapError, system_from_exprs, words_up_to
from chenfliess.signatures import signature_columns, signature_matrix, suffix_closure


# ---------------------------------------------------------------------------
# datasets


def test_dataset_rejects_out_of_domain_points():
    with pytest.raises(DataValidationError):
        Dataset(np.array([[2.0, 0.0]]), np.array([0.0]), r=1.0, m1=1.0)


def test_dataset_rejects_large_labels():
    with pytest.raises(DataValidationError):
        Dataset(np.array([[0.1, 0.0]]), np.array([5.0]), r=1.0, m1=1.0)
    assert Dataset(np.array([[0.1, 0.0]]), np.array([0.0]), r=1.0, m1=0.0).N == 1


@pytest.mark.parametrize("x, y", [
    ([[0.1, 0.0], [np.nan, 0.0]], [0.0, 0.0]),
    ([[0.1, 0.0], [0.0, 0.1]], [0.0, np.nan]),
    ([[0.1, 0.0], [0.0, -np.inf]], [0.0, 0.0]),
])
def test_dataset_rejects_non_finite_records(x, y):
    # NaN fails every bound check, so it must be rejected on its own
    with pytest.raises(DataValidationError, match=r"record 1: .*finite"):
        Dataset(np.array(x), np.array(y), r=1.0, m1=1.0)


@pytest.mark.parametrize("r, m1, match", [
    (np.nan, 1.0, "r must be"),
    (np.inf, 1.0, "r must be"),
    (0.0, 1.0, "r must be"),
    (-1.0, 1.0, "r must be"),
    (1.0, np.nan, "m1 must be"),
    (1.0, np.inf, "m1 must be"),
    (1.0, -1.0, "m1 must be"),
])
def test_dataset_rejects_bad_radius_and_label_bound(r, m1, match):
    # every bound check passes against NaN, so r and m1 are checked first
    with pytest.raises(DataValidationError, match=match):
        Dataset(np.array([[0.1, 0.0]]), np.array([0.0]), r=r, m1=m1)


@pytest.mark.parametrize("text, match", [
    ("", "empty CSV file"),
    ("\n0.1,0.2\n", "last CSV column must be 'y'"),
    ("x1,y\n0.1,0.2\n0.1,abc\n", "line 3: .*'abc'"),
    ("x1,y\n0.1,0.2\nnan,0.0\n", "line 3: .*finite"),
    ("x1,y\n0.1,inf\n", "line 2: .*finite"),
])
def test_csv_rejects_empty_files_and_bad_cells(tmp_path, text, match):
    p = tmp_path / "data.csv"
    p.write_text(text)
    with pytest.raises(DataValidationError, match=match):
        Dataset.from_csv(p, r=1.0, m1=1.0)


def test_csv_round_trip_and_row_numbers(tmp_path):
    rng = np.random.default_rng(0)
    X = sample_ball(rng, 2, 1.0, 10)
    y = rng.uniform(-0.5, 0.5, 10)
    data = Dataset(X, y, 1.0, 1.0)
    p = tmp_path / "data.csv"
    data.to_csv(p)
    back = Dataset.from_csv(p, r=1.0, m1=1.0)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)

    with open(p, "a", encoding="utf-8") as fh:
        fh.write("5.0,5.0,0.0\n")
    with pytest.raises(DataValidationError) as err:
        Dataset.from_csv(p, r=1.0, m1=1.0)
    assert "line 12" in str(err.value)


def test_sample_ball_inside_radius():
    pts = sample_ball(np.random.default_rng(1), 3, 0.7, 500)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.7 + 1e-12)


# ---------------------------------------------------------------------------
# sign-average harness


def test_exact_enumeration_constant_psi():
    points = np.zeros((4, 1))
    for psi in (lambda x: 1.0, parse_expr("1", 1)):
        rep = jensen_lemma_check(psi, points, method="exact")
        assert rep.estimate == pytest.approx(1.5)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.passed


def test_zero_psi_trivially_passes():
    points = np.zeros((6, 1))
    rep = jensen_lemma_check(lambda x: 0.0, points, method="exact")
    assert rep.estimate == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


def test_mc_passes_for_random_functions():
    rng = np.random.default_rng(5)
    points = sample_ball(rng, 2, 1.0, 100)
    e = parse_expr("x1^2 - 0.5*x2 + sigma(x1)", 2)
    rep = jensen_lemma_check(e, points, n_eps=10_000, seed=3)
    assert rep.passed
    assert rep.stderr > 0.0
    pointwise = jensen_lemma_check(lambda x: eval_expr(e, x), points,
                                   n_eps=10_000, seed=3)
    assert rep.estimate == pytest.approx(pointwise.estimate, rel=1e-13)
    assert rep.rhs == pytest.approx(pointwise.rhs, rel=1e-13)


def test_exact_enumeration_guard():
    with pytest.raises(ValueError):
        jensen_lemma_check(lambda x: 1.0, np.zeros((25, 1)), method="exact")


# ---------------------------------------------------------------------------
# empirical Rademacher


def test_constant_class_estimate_below_lemma_bound():
    # all fields zero: the class is the single function c^T x
    sys = bilinear_system([np.zeros((2, 2))], c=(1.0, 0.0), r=1.0, M=1.0, T=0.3)
    rng = np.random.default_rng(2)
    data = Dataset(sample_ball(rng, 2, 1.0, 40), np.zeros(40), 1.0, 1.0)
    est = empirical_rademacher(data, sys, 2, n_controls=8, n_eps=400, seed=9)
    assert est.estimate >= 0.0
    assert est.estimate <= 1.0 / math.sqrt(40) + 3.0 * est.stderr


def test_estimate_below_certified_bound_bilinear():
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 50, 4, seed=3)
    est = empirical_rademacher(data, built.spec, 4, 64, 256, seed=3)
    cert = bilinear_bound(built.family.r, built.spec.m, built.spec.M,
                          built.spec.T, built.family.a, 50)
    assert est.estimate + 3.0 * est.stderr <= cert


def test_estimate_below_certified_bound_analytic_and_hopfield():
    for name in ("analytic1d", "hopfield2"):
        built = builtin_system(name)
        data, _ = make_dataset(built.spec, built.family, 30, 3, seed=4)
        est = empirical_rademacher(data, built.spec, 3, 32, 128, seed=4)
        from chenfliess import theorem1_bound

        cert = theorem1_bound(built.family, built.spec.m, built.spec.M,
                              built.spec.T, 30, K=60).total
        assert est.estimate + 3.0 * est.stderr <= cert, name


def test_scaling_with_sample_size():
    built = builtin_system("bilinear2d")
    data1, _ = make_dataset(built.spec, built.family, 60, 3, seed=6)
    data4, _ = make_dataset(built.spec, built.family, 240, 3, seed=6)
    e1 = empirical_rademacher(data1, built.spec, 3, 64, 400, seed=6)
    e4 = empirical_rademacher(data4, built.spec, 3, 64, 400, seed=6)
    # quadrupling N should roughly halve the estimate
    assert abs(e4.estimate - e1.estimate / 2.0) <= 3.0 * (e1.stderr + e4.stderr) \
        + 0.1 * e1.estimate


def test_rademacher_even_odd_split_matches_explicit_flips():
    # reference: stack every path with its sign flip and take the max
    # over all 2 n_controls rows, as a sampled sup over {u, -u}
    cases = []
    for name, K in (("bilinear2d", 5), ("hopfield2", 3), ("analytic1d", 0)):
        built = builtin_system(name)
        data, _ = make_dataset(built.spec, built.family, 40, K, seed=12)
        cases.append((name, built.spec, K, data))
    rng = np.random.default_rng(15)
    X = sample_ball(rng, 3, 1.0, 40)
    # dense: no zero column, and more words (63) than points (40)
    dense = bilinear_system(list(rng.standard_normal((2, 3, 3))), c=rng.standard_normal(3),
                            r=1.0, M=1.0, T=0.5)
    cases.append(("dense", dense, 5, Dataset(X, np.zeros(40), 1.0, 1.0)))
    # zero output: every column is zero, so no word is live
    blind = bilinear_system([np.eye(2), np.ones((2, 2))], c=(0.0, 0.0), r=1.0, M=1.0,
                            T=0.3)
    cases.append(("blind", blind, 3, Dataset(X[:, :2], np.zeros(40), 1.0, 1.0)))
    for name, sys, K, data in cases:
        n_controls, n_eps, seed = 24, 50, 13
        est = empirical_rademacher(data, sys, K, n_controls, n_eps, seed)
        words, Phi = feature_matrix(sys, data.x, K)
        bp, values = random_controls(np.random.default_rng([seed, 1]), n_controls, sys.m,
                                     sys.M, sys.T, 3)
        paths = [ControlPath(sys.m, tuple(b), tuple(map(tuple, v)), sys.M)
                 for b, v in zip(bp.tolist(), values.tolist())]
        sigs = signature_matrix(paths, K)
        # the estimate's restriction to the suffix closure of the live words
        cols = suffix_closure(sys.m, K, np.flatnonzero(np.any(Phi != 0.0, axis=0)))
        steps = np.diff(bp, axis=1)[:, :, None] * values
        assert np.array_equal(signature_columns(steps, K, cols, sys.M, sys.T),
                              sigs[:, cols]), name
        parity = np.array([(-1.0) ** len(w) for w in words])
        vals = np.vstack([sigs, sigs * parity]) @ Phi.T
        eps = np.random.default_rng([seed, 2]).integers(0, 2, size=(n_eps, 40)) * 2.0 - 1.0
        sups = np.max(np.abs(vals @ eps.T), axis=0) / 40
        assert est.estimate == pytest.approx(sups.mean(), rel=1e-12), name
        assert est.stderr == pytest.approx(sups.std(ddof=1) / math.sqrt(n_eps),
                                           rel=1e-12), name
        if name == "dense":
            assert np.all(np.any(Phi != 0.0, axis=0)) and Phi.shape == (40, 63)
        if name == "blind":
            assert est.estimate == 0.0 and est.stderr == 0.0


def test_rademacher_non_finite_features_raise_without_warnings():
    sys = bilinear_system([[[0.0, 1e200], [1e200, 0.0]]], c=(1.0, 0.0), r=1.0, M=1.0,
                          T=0.3)
    data = Dataset(sample_ball(np.random.default_rng(16), 2, 1.0, 20), np.zeros(20),
                   1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match="non-finite features"):
            feature_matrix(sys, data.x, 2)
        with pytest.raises(FloatingPointError, match="non-finite"):
            empirical_rademacher(data, sys, 2, n_controls=8, n_eps=16, seed=1)
    # finite features (up to 8.7e307) whose pairing overflows
    sys = bilinear_system([[[0.0, 1e154], [1e154, 0.0]]], c=(1.0, 0.0), r=1.0, M=1.0,
                          T=0.3)
    assert np.all(np.isfinite(feature_matrix(sys, data.x, 2)[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match="non-finite model outputs"):
            empirical_rademacher(data, sys, 2, n_controls=8, n_eps=16, seed=1)


def test_det_matmul_does_not_depend_on_the_chunk_cap(monkeypatch):
    from chenfliess import _num

    rng = np.random.default_rng(14)
    A, B = rng.standard_normal((300, 170)), rng.standard_normal((170, 90))
    want = _num.det_matmul(A, B)
    for cap in (1, 20_000, 10**9):
        monkeypatch.setattr(_num, "_CHUNK_ELEMENTS", cap)
        assert np.array_equal(_num.det_matmul(A, B), want)
    assert np.allclose(want, A @ B, rtol=1e-12, atol=1e-12)


def _broadcast_matmul(A, B):
    """det_matmul before its einsum path: one broadcast sum over C-order copies."""
    A, B = np.ascontiguousarray(A, dtype=float), np.ascontiguousarray(B, dtype=float)
    return (A[:, :, None] * B[None, :, :]).sum(axis=1)


def test_det_matmul_einsum_path_matches_the_broadcast_sum_bit_for_bit():
    from chenfliess import _num

    rng = np.random.default_rng(18)
    shapes = [(63, 200, 512), (256, 32, 512), (9, 200, 512)]  # the pairing shapes
    shapes += [(r, n, p) for r in (0, 1, 2, 7) for n in (0, 1, 3, 64) for p in (1, 2, 3, 17)]
    shapes += [tuple(int(v) for v in rng.integers(1, 90, 3)) for _ in range(40)]
    for r, n, p in shapes:
        A, B = rng.standard_normal((r, n)), rng.standard_normal((n, p))
        want = _broadcast_matmul(A, B).view(np.uint64)
        flipped = (np.ascontiguousarray(A[::-1, ::-1])[::-1, ::-1],
                   np.ascontiguousarray(B[::-1, ::-1])[::-1, ::-1])  # negative strides
        for a, b in ((A, B), (np.asfortranarray(A), np.asfortranarray(B)), flipped):
            assert np.array_equal(_num.det_matmul(a, b).view(np.uint64), want), (r, n, p)


def test_det_matmul_callers_keep_the_broadcast_bits(monkeypatch):
    from chenfliess import bounds, learning as lrn

    rng = np.random.default_rng(19)
    matrices = [rng.standard_normal((k, k)) for k in (1, 2, 3, 6)]
    matrices.append(rng.standard_normal((5, 1)))
    cases = []
    for name, K in (("bilinear2d", 6), ("hopfield2", 3), ("analytic1d", 6)):
        built = builtin_system(name)
        data, _ = make_dataset(built.spec, built.family, 60, K, seed=20)
        cases.append((data, built.spec, K))
    got = ([empirical_rademacher(d, s, K, 64, 64, seed=21) for d, s, K in cases],
           [bounds.spectral_norm(A) for A in matrices])
    assert builtin_system("bilinear2d").family.a == 1.0
    monkeypatch.setattr(lrn, "det_matmul", _broadcast_matmul)
    monkeypatch.setattr(bounds, "det_matmul", _broadcast_matmul)
    want = ([empirical_rademacher(d, s, K, 64, 64, seed=21) for d, s, K in cases],
            [bounds.spectral_norm(A) for A in matrices])
    assert got == want


def test_pieces_below_one_rejected():
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 10, 2, seed=3)
    for pieces in (0, -1):
        with pytest.raises(ValueError, match="need pieces >= 1"):
            empirical_rademacher(data, built.spec, 2, n_controls=4, n_eps=4, seed=1,
                                 pieces=pieces)
    with pytest.raises(ValueError, match="need pieces >= 1"):
        generalization_experiment({"system": "bilinear2d", "seed": 1, "order": 2,
                                   "n_train": 10, "n_test": 10, "pieces": 0})


def test_rademacher_deterministic():
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 20, 3, seed=8)
    a = empirical_rademacher(data, built.spec, 3, 16, 64, seed=8)
    b = empirical_rademacher(data, built.spec, 3, 16, 64, seed=8)
    assert a.estimate == b.estimate and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# ERM


def test_erm_order_zero_is_clipped_single_feature_regression():
    built = builtin_system("bilinear2d")
    sys = built.spec
    rng = np.random.default_rng(3)
    X = sample_ball(rng, 2, 1.0, 80)
    psi = X[:, 0]  # c^T x with c = e1
    y = 0.4 * psi + 0.05 * rng.uniform(-1, 1, 80)
    data = Dataset(X, y, 1.0, 2.0)
    model = erm_fit(data, sys, 0, loss="squared")
    optimum = float(psi @ y / (psi @ psi))
    want = max(-1.0, min(1.0, optimum))
    assert model.theta[0] == pytest.approx(want, abs=1e-8)


def test_erm_zero_labels_zero_model():
    built = builtin_system("bilinear2d")
    rng = np.random.default_rng(4)
    X = sample_ball(rng, 2, 1.0, 50)
    data = Dataset(X, np.zeros(50), 1.0, 1.0)
    model = erm_fit(data, built.spec, 3, loss="squared")
    assert np.allclose(model.theta, 0.0)
    assert model.train_risk == 0.0


def test_erm_planted_recovery_small():
    built = builtin_system("bilinear2d")
    train, planted = make_dataset(built.spec, built.family, 120, 3, seed=12)
    test, _ = make_dataset(built.spec, built.family, 120, 3, seed=13,
                           planted=planted)
    model = erm_fit(train, built.spec, 3, loss="squared")
    assert model.train_risk <= 1e-10
    assert model.risk(test.x, test.y) <= 1e-8
    assert np.all(np.abs(model.theta) <= model.box * (1 + 1e-12))


def test_erm_absolute_loss_reduces_risk():
    built = builtin_system("bilinear2d")
    train, _ = make_dataset(built.spec, built.family, 60, 2, seed=14)
    model = erm_fit(train, built.spec, 2, loss="absolute", max_iter=2_000)
    base = float(np.abs(train.y).mean())
    assert model.train_risk < base
    assert np.all(np.abs(model.theta) <= model.box * (1 + 1e-12))


def _doubled_bilinear():
    # doubled planted labels push the optimum out of the box, so some
    # coefficients end on their bounds
    built = builtin_system("bilinear2d")
    planted, _ = make_dataset(built.spec, built.family, 120, 3, seed=5)
    return built.spec, Dataset(planted.x, 2.0 * planted.y, planted.r, 2.0 * planted.m1)


def test_erm_nonconvergence_reported(tmp_path):
    # the active set needs 5 steps on this input
    sys, data = _doubled_bilinear()
    model = erm_fit(data, sys, 3, loss="squared", max_iter=3)
    assert not model.converged
    assert model.n_iter == 3
    assert model.kkt_residual > 0.0


def test_erm_without_live_columns_returns_zero():
    # c = 0: every feature column is zero, so no word is live
    blind = bilinear_system([np.eye(2), np.ones((2, 2))], c=(0.0, 0.0), r=1.0, M=1.0,
                            T=0.3)
    X = sample_ball(np.random.default_rng(15), 2, 1.0, 40)
    data = Dataset(X, np.linspace(-1.0, 1.0, 40), 1.0, 1.0)
    # one active-set step finds nothing free; the simplex starts optimal
    for loss, steps in (("squared", 1), ("absolute", 0)):
        model = erm_fit(data, blind, 3, loss=loss)
        assert not np.any(model.theta), loss
        assert model.n_iter == steps and model.converged, loss
        assert model.kkt_residual == 0.0, loss


def _squared_oracle(model, data):
    """(optimal risk, optimality violation at the fit): the optimum comes
    from scipy's bounded-variable least squares, an independent oracle for
    the active-set solver, run to its KKT stop (tol 1e-13; its default
    1e-10 can stop on a small cost change first); the violation is the
    unit-step projected gradient at model.theta, recomputed here, which
    vanishes exactly at a box-constrained optimum."""
    from scipy.optimize import lsq_linear

    _, Phi = feature_matrix(model.sys, data.x, model.K)
    scale = math.sqrt(data.N)
    sol = lsq_linear(Phi / scale, data.y / scale,
                     bounds=(-model.box, model.box), method="bvls", tol=1e-13)
    assert sol.success
    grad = 2.0 * Phi.T @ (Phi @ model.theta - data.y) / data.N
    step = model.theta - np.clip(model.theta - grad, -model.box, model.box)
    return float(((data.y - Phi @ sol.x) ** 2).mean()), float(np.max(np.abs(step)))


def test_erm_squared_matches_bvls_with_active_box():
    sys, data = _doubled_bilinear()
    model = erm_fit(data, sys, 3, loss="squared")
    assert model.converged and model.n_iter < 200_000
    assert model.solver == "bvls"
    assert np.sum(np.abs(model.theta) == model.box) >= 1
    assert np.all(np.abs(model.theta) <= model.box)
    oracle, violation = _squared_oracle(model, data)
    assert oracle > 0.1
    assert model.train_risk == pytest.approx(oracle, rel=1e-10)
    assert violation <= 1e-11


def test_erm_squared_matches_bvls_on_ill_conditioned_analytic():
    built = builtin_system("analytic1d")
    data, _ = make_dataset(built.spec, built.family, 200, 4, seed=7)
    model = erm_fit(data, built.spec, 4, loss="squared")
    assert model.converged and model.n_iter < 200_000
    oracle, violation = _squared_oracle(model, data)
    assert model.train_risk <= oracle + 1e-12 * float((data.y**2).mean())
    assert violation <= 1e-11


def test_erm_squared_matches_bvls_on_rank_deficient_hopfield():
    built = builtin_system("hopfield2")
    data, _ = make_dataset(built.spec, built.family, 200, 4, seed=7)
    _, Phi = feature_matrix(built.spec, data.x, 4)
    live = Phi[:, np.any(Phi != 0.0, axis=0)]
    assert live.shape[1] == 63 and np.linalg.matrix_rank(live) < 63
    model = erm_fit(data, built.spec, 4)
    assert model.converged
    oracle, violation = _squared_oracle(model, data)
    # noise-free: both risks are rounding above 0
    assert model.train_risk == pytest.approx(
        oracle, rel=1e-10, abs=1e-12 * float((data.y**2).mean()))
    assert violation <= 1e-11


def test_erm_squared_matches_bvls_on_noisy_hopfield_with_active_box():
    built = builtin_system("hopfield2")
    noisy, _ = make_dataset(built.spec, built.family, 200, 4, seed=7, noise=0.05)
    data = Dataset(noisy.x, 3.0 * noisy.y, noisy.r, 3.0 * noisy.m1)
    model = erm_fit(data, built.spec, 4)
    assert model.converged
    assert np.sum(np.abs(model.theta) == model.box) >= 1
    oracle, violation = _squared_oracle(model, data)
    assert oracle > 0.1
    assert model.train_risk == pytest.approx(oracle, rel=1e-10)
    assert violation <= 1e-11


def test_hopfield_default_experiment_needs_few_active_set_steps():
    erm = generalization_experiment({"system": "hopfield2", "order": 4, "seed": 1})["erm"]
    assert erm["solver"] == "bvls"
    assert erm["converged"] and erm["n_iter"] <= 50


def _l1_oracle(model, data):
    """Optimal absolute-loss risk from HiGHS (scipy's linprog), an
    independent LP solver, on min mean(t) s.t. -t <= y - Phi theta <= t
    and |theta| <= box."""
    from scipy import sparse
    from scipy.optimize import linprog

    _, Phi = feature_matrix(model.sys, data.x, model.K)
    N, p = Phi.shape
    eye = sparse.identity(N)
    A = sparse.bmat([[-sparse.csr_matrix(Phi), -eye], [sparse.csr_matrix(Phi), -eye]])
    sol = linprog(np.concatenate([np.zeros(p), np.full(N, 1.0 / N)]), A_ub=A,
                  b_ub=np.concatenate([-data.y, data.y]),
                  bounds=[(-b, b) for b in model.box] + [(0.0, None)] * N,
                  method="highs")
    assert sol.status == 0
    theta = np.clip(sol.x[:p], -model.box, model.box)
    return float(np.abs(data.y - Phi @ theta).mean())


@pytest.mark.parametrize("scale", [1.0, 2.0, -2.0])
def test_erm_absolute_loss_is_exact_lp(scale):
    # |scale| = 2 pushes the optimum against the upper (scale 2) or lower
    # (scale -2) box bound, so the gap needs the dual's box term
    built = builtin_system("bilinear2d")
    sys = built.spec
    noisy, _ = make_dataset(sys, built.family, 80, 3, seed=9, noise=0.05)
    data = Dataset(noisy.x, scale * noisy.y, noisy.r, abs(scale) * noisy.m1)
    model = erm_fit(data, sys, 3, loss="absolute")
    assert model.converged and model.n_iter < 200_000
    assert model.solver == "l1-simplex"
    assert model.kkt_residual <= 1e-9
    assert np.all(np.abs(model.theta) <= model.box)
    if abs(scale) > 1.0:
        assert np.sum(np.abs(model.theta) == model.box) >= 1
    squared = erm_fit(data, sys, 3, loss="squared")
    _, Phi = feature_matrix(sys, data.x, 3)
    at_squared = float(np.abs(data.y - Phi @ squared.theta).mean())
    assert model.train_risk <= at_squared
    assert model.train_risk <= float(np.abs(data.y).mean())
    assert model.train_risk == pytest.approx(_l1_oracle(model, data), rel=1e-10)


def test_erm_absolute_iteration_cap_reported():
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 80, 3, seed=9, noise=0.05)
    assert erm_fit(data, built.spec, 3, loss="absolute").n_iter == 3
    model = erm_fit(data, built.spec, 3, loss="absolute", max_iter=2)
    assert not model.converged
    assert model.n_iter == 2
    assert np.all(np.abs(model.theta) <= model.box)


# (system, order, N, seed, noise, label scale); noisy and box-active
# bilinear2d data are the cases of test_erm_absolute_loss_is_exact_lp.
# Noise-free labels and y = 0 have optimum 0 (the planted signature lies
# in the box), which HiGHS reaches only to its feasibility tolerances
# (1e-11 to 1e-8 here), so there the fit must reach 0 and not exceed it.
L1_CASES = {
    "noise-free": ("bilinear2d", 3, 80, 9, 0.0, 1.0),
    "hopfield2-K3-scaled": ("hopfield2", 3, 200, 7, 0.0, 3.0),
    "hopfield2-K3-noise-free": ("hopfield2", 3, 200, 7, 0.0, 1.0),
    "hopfield2-K4-noisy": ("hopfield2", 4, 200, 7, 0.05, 1.0),
    "hopfield2-K4-noise-free": ("hopfield2", 4, 200, 7, 0.0, 1.0),
    "N<q": ("hopfield2", 4, 20, 7, 0.05, 1.0),
    "N<q-noise-free": ("hopfield2", 4, 20, 7, 0.0, 1.0),
    "y=0": ("hopfield2", 4, 50, 7, 0.0, 0.0),
}


@pytest.mark.parametrize("case", sorted(L1_CASES))
def test_erm_absolute_matches_highs_oracle(case):
    system, K, N, seed, noise, scale = L1_CASES[case]
    built = builtin_system(system)
    base, _ = make_dataset(built.spec, built.family, N, K, seed=seed, noise=noise)
    data = Dataset(base.x, scale * base.y, base.r, max(abs(scale), 1.0) * base.m1)
    words, Phi = feature_matrix(built.spec, data.x, K)
    live = Phi[:, np.any(Phi != 0.0, axis=0)]
    q = live.shape[1]
    if system == "hopfield2":  # zero and duplicate columns, rank deficient
        assert q < len(words) and len(np.unique(live, axis=1).T) < q
        assert np.linalg.matrix_rank(live) < q
    if case.startswith("N<q"):
        assert N < q
    model = erm_fit(data, built.spec, K, loss="absolute")
    assert model.solver == "l1-simplex"
    assert model.converged
    assert np.all(np.abs(model.theta) <= model.box)
    assert 0.0 <= model.kkt_residual <= 1e-9
    oracle = _l1_oracle(model, data)
    scale_y = float(np.abs(data.y).mean())
    assert model.train_risk <= oracle + 1e-10 * oracle + 1e-12 * scale_y
    if noise == 0.0 and abs(scale) <= 1.0:
        assert model.train_risk <= 1e-12 * scale_y
    else:
        assert model.train_risk == pytest.approx(oracle, rel=1e-10, abs=1e-12 * scale_y)


def test_erm_column_cap(monkeypatch):
    # both solvers read learning.ERM_COLUMN_CAP when erm_fit runs
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 40, 3, seed=9, noise=0.05)
    monkeypatch.setattr("chenfliess.learning.ERM_COLUMN_CAP", 4)
    erm_fit(data, built.spec, 3, loss="absolute")  # 4 live columns of 15
    monkeypatch.setattr("chenfliess.learning.ERM_COLUMN_CAP", 3)
    for loss in ("squared", "absolute"):
        with pytest.raises(ResourceCapError, match=(
                "ERM over 4 live feature columns exceeds the cap of 3; lower the order")):
            erm_fit(data, built.spec, 3, loss=loss)


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_failed_lp_writes_strict_json(monkeypatch):
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 80, 3, seed=9, noise=0.05)
    model = erm_fit(data, built.spec, 3, loss="absolute", max_iter=2)
    assert not model.converged
    # the dual bound of the capped basis leaves a finite, positive gap
    assert math.isfinite(model.kkt_residual) and model.kkt_residual > 0.0
    fitted = _strict_loads(report_to_json(model.to_json_dict()))
    assert fitted["kkt_residual"] == model.kkt_residual

    fit = learning.erm_fit
    monkeypatch.setattr(learning, "erm_fit",
                        lambda *a, **k: fit(*a, **{**k, "max_iter": 3}))
    report = generalization_experiment(
        dict(BASE_CONFIG, loss="absolute", noise=0.05))
    erm = _strict_loads(report_to_json(report))["erm"]
    assert math.isfinite(erm["kkt_residual"]) and erm["kkt_residual"] > 0.0
    assert not erm["converged"]


def test_report_to_json_rejects_non_finite_floats():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            report_to_json({"value": bad})


def test_signatures_live_inside_coefficient_box():
    built = builtin_system("bilinear2d")
    sys = built.spec
    words = words_up_to(sys.m, 5)
    box = coefficient_box(words, sys.M, sys.T)
    for c in range(50):
        u = random_control_path(np.random.default_rng([77, c]), sys.m, sys.M,
                                sys.T, pieces=4)
        table = signature_up_to(u, 5)
        theta = np.array([table[w] for w in words])
        assert np.all(np.abs(theta) <= box * (1 + 1e-12))


# ---------------------------------------------------------------------------
# end-to-end experiment


BASE_CONFIG = {
    "system": "bilinear2d",
    "order": 3,
    "n_train": 100,
    "n_test": 100,
    "delta": 0.05,
    "seed": 21,
    "n_controls": 32,
    "n_eps": 64,
}


def test_experiment_report_complete_and_consistent():
    report = generalization_experiment(dict(BASE_CONFIG))
    assert report["schema_version"] == 4
    erm = report["erm"]
    assert erm["solver"] == "bvls"
    assert erm["converged"] and 0 < erm["n_iter"] < 200_000
    assert 0.0 <= erm["kkt_residual"] <= 1e-12
    assert report["checks"]["empirical_le_certified"]
    assert report["risks"]["train"] <= 1e-8
    cert = report["certified"]
    assert cert["certified"]
    assert cert["complexity_bound"] == pytest.approx(
        bilinear_bound(1.0, 2, 1.0, 0.3, 1.0, 100), rel=1e-10
    )
    assert cert["excess_risk_bound"] > 0.0
    assert report["empirical_rademacher"]["estimate"] <= cert["complexity_bound"]


def test_experiment_certificate_equals_public_closed_form():
    wrappers = {
        "bilinear2d": lambda f, s, N: bilinear_bound(f.r, s.m, s.M, s.T, f.a, N),
        "analytic1d": lambda f, s, N: analytic_bound(f.r, f.n, s.m, s.M, s.T,
                                                     f.a_r, N),
        "hopfield2": lambda f, s, N: hopfield_bound(f.r, f.n, s.M, s.T, f.a,
                                                    f.b, N),
    }
    for name, wrapper in wrappers.items():
        built = builtin_system(name)
        cfg = dict(BASE_CONFIG, system=name, order=2, n_train=40, n_test=40,
                   n_controls=8, n_eps=16)
        cert = generalization_experiment(cfg)["certified"]
        assert cert["certified"], name
        assert cert["complexity_bound"] == wrapper(built.family, built.spec, 40)
        assert cert["model_sup_bound"] == model_sup_bound(
            built.family, built.spec.m, built.spec.M, built.spec.T)


def test_experiment_reproducible():
    a = generalization_experiment(dict(BASE_CONFIG))
    b = generalization_experiment(dict(BASE_CONFIG))
    assert report_to_json(a) == report_to_json(b)


def test_experiment_zero_horizon_constant_class(tmp_path):
    # T = 0 degenerates the class to multiples of c^T x
    spec_dict = {
        "n": 2, "m": 2, "g": [["x2", "0"], ["0", "x1"]],
        "c": [1.0, 0.0], "r": 1.0, "M": 1.0, "T": 0.0,
    }
    f = tmp_path / "system.json"
    f.write_text(json.dumps(spec_dict))
    cfg = dict(BASE_CONFIG)
    cfg["system"] = {"file": str(f)}
    cfg["family"] = {"kind": "bilinear", "r": 1.0, "a": 1.0}
    report = generalization_experiment(cfg)
    assert report["checks"]["empirical_le_certified"]
    gap = abs(report["checks"]["risk_gap"])
    assert gap <= 5.0 / math.sqrt(cfg["n_train"])


def test_experiment_uncertified_branch_still_runs(tmp_path):
    spec_dict = {
        "n": 1, "m": 1, "g": [["1 + 0.25*x1^2"]],
        "c": [1.0], "r": 1.0, "M": 1.0, "T": 1.0,
    }
    f = tmp_path / "system.json"
    f.write_text(json.dumps(spec_dict))
    cfg = dict(BASE_CONFIG)
    cfg["system"] = {"file": str(f)}
    cfg["family"] = {"kind": "analytic", "r": 1.0, "n": 1, "a_r": 3.25}
    cfg["order"] = 3
    report = generalization_experiment(cfg)
    assert not report["certified"]["certified"]
    assert "estimate" in report["empirical_rademacher"]
    assert report["checks"] == {}


def test_experiment_warns_on_non_unit_output_vector(tmp_path):
    spec_dict = {
        "n": 2, "m": 2, "g": [["x2", "0"], ["0", "x1"]],
        "c": [2.0, 0.0], "r": 1.0, "M": 1.0, "T": 0.1,
    }
    f = tmp_path / "system.json"
    f.write_text(json.dumps(spec_dict))
    rng = np.random.default_rng(40)
    X = sample_ball(rng, 2, 1.0, 30)
    data = Dataset(X, rng.uniform(-0.5, 0.5, 30), 1.0, 1.0)
    csv_path = tmp_path / "train.csv"
    data.to_csv(csv_path)
    cfg = dict(BASE_CONFIG)
    cfg["system"] = {"file": str(f)}
    cfg["family"] = {"kind": "bilinear", "r": 1.0, "a": 1.0}
    cfg["data"] = {"csv": str(csv_path), "m1": 1.0}
    cfg["n_controls"], cfg["n_eps"] = 8, 16
    # the unit-c certificate is wrong for this system, so after the warning
    # the hard empirical-vs-certified check may legitimately trip
    with pytest.warns(UserWarning, match=r"\|c\| ="):
        try:
            generalization_experiment(cfg)
        except RuntimeError as err:
            assert "certificate violated" in str(err)


def test_experiment_csv_ingestion(tmp_path):
    built = builtin_system("bilinear2d")
    train, _ = make_dataset(built.spec, built.family, 40, 3, seed=30)
    p = tmp_path / "train.csv"
    train.to_csv(p)
    cfg = dict(BASE_CONFIG)
    cfg["data"] = {"csv": str(p), "m1": train.m1}
    report = generalization_experiment(cfg)
    assert report["risks"]["test"] is None
    assert report["empirical_rademacher"]["N"] == 40


def test_model_sup_bound_scale():
    built = builtin_system("bilinear2d")
    v = model_sup_bound(built.family, 2, 1.0, 0.3)
    assert v == pytest.approx(1.0 * math.exp(2 * 1.0 * 0.3 * 1.0), rel=1e-10)


def test_feature_matrix_matches_pointwise_eval():
    tanh_sys = system_from_exprs(2, 2, [["tanh(x2)", "0.5*x1"], ["1", "tanh(x1)*x2"]],
                                 (0.6, 0.8), r=1.0, M=1.0, T=0.2)
    # g = (1): entry (1,) is the constant 1 and entry (1, 1) is ZERO
    const_sys = system_from_exprs(1, 1, [["1"]], (1.0,), r=1.0, M=1.0, T=0.5)
    cases = [(builtin_system("bilinear2d").spec, 5),
             (builtin_system("analytic1d").spec, 6),
             (builtin_system("hopfield2").spec, 3),
             (tanh_sys, 4), (const_sys, 3)]
    for sys, K in cases:
        X = sample_ball(np.random.default_rng(57), sys.n, sys.r, 30)
        table = LieTable(sys)
        words, Phi = feature_matrix(sys, X, K, lie_table=table)
        assert Phi.shape == (30, len(words))
        for j, w in enumerate(words):
            e = table.entry(w[::-1])
            for i in range(30):
                want = eval_expr(e, X[i])
                assert abs(Phi[i, j] - want) <= 1e-13 * (1.0 + abs(want)), (w, i)
    table = LieTable(const_sys)
    assert table.entry((1,)) == ONE and table.entry((1, 1)) == ZERO


def test_points_of_the_wrong_width_are_rejected():
    built = builtin_system("bilinear2d")
    sys = built.spec
    match = r"X must be \(N, n\) with n = 2"
    for X in ([[0.1, 0.2, 0.3]], [0.1, 0.2], [[0.1]]):
        with pytest.raises(ValueError, match=match):
            feature_matrix(sys, X, 2)
    data, _ = make_dataset(sys, built.family, 10, 2, seed=3)
    wide = Dataset(np.hstack([data.x, np.zeros((10, 1))]), data.y, data.r, data.m1)
    with pytest.raises(ValueError, match=match):
        erm_fit(wide, sys, 2)
    with pytest.raises(ValueError, match=match):
        empirical_rademacher(wide, sys, 2, n_controls=4, n_eps=4, seed=1)
    model = erm_fit(data, sys, 2)
    with pytest.raises(ValueError, match=match):
        model.predict(wide.x)


def test_feature_matrix_consistent_with_series():
    from chenfliess import chen_fliess_eval

    built = builtin_system("bilinear2d")
    sys = built.spec
    u = random_control_path(np.random.default_rng(55), sys.m, sys.M, sys.T, 3)
    X = sample_ball(np.random.default_rng(56), 2, 1.0, 5)
    K = 4
    words, Phi = feature_matrix(sys, X, K)
    table = signature_up_to(u, K)
    theta = np.array([table[w] for w in words])
    for i in range(5):
        direct = chen_fliess_eval(sys, X[i], u, K).value
        assert float(Phi[i] @ theta) == pytest.approx(direct, rel=1e-12, abs=1e-14)
