import json
import math

import numpy as np
import pytest

from chenfliess import (
    ControlPath,
    ResourceCapError,
    constant_path,
    random_control_path,
    signature_entry,
    signature_matrix,
    signature_norm_bound,
    signature_up_to,
    words_up_to,
)
from chenfliess.learning import random_controls
from chenfliess.lie import word_index
from chenfliess.signatures import signature_columns, suffix_closure

from conftest import mc_signature_oracle, quadrature_signature_oracle, random_path


# ---------------------------------------------------------------------------
# ControlPath


def test_control_path_validates_bound():
    with pytest.raises(ValueError):
        ControlPath(1, (0.0, 1.0), ((2.0,),), M=1.0)


def test_control_path_validates_breakpoints():
    with pytest.raises(ValueError):
        ControlPath(1, (0.0, 1.0, 1.0), ((0.5,), (0.5,)), M=1.0)
    with pytest.raises(ValueError):
        ControlPath(1, (0.5, 1.0), ((0.5,),), M=1.0)


@pytest.mark.parametrize("bp, values, M", [
    ((0.0, 1.0), ((math.nan,),), 1.0),
    ((0.0, 1.0), ((-math.inf,),), 1.0),
    ((0.0, math.nan), ((0.5,),), 1.0),
    ((0.0, math.inf), ((0.5,),), 1.0),
    ((0.0, 1.0), ((0.5,),), math.nan),
])
def test_control_path_rejects_non_finite(bp, values, M):
    # NaN passes every > check, so it once reached the signature
    with pytest.raises(ValueError, match="must be finite"):
        ControlPath(1, bp, values, M)


def test_control_path_value_lookup():
    u = ControlPath(2, (0.0, 1.0, 2.0), ((1.0, 0.0), (0.0, -1.0)), M=1.0)
    assert u.value(1, 0.5) == 1.0
    assert u.value(1, 1.5) == 0.0
    assert u.value(2, 2.0) == -1.0  # closed last piece


def test_control_path_json_round_trip():
    u = random_path(np.random.default_rng(0), 2, 1.0, 0.7)
    d = json.loads(json.dumps(u.to_json_dict()))
    assert ControlPath.from_json_dict(d) == u


def test_prepend_channel():
    u = constant_path((0.5,), 1.0)
    v = u.prepend_channel(2.0)
    assert v.m == 2
    assert v.values == ((2.0, 0.5),)
    assert v.M == 2.0


# ---------------------------------------------------------------------------
# entries against closed forms


def test_empty_word_entry_is_one():
    u = constant_path((0.3,), 1.0)
    assert signature_entry(u, ()) == 1.0


def test_constant_control_closed_form():
    c, T = 0.8, 1.7
    u = constant_path((c,), T)
    for k in range(7):
        want = (c * T) ** k / math.factorial(k)
        assert signature_entry(u, (1,) * k) == pytest.approx(want, rel=1e-13)


def test_two_piece_cancellation():
    u = ControlPath(1, (0.0, 1.0, 2.0), ((1.0,), (-1.0,)), M=1.0)
    assert signature_entry(u, (1,)) == pytest.approx(0.0, abs=1e-15)
    # one-channel shuffle identity: S^{(1,1)} = (S^{(1)})^2 / 2 = 0
    assert signature_entry(u, (1, 1)) == pytest.approx(0.0, abs=1e-15)


def test_table_order_zero():
    u = constant_path((0.2, -0.1), 1.0)
    table = signature_up_to(u, 0)
    assert table.entries == {(): 1.0}


def test_constant_two_channel_closed_form():
    u = constant_path((1.0, 0.0), 1.0)
    table = signature_up_to(u, 2)
    assert table[(1,)] == pytest.approx(1.0)
    assert table[(2,)] == 0.0
    assert table[(1, 1)] == pytest.approx(0.5)
    for w in ((1, 2), (2, 1), (2, 2)):
        assert table[w] == 0.0


def test_zero_control_vanishes():
    u = constant_path((0.0, 0.0), 2.0, M=1.0)
    table = signature_up_to(u, 3)
    for w in table.words():
        if len(w) >= 1:
            assert table[w] == 0.0


# ---------------------------------------------------------------------------
# oracles


def test_matches_monte_carlo_simplex_integration():
    rng = np.random.default_rng(123)
    u = random_path(rng, 2, 1.0, 1.0, max_pieces=3)
    table = signature_up_to(u, 4)
    words = [w for w in table.words() if len(w) >= 1]
    oracle = mc_signature_oracle(u, words, n_samples=1_000_000, rng=rng)
    for w in words:
        est, se = oracle[w]
        assert abs(table[w] - est) <= 3.0 * se + 1e-12


def test_matches_quadrature_recursion():
    for m in (1, 2, 3):
        rng = np.random.default_rng(7)
        for _ in range(4):
            u = random_path(rng, m, 1.0, 1.0)
            table = signature_up_to(u, 4)
            for w in table.words():
                if len(w) == 0:
                    continue
                want = quadrature_signature_oracle(u, w)
                assert abs(table[w] - want) <= 1e-10


def test_signature_matrix_batch_matches_quadrature():
    rng = np.random.default_rng(31)
    paths = [random_control_path(rng, 2, 1.2, 0.9, pieces) for pieces in range(1, 7)]
    paths.append(constant_path((0.4, -0.3), 0.0, M=1.2))  # T = 0: no pieces
    K = 3
    S = signature_matrix(paths, K)
    words = words_up_to(2, K)
    assert S.shape == (len(paths), len(words))
    for u, row in zip(paths, S):
        assert row[0] == 1.0
        for w, got in zip(words[1:], row[1:]):
            want = quadrature_signature_oracle(u, w) if u.pieces else 0.0
            assert abs(got - want) <= 1e-10
        # padding with zero-length pieces is exact
        assert np.array_equal(row, signature_matrix([u], K)[0])


def test_signature_entry_long_word_without_enumeration():
    u = random_path(np.random.default_rng(5), 2, 1.0, 1.0)
    with pytest.raises(ResourceCapError):
        signature_up_to(u, 25)
    want = signature_entry(u, (1,)) ** 25 / math.factorial(25)
    assert signature_entry(u, (1,) * 25) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the column kernel


def _suffix_closed_columns(rng, m, K):
    """Sorted columns of a random word set closed under taking suffixes."""
    words = words_up_to(m, K)
    picked = {words[j] for j in rng.choice(len(words), size=int(rng.integers(1, 6)))}
    closed = {w[i:] for w in picked for i in range(len(w) + 1)}
    return np.array(sorted(word_index(m, w) for w in closed)), words


def test_signature_columns_match_signature_entry_on_suffix_closed_sets():
    rng = np.random.default_rng(61)
    for m in (1, 2, 3, 4):
        K = 4 if m < 4 else 3
        for B, T in ((1, 0.8), (7, 1.3), (5, 0.0)):  # T = 0: no pieces
            bp, values = random_controls(rng, B, m, 1.1, T, int(rng.integers(1, 5)))
            steps = np.diff(bp, axis=1)[:, :, None] * values
            paths = [ControlPath(m, tuple(b), tuple(map(tuple, v)), 1.1)
                     for b, v in zip(bp.tolist(), values.tolist())]
            for _ in range(4):
                cols, words = _suffix_closed_columns(rng, m, K)
                S = signature_columns(steps, K, cols, 1.1, T)
                assert S.shape == (B, len(cols))
                for u, row in zip(paths, S):
                    for j, got in zip(cols, row):
                        w = words[j]
                        want = signature_entry(u, w)
                        tol = 1e-14 * signature_norm_bound(1.1, T, len(w))
                        assert abs(got - want) <= tol, (m, B, w)
            # the set {()} alone, and the full set
            assert np.array_equal(signature_columns(steps, K, [0], 1.1, T), np.ones((B, 1)))
            full = np.arange(len(words_up_to(m, K)))
            assert np.array_equal(signature_columns(steps, K, full, 1.1, T),
                                  signature_matrix(paths, K))


def test_signature_columns_reject_sets_that_are_not_suffix_closed():
    steps = np.full((2, 3, 2), 0.1)
    for cols in ([word_index(2, (1,))],                      # no empty word
                 [0, word_index(2, (1, 2))],                  # (2,) missing
                 [0, 2, 1],                                   # unsorted
                 [0, 1, 1],                                   # repeated
                 [0, 1, 2, len(words_up_to(2, 2))]):          # out of range
        with pytest.raises(ValueError):
            signature_columns(steps, 2, cols, 1.0, 0.3)


def test_signature_columns_nan_step_fails_the_simplex_bound():
    steps = np.full((3, 2, 2), 0.1)
    steps[1, 0, 1] = math.nan  # channel 2 of path 1: every word with a 2 is NaN
    cols = suffix_closure(2, 3, [word_index(2, (1, 1, 2))])
    with pytest.raises(AssertionError, match="violates the simplex bound"):
        signature_columns(steps, 3, cols, 1.0, 0.4)
    signature_columns(steps, 3, suffix_closure(2, 3, [word_index(2, (1, 1, 1))]), 1.0, 0.4)


def test_suffix_closure():
    cols = suffix_closure(3, 4, [word_index(3, (2, 3, 1)), word_index(3, (3, 1))])
    want = [(), (1,), (3, 1), (2, 3, 1)]
    assert cols.tolist() == sorted(word_index(3, w) for w in want)
    assert suffix_closure(2, 3, []).tolist() == []


def test_random_controls_raise_before_drawing_and_have_no_pieces_at_zero_horizon():
    rng = np.random.default_rng(62)
    state = rng.bit_generator.state
    for pieces in (0, -1):
        with pytest.raises(ValueError, match="need pieces >= 1"):
            random_controls(rng, 4, 2, 1.0, 0.0, pieces)
    assert rng.bit_generator.state == state
    bp, values = random_controls(rng, 4, 2, 1.0, 0.0, 3)
    assert bp.shape == (4, 1) and values.shape == (4, 0, 2)
    # one row of a draw is random_control_path's path
    u = random_control_path(np.random.default_rng(63), 3, 0.7, 0.9, 4)
    bp, values = random_controls(np.random.default_rng(63), 1, 3, 0.7, 0.9, 4)
    assert u.breakpoints == tuple(bp[0]) and u.values == tuple(map(tuple, values[0]))


# ---------------------------------------------------------------------------
# invariants


def test_simplex_bound_holds_on_random_paths():
    rng = np.random.default_rng(99)
    for _ in range(100):
        M = float(rng.uniform(0.2, 2.0))
        T = float(rng.uniform(0.2, 2.0))
        u = random_path(rng, 2, M, T)
        table = signature_up_to(u, 5)  # construction asserts the bound
        for w in table.words():
            assert abs(table[w]) <= signature_norm_bound(M, T, len(w)) * (1 + 1e-12)


def test_signature_matrix_bounds_are_per_path():
    small = constant_path((0.1, 0.0), 0.5)
    big = constant_path((2.0, -2.0), 2.0)  # saturates its own, larger bound
    S = signature_matrix([small, big], 4)  # construction asserts each bound
    lengths = [len(w) for w in words_up_to(2, 4)]
    for u, row in zip((small, big), S):
        bounds = np.array([signature_norm_bound(u.M, u.T, k) for k in lengths])
        assert np.all(np.abs(row) <= bounds * (1 + 1e-12))
    small_bounds = [signature_norm_bound(small.M, small.T, k) for k in lengths]
    assert np.any(np.abs(S[1]) > small_bounds)


def test_simplex_bound_checked_once_per_table(monkeypatch):
    from chenfliess import signatures

    calls = []
    check = signatures._assert_simplex_bound

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(signatures, "_assert_simplex_bound", counting)
    u = random_path(np.random.default_rng(12), 2, 1.0, 1.0)
    for K in (0, 2, 4):
        calls.clear()
        signature_up_to(u, K)
        assert len(calls) == 1
        calls.clear()
        signature_matrix([u, u], K)
        assert len(calls) == 1


def test_one_channel_shuffle_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = random_path(rng, 1, 1.0, 1.5)
        table = signature_up_to(u, 5)
        s1 = table[(1,)]
        for k in range(1, 6):
            want = s1**k / math.factorial(k)
            assert table[(1,) * k] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_bound_saturating_path_passes_hard_assertion():
    u = constant_path((1.0,), 1.0)  # S^{(1^k)} equals the bound exactly
    signature_up_to(u, 20)


def test_corrupted_table_rejected():
    u = constant_path((0.5,), 1.0)
    table = signature_up_to(u, 2)
    from chenfliess.signatures import SignatureTable

    for value in (10.0, math.nan, math.inf):  # NaN passes every > check
        bad = table.row.copy()
        bad[1] = value  # the entry of word (1,)
        with pytest.raises(AssertionError, match="violates the simplex bound"):
            SignatureTable(u.m, 2, u.M, u.T, bad)


def test_table_is_a_view_over_the_signature_row():
    for m in (1, 2, 3):
        u = random_path(np.random.default_rng(40 + m), m, 1.0, 1.0)
        table = signature_up_to(u, 3)
        assert np.array_equal(table.row, signature_matrix([u], 3)[0])
        words = words_up_to(m, 3)
        for w in words:
            assert table[w] == table.row[words.index(w)]
        for w in ((0,), (m + 1,), (1, m + 1), (1,) * 4):
            assert w not in table
            with pytest.raises(KeyError):
                table[w]


def test_table_rejects_a_row_of_the_wrong_length():
    from chenfliess.signatures import SignatureTable

    row = signature_up_to(constant_path((0.5, 0.5), 1.0), 2).row
    for bad in (row[:1], row[:-1], np.append(row, 0.0)):
        with pytest.raises(ValueError, match="row must hold 7 entries"):
            SignatureTable(2, 2, 0.5, 1.0, bad)


def test_flipped_table_parity():
    u = random_path(np.random.default_rng(11), 2, 1.0, 1.0)
    table = signature_up_to(u, 3)
    flipped = table.flipped()
    for w in table.words():
        want = table[w] if len(w) % 2 == 0 else -table[w]
        assert flipped[w] == want


def test_resource_guard():
    u = constant_path((1.0, 1.0), 1.0)
    with pytest.raises(ResourceCapError):
        signature_up_to(u, 30)


def test_word_enumeration_matches_table():
    u = constant_path((0.5, -0.5), 1.0)
    table = signature_up_to(u, 3)
    assert table.words() == words_up_to(2, 3)


# ---------------------------------------------------------------------------
# norm bound


def test_norm_bound_values():
    assert signature_norm_bound(1.0, 1.0, 0) == 1.0
    assert signature_norm_bound(1.0, 1.0, 5) == pytest.approx(1.0 / 120.0)
    assert signature_norm_bound(2.0, 0.5, 3) == pytest.approx(1.0 / 6.0)


def test_norm_bound_large_k_log_space():
    v = signature_norm_bound(3.0, 2.0, 400)
    want = math.exp(400 * math.log(6.0) - math.lgamma(401))
    assert v == pytest.approx(want, rel=1e-12)
    assert signature_norm_bound(0.0, 1.0, 3) == 0.0
