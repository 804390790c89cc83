"""Iterated integrals of piecewise-constant controls over the simplex.

The entry for a word w = (i1, ..., ik) is the integral of
u_{i1}(t1) * ... * u_{ik}(tk) over 0 <= t1 <= ... <= tk <= T. A piece of
length dt and constant value u has the truncated exponential exp(dt u)
as its signature, and Chen's identity (K.-T. Chen, 1954) multiplies the
pieces' signatures in the truncated tensor algebra, so entries are exact
up to floating-point rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lie import (_column_count, _letters, check_word_cap, validate_word, word_index,
                  word_lengths, words_up_to)
# the closure of a column set belongs to the column layout in lie; exported here too
from .lie import suffix_closure  # noqa: F401


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant m-channel control on [0, T].

    breakpoints = (0, t1, ..., T) strictly increasing; values[p][i] is the
    value of channel i+1 on [t_p, t_{p+1}); M is the declared magnitude
    bound, checked at construction. The degenerate horizon T = 0 is the
    single breakpoint (0,) with no pieces.
    """

    m: int
    breakpoints: tuple
    values: tuple
    M: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need m >= 1")
        bp = self.breakpoints
        # NaN passes every comparison below, so finiteness is checked first
        flat = [v for row in self.values for v in row]
        if not all(map(math.isfinite, [self.M, *bp, *flat])):
            raise ValueError("breakpoints, control values and M must be finite")
        if len(bp) < 1 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain the horizon")
        for a, b in zip(bp, bp[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        if len(self.values) != len(bp) - 1:
            raise ValueError("need one value row per piece")
        for row in self.values:
            if len(row) != self.m:
                raise ValueError(f"each value row must have m={self.m} entries")
            for v in row:
                if abs(v) > self.M * (1 + 1e-12):
                    raise ValueError(f"|{v}| exceeds declared bound M={self.M}")

    @property
    def T(self):
        return self.breakpoints[-1]

    @property
    def pieces(self):
        return len(self.values)

    def value(self, channel, t):
        """Channel value at time t (right-continuous, last piece closed)."""
        bp = self.breakpoints
        if not self.values:
            raise ValueError("zero-horizon path has no pieces")
        if not 0.0 <= t <= bp[-1]:
            raise ValueError(f"t={t} outside [0, {bp[-1]}]")
        for p in range(len(bp) - 1):
            if t < bp[p + 1]:
                return self.values[p][channel - 1]
        return self.values[-1][channel - 1]

    def prepend_channel(self, const):
        """New path with an extra first channel held at ``const`` (used to
        carry an absorbed drift)."""
        values = tuple((float(const),) + tuple(row) for row in self.values)
        return ControlPath(self.m + 1, self.breakpoints, values,
                           max(self.M, abs(float(const))))

    def to_json_dict(self):
        return {
            "m": self.m,
            "breakpoints": [float(t) for t in self.breakpoints],
            "values": [[float(v) for v in row] for row in self.values],
            "M": float(self.M),
        }

    @staticmethod
    def from_json_dict(d):
        return ControlPath(
            m=int(d["m"]),
            breakpoints=tuple(float(t) for t in d["breakpoints"]),
            values=tuple(tuple(float(v) for v in row) for row in d["values"]),
            M=float(d["M"]),
        )


def constant_path(values, T, M=None):
    """One-piece path holding ``values`` on [0, T] (no pieces when T = 0)."""
    values = tuple(float(v) for v in values)
    if M is None:
        M = max((abs(v) for v in values), default=0.0)
    if T == 0:
        return ControlPath(len(values), (0.0,), (), float(M))
    return ControlPath(len(values), (0.0, float(T)), (values,), float(M))


def signature_norm_bound(M, T, k):
    """(MT)^k / k!, the simplex-volume bound on any order-k entry."""
    if M < 0 or T < 0 or k < 0:
        raise ValueError("need M, T, k >= 0")
    if k == 0:
        return 1.0
    x = M * T
    if x == 0.0:
        return 0.0
    if k <= 170:
        direct = x**k / math.factorial(k)
        if math.isfinite(direct):
            return direct
    # log space for large k or extreme MT
    return math.exp(k * math.log(x) - math.lgamma(k + 1))


# ---------------------------------------------------------------------------
# Chen's identity


def _assert_simplex_bound(S, lengths, M, T):
    """Hard invariant: |S[b, j]| <= (M_b T_b)^k / k! for k = lengths[j],
    with 1e-12 relative headroom because bound-saturating paths land
    within an ulp of equality."""
    levels = range(int(np.max(lengths, initial=0)) + 1)
    per_path = {mt: [signature_norm_bound(*mt, k) for k in levels]
                for mt in set(zip(M, T))}
    bounds = np.array([per_path[mt] for mt in zip(M, T)])[:, lengths]
    bad = ~(np.abs(S) <= bounds * (1 + 1e-12) + 1e-300)  # NaN is a violation
    if bad.any():
        b, j = np.argwhere(bad)[0]
        raise AssertionError(f"|S[{b}, {j}]| = {abs(S[b, j])} (order {lengths[j]}) "
                             f"violates the simplex bound {bounds[b, j]}")


def signature_matrix(paths, K):
    """(B, W) signatures of B paths, columns in words_up_to(m, K) order
    (level k is the C-order (B, m^k) block, first letter slowest), each row
    checked against its path's simplex bound."""
    paths = list(paths)
    if len({u.m for u in paths}) != 1:
        raise ValueError("need one or more paths with the same channel count")
    return signature_columns(_steps(paths), K, None, [u.M for u in paths],
                             [u.T for u in paths])


def signature_columns(steps, K, cols, M, T):
    """(B, len(cols)) signature entries of B paths given as (B, pieces, m)
    steps dt * u, on a sorted, suffix-closed set ``cols`` of
    words_up_to(m, K) columns (None: every column). Every returned column
    is checked against the simplex bound of its path's M and T (scalars or
    one per path)."""
    S, lengths = _chen_columns(np.asarray(steps, dtype=float), K, cols)
    _assert_simplex_bound(S, lengths, np.broadcast_to(M, len(S)), np.broadcast_to(T, len(S)))
    return S


def _steps(paths):
    """(B, pieces, m) steps dt * u; shorter paths get zero-length pieces,
    which is exact (E_0 = 1, E_j = 0 for j > 0)."""
    steps = np.zeros((len(paths), max(u.pieces for u in paths), paths[0].m))
    for b, u in enumerate(paths):
        if u.pieces:
            steps[b, : u.pieces] = np.diff(u.breakpoints)[:, None] * u.values
    return steps


def _chen_columns(steps, K, cols=None):
    """The unchecked kernel of signature_columns; returns the entries and
    their word lengths. Only cols=None (every column) is held to WORD_CAP.

    Chen's identity from the last piece: S <- E (x) S, where a piece of
    step x has E^v = x_{v1} ... x_{vj} / j!. So (E (x) S)^w is, in Horner
    form, H_0(w) with H_i(v) = S^v + x_{v1} H_{i+1}(v[1:]) / (i + 1): one
    flat update per depth i over the columns of length <= K - i. It reads
    only suffixes, so any suffix-closed set is exact on its own."""
    B, pieces, m = steps.shape
    if cols is None:
        check_word_cap(m, K)
    W = _column_count(m, K)
    cols = np.arange(W) if cols is None else np.asarray(cols, dtype=np.intp)
    if cols.size and (cols[0] != 0 or np.any(np.diff(cols) <= 0) or cols[-1] >= W):
        raise ValueError("columns must be sorted, distinct, in range and hold the empty word")
    lengths, first, tail = _letters(m, K, cols)
    at = np.searchsorted(cols, tail)  # a tail is never past its own column
    if np.any(cols[at] != tail):
        raise ValueError("the column set is not suffix-closed")
    tail = at
    first[:1] = m  # a zero channel, so the empty word keeps its 1
    sizes = np.searchsorted(lengths, np.arange(K + 1), side="right")
    x = np.take(np.concatenate([steps, np.zeros((B, pieces, 1))], axis=2), first, axis=2)
    S = np.zeros((B, len(cols)))
    S[:, :1] = 1.0
    for p in range(pieces - 1, -1, -1):
        H = S[:, :1]
        for i in range(K - 1, -1, -1):
            k = sizes[K - i]
            H = np.take(H, tail[:k], axis=1)  # in place from here: S + x H / (i + 1)
            H *= x[:, p, :k]
            H /= i + 1
            H += S[:, :k]
        S = H
    return S, lengths


def signature_entry(u, w):
    """Exact signature entry for one word: Chen's identity from the first
    piece, on the prefixes of w (the column kernel runs from the last
    piece, on suffixes), O(pieces |w|^2) with no word enumeration."""
    w = validate_word(w, u.m)
    prefix = [1.0] + [0.0] * len(w)  # entries for w[:k] of the path so far
    for dt, row in zip(np.diff(u.breakpoints), u.values):
        x = [dt * row[i - 1] for i in w]
        for k in range(len(w), 0, -1):
            acc = prefix[0]
            for i in range(1, k + 1):
                acc = acc * x[i - 1] / (k - i + 1) + prefix[i]
            prefix[k] = acc
    return float(prefix[-1])


@dataclass(eq=False)
class SignatureTable:
    """All entries for |w| <= K as one row in words_up_to(m, K) order (the
    row of signature_matrix), with the simplex bound as a hard invariant."""

    m: int
    K: int
    M: float
    T: float
    row: np.ndarray

    def __post_init__(self):
        lengths = word_lengths(self.m, self.K)
        if self.row.shape != lengths.shape:
            raise ValueError(f"row must hold {len(lengths)} entries for m = {self.m}, K = {self.K}")
        if self.row[0] != 1.0:
            raise AssertionError("empty-word entry must be exactly 1")
        _assert_simplex_bound(self.row[None, :], lengths, [self.M], [self.T])

    def __getitem__(self, w):
        try:
            j = word_index(self.m, w)
        except ValueError:
            raise KeyError(tuple(w)) from None
        if j >= len(self.row):  # the row ends at order K
            raise KeyError(tuple(w))
        return float(self.row[j])

    def __contains__(self, w):
        try:
            self[w]
        except KeyError:
            return False
        return True

    @property
    def entries(self):
        return dict(zip(self.words(), self.row.tolist()))

    def words(self):
        return words_up_to(self.m, self.K)

    def flipped(self):
        """Table for the sign-flipped control: S^w(-u) = (-1)^|w| S^w(u)."""
        odd = word_lengths(self.m, self.K) % 2 == 1
        return SignatureTable(self.m, self.K, self.M, self.T,
                              np.where(odd, -self.row, self.row))

    def to_json_dict(self):
        return {
            "m": self.m,
            "K": self.K,
            "M": float(self.M),
            "T": float(self.T),
            "entries": [{"word": [int(i) for i in w], "value": s}
                        for w, s in self.entries.items()],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def signature_up_to(u, K):
    """All entries for |w| <= K: row 0 of signature_matrix([u], K), the
    Chen product of the truncated exponentials of u's pieces. The
    SignatureTable checks the simplex bound."""
    row = _chen_columns(_steps([u]), K)[0][0]
    return SignatureTable(m=u.m, K=K, M=u.M, T=u.T, row=row)
