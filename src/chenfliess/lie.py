"""Words over control channels and the iterated Lie derivative engine.

A word w = (i1, ..., ik) indexes one term of the series expansion. The
LieTable memoizes the scalar expressions obtained by differentiating the
output map c^T x along the channel vector fields, sharing word prefixes:
the entry for w extended by channel i is the Lie derivative of the entry
for w along g_i. With that extension rule the bilinear entry for w is
literally c^T A_{i1} ... A_{ik} x (left-to-right product). How entries
pair with signature entries inside the series evaluator is settled by an
ODE oracle; see chenfliess.series.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .expressions import (
    Constant,
    ExprError,
    Product,
    Sum,
    Var,
    ZERO,
    differentiate,
    eval_expr,
    max_var_index,
    parse_expr,
    simplify,
    to_text,
)

Word = tuple
EMPTY_WORD: Word = ()


class ResourceCapError(RuntimeError):
    """Raised when an operation would enumerate more words than allowed."""


def check_word_cap(m, k, cap):
    if k < 0:
        raise ValueError("need K >= 0")
    count = m**k
    if count > cap:
        raise ResourceCapError(
            f"{m}^{k} = {count} words exceeds the cap of {cap}; "
            "use a closed-form bound family instead of enumeration"
        )


def words_of_length(m, k):
    """All words of length k over channels 1..m, lexicographic order."""
    return iter_product(range(1, m + 1), repeat=k)


def words_up_to(m, K):
    """All words of length <= K in length-lexicographic order."""
    out = []
    for k in range(K + 1):
        out.extend(words_of_length(m, k))
    return out


def word_lengths(m, K):
    """Length of each word of words_up_to(m, K), in that order."""
    return np.repeat(np.arange(K + 1), [m**k for k in range(K + 1)])


def validate_word(w, m):
    for i in w:
        if not 1 <= i <= m:
            raise ValueError(f"channel {i} out of range 1..{m}")
    return tuple(w)


def word_index(m, w):
    """Column of w in words_up_to(m, K), K >= |w|: w in bijective base m."""
    j = 0
    for i in validate_word(w, m):
        j = j * m + i
    return j


# ---------------------------------------------------------------------------
# System specification


@dataclass(frozen=True)
class SystemSpec:
    """A driftless control-affine system x' = sum_i u_i(t) g_i(x), y = c^T x.

    n: state dimension; m: channel count; g: m vector fields of n Exprs
    each; c: output vector; r: radius of the state domain (Euclidean ball);
    M: control magnitude bound; T: time horizon.
    """

    n: int
    m: int
    g: tuple
    c: tuple
    r: float
    M: float
    T: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if not (self.r > 0):
            raise ValueError("domain radius r must be > 0")
        if self.M < 0 or self.T < 0:
            raise ValueError("M and T must be >= 0")
        if len(self.g) != self.m:
            raise ValueError(f"expected {self.m} vector fields, got {len(self.g)}")
        for i, field in enumerate(self.g, start=1):
            if len(field) != self.n:
                raise ValueError(f"vector field g{i} must have {self.n} components")
            for comp in field:
                if max_var_index(comp) > self.n:
                    raise ExprError(
                        f"g{i} references x{max_var_index(comp)} but n={self.n}"
                    )
        if len(self.c) != self.n:
            raise ValueError(f"output vector c must have {self.n} components")

    @property
    def output_expr(self):
        terms = tuple(
            Product((Constant(float(ci)), Var(j + 1)))
            for j, ci in enumerate(self.c)
            if ci != 0
        )
        return simplify(Sum(terms)) if terms else ZERO

    def c_norm(self):
        return math.sqrt(math.fsum(ci * ci for ci in self.c))

    def field_matrix_at(self, x):
        """G(x) as an (n, m) array, columns g_1(x) .. g_m(x)."""
        out = np.empty((self.n, self.m))
        for i, field in enumerate(self.g):
            for j, comp in enumerate(field):
                out[j, i] = eval_expr(comp, x)
        return out

    def to_json_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "g": [[to_text(comp) for comp in field] for field in self.g],
            "c": [float(ci) for ci in self.c],
            "r": float(self.r),
            "M": float(self.M),
            "T": float(self.T),
        }


def system_from_exprs(n, m, g_texts, c, r, M, T):
    """Build a SystemSpec from DSL source strings (one list per channel)."""
    g = tuple(tuple(parse_expr(src, n) for src in field) for field in g_texts)
    return SystemSpec(n=n, m=m, g=g, c=tuple(float(ci) for ci in c), r=float(r),
                      M=float(M), T=float(T))


def system_from_json_dict(d):
    return system_from_exprs(d["n"], d["m"], d["g"], d["c"], d["r"], d["M"], d["T"])


def bilinear_system(matrices, c, r, M, T):
    """SystemSpec for x' = (sum_i u_i A_i) x with linear output c^T x."""
    mats = [np.asarray(A, dtype=float) for A in matrices]
    n = mats[0].shape[0]
    g = []
    for A in mats:
        if A.shape != (n, n):
            raise ValueError("all matrices must be square with equal size")
        field = []
        for row in range(n):
            terms = tuple(
                Product((Constant(float(A[row, col])), Var(col + 1)))
                for col in range(n)
                if A[row, col] != 0
            )
            field.append(simplify(Sum(terms)) if terms else ZERO)
        g.append(tuple(field))
    return SystemSpec(n=n, m=len(mats), g=tuple(g), c=tuple(float(ci) for ci in c),
                      r=float(r), M=float(M), T=float(T))


# ---------------------------------------------------------------------------
# Lie derivatives


def lie_derivative(h, g):
    """L_g h = sum_j g_j * dh/dx_j, simplified."""
    terms = tuple(
        Product((gj, differentiate(h, j + 1))) for j, gj in enumerate(g)
    )
    return simplify(Sum(terms))


class LieTable:
    """Memoized iterated Lie derivatives of c^T x over the word prefix tree.

    entry(()) is c^T x; entry(w + (i,)) = lie_derivative(entry(w), g_i).
    Construction is single-writer; built entries may be read concurrently.
    """

    def __init__(self, sys):
        self.sys = sys
        self._entries = {EMPTY_WORD: sys.output_expr}

    def entry(self, w):
        w = validate_word(w, self.sys.m)
        got = self._entries.get(w)
        if got is not None:
            return got
        # walk down from the deepest cached prefix
        k = len(w)
        start = k - 1
        while start > 0 and w[:start] not in self._entries:
            start -= 1
        e = self._entries[w[:start]]
        for pos in range(start, k):
            e = lie_derivative(e, self.sys.g[w[pos] - 1])
            self._entries[w[: pos + 1]] = e
        return e

    def ensure_depth(self, K, cap=None):
        if cap is not None:
            check_word_cap(self.sys.m, K, cap)
        for w in words_up_to(self.sys.m, K):
            self.entry(w)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, w):
        return tuple(w) in self._entries


def iterated_lie(table, w):
    """The memoized Expr for the word w (see the module docstring for the
    extension convention)."""
    return table.entry(w)


# ---------------------------------------------------------------------------
# Domain sampling and the per-order feature magnitude estimate


def _halton(d, count):
    """Points 1..count of the unscrambled Halton sequence in the first d
    primes: per base b, the radical inverse sum_i digit_i(q) b^-(i+1)."""
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    out = np.zeros((count, d))
    for j, b in enumerate(primes):
        q = np.arange(1, count + 1)
        f = 1.0 / b
        while q.any():
            out[:, j] += (q % b) * f
            f /= b
            q //= b
    return out


def domain_grid(n, r, n_points=256, extra_points=()):
    """Deterministic sample of the Euclidean ball of radius r.

    The 2n axis points +/- r e_j, any caller-supplied extra points, then
    unscrambled Halton points in n + 1 dimensions (the all-zero first one
    skipped) mapped into the ball: radius r v^(1/n) from the first
    coordinate v, direction from Gaussian quantiles of the other n. A
    lower-estimate sampling plan: maxima over it approach the sup from
    below.
    """
    pts = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = r
        pts.append(e.copy())
        pts.append(-e)
    for p in extra_points:
        p = np.asarray(p, dtype=float)
        if p.shape != (n,):
            raise ValueError("extra points must have dimension n")
        pts.append(p)
    if n_points > 0:
        from statistics import NormalDist  # only this grid needs it

        h = _halton(n + 1, n_points)
        # odd prime bases never give 1/2, so no direction is zero
        z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(h[:, 1:])
        pts.extend(z / np.linalg.norm(z, axis=1, keepdims=True)
                   * (r * h[:, :1] ** (1.0 / n)))
    return np.array(pts)


@dataclass
class LambdaReport:
    """Sampled maximum of |L_w c^T x| over words of one length and a grid.

    A lower estimate of the true supremum; certified upper bounds come
    from the closed-form families in chenfliess.families.
    """

    k: int
    value: float
    word: Word
    point: tuple
    n_words: int
    n_points: int

    def to_json_dict(self):
        return {
            "k": self.k,
            "value": float(self.value),
            "word": [int(i) for i in self.word],
            "point": [float(v) for v in self.point],
            "n_words": self.n_words,
            "n_points": self.n_points,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def lambda_k(sys, k, n_points=256, extra_points=(), word_cap=200_000, table=None):
    """Sampled max of |L_w c^T x| over all m^k words and a ball grid.

    The grid always contains the axis points and +/- r c/|c|, so the k=0
    value attains r for unit-norm c. Refuses to enumerate more than
    word_cap words; use the closed-form families beyond that.
    """
    check_word_cap(sys.m, k, word_cap)
    extras = list(extra_points)
    cn = sys.c_norm()
    if cn > 0:
        chat = np.asarray(sys.c, dtype=float) / cn
        extras.append(sys.r * chat)
        extras.append(-sys.r * chat)
    grid = domain_grid(sys.n, sys.r, n_points, extras)
    if table is None:
        table = LieTable(sys)
    best = -1.0
    best_word = None
    best_point = None
    for w in words_of_length(sys.m, k):
        v = np.abs(np.full(len(grid), eval_expr(table.entry(w), grid.T)))
        i = int(np.argmax(v))  # the first point attaining the word's max
        if v[i] > best:
            best, best_word, best_point = v[i], w, tuple(grid[i])
    return LambdaReport(
        k=k,
        value=float(best),
        word=best_word,
        point=tuple(float(v) for v in best_point),
        n_words=sys.m**k,
        n_points=grid.shape[0],
    )


def warn_if_c_not_unit(sys, context):
    cn = sys.c_norm()
    if abs(cn - 1.0) > 1e-9:
        warnings.warn(
            f"{context}: |c| = {cn:.6g} but the closed-form calculators "
            "assume |c| = 1; the certificate scales accordingly",
            stacklevel=3,
        )
