"""Words over control channels and the iterated Lie derivative engine.

A word w = (i1, ..., ik) indexes one term of the series expansion. The
LieTable memoizes the iterated Lie derivatives of the output map c^T x
along the channel vector fields, sharing word prefixes: the entry for w
extended by channel i is the Lie derivative of the entry for w along g_i.
With that extension rule the bilinear entry for w is literally
c^T A_{i1} ... A_{ik} x (left-to-right product). How entries pair with
signature entries inside the series evaluator is settled by an ODE
oracle; see chenfliess.series.

Entries are computed and evaluated as canonical sparse polynomials with
float coefficients over atoms: the state variables x_j and f^(k)(p) for
a registered primitive f at a canonical argument polynomial p. L_g h =
sum_j g_j dh/dx_j is one ring operation that collects like terms, and
one kernel evaluates any set of entries at one point or at many. Equal
entries share one row; zero entries are never differentiated.
Expression trees stay the language: LieTable.entry, lie_derivative and
differentiate (L along the coordinate field e_j) return the Expr rendered
from the polynomial, so equal entries print the same.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product
from operator import attrgetter

import numpy as np

from ._num import _CHUNK_ELEMENTS
from .expressions import (
    Constant,
    ExprError,
    ONE,
    Power,
    Primitive,
    Product,
    Sum,
    Var,
    ZERO,
    get_primitive,
    max_var_index,
    parse_expr,
    power,
    simplify,
    to_text,
)

# not called here, but benchmark/tracer.py wraps this name in this module
from .expressions import eval_expr  # noqa: F401

Word = tuple
EMPTY_WORD: Word = ()


class ResourceCapError(RuntimeError):
    """Raised when an operation would enumerate more words, or collect more
    terms in one polynomial, than allowed."""


# the most words of one length an operation may enumerate
WORD_CAP = 200_000


def check_word_cap(m, k):
    if k < 0:
        raise ValueError("need K >= 0")
    count = m**k
    if count > WORD_CAP:
        raise ResourceCapError(
            f"{m}^{k} = {count} words exceeds the cap of {WORD_CAP}; "
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

    def c_norm(self):
        return math.sqrt(math.fsum(ci * ci for ci in self.c))

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
# Canonical polynomials
#
# A polynomial is a tuple of (monomial, coefficient) terms with nonzero
# float coefficients; a monomial is a tuple of (atom, exponent) pairs.
# Atoms sort by key, monomials lexicographically by their (atom, exponent)
# pairs, and a polynomial lists its terms in monomial order, so the same
# inputs are always summed in the same order, whatever hash() or id() do.

# the most terms one polynomial (a Lie entry, an expanded product or
# power) may collect before the ring stops
TERM_CAP = 10_000


class Atom:
    """x_index (name None) or the order-th derivative of the primitive
    ``name`` at the canonical polynomial ``arg``. Interned per ring, so
    one object stands for one key."""

    __slots__ = ("key", "name", "order", "index", "arg", "arg_row", "expr", "rank",
                 "slots")

    def __init__(self, key, name, order, index, arg, expr):
        self.key = key
        self.name = name
        self.order = order
        self.index = index
        self.arg = arg
        self.arg_row = None
        self.expr = expr
        self.rank = 0  # position in key order among the ring's atoms
        self.slots = []  # (slot, exponent) for each power the ring stores


def _mul(m1, m2):
    """The product of two monomials: a merge of their pairs, which are
    sorted by rank (interning shifts ranks but keeps their order)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, e = m1[i]
        b, f = m2[j]
        if a is b:
            out.append((a, e + f))
            i += 1
            j += 1
        elif a.rank < b.rank:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _poly_key(p):
    return tuple((tuple((a.key, e) for a, e in m), c) for m, c in p)


def render(p):
    """The Expr of the polynomial p: a sum of products, each the
    coefficient (left out when 1) and then the atom powers."""
    terms = []
    for m, c in p:
        factors = [a.expr if e == 1 else Power(a.expr, e) for a, e in m]
        if c != 1.0 or not factors:
            factors.insert(0, Constant(c))
        terms.append(factors[0] if len(factors) == 1 else Product(tuple(factors)))
    if not terms:
        return ZERO
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


_ONE = (((), 1.0),)


class _Ring:
    """Interned atoms, polynomial arithmetic, and stored rows (polynomials)
    with the kernel that evaluates them."""

    def __init__(self):
        self._atoms = {}  # key -> Atom, in creation order: arguments first
        self._sort_keys = {}  # monomial -> tuple of (rank, exponent)
        self.polys = []  # row -> polynomial
        self._row_of = {}  # polynomial -> row
        self._monos = {}  # monomial -> id
        self._mono_slots = []  # id -> slots of its powers, in monomial order
        self._slots = {}  # (atom, exponent) -> slot
        self._bounds = [0]  # row r holds terms _bounds[r]:_bounds[r + 1]
        self._coef = []
        self._mono = []
        self._arrays = None

    # -- atoms and canonical form ------------------------------------------

    def _intern(self, key, name, order, index, arg):
        a = self._atoms.get(key)
        if a is None:
            if name is None:
                expr = Var(index)
            else:
                expr = Primitive(name, order, render(arg))
            a = self._atoms[key] = Atom(key, name, order, index, arg, expr)
            if arg is not None:
                a.arg_row = self.add_row(arg)
            for r, b in enumerate(sorted(self._atoms.values(), key=attrgetter("key"))):
                b.rank = r
            self._sort_keys.clear()
        return a

    def var(self, j):
        return self._intern((0, j), None, 0, j, None)

    def primitive(self, name, order, arg):
        return self._intern((1, name, order, _poly_key(arg)), name, order, None, arg)

    def _sort_key(self, term):
        m = term[0]
        key = self._sort_keys.get(m)
        if key is None:
            key = self._sort_keys[m] = tuple(x for a, e in m for x in (a.rank, e))
        return key

    def _canon(self, acc):
        """The polynomial of a monomial -> coefficient dict: exact zeros
        dropped, terms in monomial order."""
        return tuple(sorted(((m, c) for m, c in acc.items() if c != 0.0),
                            key=self._sort_key))

    def _times(self, p, q, e):
        """p q, expanding the Expr e: more than TERM_CAP terms raises
        ResourceCapError naming e."""
        acc = {}
        for m1, c1 in p:
            for m2, c2 in q:
                m = _mul(m1, m2)
                acc[m] = acc.get(m, 0.0) + c1 * c2
            if len(acc) > TERM_CAP:
                raise ResourceCapError(
                    f"expanding {to_text(e)} reached {len(acc)} terms, over the cap "
                    f"of {TERM_CAP} terms per polynomial")
        return self._canon(acc)

    def poly(self, e):
        """The canonical polynomial of the Expr e."""
        if isinstance(e, Constant):
            return () if e.value == 0.0 else (((), e.value),)
        if isinstance(e, Var):
            return ((((self.var(e.index), 1),), 1.0),)
        if isinstance(e, Sum):
            acc = {}
            for t in e.terms:
                for m, c in self.poly(t):
                    acc[m] = acc.get(m, 0.0) + c
            return self._canon(acc)
        if isinstance(e, Product):
            p = _ONE
            for f in e.factors:
                p = self._times(p, self.poly(f), e)
            return p
        if isinstance(e, Power):
            if e.exponent < 0:
                raise ExprError("Power exponent must be a nonnegative integer")
            p, base = _ONE, self.poly(e.base)
            for _ in range(e.exponent):
                p = self._times(p, base, e)
            return p
        if isinstance(e, Primitive):
            return ((((self.primitive(e.name, e.order, self.poly(e.arg)), 1),), 1.0),)
        raise ExprError(f"not an expression node: {e!r}")

    # -- Lie derivatives ---------------------------------------------------

    def lie(self, h, field, cache, what):
        """L_g h for the field g (one polynomial per state variable).
        ``cache`` memoizes L_g of monomials and atoms for this field; a
        result that collects more than TERM_CAP terms raises
        ResourceCapError naming ``what``, a word or a description."""
        acc = {}
        for m, c in h:
            for dm, dc in self._lie_monomial(m, field, cache, what):
                acc[dm] = acc.get(dm, 0.0) + c * dc
            if len(acc) > TERM_CAP:
                msg = f"{what} reached {len(acc)} terms, over the cap of {TERM_CAP} terms"
                if isinstance(what, tuple):
                    msg = f"the entry for word {msg} per Lie entry; lower the order"
                raise ResourceCapError(msg)
        return self._canon(acc)

    def _lie_monomial(self, m, field, cache, what):
        got = cache.get(m)
        if got is None:
            acc = {}
            for i, (a, e) in enumerate(m):
                rest = m[:i] + ((a, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                for dm, dc in self._lie_atom(a, field, cache, what):
                    p = _mul(rest, dm)
                    acc[p] = acc.get(p, 0.0) + e * dc
            got = cache[m] = self._canon(acc)
        return got

    def _lie_atom(self, a, field, cache, what):
        got = cache.get(a)
        if got is None:
            if a.name is None:
                got = field[a.index - 1] if a.index <= len(field) else ()
            else:  # chain rule: f^(k)(p)' = f^(k+1)(p) L_g p
                nxt = ((self.primitive(a.name, a.order + 1, a.arg), 1),)
                got = self._canon({_mul(m, nxt): c
                                   for m, c in self.lie(a.arg, field, cache, what)})
            cache[a] = got
        return got

    # -- stored rows and the evaluation kernel -----------------------------

    def add_row(self, p):
        """The row of p, storing p for evaluation if no row holds it yet
        (atoms are interned, so equal tuples are equal polynomials)."""
        row = self._row_of.get(p)
        if row is not None:
            return row
        for m, c in p:
            mono = self._monos.get(m)
            if mono is None:
                mono = self._monos[m] = len(self._mono_slots)
                slots = []
                for a, e in m:
                    slot = self._slots.get((a, e))
                    if slot is None:
                        slot = self._slots[(a, e)] = len(self._slots)
                        a.slots.append((slot, e))
                    slots.append(slot)
                self._mono_slots.append(slots)
            self._coef.append(c)
            self._mono.append(mono)
        self._bounds.append(len(self._coef))
        row = self._row_of[p] = len(self.polys)
        self.polys.append(p)
        return row

    def _stored_arrays(self):
        size = (len(self._bounds), len(self._mono_slots))
        if self._arrays is None or self._arrays[0] != size:
            pad = len(self._slots)  # the slot that holds 1.0
            width = max(map(len, self._mono_slots), default=0) or 1
            factors = np.full((len(self._mono_slots), width), pad, dtype=np.intp)
            for mono, slots in enumerate(self._mono_slots):
                factors[mono, :len(slots)] = slots
            self._arrays = (size, np.array(self._coef, dtype=float),
                            np.array(self._mono, dtype=np.intp),
                            np.array(self._bounds, dtype=np.intp), factors)
        return self._arrays[1:]

    def evaluate(self, rows, X):
        """(N, len(rows)) values of the stored rows at the N points X[i].

        Atom values come first, then each term as its coefficient times
        its atom powers in monomial order. One point is evaluated in
        floats and each row summed by math.fsum, so the value is
        eval_expr's on the rendered Expr bit for bit; N points are
        summed by numpy reductions, whose order depends only on shapes.
        """
        X = np.asarray(X, dtype=float)
        N = X.shape[0]
        scalar = N == 1
        S = np.empty((len(self._slots) + 1, N))
        S[-1] = 1.0
        args = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for a in self._atoms.values():
                if not a.slots:
                    continue
                if a.name is None:
                    v = float(X[0, a.index - 1]) if scalar else X[:, a.index - 1]
                else:
                    arg = args.get(a.arg_row)
                    if arg is None:
                        arg = self._sum([a.arg_row], S)[:, 0]
                        arg = args[a.arg_row] = float(arg[0]) if scalar else arg
                    v = get_primitive(a.name).evaluate(a.order, arg)
                for slot, e in a.slots:
                    S[slot] = v if e == 1 else power(v, e)
            return self._sum(rows, S)

    def _sum(self, rows, S):
        """Per-row sums of the term values at the points (columns) of S."""
        coef, mono, bounds, factors = self._stored_arrays()
        rows = np.asarray(rows, dtype=np.intp)
        N = S.shape[1]
        out = np.zeros((N, len(rows)))
        lo = bounds[rows]
        count = bounds[rows + 1] - lo
        start = np.cumsum(count) - count
        T = int(count.sum())
        if T == 0:
            return out
        terms = np.arange(T) + np.repeat(lo - start, count)
        c = coef[terms, None]
        f = factors[mono[terms]]
        step = max(1, _CHUNK_ELEMENTS // T)
        for s in range(0, N, step):
            v = c * S[f[:, 0], s:s + step]
            for col in range(1, f.shape[1]):
                v *= S[f[:, col], s:s + step]
            if N == 1:
                single = count == 1
                out[0, single] = v[start[single], 0]
                flat, first, n = v[:, 0].tolist(), start.tolist(), count.tolist()
                for r in np.flatnonzero(count > 1).tolist():
                    out[0, r] = math.fsum(flat[first[r]:first[r] + n[r]])
            else:
                live = count > 0
                out[s:s + step, live] = np.add.reduceat(v, start[live], axis=0).T
        return out


def polynomial(e):
    """The canonical polynomial of the Expr e: (monomial, coefficient)
    terms, each monomial a tuple of (Atom, exponent) pairs."""
    return _Ring().poly(e)


# ---------------------------------------------------------------------------
# Lie derivatives


def lie_derivative(h, g):
    """L_g h = sum_j g_j * dh/dx_j, rendered from its canonical polynomial."""
    return _lie_rendered(h, g, "L_g h")


def differentiate(e, j):
    """Exact partial derivative of e in x_j: the Lie derivative along the
    coordinate field e_j, rendered from its canonical polynomial (products
    and powers expanded, so subject to TERM_CAP)."""
    if j < 1:
        raise ExprError("variable index must be >= 1")
    return _lie_rendered(e, (ZERO,) * (j - 1) + (ONE,), f"d/dx{j} of {to_text(e)}")


def _lie_rendered(h, g, what):
    ring = _Ring()
    field = tuple(ring.poly(gj) for gj in g)
    return render(ring.lie(ring.poly(h), field, {}, what))


class LieTable:
    """Memoized iterated Lie derivatives of c^T x over the word prefix tree.

    entry(()) is c^T x; entry(w + (i,)) = lie_derivative(entry(w), g_i).
    Entries are stored as canonical polynomials (polynomial(w)) and
    rendered as Expr on request (entry(w)); evaluate(words, X) and
    features(K, cols, X) are the feature kernel. Equal entries share one
    row; zero entries are never differentiated (their extensions are zero).
    Construction is single-writer; built entries may be read concurrently.
    """

    def __init__(self, sys):
        self.sys = sys
        self._ring = _Ring()
        self._fields = [tuple(self._ring.poly(comp) for comp in field) for field in sys.g]
        self._caches = [{} for _ in sys.g]
        c_x = self._ring._canon({((self._ring.var(j + 1), 1),): float(ci)
                                 for j, ci in enumerate(sys.c) if ci != 0})
        self._zero = self._ring.add_row(())
        self._rows = {EMPTY_WORD: self._ring.add_row(c_x)}
        # column j of words_up_to -> row of the entry paired with it; -1 unresolved
        self._paired = np.empty(0, dtype=np.intp)
        # (bytes of the last single point, values of rows 0, 1, ... at it)
        self._memo = (b"", np.empty(0))

    def _row(self, w):
        got = self._rows.get(w)
        return got if got is not None else self._grow(validate_word(w, self.sys.m))

    def _grow(self, w):
        """The row of the valid word w, storing each missing prefix on the way."""
        k = len(w) - 1
        while w[:k] not in self._rows:
            k -= 1
        row = self._rows[w[:k]]
        for pos in range(k, len(w)):
            if row != self._zero:  # L_g 0 = 0
                i = w[pos] - 1
                p = self._ring.lie(self._ring.polys[row], self._fields[i], self._caches[i],
                                   w[:pos + 1])
                row = self._ring.add_row(p)
            self._rows[w[:pos + 1]] = row
        return row

    def polynomial(self, w):
        return self._ring.polys[self._row(validate_word(w, self.sys.m))]

    def entry(self, w):
        return render(self.polynomial(w))

    def evaluate(self, words, X):
        """(N, len(words)) array: the entry of words[j] (tuples) at X[i]."""
        return self._ring.evaluate([self._row(w) for w in words], X)

    def features(self, K, cols, X):
        """(N, len(cols)) array: the series feature of column cols[j] of
        words_up_to(m, K) at X[i], which is the entry for the REVERSED word
        (the pairing settled in chenfliess.series). A column is resolved to
        its row on first use and kept, so only the columns asked for grow.

        At one point (N = 1) the values of every stored row are memoized
        with the bytes of the point, so an order sweep at one point
        evaluates each row once; a point with other bytes (-0.0 is not
        0.0) starts a new memo, and rows stored since are added to it. The
        memo is one tuple, replaced whole, so concurrent readers see an
        old or a new one. N > 1 goes to the kernel each time."""
        cols = np.asarray(cols, dtype=np.intp)
        grow = sum(self.sys.m**k for k in range(K + 1)) - len(self._paired)
        if grow > 0:
            self._paired = np.concatenate([self._paired, np.full(grow, -1, np.intp)])
        need = cols[self._paired[cols] < 0].tolist()
        if need:
            words = words_up_to(self.sys.m, K)
            for j in need:
                w = words[j][::-1]
                row = self._rows.get(w)
                self._paired[j] = row if row is not None else self._grow(w)
        rows = self._paired[cols]
        X = np.asarray(X, dtype=float)
        if X.shape[0] != 1:
            return self._ring.evaluate(rows, X)
        point = X.tobytes()
        key, values = self._memo
        if key != point:
            values = values[:0]
        if len(rows) and rows.max() >= len(values):
            try:
                new = self._ring.evaluate(np.arange(len(values), len(self._ring.polys)), X)
            except (OverflowError, ValueError):  # math.fsum on a row not asked for
                return self._ring.evaluate(rows, X)
            values = np.concatenate([values, new[0]])
            self._memo = (point, values)
        return values[rows][None, :]

    def ensure_depth(self, K):
        check_word_cap(self.sys.m, K)
        for w in words_up_to(self.sys.m, K):
            self._row(w)

    def __len__(self):
        return len(self._rows)

    def __contains__(self, w):
        return tuple(w) in self._rows


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


def lambda_k(sys, k, n_points=256, extra_points=(), table=None):
    """Sampled max of |L_w c^T x| over all m^k words and a ball grid.

    The grid always contains the axis points and +/- r c/|c|, so the k=0
    value attains r for unit-norm c. Refuses to enumerate more than
    WORD_CAP words; use the closed-form families beyond that.
    """
    check_word_cap(sys.m, k)
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
    words = list(words_of_length(sys.m, k))
    values = np.abs(table.evaluate(words, grid))
    for j, w in enumerate(words):
        v = values[:, j]
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
