"""Closed-form per-order bounds on the feature magnitudes and their tails.

Each family bounds L_k = sup |L_w c^T x| over the domain and all words of
length k for one structural class of systems. It is the one home of that
class's certificate: `term(k)` is (mMT)^k/k! * L_k, `margin` the series'
convergence ratio, `closed_form` the full sum sum_k term(k) and `tail`
the remainder sum_{k>K} term(k) (in closed form or by dominated
summation). A divergent sum or tail is reported as math.inf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

_REL_TOL = 1e-15
_MAX_TERMS = 100_000


def gamma_k(k):
    """(k!/2) * C(2k, k); exact integer for k <= 20, float via log-gamma above.

    Defined for k >= 1 only; the order-0 feature magnitude is bounded by
    the domain radius separately.
    """
    if k < 1:
        raise ValueError("gamma_k is defined for k >= 1")
    if k <= 20:
        return math.factorial(k) * math.comb(2 * k, k) // 2
    return math.exp(math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.log(2.0))


def central_binomial_gf(x):
    """1/sqrt(1-4x) = sum_k C(2k,k) x^k, valid for |x| < 1/4."""
    if abs(x) >= 0.25:
        raise ValueError(f"|x| = {abs(x)} is outside the radius of convergence 1/4")
    return 1.0 / math.sqrt(1.0 - 4.0 * x)


def exp_remainder(x, K):
    """sum_{k>K} x^k / k! by dominated summation (relative 1e-15)."""
    if x < 0:
        raise ValueError("need x >= 0")
    if x == 0.0:
        return 0.0
    # first term in log space to dodge overflow for large x or K
    log_t = (K + 1) * math.log(x) - math.lgamma(K + 2)
    term = math.exp(log_t)
    total = 0.0
    k = K + 1
    for _ in range(_MAX_TERMS):
        total += term
        k += 1
        term *= x / k
        if term <= total * _REL_TOL and x < k:
            break
    return total


def float_range_error(kind, margin):
    """The OverflowError for a sum beyond the float range. Callers read
    math.inf as divergent, so such a sum raises instead; ``margin`` is the
    series' convergence ratio, None when unknown."""
    if margin is None:
        what = f"{kind} partial sum"
    elif margin < 1.0:
        what = f"{kind} series converges (margin {margin:.6g}) but its value"
    else:
        what = f"{kind} series diverges (margin {margin:.6g}) and its partial sum"
    return OverflowError(f"{what} exceeds the float range")


_CHECKS = {">": operator.gt, ">=": operator.ge, "in": lambda v, allowed: v in allowed}


class _Family:
    """Shared by the families below. ``margin(m, M, T)`` is the series'
    convergence ratio (divergent at >= 1); the convergence test and the
    divergence guards of ``tail`` and ``closed_form`` all derive from it.
    ``rules`` lists the (field, op, bound) checks run at construction."""

    def __post_init__(self):
        for field, op, bound in self.rules:
            value = getattr(self, field)
            if not _CHECKS[op](value, bound):
                raise ValueError(f"{self.kind} family: {field} must be {op} "
                                 f"{bound}, got {value!r}")

    def convergent(self, m, M, T):
        return self.margin(m, M, T) < 1.0

    def tail(self, m, M, T, K):
        """sum_{k>K} term(k); math.inf when the series diverges."""
        return self._checked(self._tail, m, M, T, K)

    def closed_form(self, m, M, T):
        """sum_k term(k) in closed form; math.inf when the series diverges."""
        return self._checked(self._sum, m, M, T)

    def _checked(self, fn, m, M, T, *rest):
        if not self.convergent(m, M, T):
            return math.inf
        # inf means divergent to callers, so a convergent sum too large
        # for a float raises instead
        try:
            value = fn(m, M, T, *rest)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise float_range_error(self.kind, self.margin(m, M, T))
        return value


@dataclass(frozen=True)
class BilinearFamily(_Family):
    """L_k <= r a^k (a = max spectral norm of the channel matrices); the
    series is r e^(mMTa), convergent for every M, T (margin 0)."""

    r: float
    a: float
    kind = "bilinear"
    rules = (("r", ">", 0), ("a", ">=", 0))

    def lambda_bound(self, k):
        return self.r * self.a**k

    def margin(self, m, M, T):
        return 0.0

    def term(self, k, m, M, T):
        if k == 0:
            return self.r
        x = m * M * T * self.a
        if x == 0.0:
            return 0.0
        return self.r * math.exp(k * math.log(x) - math.lgamma(k + 1))

    def _tail(self, m, M, T, K):
        return self.r * exp_remainder(m * M * T * self.a, K)

    def _sum(self, m, M, T):
        return self.r * math.exp(m * M * T * self.a)


@dataclass(frozen=True)
class AnalyticFamily(_Family):
    """L_k <= (1 + 2 sqrt(n)) r k! (2^n n a_r / r)^k for analytic fields,
    a_r the componentwise maximum modulus over the polydiscs of radius 2r.
    The margin is q = 2^n n mMT a_r / r and the series is P / (1 - q)."""

    r: float
    n: int
    a_r: float
    kind = "analytic"
    rules = (("r", ">", 0), ("n", ">=", 1), ("a_r", ">=", 0))

    def _prefactor(self):
        return (1.0 + 2.0 * math.sqrt(self.n)) * self.r

    def margin(self, m, M, T):
        return 2.0**self.n * self.n * m * M * T * self.a_r / self.r

    def lambda_bound(self, k):
        if k == 0:
            return self._prefactor()
        rho = 2.0**self.n * self.n * self.a_r / self.r
        if rho == 0.0:
            return 0.0
        return self._prefactor() * math.exp(math.lgamma(k + 1) + k * math.log(rho))

    def term(self, k, m, M, T):
        return self._prefactor() * self.margin(m, M, T) ** k

    def _tail(self, m, M, T, K):
        q = self.margin(m, M, T)
        return self._prefactor() * q ** (K + 1) / (1.0 - q)

    def _sum(self, m, M, T):
        return self._prefactor() / (1.0 - self.margin(m, M, T))


@dataclass(frozen=True)
class HopfieldFamily(_Family):
    """L_0 <= r and L_k <= gamma(k) b^k a^(k-1) for saturating nets whose
    nonlinearity satisfies sup |f^(k)| <= b a^k k!. Channel count is n^2.
    With x = mMTba the margin is 4x and the series is
    r + (1/(2a)) (1/sqrt(1 - 4x) - 1)."""

    r: float
    n: int
    a: float
    b: float
    kind = "hopfield"
    rules = (("r", ">", 0), ("n", ">=", 1), ("a", ">", 0), ("b", ">=", 0))

    def lambda_bound(self, k):
        if k == 0:
            return self.r
        return gamma_k(k) * self.b**k * self.a ** (k - 1)

    def margin(self, m, M, T):
        return 4.0 * m * M * T * self.b * self.a

    def term(self, k, m, M, T):
        if k == 0:
            return self.r
        x = m * M * T * self.b * self.a
        if x == 0.0:
            return 0.0
        if k <= 300:
            return 0.5 / self.a * math.comb(2 * k, k) * x**k
        log_term = math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) + k * math.log(x)
        return 0.5 / self.a * math.exp(log_term)

    def _tail(self, m, M, T, K):
        x = m * M * T * self.b * self.a
        if x == 0.0:
            return 0.0
        k = K + 1 if K >= 1 else 1
        term = math.comb(2 * k, k) * x**k
        total = 0.0
        for _ in range(_MAX_TERMS):
            total += term
            term *= 2.0 * (2 * k + 1) / (k + 1) * x
            k += 1
            if term <= total * _REL_TOL:
                break
        return 0.5 / self.a * total

    def _sum(self, m, M, T):
        x = m * M * T * self.b * self.a
        return self.r + 0.5 / self.a * (central_binomial_gf(x) - 1.0)


@dataclass(frozen=True)
class GeometricFamily(_Family):
    """User-supplied template L_k <= C rho^k k!^s with s in {0, 1}. With
    x = mMT rho the series is C e^x (s = 0, margin 0) or C / (1 - x)
    (s = 1, margin x)."""

    C: float
    rho: float
    s: int = 0
    kind = "geometric"
    rules = (("C", ">=", 0), ("rho", ">=", 0), ("s", "in", (0, 1)))

    def lambda_bound(self, k):
        base = self.C * self.rho**k
        if self.s == 0:
            return base
        if k <= 170:
            return base * math.factorial(k)
        return base * math.exp(math.lgamma(k + 1))

    def margin(self, m, M, T):
        return 0.0 if self.s == 0 else m * M * T * self.rho

    def term(self, k, m, M, T):
        x = m * M * T * self.rho
        if self.s == 1:
            return self.C * x**k
        if k == 0:
            return self.C
        return self.C * math.exp(k * math.log(x) - math.lgamma(k + 1)) if x > 0 else 0.0

    def _tail(self, m, M, T, K):
        x = m * M * T * self.rho
        if self.s == 0:
            return self.C * exp_remainder(x, K)
        return self.C * x ** (K + 1) / (1.0 - x)

    def _sum(self, m, M, T):
        x = m * M * T * self.rho
        return self.C * math.exp(x) if self.s == 0 else self.C / (1.0 - x)


FAMILY_KINDS = {
    "bilinear": BilinearFamily,
    "analytic": AnalyticFamily,
    "hopfield": HopfieldFamily,
    "geometric": GeometricFamily,
}


def family_from_json_dict(d):
    kind = d.get("kind")
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown bound family kind {kind!r}")
    args = {k: v for k, v in d.items() if k != "kind"}
    return FAMILY_KINDS[kind](**args)


def family_to_json_dict(family):
    out = {"kind": family.kind}
    for name in family.__dataclass_fields__:
        out[name] = getattr(family, name)
    return out
