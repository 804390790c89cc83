"""Certified complexity and risk calculators.

The generic bound is (1/sqrt(N)) * sum_k (mMT)^k/k! * L_k with L_k the
per-order feature magnitude; the three closed forms instantiate it for
bilinear, analytic and saturating-net systems. Loss contraction and the
excess-risk certificate transfer the function-class bound to the learning
guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .families import (  # re-exported: these are part of the bound calculators
    AnalyticFamily,
    BilinearFamily,
    GeometricFamily,
    HopfieldFamily,
    central_binomial_gf,
    float_range_error,
    gamma_k,
)
from ._num import det_matmul, det_matvec, det_norm
from .lie import polynomial

__all__ = [
    "AnalyticFamily",
    "BilinearFamily",
    "BoundReport",
    "GeometricFamily",
    "HopfieldFamily",
    "PreconditionError",
    "analytic_bound",
    "bilinear_bound",
    "central_binomial_gf",
    "excess_risk_bound",
    "gamma_k",
    "hopfield_bound",
    "loss_contraction",
    "max_spectral_norm",
    "polynomial_polydisc_bound",
    "spectral_norm",
    "theorem1_bound",
]


class PreconditionError(ValueError):
    """A closed-form bound's convergence precondition fails; ``margin`` is
    the offending ratio (>= 1 means divergent)."""

    def __init__(self, message, margin):
        super().__init__(message)
        self.margin = margin


@dataclass
class BoundReport:
    """A complexity certificate: partial sum, tail and their provenance."""

    kind: str
    inputs: dict
    K: int | None
    partial_sum: float
    tail: float | None
    total: float
    precondition_ok: bool
    note: str = ""

    def to_json_dict(self):
        def enc(v):
            if v is None:
                return None
            if math.isinf(v):
                return "divergent"
            return float(v)

        return {
            "kind": self.kind,
            "inputs": {k: float(v) for k, v in self.inputs.items()},
            "K": self.K,
            "partial_sum": float(self.partial_sum),
            "tail": enc(self.tail),
            "total": enc(self.total),
            "precondition_ok": self.precondition_ok,
            "note": self.note,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _compensated_descending_sum(terms):
    # fsum is an error-free transformation; descending order keeps the
    # partial sums interpretable when printed term by term
    return math.fsum(sorted(terms, key=abs, reverse=True))


def theorem1_bound(lambdas, m, M, T, N, K=None, tail_family=None):
    """Generic complexity bound (1/sqrt(N)) sum_{k<=K} (mMT)^k/k! L_k + tail.

    ``lambdas`` is either a bound family (then K must be given and the
    family supplies its own tail) or a sequence of per-order values
    L_0..L_K (then the tail comes from ``tail_family`` or is reported
    unavailable). A divergent tail is a precondition failure; the partial
    sum is still returned. A term, partial sum or total beyond the float
    range raises OverflowError; it is never reported as divergent.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    inputs = {"m": m, "M": M, "T": T, "N": N}
    if hasattr(lambdas, "term"):
        if K is None:
            raise ValueError("K is required when a bound family is supplied")
        tail_family = lambdas
        terms = (lambdas.term(k, m, M, T) for k in range(K + 1))
        kind = f"theorem1[{lambdas.kind}]"
    else:
        values = [float(v) for v in lambdas]
        if K is None:
            K = len(values) - 1
        if len(values) != K + 1:
            raise ValueError(f"need K+1 = {K + 1} per-order values, got {len(values)}")
        x = m * M * T
        terms = (lam if k == 0 else 0.0 if x == 0.0 or lam == 0.0
                 else lam * math.exp(k * math.log(x) - math.lgamma(k + 1))
                 for k, lam in enumerate(values))
        kind = "theorem1"
    tail = tail_family.tail(m, M, T, K) if tail_family is not None else None
    try:  # the terms are generated here, so one that overflows lands here
        partial = _compensated_descending_sum(terms) / math.sqrt(N)
    except OverflowError:
        partial = math.inf
    scaled_tail = None if tail is None else (
        math.inf if math.isinf(tail) else tail / math.sqrt(N)
    )
    diverged = scaled_tail is not None and math.isinf(scaled_tail)
    if scaled_tail is None:
        total = partial
        note = "tail unavailable: truncated certificate only"
    elif diverged:
        total = math.inf
        note = "tail divergent: precondition failure, partial sum retained"
    else:
        total = partial + scaled_tail
        note = ""
    if math.isinf(partial) or (math.isinf(total) and not diverged):
        raise float_range_error(
            kind, None if tail_family is None else tail_family.margin(m, M, T))
    return BoundReport(
        kind=kind,
        inputs=inputs,
        K=K,
        partial_sum=partial,
        tail=scaled_tail,
        total=total,
        precondition_ok=not diverged,
        note=note,
    )


# ---------------------------------------------------------------------------
# Closed forms


def _closed_form_bound(family, m, M, T, N):
    """family.closed_form(m, M, T) / sqrt(N); a divergent series raises
    PreconditionError carrying the family's margin."""
    total = family.closed_form(m, M, T)
    if math.isinf(total):
        margin = family.margin(m, M, T)
        raise PreconditionError(f"series not certified convergent: {family.kind} "
                                f"margin {margin:.6g} >= 1", margin=margin)
    return total / math.sqrt(N)


def bilinear_bound(r, m, M, T, a, N):
    """r exp(mMTa) / sqrt(N); defined for every M, T."""
    return _closed_form_bound(BilinearFamily(r=r, a=a), m, M, T, N)


def analytic_bound(r, n, m, M, T, a_r, N):
    """(1 + 2 sqrt(n)) r / sqrt(N) * r / (r - 2^n n mMT a_r).

    Requires 2^n n mMT a_r < r, the geometric-series convergence margin.
    """
    return _closed_form_bound(AnalyticFamily(r=r, n=n, a_r=a_r), m, M, T, N)


def hopfield_bound(r, n, M, T, a, b, N):
    """(1/sqrt(N)) (r - 1/(2a) + 1/(2a sqrt(1 - 4 n^2 MT b a))).

    Requires 4 n^2 MT b a < 1. (a, b) are the nonlinearity growth
    constants with sup |f^(k)| <= b a^k k!; the channel count is n^2.
    """
    return _closed_form_bound(HopfieldFamily(r=r, n=n, a=a, b=b), n * n, M, T, N)


def loss_contraction(kind, M1, M2=None, N=None, R_F=None):
    """Transfer a function-class complexity bound through the loss.

    squared: 4 (M1 + M2) (M1/sqrt(N) + R_F), M1 the label bound and M2 a
    bound on sup |model|; absolute: 2 M1/sqrt(N) + 2 R_F.
    """
    if N is None or R_F is None:
        raise ValueError("N and R_F are required")
    if M1 < 0 or R_F < 0:
        raise ValueError("need M1, R_F >= 0")
    if kind == "squared":
        if M2 is None:
            raise ValueError("squared loss requires the model sup bound M2")
        return 4.0 * (M1 + M2) * (M1 / math.sqrt(N) + R_F)
    if kind == "absolute":
        return 2.0 * M1 / math.sqrt(N) + 2.0 * R_F
    raise ValueError(f"unknown loss kind {kind!r}")


def excess_risk_bound(R_loss, B, N, delta):
    """4 R_loss + B sqrt(2 log(1/delta) / N), valid with probability 1-delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    if B < 0:
        raise ValueError("need B >= 0")
    return 4.0 * R_loss + B * math.sqrt(2.0 * math.log(1.0 / delta) / N)


# ---------------------------------------------------------------------------
# Helpers for bound inputs


_U = 2.0**-53  # unit roundoff
_TINY = 2.0**-500  # covers every underflow below (the scaled values are >= 1/n)
_SQUARINGS = 64


def _up(x):
    """x plus a margin that covers the few roundings that produced it."""
    return x * (1.0 + 2.0**-50) + _TINY


def _sym(P):
    """P with its lower triangle copied from the upper one."""
    upper = np.triu(P)
    return upper + np.triu(P, 1).T


def _at_least_sigma_max(c, A):
    """Whether c >= sigma_max(A), decided exactly: c^2 I - A^T A, scaled to
    integers, is positive semidefinite iff fraction-free (Bareiss)
    elimination meets no negative pivot, and a zero pivot only on a zero
    row, which is then dropped."""
    ratios = [v.as_integer_ratio() for v in (c, *A.ravel().tolist())]
    D = max(d for _, d in ratios)
    c, *a = [p * (D // d) for p, d in ratios]
    n = A.shape[1]
    cols = [a[j::n] for j in range(n)]
    M = [[(c * c if i == j else 0) - sum(x * y for x, y in zip(cols[i], cols[j]))
          for j in range(n)] for i in range(n)]
    live, prev = list(range(n)), 1
    while live:
        k, *live = live
        p = M[k][k]
        if p < 0 or (p == 0 and any(M[k][j] for j in live)):
            return False
        if p:
            for i in live:
                for j in live:
                    M[i][j] = (p * M[i][j] - M[i][k] * M[k][j]) // prev
            prev = p
    return True


def spectral_norm(A):
    """A certified upper bound on the largest singular value of A.

    sigma_max^2 = lambda_max(B) for B = A^T A, and for p = 2^s
    lambda_max(B)^p <= ||B^p||_F <= sqrt(n) lambda_max(B)^p. B^p comes from
    s = 64 squarings, each scaled to unit Frobenius norm, so the value
    ||B^p||_F^(1/(2p)) is above sigma_max by a factor n^(1/(4p)), less than
    one rounding. Every rounding error is added back on the way from the
    last squaring to the first: gamma_n ||C||_F^2 for a product (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.5), u for a
    division and the summation error of a norm. So the value is never
    below sigma_max and is above it by about 1e-14 relative; a short
    decimal just below it replaces it when exact integer arithmetic
    proves that it still bounds sigma_max. A is first
    scaled by a power of 2, and products and norms are the fixed-order
    reductions of chenfliess._num, so the value does not depend on the
    thread count.
    """
    A0 = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A0)):
        raise ValueError("spectral_norm needs a finite matrix")
    amax = float(np.max(np.abs(A0), initial=0.0))
    if amax == 0.0:
        return 0.0
    scale = math.frexp(amax)[1]
    A = np.ldexp(A0, -scale)  # max |A| in [1/2, 1)
    n = A.shape[1]

    def fro(C):  # an upper bound on ||C||_F
        return _up(det_norm(C) * (1.0 + 2.0 * (C.size + 2) * _U))

    B = _sym(det_matmul(A.T, A))
    nu = det_norm(B)
    C = B / nu
    N = fro(C)
    # level k holds (nu_k, e_k, f_k) with rho(C_k)^2 <= nu_k (rho(C_k+1) +
    # 2u f_k) + e_k, for C_-1 = A (rho read as sigma_max), C_0 = B / nu and
    # C_k+1 = fl(C_k^2) / nu_k; e_k bounds the product's error, f_k ||C_k+1||_F
    levels = [(nu, _up(2.0 * A.shape[0] * _U * fro(A) ** 2), N)]
    while len(levels) <= _SQUARINGS:
        P = _sym(det_matmul(C, C))
        nu_k = det_norm(P)
        C_next = P / nu_k
        N_next = fro(C_next)
        levels.append((nu_k, _up(2.0 * n * _U * N * N), N_next))
        if np.array_equal(C_next, C):  # a fixed point: the later squarings repeat this one
            levels += levels[-1:] * (_SQUARINGS + 1 - len(levels))
        C, N = C_next, N_next
    sigma = N  # >= rho(C_s)
    for nu_k, error, f_k in reversed(levels):
        sigma = _up(math.sqrt(_up(nu_k * (sigma + 2.0 * _U * f_k) + error)))
    try:
        out = math.ldexp(sigma, scale)
    except OverflowError:
        return math.inf
    if out < 2.0**-1022:
        return math.nextafter(out, math.inf)
    # C_s is near the top eigenprojector, so a column of it gives a
    # Rayleigh quotient just below sigma_max. The 12-digit decimal below
    # out (1.0 for a shift matrix) is returned when it is not below that
    # quotient and is proved to bound sigma_max.
    v = C[:, int(np.argmax(np.abs(C).sum(axis=0)))]
    rayleigh = math.ldexp(det_norm(det_matvec(A, v)) / det_norm(v), scale)
    short = float(f"{out:.11e}")
    if rayleigh * (1.0 - 1e-13) <= short < out and _at_least_sigma_max(short, A0):
        return short
    return out


def max_spectral_norm(matrices):
    """The constant a for the bilinear family: an upper bound on
    max_i sigma_max(A_i) (spectral_norm)."""
    return max(spectral_norm(A) for A in matrices)


def polynomial_polydisc_bound(fields, r):
    """Coefficient-bounding estimate of the polydisc maximum modulus a(r)
    for polynomial vector fields.

    Each monomial of a component's canonical polynomial contributes
    |coefficient| * (3r)^(total degree): on the polydisc of radius 2r
    about any point of the ball every coordinate has modulus at most 3r.
    Raises for non-polynomial components.
    """
    worst = 0.0
    for field_ in fields:
        for comp in field_:
            terms = polynomial(comp)
            if any(a.name is not None for m, _ in terms for a, _ in m):
                raise ValueError(
                    "polydisc helper handles polynomial fields only; supply a_r directly"
                )
            value = math.fsum(
                abs(c) * (3.0 * r) ** sum(e for _, e in m) for m, c in terms
            )
            worst = max(worst, value)
    return worst
