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

from .expressions import Constant, Power, Primitive, Product, Sum, Var
from .families import (  # re-exported: these are part of the bound calculators
    AnalyticFamily,
    BilinearFamily,
    GeometricFamily,
    HopfieldFamily,
    central_binomial_gf,
    float_range_error,
    gamma_k,
)

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


def spectral_norm(A, tol=1e-10, max_iter=10_000, seed=0):
    """Largest singular value by power iteration on A^T A, fixed seed."""
    A = np.asarray(A, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        val = math.sqrt(norm)
        if abs(val - prev) <= tol * max(1.0, val):
            return val
        prev = val
    return prev


def max_spectral_norm(matrices, tol=1e-10, seed=0):
    """The constant a for the bilinear family: max_i sigma_max(A_i)."""
    return max(spectral_norm(A, tol=tol, seed=seed) for A in matrices)


def _merge_product(acc, part):
    nxt = {}
    for k1, c1 in acc.items():
        for k2, c2 in part.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            nxt[key] = nxt.get(key, 0.0) + c1 * c2
    return nxt


def _monomial_coefficients(e, n):
    """Multi-index -> coefficient map for a polynomial Expr over x1..xn."""
    zero = (0,) * n
    if isinstance(e, Constant):
        return {zero: e.value}
    if isinstance(e, Var):
        key = tuple(1 if j == e.index - 1 else 0 for j in range(n))
        return {key: 1.0}
    if isinstance(e, Sum):
        acc = {}
        for t in e.terms:
            for k, c in _monomial_coefficients(t, n).items():
                acc[k] = acc.get(k, 0.0) + c
        return acc
    if isinstance(e, Product):
        acc = {zero: 1.0}
        for f in e.factors:
            acc = _merge_product(acc, _monomial_coefficients(f, n))
        return acc
    if isinstance(e, Power):
        acc = {zero: 1.0}
        base = _monomial_coefficients(e.base, n)
        for _ in range(e.exponent):
            acc = _merge_product(acc, base)
        return acc
    if isinstance(e, Primitive):
        raise ValueError(
            "polydisc helper handles polynomial fields only; supply a_r directly"
        )
    raise ValueError(f"not an expression node: {e!r}")


def polynomial_polydisc_bound(fields, r, n=None):
    """Coefficient-bounding estimate of the polydisc maximum modulus a(r)
    for polynomial vector fields.

    Each monomial contributes |coefficient| * (3r)^(total degree): on the
    polydisc of radius 2r about any point of the ball every coordinate
    has modulus at most 3r. Raises for non-polynomial components.
    """
    from .expressions import max_var_index

    if n is None:
        n = max(
            (max_var_index(comp) for field_ in fields for comp in field_), default=1
        )
    worst = 0.0
    for field_ in fields:
        for comp in field_:
            coeffs = _monomial_coefficients(comp, n)
            value = math.fsum(
                abs(c) * (3.0 * r) ** sum(key) for key, c in coeffs.items()
            )
            worst = max(worst, value)
    return worst
