"""Truncated series evaluation against an ODE ground truth.

The output of x' = sum_i u_i(t) g_i(x), y = c^T x at the horizon is
y(T) = sum_w S^w(u) * F^w(x0), where S^w are the signature entries and
F^w the iterated Lie derivative features. The pairing convention is the
one a noncommuting bilinear system forces when the truncated series is
required to reproduce the ODE solution (the mandatory bootstrap test in
the suite): the channel at the EARLIEST simplex time is the OUTERMOST
differentiation, so the feature paired with signature word w is the
LieTable entry for the reversed word (LieTable.features).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import ZERO, Constant, Product, eval_expr, simplify
from .lie import LieTable, SystemSpec, check_word_cap, word_lengths, words_up_to
from .signatures import ControlPath, signature_up_to


class ConvergenceWarning(UserWarning):
    """The configured bound family does not certify tail decay."""


class OdeBlowupError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"state became non-finite at t = {t}")
        self.t = t


def feature_matrix(sys, X, K, lie_table=None):
    """(words, Phi) with Phi[i, j] the feature of word words[j] at X[i],
    so a coefficient vector is comparable with a signature."""
    check_word_cap(sys.m, K)
    if lie_table is None:
        lie_table = LieTable(sys)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError(f"X must be (N, n) with n = {sys.n}, got shape {X.shape}")
    words = words_up_to(sys.m, K)
    return words, _features(lie_table, K, np.arange(len(words)), X)


def _features(lie_table, K, cols, X):
    """The features of the columns cols of words_up_to(m, K) at the rows
    of X, from the table's one kernel. A non-finite feature raises
    FloatingPointError at one point and at many."""
    try:
        Phi = lie_table.features(K, cols, X)
        finite = np.all(np.isfinite(Phi))
    except (OverflowError, ValueError):  # math.fsum at one point
        finite = False
    if not finite:
        raise FloatingPointError("non-finite features: the Lie derivatives overflow "
                                 "at these points")
    return Phi


@dataclass
class SeriesEvaluation:
    """One truncated series evaluation, with optional oracle comparison."""

    x0: tuple
    K: int
    value: float
    contributions: tuple  # per order 0..K
    tail_bound: float | None  # None = unavailable, inf = divergent
    oracle_value: float | None = None
    oracle_error: float | None = None

    @property
    def discrepancy(self):
        if self.oracle_value is None:
            return None
        return abs(self.value - self.oracle_value)

    def to_json_dict(self):
        def enc(v):
            if v is None:
                return None
            if math.isinf(v):
                return "divergent"
            return float(v)

        return {
            "x0": [float(v) for v in self.x0],
            "K": self.K,
            "value": float(self.value),
            "contributions": [float(c) for c in self.contributions],
            "tail_bound": enc(self.tail_bound),
            "oracle_value": None if self.oracle_value is None else float(self.oracle_value),
            "oracle_error": None if self.oracle_error is None else float(self.oracle_error),
            "discrepancy": None if self.discrepancy is None else float(self.discrepancy),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def chen_fliess_eval(sys, x0, u, K, family=None, lie_table=None, sig_table=None,
                     ode_step=None):
    """Evaluate the order-K truncated series at x0 under the control u.

    Pass lie_table / sig_table to share work across calls on the same
    system and control; a sig_table for another (m, M, T) raises. With
    ``family`` set, the truncation tail bound is attached and a
    ConvergenceWarning is issued when the family cannot certify
    convergence. With ``ode_step`` set, the RK4 reference runs and the
    oracle fields are filled in.
    """
    if u.m != sys.m:
        raise ValueError(f"control has {u.m} channels, system has {sys.m}")
    if abs(u.T - sys.T) > 1e-12:
        raise ValueError(f"control horizon {u.T} != system horizon {sys.T}")
    if u.M > sys.M * (1 + 1e-12):
        raise ValueError(f"control bound {u.M} exceeds system bound {sys.M}")
    x0 = tuple(float(v) for v in x0)
    if len(x0) != sys.n:
        raise ValueError(f"x0 has {len(x0)} components, system has n = {sys.n}")
    if math.sqrt(math.fsum(v * v for v in x0)) > sys.r * (1 + 1e-12):
        raise ValueError(f"|x0| exceeds the domain radius {sys.r}")
    check_word_cap(sys.m, K)
    if lie_table is None:
        lie_table = LieTable(sys)
    if sig_table is None or sig_table.K < K:
        sig_table = signature_up_to(u, K)
    elif (sig_table.m, sig_table.M, sig_table.T) != (u.m, u.M, u.T):
        raise ValueError("sig_table was built for a control of another (m, M, T)")

    # a zero signature entry adds 0.0, so its feature is never built
    lengths = word_lengths(sys.m, K)
    live = np.flatnonzero(sig_table.row[: len(lengths)])
    terms = sig_table.row[live] * _features(lie_table, K, live, np.array([x0]))[0]
    lengths = lengths[live]
    contributions = tuple(math.fsum(terms[lengths == k]) for k in range(K + 1))
    value = math.fsum(contributions)

    tail = None
    if family is not None:
        tail = family.tail(sys.m, sys.M, sys.T, K)
        if not family.convergent(sys.m, sys.M, sys.T):
            warnings.warn(
                "bound family does not certify tail decay for these m, M, T",
                ConvergenceWarning,
                stacklevel=2,
            )

    oracle_value = None
    oracle_error = None
    if ode_step is not None:
        ode = ode_reference(sys, x0, u, ode_step)
        oracle_value = ode.y
        oracle_error = ode.error_estimate

    return SeriesEvaluation(
        x0=x0,
        K=K,
        value=value,
        contributions=contributions,
        tail_bound=tail,
        oracle_value=oracle_value,
        oracle_error=oracle_error,
    )


# ---------------------------------------------------------------------------
# RK4 reference integrator


@dataclass
class OdeResult:
    times: np.ndarray
    states: np.ndarray
    y: float
    y_coarse: float
    error_estimate: float

    @property
    def final_state(self):
        return self.states[-1]


def _rhs(live, x):
    """sum_i v_i g_i(x) for the live (v_i, g_ij) pairs of each component
    j, summed from 0.0 in channel order as a zero-initialised vector is."""
    out = []
    for pairs in live:
        acc = 0.0
        for v, comp in pairs:
            acc += v * eval_expr(comp, x)
        out.append(acc)
    return out


def _rk4_run(sys, x0, u, step):
    """RK4 in float arithmetic on lists, with the operation order of the
    vector form, x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), so the states
    are the same bits; numpy comes in only for the returned arrays."""
    x = [float(v) for v in x0]
    times = [0.0]
    states = [x]
    t = 0.0
    bp = u.breakpoints
    for p in range(u.pieces):
        length = bp[p + 1] - bp[p]
        n_steps = max(1, math.ceil(length / step - 1e-12))
        h = length / n_steps
        half, sixth = 0.5 * h, h / 6.0
        # a zero channel or a zero component adds an exact 0.0: left out
        live = [[(v, g[j]) for v, g in zip(u.values[p], sys.g)
                 if v != 0.0 and g[j] != ZERO] for j in range(sys.n)]
        for _ in range(n_steps):
            k1 = _rhs(live, x)
            k2 = _rhs(live, [a + half * b for a, b in zip(x, k1)])
            k3 = _rhs(live, [a + half * b for a, b in zip(x, k2)])
            k4 = _rhs(live, [a + h * b for a, b in zip(x, k3)])
            x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            t += h
            if not all(map(math.isfinite, x)):
                raise OdeBlowupError(t)
            times.append(t)
            states.append(x)
        # land exactly on the breakpoint; accumulated h roundoff is benign
        t = bp[p + 1]
        times[-1] = t
    return np.array(times), np.array(states)


def ode_reference(sys, x0, u, step):
    """Classical fixed-step RK4 aligned to the control breakpoints.

    Runs at ``step`` and ``step/2``; the reported trajectory and output
    come from the finer run, and the error estimate is the standard
    Richardson value |y_h - y_{h/2}| / 15.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if u.m != sys.m:
        raise ValueError(f"control has {u.m} channels, system has {sys.m}")
    if len(x0) != sys.n:
        raise ValueError(f"x0 has {len(x0)} components, system has n = {sys.n}")
    _, states_c = _rk4_run(sys, x0, u, step)
    times, states = _rk4_run(sys, x0, u, step / 2.0)
    c = np.asarray(sys.c, dtype=float)
    y_fine = float(c @ states[-1])
    y_coarse = float(c @ states_c[-1])
    return OdeResult(
        times=times,
        states=states,
        y=y_fine,
        y_coarse=y_coarse,
        error_estimate=abs(y_fine - y_coarse) / 15.0,
    )


# ---------------------------------------------------------------------------
# Drift absorption


def absorb_drift(sys, drift, M0):
    """Fold a drift field into a new first channel g_0 = drift / M0.

    Simulating the result with the control prepended by the constant
    channel u_0 = M0 (ControlPath.prepend_channel) reproduces the drifted
    trajectories. The declared control bound becomes max(M, |M0|).
    """
    if M0 == 0:
        raise ValueError("M0 must be nonzero")
    if len(drift) != sys.n:
        raise ValueError(f"drift must have {sys.n} components")
    scale = Constant(1.0 / float(M0))
    g0 = tuple(simplify(Product((scale, comp))) for comp in drift)
    return SystemSpec(
        n=sys.n,
        m=sys.m + 1,
        g=(g0,) + sys.g,
        c=sys.c,
        r=sys.r,
        M=max(sys.M, abs(float(M0))),
        T=sys.T,
    )


def truncation_tail(family, m, M, T, K):
    """sum_{k>K} (mMT)^k/k! * L_k for the family; math.inf when divergent."""
    return family.tail(m, M, T, K)
