"""Truncated series evaluation against an ODE ground truth.

The output of x' = sum_i u_i(t) g_i(x), y = c^T x at the horizon is
y(T) = sum_w S^w(u) * F^w(x0), where S^w are the signature entries and
F^w the iterated Lie derivative features. The pairing convention is the
one a noncommuting bilinear system forces when the truncated series is
required to reproduce the ODE solution (the mandatory bootstrap test in
the suite): the channel at the EARLIEST simplex time is the OUTERMOST
differentiation, so the feature paired with signature word w is the
LieTable entry for the reversed word (feature_matrix).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import (
    ZERO,
    Constant,
    ExprError,
    Power,
    Primitive,
    Product,
    Sum,
    Var,
    get_primitive,
    power,
    simplify,
)
from .lie import (LieTable, SystemSpec, _column_count, _letters, check_word_cap,
                  suffix_closure, words_up_to)
from .signatures import ControlPath, signature_up_to

# not called here, but benchmark/tracer.py wraps this name in this module
from .expressions import eval_expr  # noqa: F401


class ConvergenceWarning(UserWarning):
    """The configured bound family does not certify tail decay."""


class OdeBlowupError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"state became non-finite at t = {t}")
        self.t = t


def feature_matrix(sys, X, K, lie_table=None):
    """(words, Phi) with Phi[i, j] the feature of word words[j] at X[i],
    so a coefficient vector is comparable with a signature: the live
    block of _live_features, scattered into zeros."""
    check_word_cap(sys.m, K)
    cols, live = _live_features(sys, X, K, lie_table)
    words = words_up_to(sys.m, K)
    Phi = np.zeros((live.shape[0], len(words)))
    Phi[:, cols] = live
    return words, Phi


def _live_features(sys, X, K, lie_table=None):
    """(cols, Phi): the sorted, suffix-closed columns of LieTable.live(K),
    the only ones whose feature can be nonzero, and Phi[i, j] the feature
    of column cols[j] at X[i] (the entry for the REVERSED word)."""
    if lie_table is None:
        lie_table = LieTable(sys)
    X = _points(sys, X)
    cols, rows = lie_table.live(K)
    return cols, _finite(lie_table._values, rows, X)


def _points(sys, X):
    """X as an (N, n) float array; another shape raises ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError(f"X must be (N, n) with n = {sys.n}, got shape {X.shape}")
    return X


def _finite(evaluate, *args):
    """evaluate(*args), features from a LieTable's one kernel. A
    non-finite feature raises FloatingPointError at one point and at many."""
    try:
        Phi = evaluate(*args)
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
    system and control; a sig_table for another (m, M, T) raises. The
    table memoizes the values of its stored rows at the last x0
    (LieTable._values), so an order sweep K = 1..K_max at one x0 on one
    table evaluates each row once. With ``family`` set, the truncation
    tail bound is attached and a ConvergenceWarning is issued when the
    family cannot certify convergence. With ``ode_step`` set, the RK4
    reference runs and the oracle fields are filled in.
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

    # a zero signature entry or a zero Lie entry adds 0.0, so only live
    # columns with a nonzero signature entry are paired, and a sparse
    # control walks the suffix closure of its nonzero entries only
    row = sig_table.row[: _column_count(sys.m, K)]
    paired = np.flatnonzero(row)
    cols, rows = lie_table.live(K, None if paired.size == row.size
                                else suffix_closure(sys.m, K, paired))
    keep = row[cols] != 0.0
    cols = cols[keep]
    terms = row[cols] * _finite(lie_table._values, rows[keep], np.array([x0]))[0]
    lengths = _letters(sys.m, K, cols)[0]
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


# operands per generated line: a longer a * b * ... chain nests past what
# Python's compiler accepts
_CHAIN = 32


def _rk4_step(sys, live):
    """One classical RK4 step for the channels flagged in ``live``, built
    with compile as straight-line code: step(x, v, h, half, sixth) returns
    the next state as a list, for the piece values v.

    Each field node is one assignment that does what eval_expr does:
    math.fsum over a Sum's terms, a Product left to right from 1.0,
    expressions.power, the primitive's evaluate. Each component is summed
    from 0.0 in channel order, and a channel held at 0 or a zero component
    is left out, since it adds an exact 0.0. The update keeps the vector
    form's order, x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), so the states are
    the same bits. A node object that the trees share is evaluated once a
    stage. Constants, exponents, orders and primitives are bound by name,
    so no value is printed into the source, and no line nests.
    """
    env = {"fsum": math.fsum, "power": power}
    lines = []

    def bind(value):
        name = f"c{len(env)}"
        env[name] = value
        return name

    def assign(rhs):
        name = f"t{len(lines)}"
        lines.append(f"{name} = {rhs}")
        return name

    def chain(first, op, operands):
        """first op o1 op o2 ..., left to right, _CHAIN operands a line."""
        name = assign(op.join([first, *operands[:_CHAIN]]))
        for s in range(_CHAIN, len(operands), _CHAIN):
            lines.append(f"{name} = " + op.join([name, *operands[s:s + _CHAIN]]))
        return name

    def node(e, xs, seen):
        got = seen.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Constant):
            got = bind(e.value)
        elif isinstance(e, Var):
            got = xs[e.index - 1]
        elif isinstance(e, Sum):
            terms = "".join(node(t, xs, seen) + ", " for t in e.terms)
            got = assign(f"fsum(({terms}))")
        elif isinstance(e, Product):
            got = chain("1.0", " * ", [node(f, xs, seen) for f in e.factors])
        elif isinstance(e, Power):
            got = assign(f"power({node(e.base, xs, seen)}, {bind(e.exponent)})")
        elif isinstance(e, Primitive):
            f = bind(get_primitive(e.name).evaluate)
            got = assign(f"{f}({bind(e.order)}, {node(e.arg, xs, seen)})")
        else:
            raise ExprError(f"not an expression node: {e!r}")
        seen[id(e)] = got
        return got

    n = sys.n
    xs = [f"a{j}" for j in range(n)]
    inputs, ks = xs, []
    for scale in ("half", "half", "h", None):
        seen = {}
        k = [chain("0.0", " + ", [f"v{i} * {node(g[j], inputs, seen)}"
                                  for i, g in enumerate(sys.g) if live[i] and g[j] != ZERO])
             for j in range(n)]
        ks.append(k)
        if scale is not None:
            inputs = [f"s{len(lines)}_{j}" for j in range(n)]
            lines += [f"{s} = {a} + {scale} * {b}" for s, a, b in zip(inputs, xs, k)]
    update = ", ".join(f"{a} + sixth * ((({k1} + 2.0 * {k2}) + 2.0 * {k3}) + {k4})"
                       for a, k1, k2, k3, k4 in zip(xs, *ks))
    body = [f"{''.join(a + ', ' for a in xs)}= x",
            f"{''.join(f'v{i}, ' for i in range(sys.m))}= v",
            *lines, f"return [{update}]"]
    source = "def step(x, v, h, half, sixth):\n" + "".join(f"    {b}\n" for b in body)
    exec(compile(source, "<rk4 step>", "exec"), env)
    return env["step"]


def _rk4_run(sys, x0, u, step, steps):
    """RK4 at ``step``, each piece split into equal steps that land on its
    breakpoints; ``steps`` caches the step function per channel mask."""
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
        values = u.values[p]
        live = tuple(v != 0.0 for v in values)
        if live not in steps:
            steps[live] = _rk4_step(sys, live)
        advance = steps[live]
        for _ in range(n_steps):
            x = advance(x, values, h, half, sixth)
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
    Richardson value |y_h - y_{h/2}| / 15. Both runs share one generated
    step function per live-channel mask (_rk4_step), built for this call.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if u.m != sys.m:
        raise ValueError(f"control has {u.m} channels, system has {sys.m}")
    if len(x0) != sys.n:
        raise ValueError(f"x0 has {len(x0)} components, system has n = {sys.n}")
    steps = {}  # channel mask -> step function, shared by both runs
    _, states_c = _rk4_run(sys, x0, u, step, steps)
    times, states = _rk4_run(sys, x0, u, step / 2.0, steps)
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
