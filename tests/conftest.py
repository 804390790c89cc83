"""Shared test helpers: independent oracles and random generators.

The oracles here never call the code paths they check: signature values
come from Monte Carlo simplex sampling or adaptive quadrature of the
defining recursion, Lie entries from explicit matrix products, series
values from closed-form ODE solutions or RK4.
"""

import math

import numpy as np
from scipy.integrate import quad

from chenfliess import ControlPath, OdeBlowupError
from chenfliess.expressions import eval_expr


def sympy_sigma(z):
    """The logistic function in closed form, for sympy oracles."""
    import sympy as sp

    return 1 / (1 + sp.exp(-z))


def random_path(rng, m, M, T, max_pieces=6):
    """Random piecewise-constant control with 1..max_pieces pieces."""
    pieces = int(rng.integers(1, max_pieces + 1))
    while True:
        interior = np.sort(rng.uniform(0.0, T, size=pieces - 1))
        bp = (0.0, *[float(t) for t in interior], float(T))
        if all(b > a for a, b in zip(bp, bp[1:])):
            break
    values = rng.uniform(-M, M, size=(pieces, m))
    return ControlPath(m, bp, tuple(tuple(float(v) for v in row) for row in values), M)


def mc_signature_oracle(u, words, n_samples, rng):
    """Monte Carlo simplex integration of the signature entries.

    Returns {word: (estimate, stderr)}. Samples of each length are shared
    across the words of that length.
    """
    T = u.T
    bp = np.array(u.breakpoints)
    vals = np.array(u.values)  # (pieces, m)
    out = {}
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    for k, group in by_len.items():
        if k == 0:
            for w in group:
                out[w] = (1.0, 0.0)
            continue
        taus = np.sort(rng.uniform(0.0, T, size=(n_samples, k)), axis=1)
        piece_idx = np.clip(np.searchsorted(bp, taus, side="right") - 1, 0,
                            len(bp) - 2)
        volume = T**k / math.factorial(k)
        for w in group:
            prod = np.ones(n_samples)
            for j, chan in enumerate(w):
                prod *= vals[piece_idx[:, j], chan - 1]
            est = prod.mean() * volume
            se = prod.std(ddof=1) / np.sqrt(n_samples) * volume
            out[w] = (float(est), float(se))
    return out


def quadrature_signature_oracle(u, w, epsabs=1e-13):
    """Adaptive-quadrature evaluation of the signature recursion.

    Level j is represented per piece by a polynomial interpolant whose
    node values come from scipy.integrate.quad against the level below;
    the interpolation degree equals the exact polynomial degree of the
    running integral, so quadrature is the only error source.
    """
    bp = u.breakpoints
    pieces = list(zip(bp[:-1], bp[1:]))
    polys = [np.polynomial.Polynomial([1.0]) for _ in pieces]
    start = 1.0  # F_0(0)
    for depth, chan in enumerate(w, start=1):
        new_polys = []
        start = 0.0
        for p, (a, b) in enumerate(pieces):
            v = u.values[p][chan - 1]
            prev = polys[p]

            def integrand(s, v=v, prev=prev):
                return v * prev(s)

            nodes = np.polynomial.chebyshev.chebpts1(depth + 1)
            nodes = (nodes + 1.0) / 2.0 * (b - a) + a
            node_vals = [
                start + quad(integrand, a, float(t), epsabs=epsabs, epsrel=1e-13,
                             limit=200)[0]
                for t in nodes
            ]
            poly = np.polynomial.Polynomial.fit(nodes, node_vals, deg=depth)
            new_polys.append(poly)
            start += quad(integrand, a, b, epsabs=epsabs, epsrel=1e-13,
                          limit=200)[0]
        polys = new_polys
    return start


def bilinear_lie_oracle(matrices, c, word, x):
    """c^T A_{i1} ... A_{ik} x, the stored-entry order for bilinear systems."""
    row = np.asarray(c, dtype=float)
    for i in word:
        row = row @ np.asarray(matrices[i - 1], dtype=float)
    return float(row @ np.asarray(x, dtype=float))


def _rhs_vector(sys, values, x):
    out = np.zeros(sys.n)
    for i, v in enumerate(values):
        if v == 0.0:
            continue
        for j, comp in enumerate(sys.g[i]):
            out[j] += v * eval_expr(comp, x)
    return out


def _rk4_vector_run(sys, x0, u, step):
    times = [0.0]
    states = [np.asarray(x0, dtype=float)]
    x = states[0]
    t = 0.0
    bp = u.breakpoints
    for p in range(u.pieces):
        length = bp[p + 1] - bp[p]
        n_steps = max(1, math.ceil(length / step - 1e-12))
        h = length / n_steps
        values = u.values[p]
        for _ in range(n_steps):
            k1 = _rhs_vector(sys, values, x)
            k2 = _rhs_vector(sys, values, x + 0.5 * h * k1)
            k3 = _rhs_vector(sys, values, x + 0.5 * h * k2)
            k4 = _rhs_vector(sys, values, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.all(np.isfinite(x)):
                raise OdeBlowupError(t)
            times.append(t)
            states.append(x)
        t = bp[p + 1]
        times[-1] = t
    return np.array(times), np.array(states)


def rk4_vector_oracle(sys, x0, u, step):
    """The RK4 reference in its numpy-vector form: fixed steps aligned to
    the breakpoints, at ``step`` and ``step/2``. Returns (times, states,
    y, y_coarse, error_estimate) of the finer run, or raises
    OdeBlowupError at the first non-finite state."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, states_c = _rk4_vector_run(sys, x0, u, step)
        times, states = _rk4_vector_run(sys, x0, u, step / 2.0)
    c = np.asarray(sys.c, dtype=float)
    y, y_coarse = float(c @ states[-1]), float(c @ states_c[-1])
    return times, states, y, y_coarse, abs(y - y_coarse) / 15.0
