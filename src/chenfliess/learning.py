"""Datasets, ERM in signature-feature space, Monte Carlo complexity
estimates and the end-to-end generalization experiment.

The learnable object is a control path; its truncated signature is a
coefficient vector inside the box |theta_w| <= (MT)^|w| / |w|!, so ERM
is a small convex problem over that box in p = #words coefficients,
solved exactly: bounded-variable least squares by an active-set method
for squared loss, and a bounded-variable L1 simplex for absolute loss. The
experiment report carries the solver, its iteration count, convergence
flag and optimality residual in its `erm` block. The box is a
RELAXATION of the exact model class (not every box point is a
realizable signature); the certificates only use the box bound, so they
cover the relaxed class, and every report says so.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import product as iter_product

import numpy as np

from ._num import det_dot, det_matmul, det_matvec, det_norm
from .bounds import excess_risk_bound, loss_contraction, theorem1_bound
from .expressions import Expr, eval_expr
from .families import family_from_json_dict
from .lie import ResourceCapError, warn_if_c_not_unit, word_lengths
from .series import feature_matrix
from .signatures import (ControlPath, signature_columns, signature_matrix,
                         signature_norm_bound, suffix_closure)
from .systems import builtin_system, load_system_file

# not called here, but benchmark/tracer.py wraps these names in this module
from .bounds import analytic_bound, bilinear_bound, hopfield_bound  # noqa: F401
from .lie import LieTable  # noqa: F401
from .signatures import signature_up_to  # noqa: F401

SCHEMA_VERSION = 4

ERM_COLUMN_CAP = 1_000  # most live feature columns; hopfield2 at order 6 has 919

# validation headroom for rounding on points generated exactly on the
# boundary; violations beyond it are errors, never clamped
_NORM_SLACK = 1 + 1e-9


class DataValidationError(ValueError):
    pass


@dataclass
class Dataset:
    """Sample (X_i, Y_i) with declared domain radius r and label bound m1."""

    x: np.ndarray
    y: np.ndarray
    r: float
    m1: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise DataValidationError("X must be (N, n) and Y (N,) with equal N")
        # NaN passes every bound check below, so the bounds are checked first
        if not (math.isfinite(self.r) and self.r > 0):
            raise DataValidationError(f"r must be finite and > 0, got {self.r}")
        if not (math.isfinite(self.m1) and self.m1 >= 0):
            raise DataValidationError(f"m1 must be finite and >= 0, got {self.m1}")
        bad = np.nonzero(~(np.isfinite(self.x).all(axis=1) & np.isfinite(self.y)))[0]
        if bad.size:
            raise DataValidationError(f"record {bad[0]}: X and Y must be finite")
        norms = np.sqrt((self.x**2).sum(axis=1))
        bad = np.nonzero(norms > self.r * _NORM_SLACK)[0]
        if bad.size:
            raise DataValidationError(
                f"record {bad[0]}: |X| = {norms[bad[0]]:.6g} exceeds r = {self.r}"
            )
        bad = np.nonzero(np.abs(self.y) > self.m1 * _NORM_SLACK)[0]
        if bad.size:
            raise DataValidationError(
                f"record {bad[0]}: |Y| = {abs(self.y[bad[0]]):.6g} exceeds M1 = {self.m1}"
            )

    @property
    def N(self):
        return len(self.y)

    @property
    def n(self):
        return self.x.shape[1]

    @staticmethod
    def from_csv(path, r, m1):
        """Read `x1,...,xn,y` rows; a violating row raises with its line
        number (header is line 1)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataValidationError("empty CSV file: expected an x1,...,y header")
            if not header or header[-1].strip() != "y":
                raise DataValidationError("last CSV column must be 'y'")
            n = len(header) - 1
            xs, ys = [], []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n + 1:
                    raise DataValidationError(
                        f"line {line_no}: expected {n + 1} columns, got {len(row)}"
                    )
                try:
                    vals = [float(v) for v in row]
                except ValueError as err:
                    raise DataValidationError(f"line {line_no}: {err}") from None
                if not all(map(math.isfinite, vals)):
                    raise DataValidationError(f"line {line_no}: X and Y must be finite")
                point, label = vals[:-1], vals[-1]
                if math.sqrt(math.fsum(v * v for v in point)) > r * _NORM_SLACK:
                    raise DataValidationError(
                        f"line {line_no}: |X| exceeds declared radius r = {r}"
                    )
                if abs(label) > m1 * _NORM_SLACK:
                    raise DataValidationError(
                        f"line {line_no}: |Y| exceeds declared bound M1 = {m1}"
                    )
                xs.append(point)
                ys.append(label)
        return Dataset(np.array(xs), np.array(ys), float(r), float(m1))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.n)] + ["y"])
            for point, label in zip(self.x, self.y):
                writer.writerow([repr(float(v)) for v in point] + [repr(float(label))])


# ---------------------------------------------------------------------------
# Coefficient box and random controls


def coefficient_box(words, M, T):
    return np.array([signature_norm_bound(M, T, len(w)) for w in words])


def random_controls(rng, n, m, M, T, pieces=3):
    """n random piecewise-constant controls as arrays: (n, pieces + 1)
    breakpoints (0, sorted uniform, T) and (n, pieces, m) values uniform in
    [-M, M]. A row whose breakpoints tie is redrawn. At T = 0 the controls
    have no pieces."""
    if pieces < 1:
        raise ValueError(f"need pieces >= 1, got {pieces}")
    if not T >= 0:
        raise ValueError(f"need T >= 0, got {T}")
    if T == 0:
        return np.zeros((n, 1)), np.zeros((n, 0, m))
    bp = np.empty((n, pieces + 1))
    bp[:, 0], bp[:, -1] = 0.0, T
    redraw = np.arange(n)
    while redraw.size:
        bp[redraw, 1:-1] = np.sort(rng.uniform(0.0, T, size=(redraw.size, pieces - 1)), axis=1)
        redraw = np.flatnonzero(np.any(np.diff(bp, axis=1) <= 0.0, axis=1))
    return bp, rng.uniform(-M, M, size=(n, pieces, m))


def random_control_path(rng, m, M, T, pieces=3):
    """One random_controls draw as a ControlPath."""
    bp, values = random_controls(rng, 1, m, M, T, pieces)
    return ControlPath(m, tuple(bp[0].tolist()), tuple(map(tuple, values[0].tolist())), M)


def sample_ball(rng, n, r, N):
    """Uniform draws from the Euclidean ball of radius r."""
    z = rng.standard_normal((N, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = r * rng.uniform(0.0, 1.0, size=N) ** (1.0 / n)
    return z * radii[:, None]


def model_sup_bound(family, m, M, T):
    """Certified bound on sup |model| = sum_k (mMT)^k/k! L_k (full series);
    math.inf when the family's series diverges."""
    return family.closed_form(m, M, T)


def make_dataset(sys, family, N, K, seed, noise=0.0, pieces=3, planted=None):
    """Planted-model data: X uniform on the ball, labels from a hidden
    control path through the order-K series, plus bounded uniform noise.

    Returns (dataset, planted_path). The declared label bound is the
    certified model sup bound plus the noise amplitude.
    """
    rng = np.random.default_rng([seed, 10])
    X = sample_ball(rng, sys.n, sys.r, N)
    if planted is None:
        planted = random_control_path(
            np.random.default_rng([seed, 11]), sys.m, sys.M, sys.T, pieces
        )
    _, Phi = feature_matrix(sys, X, K)
    y = det_matvec(Phi, signature_matrix([planted], K)[0])
    if noise > 0.0:
        y = y + noise * rng.uniform(-1.0, 1.0, size=N)
    m1 = model_sup_bound(family, sys.m, sys.M, sys.T) + noise
    if math.isinf(m1):
        m1 = float(np.max(np.abs(y))) * _NORM_SLACK + noise
    return Dataset(X, y, sys.r, m1), planted


# ---------------------------------------------------------------------------
# Monte Carlo empirical complexity


@dataclass
class RademacherEstimate:
    """Sampled-sup Monte Carlo estimate: a LOWER estimate of the empirical
    complexity (the sup over controls is approximated by the max over
    random paths and their sign flips), so estimate <= certified bound is
    the expected relation."""

    estimate: float
    stderr: float
    n_controls: int
    n_eps: int
    K: int
    N: int
    seed: int

    def to_json_dict(self):
        return {
            "estimate": float(self.estimate),
            "stderr": float(self.stderr),
            "n_controls": self.n_controls,
            "n_eps": self.n_eps,
            "K": self.K,
            "N": self.N,
            "seed": self.seed,
            "caveat": "sampled sup: lower estimate of the empirical complexity",
        }


def empirical_rademacher(data, sys, K, n_controls, n_eps, seed, pieces=3):
    """Monte Carlo estimate of E_eps sup_u |sum_i eps_i model_u(X_i)| / N.

    The controls are one random_controls draw from the (seed, 1) stream
    and the signs come from (seed, 2), so results do not depend on
    evaluation order. Signatures are computed on the suffix closure of the
    live columns only (a column zero at every point adds nothing). The
    signs meet the live features first: A = Phi^T eps^T is (live words x
    draws), and flipping u negates the odd-length signature entries, so
    each sup over {u, -u} is |S_even A_even| + |S_odd A_odd|."""
    if n_controls < 1 or n_eps < 1:
        raise ValueError("need n_controls >= 1 and n_eps >= 1")
    _, Phi = feature_matrix(sys, data.x, K)
    live = np.flatnonzero(np.any(Phi != 0.0, axis=0))
    bp, values = random_controls(np.random.default_rng([seed, 1]), n_controls, sys.m,
                                 sys.M, sys.T, pieces)
    cols = suffix_closure(sys.m, K, live)
    sigs = signature_columns(np.diff(bp, axis=1)[:, :, None] * values, K, cols, sys.M,
                             sys.T)[:, np.searchsorted(cols, live)]
    odd = word_lengths(sys.m, K)[live] % 2 == 1
    eps = np.random.default_rng([seed, 2]).integers(0, 2, size=(n_eps, data.N)) * 2.0 - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        A = det_matmul(Phi[:, live].T, eps.T)
        s = abs(det_matmul(sigs[:, ~odd], A[~odd])) + abs(det_matmul(sigs[:, odd], A[odd]))
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(
            "non-finite model outputs: series diverges for these controls"
        )
    sups = s.max(axis=0) / data.N
    estimate = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(n_eps)) if n_eps > 1 else 0.0
    return RademacherEstimate(
        estimate=estimate,
        stderr=stderr,
        n_controls=n_controls,
        n_eps=n_eps,
        K=K,
        N=data.N,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sign-average inequality harness


@dataclass
class JensenCheckReport:
    estimate: float
    stderr: float
    rhs: float
    passed: bool
    margin: float
    method: str
    n_eps: int

    def to_json_dict(self):
        return {
            "estimate": float(self.estimate),
            "stderr": float(self.stderr),
            "rhs": float(self.rhs),
            "passed": self.passed,
            "margin": float(self.margin),
            "method": self.method,
            "n_eps": self.n_eps,
        }


def jensen_lemma_check(psi, points, n_eps=10_000, seed=0, method="mc"):
    """Check E|sum_i eps_i psi(X_i)| <= sqrt(N) max_i |psi(X_i)|.

    The right side is the sample version of the sup bound, which the
    inequality's own final step dominates. psi is an Expr or a callable.
    method="exact" enumerates all sign patterns (N <= 20)."""
    points = np.asarray(points, dtype=float)
    if isinstance(psi, Expr):
        psi = partial(eval_expr, psi)
    values = np.array([float(psi(p)) for p in points])
    N = len(values)
    rhs = math.sqrt(N) * float(np.max(np.abs(values))) if N else 0.0
    if method == "exact":
        if N > 20:
            raise ValueError("exact enumeration is limited to N <= 20")
        total = 0.0
        for signs in iter_product((-1.0, 1.0), repeat=N):
            total += abs(det_dot(np.array(signs), values))
        estimate = total / 2.0**N
        stderr = 0.0
        n_eps = 2**N
    elif method == "mc":
        rng = np.random.default_rng([seed, 4])
        eps = rng.integers(0, 2, size=(n_eps, N)) * 2.0 - 1.0
        sums = np.abs((eps * values[None, :]).sum(axis=1))
        estimate = float(sums.mean())
        stderr = float(sums.std(ddof=1) / math.sqrt(n_eps)) if n_eps > 1 else 0.0
    else:
        raise ValueError(f"unknown method {method!r}")
    passed = estimate <= rhs + 3.0 * stderr
    return JensenCheckReport(
        estimate=estimate,
        stderr=stderr,
        rhs=rhs,
        passed=passed,
        margin=rhs + 3.0 * stderr - estimate,
        method=method,
        n_eps=n_eps,
    )


# ---------------------------------------------------------------------------
# ERM


@dataclass
class FittedModel:
    """Box-constrained coefficients in signature-feature space.

    `kkt_residual` is the optimality residual of the solver named in
    `solver`: the unit-step projected gradient at `theta` for "bvls", the
    primal-dual gap for "l1-simplex", finite also at the iteration cap."""

    sys: object
    K: int
    loss: str
    words: list
    theta: np.ndarray
    box: np.ndarray
    train_risk: float
    n_iter: int
    converged: bool
    solver: str
    kkt_residual: float

    def predict(self, X):
        _, Phi = feature_matrix(self.sys, X, self.K)
        return det_matvec(Phi, self.theta)

    def risk(self, X, y):
        res = np.asarray(y, dtype=float) - self.predict(X)
        if self.loss == "squared":
            return float((res**2).mean())
        return float(np.abs(res).mean())

    def to_json_dict(self):
        return {
            "K": self.K,
            "loss": self.loss,
            "coefficients": [
                {"word": [int(i) for i in w], "theta": float(t), "box": float(b)}
                for w, t, b in zip(self.words, self.theta, self.box)
            ],
            "train_risk": float(self.train_risk),
            "n_iter": self.n_iter,
            "converged": self.converged,
            "solver": self.solver,
            "kkt_residual": float(self.kkt_residual),
        }


def _lstsq(A, b):
    """argmin |b - A z| by Householder QR with column pivoting over
    deterministic reductions; columns past the numerical rank (remaining
    norm within rounding of the largest column's) get 0."""
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    N, q = A.shape
    cut = np.max((A**2).sum(axis=0), initial=0.0) * (np.finfo(float).eps * max(N, q)) ** 2
    perm, rank = np.arange(q), 0
    for k in range(min(N, q)):
        sq = (A[k:, k:] ** 2).sum(axis=0)
        j = k + int(np.argmax(sq))
        if sq[j - k] <= cut:
            break
        A[:, [k, j]], perm[[k, j]] = A[:, [j, k]], perm[[j, k]]
        v = A[k:, k].copy()
        v[0] += math.copysign(math.sqrt(sq[j - k]), v[0])
        v /= det_norm(v)
        A[k:, k:] -= 2.0 * v[:, None] * (v[:, None] * A[k:, k:]).sum(axis=0)
        b[k:] -= 2.0 * det_dot(v, b[k:]) * v
        rank = k + 1
    z = np.zeros(rank)
    for i in range(rank - 1, -1, -1):
        z[i] = (b[i] - det_dot(A[i, i + 1 : rank], z[i + 1 :])) / A[i, i]
    out = np.zeros(q)
    out[perm[:rank]] = z
    return out


def _bvls(Phi, y, box, max_iter):
    """Minimise |y - Phi theta|^2 over |theta| <= box by the primal
    active-set method of Stark & Parker (1995), from theta = 0.

    Each step solves least squares on the free columns. A solution
    outside the box is cut back to the first bound crossed, and that
    variable is held there; a solution inside is taken, and the held
    variable whose gradient points furthest into the box is released. A
    held gradient within rounding of 0 counts as optimal, so the method
    stops at a KKT point. Returns (theta, steps, converged)."""
    theta = np.zeros(len(box))
    if not box.size:  # no live column: theta = 0 is the whole box
        return theta, 1, True
    g_tol = 1e-13 * (1.0 + float(np.max(np.abs(det_matvec(Phi.T, y)))))
    free = np.ones(len(box), dtype=bool)
    held = ~free
    for step in range(1, max_iter + 1):
        x, lim = theta[free], box[free]
        z = _lstsq(Phi[:, free], y - det_matvec(Phi[:, held], theta[held]))
        out = np.flatnonzero(np.abs(z) > lim)
        if out.size:
            alphas = (np.copysign(lim, z) - x)[out] / (z - x)[out]
            i = out[np.argmin(alphas)]
            theta[free] = np.clip(x + alphas.min() * (z - x), -lim, lim)
            j = np.flatnonzero(free)[i]
            theta[j], free[j], held[j] = math.copysign(box[j], z[i]), False, True
            continue
        theta[free] = z
        push = np.sign(theta) * det_matvec(Phi.T, det_matvec(Phi, theta) - y)
        j = int(np.argmax(np.where(held, push, 0.0)))
        if not held[j] or push[j] <= g_tol:
            return theta, step, True
        free[j], held[j] = True, False
    return theta, max_iter, False


def _l1_simplex(Phi, y, box, max_iter):
    """Minimise mean|y - Phi theta| over |theta| <= box (box > 0) by the
    bounded-variable simplex of Barrodale & Roberts (1973), from theta = 0.

    A basis slot holds a row with residual nonbasic at 0 (basis row Phi_i)
    or a theta held at a bound or at 0 (e_j); the q x q inverse takes a
    rank-one update per pivot. A step passes each residual sign change
    while the risk falls; after a degenerate one, Bland's rule. Stops at
    an optimal basis, within 1e-13 mean|y| of the dual bound, or after
    max_iter pivots. Returns (theta, pivots, converged, dual bound)."""
    N, q = Phi.shape
    PhiT, absPhi = np.ascontiguousarray(Phi.T), np.abs(Phi)
    basis_row = np.vstack([np.eye(q), Phi])  # of theta_j, then of row i
    tol = 1e-11 * np.concatenate([absPhi.sum(axis=0), np.ones(N)]) / N
    inv, slots, held = np.eye(q), np.arange(q), np.arange(q + N) < q
    fixed, theta, sign = np.zeros(q), np.zeros(q), np.where(y < 0.0, -1.0, 1.0)
    stop, step = 1e-13 * float(np.abs(y).mean()), 1.0
    for pivots in range(max_iter + 1):
        basic, tight = ~held[:q], held[q:]
        res = np.concatenate([fixed - theta, y - det_matvec(Phi, theta)])[slots]
        theta = np.where(basic, theta + det_matvec(inv, res), fixed)  # refined vertex
        r = y - det_matvec(Phi, theta)
        lam = np.where(tight, 0.0, sign / N)
        # multipliers of the tight rows, reduced costs of the held thetas
        mu = -det_matvec(inv.T, det_matvec(PhiT, lam))
        rows, j = slots >= q, np.minimum(slots, q - 1)
        lam[slots[rows] - q] = np.clip(mu[rows], -1.0 / N, 1.0 / N)
        sign[slots[rows] - q] = np.sign(mu[rows])  # a released row's residual sign
        dual = max(det_dot(lam, y) - det_dot(box, np.abs(det_matvec(PhiT, lam))), 0.0)
        viol, rho, risk = np.abs(mu) - rows / N, -np.sign(mu), float(np.abs(r).mean())
        ok = (viol > tol[slots]) & (rows | (rho * fixed[j] < box[j]))
        done = not ok.any() or risk - dual <= stop
        if done or pivots == max_iter:
            return np.clip(theta, -box, box), pivots, done, dual
        # risk decrease at the initial rate over the range (a row's: the risk)
        gain = viol * np.where(rows, risk, box[j] * (1.0 + (rho * fixed[j] < 0.0)))
        p = int(np.argmin(np.where(ok, slots, N + q)) if step == 0.0  # Bland
                else np.argmax(np.where(ok, gain, -1.0)))
        e = slots[p]
        d = np.where(basic | (np.arange(q) == e), rho[p] * inv[:, p], 0.0)
        dr, w = -det_matvec(Phi, d), sign * r
        # changes and values at rounding level count as 0
        dr[np.abs(dr) <= 1e-9 * det_matvec(absPhi, np.abs(d))] = 0.0
        w[w <= 1e-13 * (np.abs(y) + det_matvec(absPhi, np.abs(theta)))] = 0.0
        cand = np.flatnonzero(~tight & (sign * dr < 0.0))
        t_row = w[cand] / np.abs(dr[cand])
        order = np.lexsort((cand, t_row))
        slope = -viol[p] + np.cumsum(2.0 * np.abs(dr[cand[order]]) / N)
        k = int(np.argmax(np.append(slope, 0.0) >= 0.0))
        t_box, moving = np.full(q, np.inf), d != 0.0
        t_box[moving] = np.maximum((np.copysign(box, d) - theta)[moving] / d[moving], 0.0)
        jb = int(np.argmin(t_box))
        if k < len(order) and t_row[order[k]] < t_box[jb]:
            leave, step, flip = q + cand[order[k]], t_row[order[k]], cand[order[:k]]
        else:
            leave, step, flip = jb, t_box[jb], cand[t_row < t_box[jb]]
            fixed[jb] = math.copysign(box[jb], d[jb])
        sign[flip] = -sign[flip]
        if leave != e:  # else the entering theta crossed its box
            z = det_matvec(inv.T, basis_row[leave])
            inv -= np.multiply.outer(inv[:, p], (z - (np.arange(q) == p)) / z[p])
            slots[p], held[e], held[leave] = leave, False, True


def erm_fit(data, sys, K, loss="squared", max_iter=200_000):
    """Empirical risk minimisation over the coefficient box.

    Squared loss is bounded-variable least squares, solved exactly by the
    active-set method of `_bvls` on the live columns of the feature
    matrix Phi (N x p): `n_iter` counts its steps (one least-squares
    solve each) and `kkt_residual` is the unit-step projected gradient
    max |theta - clip(theta - grad f(theta))| of f = mean squared
    residual, recomputed at the returned theta. Absolute loss: the exact
    simplex of `_l1_simplex` on the same columns; `n_iter` counts its
    pivots and `kkt_residual` is the primal-dual gap. Both are
    deterministic; a solver that hits `max_iter` reports converged=False
    and the model is still returned. More than ERM_COLUMN_CAP live
    columns (nonzero somewhere, box > 0) raise ResourceCapError."""
    words, Phi = feature_matrix(sys, data.x, K)
    box = coefficient_box(words, sys.M, sys.T)
    y = data.y
    N = data.N
    live = np.any(Phi != 0.0, axis=0) & (box > 0.0)
    if live.sum() > ERM_COLUMN_CAP:
        raise ResourceCapError(f"ERM over {live.sum()} live feature columns exceeds "
                               f"the cap of {ERM_COLUMN_CAP}; lower the order")

    theta = np.zeros(len(box))
    if loss == "squared":
        theta[live], n_iter, converged = _bvls(Phi[:, live], y, box[live], max_iter)
        res = y - det_matvec(Phi, theta)
        train_risk = float((res**2).mean())
        grad = -2.0 * det_matvec(Phi.T, res) / N
        kkt = float(np.max(np.abs(theta - np.clip(theta - grad, -box, box))))
        solver = "bvls"
    elif loss == "absolute":
        theta[live], n_iter, converged, dual = _l1_simplex(Phi[:, live], y, box[live],
                                                           max_iter)
        res = y - det_matvec(Phi, theta)
        train_risk = float(np.abs(res).mean())
        kkt = abs(train_risk - dual)
        solver = "l1-simplex"
    else:
        raise ValueError(f"unknown loss {loss!r}")

    return FittedModel(
        sys=sys,
        K=K,
        loss=loss,
        words=list(words),
        theta=theta,
        box=box,
        train_risk=train_risk,
        n_iter=n_iter,
        converged=converged,
        solver=solver,
        kkt_residual=kkt,
    )


# ---------------------------------------------------------------------------
# End-to-end experiment


_DEFAULTS = {
    "order": 4,
    "n_train": 200,
    "n_test": 200,
    "loss": "squared",
    "delta": 0.05,
    "noise": 0.0,
    "n_controls": 128,
    "n_eps": 256,
    "pieces": 3,
    "tail_K": 60,
}


def _resolve_system(config):
    system = config["system"]
    if isinstance(system, str):
        built = builtin_system(system)
        return built.spec, built.family, system
    if isinstance(system, dict) and "file" in system:
        spec, M0 = load_system_file(system["file"])
        if M0 is not None:
            raise ValueError(
                "experiment configs must reference driftless systems; "
                "absorb the drift first"
            )
        family = (
            family_from_json_dict(config["family"]) if "family" in config else None
        )
        return spec, family, system["file"]
    raise ValueError("config['system'] must be a builtin name or {'file': path}")


def generalization_experiment(config):
    """Run ERM, the Monte Carlo complexity estimate and the certificate
    chain for one configuration; returns a reproducible ExperimentReport.

    The config must carry a seed. Data comes from the planted-path
    generator unless config['data'] names train/test CSVs."""
    cfg = dict(_DEFAULTS)
    cfg.update(config)
    if "seed" not in cfg:
        raise ValueError("config must include a seed")
    seed = int(cfg["seed"])
    K = int(cfg["order"])
    delta = float(cfg["delta"])
    loss = cfg["loss"]
    sys_spec, family, system_label = _resolve_system(cfg)
    if family is not None:
        # the closed-form calculators assume a unit-norm output vector
        warn_if_c_not_unit(sys_spec, "experiment certificate")

    if "data" in cfg and cfg["data"] is not None:
        d = cfg["data"]
        train = Dataset.from_csv(d["csv"], r=sys_spec.r, m1=float(d["m1"]))
        test = (
            Dataset.from_csv(d["test_csv"], r=sys_spec.r, m1=float(d["m1"]))
            if "test_csv" in d
            else None
        )
    else:
        if family is None:
            raise ValueError("generated data requires a bound family")
        train, planted = make_dataset(
            sys_spec, family, int(cfg["n_train"]), K, seed,
            noise=float(cfg["noise"]), pieces=int(cfg["pieces"]),
        )
        test, _ = make_dataset(
            sys_spec, family, int(cfg["n_test"]), K, seed + 1,
            noise=float(cfg["noise"]), pieces=int(cfg["pieces"]),
            planted=planted,
        )
    N = train.N

    model = erm_fit(train, sys_spec, K, loss=loss)
    train_risk = model.train_risk
    test_risk = model.risk(test.x, test.y) if test is not None else None

    certified = {"certified": False}
    if family is not None:
        report = theorem1_bound(family, sys_spec.m, sys_spec.M, sys_spec.T, N,
                                K=int(cfg["tail_K"]))
        # one series bounds sup |model| and, over sqrt(N), the complexity
        M2 = model_sup_bound(family, sys_spec.m, sys_spec.M, sys_spec.T)
        certified_value = M2 / math.sqrt(N)
        if math.isfinite(certified_value):
            M1 = train.m1
            R_loss = loss_contraction(loss, M1, M2, N, certified_value)
            B = (M1 + M2) ** 2 if loss == "squared" else M1 + M2
            excess = excess_risk_bound(R_loss, B, N, delta)
            certified = {
                "certified": True,
                "complexity_bound": float(certified_value),
                "theorem1_report": report.to_json_dict(),
                "model_sup_bound": float(M2),
                "label_bound": float(M1),
                "loss_complexity_bound": float(R_loss),
                "loss_range": float(B),
                "excess_risk_bound": float(excess),
            }
        else:
            certified = {
                "certified": False,
                "note": "convergence precondition fails; certificate unavailable",
                "theorem1_report": report.to_json_dict(),
            }

    rad = empirical_rademacher(
        train, sys_spec, K, int(cfg["n_controls"]), int(cfg["n_eps"]), seed,
        pieces=int(cfg["pieces"]),
    )

    checks = {}
    if certified.get("certified"):
        ok = rad.estimate + 3.0 * rad.stderr <= certified["complexity_bound"]
        checks["empirical_le_certified"] = bool(ok)
        if not ok:
            raise RuntimeError(
                "certificate violated: empirical estimate "
                f"{rad.estimate:.6g} + 3 stderr exceeds the bound "
                f"{certified['complexity_bound']:.6g}"
            )
        if test_risk is not None:
            gap = test_risk - train_risk
            checks["risk_gap"] = float(gap)
            checks["gap_le_excess"] = bool(gap <= certified["excess_risk_bound"])

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "system": {
            "label": system_label,
            "n": sys_spec.n,
            "m": sys_spec.m,
            "r": sys_spec.r,
            "M": sys_spec.M,
            "T": sys_spec.T,
        },
        "seed": seed,
        "erm": {"solver": model.solver, "n_iter": model.n_iter,
                "converged": model.converged, "kkt_residual": float(model.kkt_residual)},
        "risks": {
            "train": float(train_risk),
            "test": None if test_risk is None else float(test_risk),
        },
        "empirical_rademacher": rad.to_json_dict(),
        "certified": certified,
        "checks": checks,
        "caveats": [
            "ERM searches the coefficient box, a relaxation of the exact "
            "control-path class; the certificate covers the relaxed class",
            "the empirical estimate is a sampled sup, a lower estimate",
            "the risk-gap check is probabilistic at the configured delta "
            "and is reported, not asserted",
        ],
    }
    return report


def report_to_json(report):
    """Canonical JSON for reports: sorted keys, newline-terminated, byte
    reproducible for a fixed config and seed; non-finite floats raise."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
