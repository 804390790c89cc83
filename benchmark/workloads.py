"""The four benchmark workloads.

Each workload has ``setup(cf, seed, work_dir)``, which builds every input
from the seed, and ``ops(cf, state)``, which returns the list of ops of one
pass. An op is one closed-loop call into the library: ``run(ctx)`` is the
timed part, ``check(result)`` runs outside the timing and returns None or
a description of what is wrong. ``ctx`` is a dict that lives for one pass,
so a pass builds its LieTables anew and no cache survives from an earlier
pass or run.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    sizes: dict = field(default_factory=dict)


def words_count(m, K):
    """Number of words of length <= K over m channels."""
    return sum(m**k for k in range(K + 1))


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _subseed(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# experiment: the headline command, where ERM dominates


EXPERIMENT_CONFIGS = [
    {"system": "bilinear2d", "order": 4},
    {"system": "analytic1d", "order": 4},
    {"system": "hopfield2", "order": 2},
    {"system": "bilinear2d", "order": 2, "loss": "absolute",
     "n_train": 50, "n_test": 50},
]


def experiment_setup(cf, seed, work_dir):
    rng = _rng(seed, 1)
    configs = [dict(c, seed=_subseed(rng)) for c in EXPERIMENT_CONFIGS]
    channels = {c["system"]: cf.builtin_system(c["system"]).spec.m
                for c in configs}
    return {"configs": configs, "channels": channels}


def experiment_ops(cf, state):
    """One op per config. erm_fit is wrapped in learning's namespace to
    keep the FittedModel; a fit counts as unconverged when it reports so
    or when it used the whole iteration cap (the absolute-loss solver
    reports convergence by construction)."""
    fits = []
    original = cf.learning.erm_fit
    cap = inspect.signature(original).parameters["max_iter"].default

    def capture_fit(*args, **kwargs):
        model = original(*args, **kwargs)
        fits.append(model)
        return model

    cf.learning.erm_fit = capture_fit
    first_bytes = {}

    def make(index, cfg):
        def run(ctx):
            fits.clear()
            report = cf.generalization_experiment(cfg)
            return cf.report_to_json(report), list(fits)

        def check(result):
            text, fitted = result
            report = json.loads(text)
            full = report["config"]
            op.sizes.update(points=full["n_train"] + full["n_test"],
                            controls=full["n_controls"])
            if len(fitted) != 1:
                return f"expected one ERM fit, saw {len(fitted)}"
            fit = fitted[0]
            op.sizes["erm_iters"] = fit.n_iter
            op.sizes["erm_unconverged"] = not fit.converged or fit.n_iter >= cap
            if report["checks"].get("empirical_le_certified") is not True:
                return "checks.empirical_le_certified is not true"
            if full["loss"] == "squared" and full["noise"] == 0.0:
                if not report["risks"]["train"] <= 1e-6:
                    return f"noise-free train risk {report['risks']['train']} > 1e-6"
            if first_bytes.setdefault(index, text) != text:
                return "report bytes differ from the first pass"
            return None

        m = state["channels"][cfg["system"]]
        loss = cfg.get("loss", "squared")
        op = Op(f"experiment:{cfg['system']}:K{cfg['order']}:{loss}", run, check,
                {"system": cfg["system"], "order": cfg["order"],
                 "words": words_count(m, cfg["order"])})
        return op

    return [make(i, cfg) for i, cfg in enumerate(state["configs"])]


# ---------------------------------------------------------------------------
# series: order sweeps against RK4, where Lie-table growth dominates

SERIES_KMAX = {"bilinear2d": 10, "analytic1d": 9, "hopfield2": 6}
SERIES_OPS_PER_SYSTEM = 8
SERIES_ODE_STEP = 1e-3


def series_setup(cf, seed, work_dir):
    cases = []
    for s, name in enumerate(sorted(SERIES_KMAX)):
        built = cf.builtin_system(name)
        spec = built.spec
        rng = _rng(seed, 2, s)
        for _ in range(SERIES_OPS_PER_SYSTEM):
            u = cf.random_control_path(rng, spec.m, spec.M, spec.T)
            x0 = tuple(float(v) for v in cf.sample_ball(rng, spec.n, spec.r, 1)[0])
            cases.append((built, u, x0))
    return {"cases": cases, "err_ratio_max": 0.0}


def series_ops(cf, state):
    def make(built, u, x0):
        spec, family, name = built.spec, built.family, built.name
        K_max = SERIES_KMAX[name]

        def run(ctx):
            table = ctx.get(name)
            if table is None:
                table = ctx[name] = cf.LieTable(spec)
            sig = cf.signature_up_to(u, K_max)
            evals = [
                cf.chen_fliess_eval(spec, x0, u, K, family=family,
                                    lie_table=table, sig_table=sig)
                for K in range(1, K_max + 1)
            ]
            return evals, cf.ode_reference(spec, x0, u, SERIES_ODE_STEP)

        def check(result):
            evals, ode = result
            op.sizes["rk4_steps"] = len(ode.times) - 1
            worst = 0.0
            for ev in evals:
                budget = ev.tail_bound + 10.0 * ode.error_estimate
                if not math.isfinite(budget):
                    return f"K={ev.K}: tail budget is not finite"
                worst = max(worst, abs(ev.value - ode.y) / budget)
            state["err_ratio_max"] = max(state["err_ratio_max"], worst)
            if worst > 1.0:
                return f"series leaves the tail budget: ratio {worst:.3g}"
            return None

        op = Op(f"series:{name}:K1-{K_max}", run, check,
                {"system": name, "order": K_max, "words": words_count(spec.m, K_max),
                 "points": 1})
        return op

    return [make(*case) for case in state["cases"]]


# ---------------------------------------------------------------------------
# complexity: Monte Carlo Rademacher estimates, where signatures dominate

COMPLEXITY_CONFIGS = [
    {"system": "bilinear2d", "order": 8, "N": 200, "n_controls": 512, "n_eps": 512},
    {"system": "hopfield2", "order": 4, "N": 200, "n_controls": 256, "n_eps": 512},
    {"system": "analytic1d", "order": 8, "N": 200, "n_controls": 512, "n_eps": 512},
]


def _closed_form_bound(cf, built, N):
    spec, fam = built.spec, built.family
    if built.name == "bilinear2d":
        return cf.bilinear_bound(fam.r, spec.m, spec.M, spec.T, fam.a, N)
    if built.name == "analytic1d":
        return cf.analytic_bound(fam.r, fam.n, spec.m, spec.M, spec.T, fam.a_r, N)
    return cf.hopfield_bound(fam.r, fam.n, spec.M, spec.T, fam.a, fam.b, N)


def complexity_setup(cf, seed, work_dir):
    rng = _rng(seed, 3)
    cases = []
    for cfg in COMPLEXITY_CONFIGS:
        built = cf.builtin_system(cfg["system"])
        data, planted = cf.make_dataset(built.spec, built.family, cfg["N"],
                                        cfg["order"], seed=_subseed(rng))
        cases.append({
            "cfg": cfg, "built": built, "data": data, "planted": planted,
            "bound": _closed_form_bound(cf, built, cfg["N"]),
            "seed": _subseed(rng),
        })
    return {"cases": cases}


def _planted_path_problem(cf, u, K):
    """One-channel identity and sign-flip parity on one planted path."""
    table = cf.signature_up_to(u, K)
    for i in range(1, u.m + 1):
        s1 = table[(i,)]
        for k in range(1, K + 1):
            want = s1**k / math.factorial(k)
            if abs(table[(i,) * k] - want) > 1e-12 * abs(want) + 1e-14:
                return f"one-channel identity fails for channel {i}, order {k}"
    negated = cf.ControlPath(u.m, u.breakpoints,
                             tuple(tuple(-v for v in row) for row in u.values), u.M)
    flipped = cf.signature_up_to(negated, K)
    for w in table.words():
        want = table[w] if len(w) % 2 == 0 else -table[w]
        if abs(flipped[w] - want) > 1e-12 * abs(want):
            return f"sign-flip parity fails at word {w}"
    return None


def complexity_ops(cf, state):
    first = {}

    def make(index, case):
        cfg, built, data = case["cfg"], case["built"], case["data"]

        def run(ctx):
            return cf.empirical_rademacher(data, built.spec, cfg["order"],
                                           cfg["n_controls"], cfg["n_eps"],
                                           case["seed"])

        def check(est):
            if not est.estimate + 3.0 * est.stderr <= case["bound"]:
                return (f"estimate {est.estimate:.6g} + 3 stderr exceeds the "
                        f"closed-form bound {case['bound']:.6g}")
            if first.setdefault(index, (est.estimate, est.stderr)) != (
                    est.estimate, est.stderr):
                return "estimate differs from the first pass"
            return _planted_path_problem(cf, case["planted"], cfg["order"])

        return Op(f"complexity:{cfg['system']}:K{cfg['order']}", run, check,
                  {"system": cfg["system"], "order": cfg["order"],
                   "words": words_count(built.spec.m, cfg["order"]),
                   "points": cfg["N"], "controls": cfg["n_controls"]})

    return [make(i, case) for i, case in enumerate(state["cases"])]


# ---------------------------------------------------------------------------
# cli: one `python -m chenfliess.cli` process per op, where start-up dominates

def run_cli(argv):
    """One CLI process; the benchmark's only entry point into the cli layer.
    The child imports the same chenfliess through PYTHONPATH."""
    return subprocess.run(
        [sys.executable, "-m", "chenfliess.cli", *argv],
        capture_output=True, timeout=120, check=False,
    )


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def cli_setup(cf, seed, work_dir):
    rng = _rng(seed, 4)
    bil = cf.builtin_system("bilinear2d").spec
    ana = cf.builtin_system("analytic1d").spec
    path2 = cf.random_control_path(rng, bil.m, bil.M, bil.T)
    path1 = cf.random_control_path(rng, ana.m, ana.M, ana.T)
    x2 = cf.sample_ball(rng, bil.n, bil.r, 1)[0]
    x1 = cf.sample_ball(rng, ana.n, ana.r, 1)[0]
    c = rng.uniform(-2.0, 2.0, size=3)
    expr = f"{c[0]:.4f}*x1^2 + {c[1]:.4f}*x1*x2 - sigma({c[2]:.4f}*x2)"
    word = ",".join(str(int(i)) for i in rng.integers(1, 3, size=4))
    config = {"system": "bilinear2d", "seed": _subseed(rng)}
    files = {
        name: _write_json(os.path.join(work_dir, f"{name}.json"), payload)
        for name, payload in (("path2", path2.to_json_dict()),
                              ("path1", path1.to_json_dict()),
                              ("config", config))
    }
    return {
        "files": files,
        "expr": expr,
        "word": word,
        "x2": ",".join(repr(float(v)) for v in x2),
        "x1": ",".join(repr(float(v)) for v in x1),
        "N": int(rng.integers(50, 5000)),
        "experiment_bytes": cf.report_to_json(cf.generalization_experiment(config)),
    }


def cli_ops(cf, state):
    f = state["files"]

    def eval_series_problem(out):
        budget = out["tail_bound"] + 10.0 * out["oracle_error"]
        if not out["discrepancy"] <= budget:
            return f"discrepancy {out['discrepancy']} exceeds the tail budget {budget}"
        return None

    def experiment_problem(out, stdout):
        if stdout.decode() != state["experiment_bytes"]:
            return "experiment output differs from report_to_json in-process"
        return None

    commands = [
        ("parse-check", ["parse-check", f"--expr={state['expr']}", "--n", "2"],
         lambda out, raw: None if out.get("ok") is True else "ok is not true"),
        ("signature", ["signature", "--path", f["path2"], "--order", "6"],
         lambda out, raw: None if len(out["entries"]) == words_count(2, 6)
         else "wrong number of signature entries"),
        ("bound-bilinear", ["bound", "bilinear", "--r", "1", "--m", "2", "--M", "1",
                            "--T", "0.3", "--a", "1", "--N", str(state["N"])],
         lambda out, raw: None
         if out["total"] == cf.bilinear_bound(1.0, 2, 1.0, 0.3, 1.0, state["N"])
         else "total differs from bilinear_bound"),
        ("lie-lambda-k", ["lie", "--system", "bilinear2d", "--word", state["word"],
                          f"--point={state['x2']}", "--lambda-k", "4", "--grid", "128"],
         lambda out, raw: None if out["lambda_k"]["n_words"] == 16
         else "lambda_k did not visit 16 words"),
        ("eval-series", ["eval-series", "--system", "bilinear2d", "--path", f["path2"],
                         f"--x0={state['x2']}", "--order", "6", "--ode-step", "1e-3"],
         lambda out, raw: eval_series_problem(out)),
        ("simulate", ["simulate", "--system", "analytic1d", "--path", f["path1"],
                      f"--x0={state['x1']}", "--step", "1e-3"],
         lambda out, raw: None if math.isfinite(out["y"]) else "y is not finite"),
        ("experiment", ["experiment", "--config", f["config"]], experiment_problem),
    ]

    def make(name, argv, problem):
        def run(ctx):
            return run_cli(argv)

        def check(proc):
            if proc.returncode != 0:
                return f"exit status {proc.returncode}: {proc.stderr.decode()[-300:]}"
            try:
                out = json.loads(proc.stdout)
            except ValueError as exc:
                return f"output is not JSON: {exc}"
            return problem(out, proc.stdout)

        return Op(f"cli:{name}", run, check, {"command": name})

    return [make(*c) for c in commands]


WORKLOADS = {
    "experiment": (experiment_setup, experiment_ops),
    "series": (series_setup, series_ops),
    "complexity": (complexity_setup, complexity_ops),
    "cli": (cli_setup, cli_ops),
}
