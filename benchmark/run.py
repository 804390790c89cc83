"""Benchmark of the chenfliess library, driven through its public functions.

Run from the root of a checkout (the library is imported from ./src):

    python3 benchmark/run.py --workload series --seed 1 --seconds 16 --trace 0

Set-up (import plus building every input from the seed) is repeated
SETUP_REPS times and its median reported. The measured phase then runs
whole passes over the workload's ops until the ops have taken --seconds.
Each op's output is checked outside its timing; an op that raises or
fails its check counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with spans around the calls into each layer, and
prints the per-layer metrics: self times and counts per pass, plus the
tracing overhead. The last line of stdout is the JSON result; a detailed
report (machine facts, every op with its sizes, spans) goes to
.bench_run/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracer as tracing
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_run")
SETUP_REPS = 3
STARTUP_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import chenfliess; "
                "print(time.perf_counter() - t)")

# (name, unit) of the per-layer metrics, in BENCHMARK.json order
LAYER_METRICS = [
    ("expressions.simplify_s", "s"), ("expressions.simplify_calls", "count"),
    ("expressions.differentiate_s", "s"), ("expressions.eval_s", "s"),
    ("expressions.eval_calls", "count"), ("expressions.table_nodes", "count"),
    ("lie.lie_derivative_s", "s"), ("lie.entries_built", "count"),
    ("lie.tables_built", "count"),
    ("signatures.signature_up_to_s", "s"), ("signatures.paths", "count"),
    ("signatures.entries", "count"),
    ("series.chen_fliess_eval_s", "s"), ("series.words_paired", "count"),
    ("series.ode_reference_s", "s"), ("series.rk4_steps", "count"),
    ("series.err_ratio_max", "ratio"),
    ("learning.feature_matrix_s", "s"), ("learning.feature_matrix_calls", "count"),
    ("learning.feature_cells", "count"), ("learning.make_dataset_s", "s"),
    ("learning.erm_fit_s", "s"), ("learning.erm_iters", "count"),
    ("learning.erm_unconverged_frac", "ratio"),
    ("learning.empirical_rademacher_s", "s"), ("learning.controls", "count"),
    ("learning.experiment_s", "s"),
    ("bounds.theorem1_bound_s", "s"), ("bounds.calls", "count"),
    ("systems.builtin_system_s", "s"),
    ("cli.startup_s", "s"), ("cli.invocation_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "series", "complexity", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_library():
    """Import chenfliess from ./src, here and in every child process."""
    if not os.path.isfile(os.path.join(SRC, "chenfliess", "__init__.py")):
        sys.exit(f"error: no chenfliess package under {SRC}; "
                 "run from the root of a chenfliess checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import chenfliess

    if not os.path.abspath(chenfliess.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported chenfliess from {chenfliess.__file__}, not {SRC}")
    return chenfliess


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def machine_facts(cf):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chenfliess": cf.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def timed_setup(cf, setup, seed, work_dir):
    """Import time of a fresh interpreter plus building the inputs here."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                           capture_output=True, check=True, timeout=120)
    t0 = time.perf_counter()
    state = setup(cf, seed, work_dir)
    return float(probe.stdout) + time.perf_counter() - t0, state


class Runner:
    """Runs whole passes over the ops and keeps one record per op run."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.records = []
        self.passes = 0
        self.table_nodes = 0

    def run_pass(self, cf):
        ctx = {}
        tracer = self.tracer
        for i, op in enumerate(self.ops):
            op_id = f"{self.passes}:{i}"
            if tracer is not None:
                tracer.op = op_id
                tracer.active = True
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = op.run(ctx)
                error = None
            except Exception:
                result = None
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            self.records.append({"op": op_id, "name": op.name, "seconds": seconds,
                                 "cpu_s": cpu, "ok": error is None, "error": error,
                                 **op.sizes})
        if tracer is not None:
            self.table_nodes += sum(tracing.table_nodes(cf, t)
                                    for t in tracer.take_tables())
        self.passes += 1

    def run_phase(self, cf, seconds):
        while self.passes == 0 or self.op_seconds() < seconds:
            self.run_pass(cf)

    def op_seconds(self):
        return sum(r["seconds"] for r in self.records)

    def ok_ops(self):
        return sum(r["ok"] for r in self.records)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setups, workload):
    cpu = sum(r["cpu_s"] for r in runner.records)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = max(own, children) if workload == "cli" else own
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(runner.ok_ops() / runner.op_seconds(), "ops/s"),
        "slowest_op_s": metric(max(r["seconds"] for r in runner.records), "s"),
        "cpu_per_pass_s": metric(cpu / runner.passes, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def diagnostics(records, state):
    fits = [r["erm_unconverged"] for r in records if "erm_unconverged" in r]
    return {
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        "erm_unconverged_frac": sum(fits) / len(fits) if fits else 0.0,
        "series_err_ratio_max": state.get("err_ratio_max", 0.0),
    }


def startup_probe():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import chenfliess.cli"],
                   check=True, timeout=120)
    return time.perf_counter() - t0


def per_layer(tracer, traced, untraced, diag, startup_s):
    passes = traced.passes

    def per_pass(n):
        # every pass repeats the same inputs, so counts divide exactly
        return n // passes if n % passes == 0 else n / passes

    self_s = {name: t / passes for name, t in tracer.self_time.items()}
    calls = {name: per_pass(n) for name, n in tracer.calls.items()}
    counts = {name: per_pass(n) for name, n in tracer.counts.items()}
    bounds = [n for n in calls if n.startswith("bounds.")]
    values = {
        "expressions.simplify_s": self_s.get("expressions.simplify", 0.0),
        "expressions.simplify_calls": calls.get("expressions.simplify", 0),
        "expressions.differentiate_s": self_s.get("expressions.differentiate", 0.0),
        "expressions.eval_s": self_s.get("expressions.eval", 0.0),
        "expressions.eval_calls": calls.get("expressions.eval", 0),
        "expressions.table_nodes": per_pass(traced.table_nodes),
        "lie.lie_derivative_s": self_s.get("lie.lie_derivative", 0.0),
        "lie.entries_built": calls.get("lie.lie_derivative", 0),
        "lie.tables_built": per_pass(tracer.tables_built),
        "signatures.signature_up_to_s": self_s.get("signatures.signature_up_to", 0.0),
        "signatures.paths": calls.get("signatures.signature_up_to", 0),
        "signatures.entries": counts.get("signatures.entries", 0),
        "series.chen_fliess_eval_s": self_s.get("series.chen_fliess_eval", 0.0),
        "series.words_paired": counts.get("series.words_paired", 0),
        "series.ode_reference_s": self_s.get("series.ode_reference", 0.0),
        "series.rk4_steps": counts.get("series.rk4_steps", 0),
        "series.err_ratio_max": diag["series_err_ratio_max"],
        "learning.feature_matrix_s": self_s.get("learning.feature_matrix", 0.0),
        "learning.feature_matrix_calls": calls.get("learning.feature_matrix", 0),
        "learning.feature_cells": counts.get("learning.feature_cells", 0),
        "learning.make_dataset_s": self_s.get("learning.make_dataset", 0.0),
        "learning.erm_fit_s": self_s.get("learning.erm_fit", 0.0),
        "learning.erm_iters": counts.get("learning.erm_iters", 0),
        "learning.erm_unconverged_frac": diag["erm_unconverged_frac"],
        "learning.empirical_rademacher_s":
            self_s.get("learning.empirical_rademacher", 0.0),
        "learning.controls": counts.get("learning.controls", 0),
        "learning.experiment_s": self_s.get("learning.experiment", 0.0),
        "bounds.theorem1_bound_s": self_s.get("bounds.theorem1_bound", 0.0),
        "bounds.calls": sum(calls[n] for n in bounds),
        "systems.builtin_system_s": self_s.get("systems.builtin_system", 0.0),
        "cli.startup_s": startup_s,
        "cli.invocation_s": self_s.get("cli.invocation", 0.0),
        "trace.overhead_frac":
            (traced.op_seconds() / traced.passes)
            / (untraced.op_seconds() / untraced.passes) - 1.0,
    }
    return {name: metric(values[name], unit) for name, unit in LAYER_METRICS}


def layer_shares(tracer, traced):
    """Share of the traced op time spent in each span name (self time)."""
    total = traced.op_seconds()
    return {name: t / total for name, t in
            sorted(tracer.self_time.items(), key=lambda kv: -kv[1])}


def print_records(records):
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)
    print(f"{'op':40s} {'runs':>4s} {'median_s':>9s} {'max_s':>8s}  sizes")
    for name, rs in by_name.items():
        times = [r["seconds"] for r in rs]
        sizes = {k: v for k, v in rs[-1].items()
                 if k not in ("op", "name", "seconds", "cpu_s", "ok", "error")}
        print(f"{name:40s} {len(rs):4d} {statistics.median(times):9.4f} "
              f"{max(times):8.4f}  {json.dumps(sizes)}")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['op']} {r['name']}: {r['error']}")


def main():
    args = parse_args()
    cf = import_library()
    setup, make_ops = workloads.WORKLOADS[args.workload]
    facts = machine_facts(cf)
    print("machine:", json.dumps(facts, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts}

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        setups = []
        for _ in range(SETUP_REPS):
            seconds, state = timed_setup(cf, setup, args.seed, work_dir)
            setups.append(seconds)
        report["setup_s"] = setups
        ops = make_ops(cf, state)

        if args.trace == 0:
            runner = Runner(ops)
            runner.run_phase(cf, args.seconds)
            records = runner.records
            diag = diagnostics(records, state)
            metrics = end_to_end(runner, setups, args.workload)
        else:
            untraced = Runner(ops)
            untraced.run_phase(cf, args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install(cf)
            try:
                traced = Runner(ops, tracer)
                traced.run_phase(cf, args.seconds / 2.0)
            finally:
                tracer.uninstall()
            records = untraced.records + traced.records
            startup = statistics.median(startup_probe()
                                        for _ in range(STARTUP_PROBES))
            diag = diagnostics(records, state)
            metrics = per_layer(tracer, traced, untraced, diag, startup)
            report["layer_shares"] = layer_shares(tracer, traced)
            report["span_fields"] = ["name", "start", "end", "parent", "op",
                                    "folded_calls", "folded_s"]
            report["spans"] = tracer.spans
            print("self-time share of traced op time:")
            for name, share in report["layer_shares"].items():
                print(f"  {name:36s} {share:7.3f}")

    report.update(records=records, diagnostics=diag, metrics=metrics)
    print_records(records)
    print("diagnostics:", json.dumps(diag, sort_keys=True))
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    print("report:", os.path.relpath(out_path, ROOT))
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
