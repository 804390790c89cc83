"""Command-line interface.

Every subcommand emits JSON (stdout by default, a file with --out);
stochastic subcommands require --seed. The `bound` subcommand prints a
human-readable table when writing its JSON to a file.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from .bounds import PreconditionError, _closed_form_bound, theorem1_bound
from .expressions import parse_expr, to_text
from .families import FAMILY_KINDS, family_from_json_dict, family_to_json_dict
from .learning import (
    Dataset,
    empirical_rademacher,
    erm_fit,
    generalization_experiment,
    report_to_json,
)
from .lie import LieTable, lambda_k, validate_word
from .series import chen_fliess_eval, ode_reference
from .signatures import ControlPath, signature_up_to
from .systems import BUILTIN_NAMES, builtin_system, load_system_file, \
    wrap_control_for_drift


def _emit(payload, out):
    text = report_to_json(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _load_system(arg):
    """Builtin name or a system-definition JSON file path."""
    if arg in BUILTIN_NAMES:
        built = builtin_system(arg)
        return built.spec, built.family, None
    spec, M0 = load_system_file(arg)
    return spec, None, M0


def _load_path(path_file):
    with open(path_file, "r", encoding="utf-8") as fh:
        return ControlPath.from_json_dict(json.load(fh))


def _word_arg(text):
    if text.strip() == "":
        return ()
    return tuple(int(tok) for tok in text.split(","))


def cmd_parse_check(args):
    e = parse_expr(args.expr, args.n)
    _emit({"ok": True, "n": args.n, "expr": args.expr, "simplified": to_text(e)},
          args.out)


def cmd_signature(args):
    u = _load_path(args.path)
    table = signature_up_to(u, args.order)
    _emit(table.to_json_dict(), args.out)


def cmd_lie(args):
    spec, _, _ = _load_system(args.system)
    payload = {"system": spec.to_json_dict()}
    if args.word is not None:
        w = validate_word(_word_arg(args.word), spec.m)
        table = LieTable(spec)
        expr = table.entry(w)
        payload["word"] = list(w)
        payload["expr"] = to_text(expr)
        if args.point is not None:
            point = [float(v) for v in args.point.split(",")]
            if len(point) != spec.n:
                raise ValueError(
                    f"--point has {len(point)} components, system has n = {spec.n}"
                )
            payload["value"] = float(table.evaluate([w], [point])[0, 0])
    if args.lambda_k is not None:
        rep = lambda_k(spec, args.lambda_k, n_points=args.grid)
        payload["lambda_k"] = rep.to_json_dict()
    _emit(payload, args.out)


def cmd_eval_series(args):
    spec, family, M0 = _load_system(args.system)
    u = wrap_control_for_drift(_load_path(args.path), M0)
    x0 = [float(v) for v in args.x0.split(",")]
    if args.family:
        family = family_from_json_dict(json.loads(args.family))
    ev = chen_fliess_eval(spec, x0, u, args.order, family=family,
                          ode_step=args.ode_step)
    if args.contributions_out:
        with open(args.contributions_out, "w", encoding="utf-8") as fh:
            fh.write("order,contribution\n")
            for k, c in enumerate(ev.contributions):
                fh.write(f"{k},{c!r}\n")
    _emit(ev.to_json_dict(), args.out)


def cmd_simulate(args):
    spec, _, M0 = _load_system(args.system)
    u = wrap_control_for_drift(_load_path(args.path), M0)
    x0 = [float(v) for v in args.x0.split(",")]
    res = ode_reference(spec, x0, u, args.step)
    payload = {
        "y": res.y,
        "y_coarse": res.y_coarse,
        "error_estimate": res.error_estimate,
        "final_state": [float(v) for v in res.final_state],
        "step": args.step,
    }
    if args.trajectory_out:
        arr = np.column_stack([res.times, res.states])
        header = "t," + ",".join(f"x{j + 1}" for j in range(spec.n))
        np.savetxt(args.trajectory_out, arr, delimiter=",", header=header,
                   comments="")
        payload["trajectory_csv"] = args.trajectory_out
    _emit(payload, args.out)


def _print_bound_table(report):
    rows = [("kind", report["kind"])]
    rows += [(k, v) for k, v in sorted(report["inputs"].items())]
    rows += [
        ("K", report["K"]),
        ("partial_sum", report["partial_sum"]),
        ("tail", report["tail"]),
        ("total", report["total"]),
        ("precondition_ok", report["precondition_ok"]),
    ]
    width = max(len(str(k)) for k, _ in rows)
    for k, v in rows:
        print(f"{str(k):<{width}}  {v}")


def cmd_bound(args):
    if args.kind == "theorem1":
        family = family_from_json_dict(json.loads(args.family))
        rep = theorem1_bound(family, args.m, args.M, args.T, args.N, K=args.order)
        report = rep.to_json_dict()
        report["family"] = family_to_json_dict(family)
    else:  # a closed form: bilinear, analytic or hopfield
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("command", "kind", "func", "out")}
        cls = FAMILY_KINDS[args.kind]
        family = cls(**{name: inputs[name] for name in cls.__dataclass_fields__})
        m = args.n * args.n if args.kind == "hopfield" else args.m  # n^2 channels
        try:
            total, ok = _closed_form_bound(family, m, args.M, args.T, args.N), True
        except PreconditionError:
            total, ok = "divergent", False
        report = {
            "kind": args.kind, "inputs": inputs, "K": None, "partial_sum": None,
            "tail": None, "total": total, "precondition_ok": ok,
        }
    if args.out:
        _print_bound_table(report)
    _emit(report, args.out)


def cmd_rademacher(args):
    spec, _, _ = _load_system(args.system)
    data = Dataset.from_csv(args.data, r=spec.r, m1=args.m1)
    est = empirical_rademacher(data, spec, args.order, args.n_controls,
                               args.n_eps, args.seed, pieces=args.pieces)
    _emit(est.to_json_dict(), args.out)


def cmd_erm(args):
    spec, _, _ = _load_system(args.system)
    data = Dataset.from_csv(args.data, r=spec.r, m1=args.m1)
    model = erm_fit(data, spec, args.order, loss=args.loss)
    _emit(model.to_json_dict(), args.out)


def cmd_experiment(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if args.seed is not None:
        config["seed"] = args.seed
    report = generalization_experiment(config)
    _emit(report, args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chenfliess",
        description="series, signature and complexity-certificate toolkit "
                    "for control-affine models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-check", help="parse an expression in the DSL")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=int, required=True, help="state dimension")
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse_check)

    p = sub.add_parser("signature", help="signature table of a control path")
    p.add_argument("--path", required=True, help="ControlPath JSON file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("lie", help="iterated Lie derivatives and the sampled "
                                   "per-order feature magnitude")
    p.add_argument("--system", required=True,
                   help=f"builtin ({', '.join(BUILTIN_NAMES)}) or JSON file")
    p.add_argument("--word", help="comma-separated channels, empty for the "
                                  "empty word")
    p.add_argument("--point", help="comma-separated state to evaluate at")
    p.add_argument("--lambda-k", type=int, dest="lambda_k")
    p.add_argument("--grid", type=int, default=256, help="ball grid density")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("eval-series", help="truncated series value at x0")
    p.add_argument("--system", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--family", help="bound family JSON for the tail")
    p.add_argument("--ode-step", type=float, dest="ode_step",
                   help="also run the RK4 reference at this step")
    p.add_argument("--contributions-out", dest="contributions_out",
                   help="write per-order contributions as CSV (for "
                        "convergence plots)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_series)

    p = sub.add_parser("simulate", help="RK4 reference trajectory")
    p.add_argument("--system", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--trajectory-out", dest="trajectory_out",
                   help="write the trajectory as CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="complexity certificates")
    bound_sub = p.add_subparsers(dest="kind", required=True)
    b = bound_sub.add_parser("bilinear")
    for name in ("r", "M", "T", "a"):
        b.add_argument(f"--{name}", type=float, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)
    b = bound_sub.add_parser("analytic")
    for name in ("r", "M", "T", "a_r"):
        b.add_argument(f"--{name}", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)
    b = bound_sub.add_parser("hopfield")
    for name in ("r", "M", "T", "a", "b"):
        b.add_argument(f"--{name}", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)
    b = bound_sub.add_parser("theorem1")
    b.add_argument("--family", required=True, help="family JSON")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--M", type=float, required=True)
    b.add_argument("--T", type=float, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--order", type=int, required=True, help="partial-sum order")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)

    p = sub.add_parser("rademacher", help="Monte Carlo empirical complexity")
    p.add_argument("--system", required=True)
    p.add_argument("--data", required=True, help="CSV with header x1..xn,y")
    p.add_argument("--m1", type=float, required=True, help="label bound")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--n-controls", type=int, default=128, dest="n_controls")
    p.add_argument("--n-eps", type=int, default=256, dest="n_eps")
    p.add_argument("--pieces", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rademacher)

    p = sub.add_parser("erm", help="box-constrained ERM fit")
    p.add_argument("--system", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--loss", choices=("squared", "absolute"), default="squared")
    p.add_argument("--out")
    p.set_defaults(func=cmd_erm)

    p = sub.add_parser("experiment", help="end-to-end generalization run")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
