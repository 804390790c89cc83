"""Builtin example systems and system-definition file handling.

The three builtins exercise the three closed-form bound families at
parameters inside their convergence preconditions:

  bilinear2d  noncommuting two-channel bilinear system (shift matrices)
  analytic1d  scalar polynomial field, certified via the polydisc bound
  hopfield2   2-state saturating net, n^2 = 4 channels of sigma(x_j) e_i
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import (
    AnalyticFamily,
    BilinearFamily,
    HopfieldFamily,
    max_spectral_norm,
    polynomial_polydisc_bound,
)
from .expressions import LOGISTIC_GROWTH
from .lie import SystemSpec, bilinear_system, system_from_exprs, system_from_json_dict
from .series import absorb_drift


@dataclass(frozen=True)
class BuiltinSystem:
    name: str
    spec: SystemSpec
    family: object
    extra: dict


def _bilinear2d():
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    spec = bilinear_system([A1, A2], c=(1.0, 0.0), r=1.0, M=1.0, T=0.3)
    a = max_spectral_norm([A1, A2])
    return BuiltinSystem(
        name="bilinear2d",
        spec=spec,
        family=BilinearFamily(r=spec.r, a=a),
        extra={"matrices": [A1.tolist(), A2.tolist()], "a": a},
    )


def _analytic1d():
    spec = system_from_exprs(
        n=1, m=1, g_texts=[["1 + 0.25*x1^2"]], c=(1.0,), r=1.0, M=1.0, T=0.1
    )
    a_r = polynomial_polydisc_bound(spec.g, spec.r)
    return BuiltinSystem(
        name="analytic1d",
        spec=spec,
        family=AnalyticFamily(r=spec.r, n=spec.n, a_r=a_r),
        extra={"a_r": a_r},
    )


def _hopfield2():
    n = 2
    # channel (i, j) drives state i with sigma(x_j); channel order is
    # (1,1), (1,2), (2,1), (2,2)
    g_texts = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            field = ["0"] * n
            field[i - 1] = f"sigma(x{j})"
            g_texts.append(field)
    spec = system_from_exprs(
        n=n, m=n * n, g_texts=g_texts, c=(1.0, 0.0), r=1.0, M=1.0, T=0.02
    )
    a, b = LOGISTIC_GROWTH
    return BuiltinSystem(
        name="hopfield2",
        spec=spec,
        family=HopfieldFamily(r=spec.r, n=n, a=a, b=b),
        extra={"a": a, "b": b},
    )


_BUILTIN_FACTORIES = {
    "bilinear2d": _bilinear2d,
    "analytic1d": _analytic1d,
    "hopfield2": _hopfield2,
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_FACTORIES))


def builtin_system(name):
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()


def load_system_file(path):
    """Read a system-definition JSON file.

    Schema: {"n", "m", "g": [[expr, ...], ...], "c", "r", "M", "T"} plus
    optional "drift": [expr, ...] and "M0". A drift is absorbed into a new
    first channel; wrap control paths with ControlPath.prepend_channel(M0)
    before simulating. Returns (SystemSpec, M0 or None).
    """
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    spec = system_from_json_dict(d)
    if "drift" in d:
        M0 = float(d.get("M0", 1.0))
        from .expressions import parse_expr

        drift = tuple(parse_expr(src, spec.n) for src in d["drift"])
        return absorb_drift(spec, drift, M0), M0
    return spec, None


def wrap_control_for_drift(u, M0):
    """Prepend the constant drift channel u_0 = M0 when the system came
    from a definition file with a drift."""
    if M0 is None:
        return u
    return u.prepend_channel(M0)
