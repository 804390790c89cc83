"""Span recorder for the traced benchmark run.

Spans come only from this directory: each wrap replaces one name in the
namespace of the module that *calls* it (``chenfliess.lie.simplify``,
``chenfliess.learning.feature_matrix``, ...), so recursion inside the
called module is not wrapped and the library itself is not modified.
A span records name, start, end, parent span and op id; self time is
the span's duration minus the time of its child spans.

``expressions.eval`` is called hundreds of thousands of times per pass.
Its spans are folded into their parent span, as a call count and a time,
instead of being stored one by one; that keeps the span list small
enough to hold in memory and write out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
from collections import Counter
from time import perf_counter

from workloads import words_count


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (namespace whose global name is replaced, attribute, span name, counter)
# A counter maps (args, kwargs, result) to {metric: amount}.
WRAPS = [
    ("chenfliess.lie", "simplify", "expressions.simplify", None),
    ("chenfliess.series", "simplify", "expressions.simplify", None),
    ("chenfliess.lie", "differentiate", "expressions.differentiate", None),
    ("chenfliess.lie", "eval_expr", "expressions.eval", None),
    ("chenfliess.series", "eval_expr", "expressions.eval", None),
    ("chenfliess.learning", "eval_expr", "expressions.eval", None),
    ("chenfliess.lie", "lie_derivative", "lie.lie_derivative", None),
    *[
        (ns, "signature_up_to", "signatures.signature_up_to",
         lambda a, k, r: {"signatures.entries": len(r.entries)})
        for ns in ("chenfliess", "chenfliess.series", "chenfliess.learning")
    ],
    ("chenfliess", "chen_fliess_eval", "series.chen_fliess_eval",
     lambda a, k, r: {"series.words_paired": words_count(
         _arg(a, k, 0, "sys").m, _arg(a, k, 3, "K"))}),
    *[
        (ns, "ode_reference", "series.ode_reference",
         lambda a, k, r: {"series.rk4_steps": len(r.times) - 1})
        for ns in ("chenfliess", "chenfliess.series")
    ],
    ("chenfliess.learning", "feature_matrix", "learning.feature_matrix",
     lambda a, k, r: {"learning.feature_cells": r[1].size}),
    ("chenfliess.learning", "make_dataset", "learning.make_dataset", None),
    ("chenfliess.learning", "erm_fit", "learning.erm_fit",
     lambda a, k, r: {"learning.erm_iters": r.n_iter}),
    *[
        (ns, "empirical_rademacher", "learning.empirical_rademacher",
         lambda a, k, r: {"learning.controls": r.n_controls})
        for ns in ("chenfliess", "chenfliess.learning")
    ],
    ("chenfliess", "generalization_experiment", "learning.experiment", None),
    *[
        ("chenfliess.learning", name, f"bounds.{name}", None)
        for name in ("theorem1_bound", "bilinear_bound", "analytic_bound",
                     "hopfield_bound", "loss_contraction", "excess_risk_bound")
    ],
    *[
        (ns, "builtin_system", "systems.builtin_system", None)
        for ns in ("chenfliess", "chenfliess.learning")
    ],
    ("workloads", "run_cli", "cli.invocation", None),
]

# span names whose spans are folded into their parent
FOLDED = {"expressions.eval"}

# namespaces whose LieTable name is replaced by a counting subclass
LIE_TABLE_NAMESPACES = ("chenfliess", "chenfliess.learning", "chenfliess.series")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        # [name, start, end, parent index, op id, folded calls, folded time]
        self.spans = []
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.tables = []  # LieTables built since the last take_tables()
        self.tables_built = 0
        self._stack = []  # [span index or None, start, child time]
        self._undo = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self
        folded = name in FOLDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if folded:
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    tracer.self_time[name] += dt
                    tracer.calls[name] += 1
                    if stack:
                        frame = stack[-1]
                        frame[2] += dt
                        span = tracer.spans[frame[0]]
                        span[5] += 1
                        span[6] += dt
            parent = stack[-1][0] if stack else None
            index = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.op, 0, 0.0])
            frame = [index, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = tracer.spans[index]
                span[1], span[2] = frame[1], end
                dt = end - frame[1]
                tracer.self_time[name] += dt - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += dt
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self, cf):
        """Wrap every name in WRAPS and count LieTable constructions."""
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

        tracer = self

        class CountingLieTable(cf.LieTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer.active:
                    tracer.tables.append(self)
                    tracer.tables_built += 1

        for module_name in LIE_TABLE_NAMESPACES:
            module = importlib.import_module(module_name)
            self._undo.append((module, "LieTable", module.LieTable))
            module.LieTable = CountingLieTable

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def take_tables(self):
        tables, self.tables = self.tables, []
        return tables


def table_nodes(cf, table):
    """Total tree nodes over the entries of a LieTable; a shared subtree
    counts once per occurrence, so this is the size of the trees."""
    sizes = {}

    def size(e):
        got = sizes.get(id(e))
        if got is None:
            got = 1
            for f in dataclasses.fields(e):
                value = getattr(e, f.name)
                children = value if isinstance(value, tuple) else (value,)
                got += sum(size(c) for c in children if isinstance(c, cf.Expr))
            sizes[id(e)] = got
        return got

    total = 0
    for k in itertools.count():
        present = [w for w in itertools.product(range(1, table.sys.m + 1), repeat=k)
                   if w in table]
        if not present:
            return total
        total += sum(size(table.entry(w)) for w in present)
