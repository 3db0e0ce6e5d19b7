"""Run one mixedhurwitz CLI invocation with per-layer tracing.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/traced_cli.py <CLI args>

Wraps the public functions of each mixedhurwitz module from outside the
package, runs ``mixedhurwitz.cli.main`` on the arguments and exits with its
exit code.  Spans and counters stay in memory and are written to the file
named by PERFBENCH_TRACE_OUT when the invocation ends.  A span is
``[id, parent id, name, start, end, leaf seconds]``; all spans in one file
belong to the same invocation.

Three kinds of hook, from coarse to hot:

- ``span``: counts calls and records a span.
- ``leaf``: counts calls and adds its time to the name and to the enclosing
  span, without a span record.  Only for functions that call no other hook
  that times.
- ``count``: counts calls only.
"""

import importlib
import inspect
import json
import os
import sys
from time import perf_counter

PACKAGE = "mixedhurwitz"

# (module, attribute, kind): the metric name is "<module>.<attribute>"
HOOKS = [
    ("cli", "main", "span"),
    ("characters", "hurwitz_by_characters", "span"),
    ("characters", "connected_hurwitz_qseries", "span"),
    ("characters", "sector_value", "span"),
    ("characters", "potential_log", "span"),
    ("characters", "central_character_f", "leaf"),
    ("partitions", "enumerate_partitions", "count"),
    ("partitions", "check_partition", "count"),
    ("series", "QSeries.__mul__", "leaf"),
    ("series", "QSeries.__truediv__", "span"),
    ("series", "QSeries.inverse", "span"),
    ("series", "QSeries.log", "span"),
    ("series", "QSeries.exp", "span"),
    ("quasimodular", "fit_quasimodular", "span"),
    ("spectral", "ceo_omega", "span"),
    ("spectral", "extract_C", "span"),
    ("spectral", "cut_and_join_C", "span"),
    ("spectral", "oracle_C", "span"),
    ("ratfun", "TensorSum.compact", "span"),
    ("ratfun", "TensorSum.combine", "span"),
    ("ratfun", "Poly1.divmod", "count"),
    ("symgroup", "count_triply_mixed", "span"),
    ("symgroup", "monotone_double_count", "span"),
    ("symgroup", "count_monotone_of_fixed_target", "span"),
    ("symgroup", "oracle_N", "span"),
    ("symgroup", "compose", "count"),
    ("double_recursion", "double_hurwitz", "span"),
    ("double_recursion", "N_value", "count"),
    ("tropical", "enumerate_elliptic_covers", "span"),
    ("tropical", "tropical_elliptic_sum", "span"),
    ("tropical", "gw_vertex_multiplicity", "count"),
    ("quantum_curve", "residual_max_abs", "span"),
]


def metric_name(module, attr):
    """``<module>.<attribute>``; dunder methods lose their underscores."""
    return f"{module}.{attr.replace('__', '')}"


class Recorder:
    """Spans, call counts, leaf times and work counters of one invocation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.leaf_s = {}
        self.degrees = set()

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, kind, fn, note=None):
        calls = name + ".calls"
        if kind == "count":
            def counted(*args, **kwargs):
                self.counts[calls] = self.counts.get(calls, 0) + 1
                return fn(*args, **kwargs)
            return counted
        if kind == "leaf":
            def leaf(*args, **kwargs):
                self.counts[calls] = self.counts.get(calls, 0) + 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self.leaf_s[name] = self.leaf_s.get(name, 0.0) + dt
                    if self.stack:
                        self.stack[-1][5] += dt
            return leaf
        signature = inspect.signature(fn) if note else None

        def span(*args, **kwargs):
            self.counts[calls] = self.counts.get(calls, 0) + 1
            rec = [len(self.spans), self.stack[-1][0] if self.stack else None,
                   name, 0.0, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self.stack.pop()
            if note:
                note(self, signature.bind(*args, **kwargs).arguments, result)
            return result
        return span


def _note_sector_value(rec, args, result):
    d = args["d"]
    if d >= 1:
        rec.add("characters.lambda_terms", _partition_count(d))
        rec.degrees.add(d)


def _note_potential_log(rec, args, result):
    rec.add("characters.potential_log.sectors", len(args["disconnected"]))


def _note_fit(rec, args, result):
    rec.add("quasimodular.fit.basis_size",
            len(_module("quasimodular").monomial_basis(args["weight_bound"])))


def _note_covers(rec, args, result):
    rec.add("tropical.covers", len(result))


NOTES = {
    "characters.sector_value": _note_sector_value,
    "characters.potential_log": _note_potential_log,
    "quasimodular.fit_quasimodular": _note_fit,
    "tropical.enumerate_elliptic_covers": _note_covers,
}


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _partition_count(d):
    return _module("partitions").partition_count(d)


def install(rec):
    """Replace every hooked function in every namespace that holds it.

    Modules import with ``from .x import f``, so a module-level function is
    replaced wherever the package holds the original object.
    """
    for module, _, _ in HOOKS:
        _module(module)
    namespaces = [m for n, m in sys.modules.items()
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module, attr, kind in HOOKS:
        name = metric_name(module, attr)
        mod = _module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, kind, cls.__dict__[meth]))
            continue
        orig = getattr(mod, attr)
        wrapped = rec.wrap(name, kind, orig, NOTES.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapped)


def table_sizes(rec):
    """Work counters read from the memo tables when the invocation ends."""
    characters, spectral = _module("characters"), _module("spectral")
    rec.add("characters.mn_entries", len(characters._char_cache))
    rec.add("characters.lambda_distinct",
            sum(_partition_count(d) for d in rec.degrees))
    rec.add("spectral.ceo_omega.computed", len(spectral._omega_cache))
    rec.add("spectral.omega_terms",
            sum(len(om.terms) for om in spectral._omega_cache.values()))
    rec.add("double_recursion.n_cache_entries",
            len(_module("double_recursion")._n_cache))


def main(argv):
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    rec = Recorder()
    install(rec)
    try:
        return _module("cli").main(argv)
    finally:
        sys.stdout.flush()
        table_sizes(rec)
        with open(out_path, "w") as fh:
            json.dump({"invocation": os.environ.get("PERFBENCH_INVOCATION"),
                       "spans": rec.spans, "counts": rec.counts,
                       "leaf_s": rec.leaf_s}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
