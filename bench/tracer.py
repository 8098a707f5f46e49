"""Spans around the library's public functions, for the traced run.

``Tracer.install`` wraps the public module-level functions of each layer
of ``dieudonne`` and rebinds every name that holds one of them: modules
import functions by value (``signs`` and ``strata`` both do ``from .core
import largest_sub_dieudonne``), so a wrapper bound only in its home module
would miss the calls made inside the package.  The analyses are wrapped in
``problems.RUNNERS``; four methods are wrapped at their class; the
``Session`` accessors tell a cache hit from a miss by looking at
``_cache`` before the call.

Left unwrapped: ``series`` and ``modp``, and the scalar arithmetic of
``witt``.  A rank-8 report-all makes millions of scalar calls, far more
than a span can afford, so their time lands in the self time of the
callers.

Each span is ``(op, name, start, end, parent, outermost)`` and stays in
memory until ``write``.  Self time is a span's duration minus that of its
children; inclusive time counts only the outermost span of a recursive
name.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("problems", "isocrystal", "core", "signs", "strata",
          "deformation", "lattices", "witt")
# Private helpers that get a span of their own.
PRIVATE = {
    "core": ("_conjugation_numerators",),
    "lattices": ("_reduce_columns",),
    "isocrystal": ("_slope_split_at",),
}
# Layers of which only these functions are wrapped.
ONLY = {"witt": ("make_context",)}
# (layer, class, method): wrapped at the class.
METHODS = (("lattices", "Lattice", "from_columns"),
           ("lattices", "Lattice", "solve"),
           ("lattices", "SemilinearMap", "apply_raw"),
           ("core", "TangentSpace", "__init__"))
# Session accessor -> its key in Session._cache.
SESSION = {"slope_data": "slopes", "decomp": "decomp", "tangent": "tangent",
           "o_minus": "o_minus", "split": "split", "lattice_e": "lattice_e",
           "deformation_basis": "defbasis"}
# Spans whose distinct inputs are counted, for useful_ratio.
USEFUL = ("signs.sign_modules", "core._conjugation_numerators",
          "deformation.solve_connection")

ANALYSES = ("slopes", "decompose", "ominus", "axioms", "dual", "slices",
            "connection", "trivialize", "correction", "strata", "traverso",
            "polarized")

# Unit by the last part of a metric's name; every other metric is a ratio.
UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms",
         "p90_ms": "ms"}


def _names(*groups):
    return [f"{base}.{stat}" for base, stats in groups for stat in stats]


# Per-layer metrics, per traced operation: .calls is a count, .s inclusive
# seconds, .self_s self seconds.
PER_LAYER = (
    [f"problems.analysis.{a}.s" for a in ANALYSES]
    + [f"problems.session.{acc}.s" for acc in SESSION]
    + ["problems.session.hit_ratio", "problems.parse_emit.s"]
    + _names(("signs.sign_modules", ("calls", "s", "useful_ratio")),
             ("core._conjugation_numerators", ("calls", "s", "useful_ratio")),
             ("isocrystal.sandwich_map", ("calls", "s")),
             ("isocrystal.block_projector", ("calls", "s")),
             ("core.largest_sub_dieudonne", ("calls", "s")),
             ("core.smallest_super_dieudonne", ("calls", "s")),
             ("core.codim_of_dieudonne", ("calls", "s")),
             ("core.TangentSpace", ("calls",)),
             ("core.check_axioms", ("s",)),
             ("signs.dual_lattice", ("calls", "s")),
             ("signs.slice_monotone", ("s",)),
             ("signs.quasi_factor_codims", ("s",)),
             ("lattices.Lattice.from_columns", ("calls", "s")),
             ("lattices._reduce_columns", ("calls", "self_s")),
             ("lattices.Lattice.solve", ("calls", "self_s")),
             ("lattices.SemilinearMap.apply_raw", ("calls", "self_s")),
             ("lattices.matrix_kernel", ("calls", "s")),
             ("lattices.smith_valuations", ("calls", "s")),
             ("deformation.trivialize_at_point",
              ("calls", "self_s", "p50_ms", "p90_ms")),
             ("deformation.prepare_trivializer", ("s",)),
             ("deformation.solve_connection", ("calls", "s", "useful_ratio")),
             ("deformation.correction_factor", ("s",)),
             ("deformation.verify_horizontality", ("s",)),
             ("deformation.select_deformation_basis", ("s",)),
             ("isocrystal.slope_split", ("calls", "s")),
             ("isocrystal.newton_slopes", ("calls", "s")),
             ("isocrystal.charpoly", ("calls", "s")))
    + ["isocrystal.slope_split.attempts_per_call"]
    + _names(("lattices.invert_matrix_exact", ("calls", "s")))
    + ["lattices.invert_matrix.per_exact"]
    + _names(("witt.make_context", ("calls", "s")),
             ("strata.traverso_dimension", ("s",)),
             ("strata.strata_dims", ("s",)),
             ("strata.group_symplectic", ("s",)),
             ("strata.polarized_dim", ("s",)))
    + ["trace_overhead_ratio"]
)

# Metrics computed from other spans than their own name says.
DERIVED = {
    "problems.session.hit_ratio": [f"problems.session.{a}" for a in SESSION],
    "problems.parse_emit.s": ["problems.parse_dict", "problems.emit"],
    "isocrystal.slope_split.attempts_per_call": [
        "isocrystal._slope_split_at", "isocrystal.slope_split"],
    "lattices.invert_matrix.per_exact": [
        "lattices.invert_matrix", "lattices.invert_matrix_exact"],
    "trace_overhead_ratio": [],
}


def unit(metric):
    return UNITS.get(metric.rsplit(".", 1)[-1], "ratio")


def spans_read(metric):
    """The span names a per-layer metric is computed from."""
    if metric in DERIVED:
        return DERIVED[metric]
    return [metric.rsplit(".", 1)[0]]


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.hits = 0
        self._stack = []
        self._depth = Counter()
        self._inputs = defaultdict(set)
        self._distinct = Counter()
        self._memo = {}
        self._restore = []

    # -- recording -----------------------------------------------------------

    def begin_op(self):
        """Start the next operation: its spans share a new op id."""
        self._end_inputs()
        self.op += 1

    def _end_inputs(self):
        for name, keys in self._inputs.items():
            self._distinct[name] += len(keys)
            keys.clear()
        self._memo.clear()

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        inputs = self._inputs[name] if name in USEFUL else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inputs is not None:
                inputs.add(self._value_key((args, kwargs)))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (self.op, name, start, end, parent, outermost)
        return traced

    def _value_key(self, x):
        """A hashable key equal for equal inputs; objects are keyed by
        their fields, memoized per operation."""
        if x is None or isinstance(x, (int, str)):
            return x
        if isinstance(x, (list, tuple)):
            return tuple(self._value_key(v) for v in x)
        if isinstance(x, dict):
            return tuple((self._value_key(k), self._value_key(v))
                         for k, v in x.items())
        cls = type(x)
        if cls.__hash__ is not object.__hash__ and \
                cls.__eq__ is not object.__eq__:
            return x
        memo = self._memo.get(id(x))
        if memo is None:
            slots = getattr(cls, "__slots__", None)
            fields = [slots] if isinstance(slots, str) else \
                slots or sorted(vars(x))
            key = (cls.__name__,) + tuple(
                self._value_key(getattr(x, f, None)) for f in fields)
            # keep x alive so its id is not reused within the operation
            memo = self._memo[id(x)] = (x, key)
        return memo[1]

    def _session_accessor(self, acc, key, fn):
        miss = self._wrap(f"problems.session.{acc}", fn)

        @functools.wraps(fn)
        def accessor(sess, *args, **kwargs):
            if key in sess._cache:
                self.hits += 1
                return fn(sess, *args, **kwargs)
            return miss(sess, *args, **kwargs)
        return accessor

    # -- installing ----------------------------------------------------------

    def _set(self, target, attr, value):
        # the raw namespace entry, so a staticmethod is restored as one
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self):
        """Wrap the layers of the imported ``dieudonne`` package."""
        mods = {layer: sys.modules[f"dieudonne.{layer}"] for layer in LAYERS}
        problems = mods["problems"]
        wrapped = {}
        for name, fn in problems.RUNNERS.items():
            wrapped[fn] = self._wrap(f"problems.analysis.{name}", fn)
        for layer, mod in mods.items():
            names = ONLY.get(layer) or [
                n for n, f in vars(mod).items()
                if inspect.isfunction(f) and f.__module__ == mod.__name__
                and not n.startswith("_")]
            for n in list(names) + list(PRIVATE.get(layer, ())):
                fn = getattr(mod, n)
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(f"{layer}.{n}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "dieudonne" and \
                    not modname.startswith("dieudonne."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for name in list(problems.RUNNERS):
            self._restore.append(
                (problems.RUNNERS, name, problems.RUNNERS[name]))
            problems.RUNNERS[name] = wrapped[problems.RUNNERS[name]]
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            span = f"{layer}.{cls_name}" if meth == "__init__" else \
                f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(
                    self._wrap(span, raw.__func__)))
            else:
                self._set(cls, meth, self._wrap(span, raw))
        for acc, key in SESSION.items():
            fn = problems.Session.__dict__[acc]
            self._set(problems.Session, acc,
                      self._session_accessor(acc, key, fn))
        return self

    def uninstall(self):
        while self._restore:
            target, attr, value = self._restore.pop()
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)

    # -- results -------------------------------------------------------------

    def stats(self):
        """Per span name: calls, inclusive and self seconds, durations."""
        self._end_inputs()
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "durations": []})
        for i, (op, name, start, end, parent, outer) in \
                enumerate(self.spans):
            st = out[name]
            st["calls"] += 1
            st["durations"].append(end - start)
            st["self_s"] += end - start - child[i]
            if outer:
                st["s"] += end - start
        return out

    def metrics(self, overhead_ratio):
        """Every per-layer metric, per traced operation."""
        ops = max(self.op, 1)
        st = self.stats()

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric in PER_LAYER:
            if metric == "trace_overhead_ratio":
                out[metric] = overhead_ratio
                continue
            base, stat = metric.rsplit(".", 1)
            if metric == "problems.session.hit_ratio":
                misses = sum(st[n]["calls"] for n in DERIVED[metric])
                value = ratio(self.hits, self.hits + misses)
            elif metric == "problems.parse_emit.s":
                value = sum(st[n]["s"] for n in DERIVED[metric]) / ops
            elif metric in DERIVED:
                num, den = (st[n]["calls"] for n in DERIVED[metric])
                value = ratio(num, den)
            elif stat in ("calls", "s", "self_s"):
                value = st[base][stat] / ops
            elif stat == "useful_ratio":
                value = ratio(self._distinct[base], st[base]["calls"])
            else:
                q = int(stat[1:-3])
                value = 1000 * _quantile(sorted(st[base]["durations"]), q)
            out[metric] = value
        return out

    def write(self, path, meta):
        """Write every span, one JSON array per line after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "fields": [
                "op", "id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for i, (op, name, start, end, parent, _) in \
                    enumerate(self.spans):
                fh.write(json.dumps([op, i, parent, name,
                                     round(start - t0, 9),
                                     round(end - t0, 9)]) + "\n")
