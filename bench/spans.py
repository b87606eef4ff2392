"""Spans around apolar's public functions, installed from outside the program.

``Tracer.install`` replaces every public function of the traced modules, and
a few methods on their classes, with a wrapper that records one span per
call: (name, start, end, parent).  A function imported by name into another
module (``from .rings import kernel``) is a separate binding there, so the
wrapper is put in place of every binding of the same object across the
``apolar`` package.  Spans stay in memory until ``write`` is called.

A layer's self time is its span time minus the time covered by its direct
child spans; nested spans of the same name are not counted twice.
"""

import gzip
import inspect
import json
import sys
import time
import types

#: Modules whose public functions are wrapped, in the order they are scanned.
MODULES = (
    "rings",
    "duality",
    "invariants",
    "series",
    "compressed",
    "tangents",
    "constructions",
    "parsing",
    "cli",
)

#: Methods wrapped on their class, as (module, class, method).
METHODS = (
    ("rings", "Subspace", "reduce"),
    ("rings", "Subspace", "perp"),
    ("rings", "Subspace", "intersect"),
    ("duality", "QuotientRing", "var_matrix"),
    ("duality", "QuotientRing", "mult_matrix"),
)

#: Per-layer metrics: name -> (unit, span name, statistic).  Every figure is
#: per operation except ``rank_ratio``; ``cli.import_s`` is filled in apart.
LAYER_METRICS = {
    "rings.rref.calls": ("count", "rings.rref", "calls"),
    "rings.rref.cells": ("count", "rings.rref", "cells"),
    "rings.rref.s": ("s", "rings.rref", "s"),
    "rings.rref.rank_ratio": ("ratio", "rings.rref", "rank_ratio"),
    "rings.reduce.calls": ("count", "rings.Subspace.reduce", "calls"),
    "rings.reduce.s": ("s", "rings.Subspace.reduce", "s"),
    "rings.intersect.calls": ("count", "rings.Subspace.intersect", "calls"),
    "rings.intersect.s": ("s", "rings.Subspace.intersect", "s"),
    "duality.generated_submodule.s": ("s", "duality.generated_submodule", "s"),
    "duality.annihilator_of_submodule.s": ("s", "duality.annihilator_of_submodule", "s"),
    "duality.annihilator_of_submodule.self_s": (
        "s", "duality.annihilator_of_submodule", "self_s"),
    "duality.filtered_dual.s": ("s", "duality.filtered_dual", "s"),
    "duality.associated_graded_ideal.s": ("s", "duality.associated_graded_ideal", "s"),
    "duality.associated_graded_submodule.s": (
        "s", "duality.associated_graded_submodule", "s"),
    "duality.QuotientRing.mult_matrix.calls": (
        "count", "duality.QuotientRing.mult_matrix", "calls"),
    "duality.QuotientRing.mult_matrix.s": ("s", "duality.QuotientRing.mult_matrix", "s"),
    "duality.QuotientRing.var_matrix.calls": (
        "count", "duality.QuotientRing.var_matrix", "calls"),
    "tangents.hom_dims.s": ("s", "tangents.hom_dims", "s"),
    "tangents.hom_dims.self_s": ("s", "tangents.hom_dims", "self_s"),
    "tangents.syzygies_at_degree.calls": ("count", "tangents.syzygies_at_degree", "calls"),
    "tangents.syzygies_at_degree.distinct_calls": (
        "count", "tangents.syzygies_at_degree", "distinct_calls"),
    "tangents.syzygies_at_degree.s": ("s", "tangents.syzygies_at_degree", "s"),
    "tangents.minimal_generators.calls": ("count", "tangents.minimal_generators", "calls"),
    "tangents.minimal_generators.s": ("s", "tangents.minimal_generators", "s"),
    "invariants.hilbert_function.s": ("s", "invariants.hilbert_function", "s"),
    "invariants.socle.s": ("s", "invariants.socle", "s"),
    "compressed.i_set.s": ("s", "compressed.i_set", "s"),
    "compressed.is_permissible.s": ("s", "compressed.is_permissible", "s"),
    "parsing.parse_ring_spec.s": ("s", "parsing.parse_ring_spec", "s"),
    "parsing.parse_expressions.s": ("s", "parsing.parse_expressions", "s"),
    "cli.import_s": ("s", None, "import_s"),
    "cli.main_s": ("s", "cli.main", "s"),
}


class Tracer:
    """Records spans of wrapped apolar calls and the counts taken beside them."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span index or -1)
        self._stack = []
        self._restore = []
        self.op = 0
        self.rref_cells = 0
        self.rref_nonzero_rows = 0
        self.rref_rank = 0
        self.syzygy_keys = set()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap what exists; a layer the program no longer has reads 0."""
        pkg = sys.modules["apolar"]
        mods = {name: sys.modules[f"apolar.{name}"] for name in MODULES
                if f"apolar.{name}" in sys.modules}
        holders = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn, *self._hooks(fn))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if not isinstance(fn, types.FunctionType):
                continue
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def _hooks(self, fn):
        if fn.__name__ == "rref":
            self._rref_signature = inspect.signature(fn)
            return self._rref_before, self._rref_after
        if fn.__name__ == "syzygies_at_degree":
            self._syz_signature = inspect.signature(fn)
            return self._syz_before, None
        return None, None

    def _rref_before(self, args, kwargs):
        bound = self._rref_signature.bind(*args, **kwargs)
        rows = bound.arguments["rows"]
        if not isinstance(rows, (list, tuple)):
            rows = bound.arguments["rows"] = list(rows)
        self.rref_cells += len(rows) * bound.arguments["ncols"]
        self.rref_nonzero_rows += sum(1 for r in rows if any(r))
        return bound.args, bound.kwargs

    def _rref_after(self, out):
        self.rref_rank += len(out[1])

    def _syz_before(self, args, kwargs):
        bound = self._syz_signature.bind(*args, **kwargs)
        gens = bound.arguments["gens"] = list(bound.arguments["gens"])
        self.syzygy_keys.add((self.op, tuple(id(g) for g in gens), bound.arguments["d"]))
        return bound.args, bound.kwargs

    def _wrap(self, name, fn, before=None, after=None):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(out)
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        """Forget everything recorded so far (used after the warm-up)."""
        self.spans.clear()
        self.rref_cells = self.rref_nonzero_rows = self.rref_rank = 0
        self.syzygy_keys.clear()

    def next_op(self):
        self.op += 1

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (idx, start, end, parent) in enumerate(spans):
            name = self.names[idx]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[k]
            if not self._has_ancestor(parent, idx):
                row["s"] += end - start
        return out

    def _has_ancestor(self, parent, idx) -> bool:
        while parent >= 0:
            pidx, _, _, parent_of = self.spans[parent]
            if pidx == idx:
                return True
            parent = parent_of
        return False

    def layer_metrics(self, ops: int, import_s: float = 0.0):
        """Every per-layer metric, per operation, as {name: {value, unit}}."""
        summary = self.summary()
        distinct = len(self.syzygy_keys)
        metrics = {}
        for name, (unit, span, stat) in LAYER_METRICS.items():
            if stat == "rank_ratio":
                value = self.rref_rank / self.rref_nonzero_rows if self.rref_nonzero_rows else 0.0
            elif stat == "import_s":
                value = import_s
            elif stat == "cells":
                value = self.rref_cells / ops
            elif stat == "distinct_calls":
                value = distinct / ops
            else:
                value = summary.get(span, {}).get(stat, 0) / ops
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def write(self, path):
        """Write every span, times in seconds from the first span, gzipped."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [
                [idx, round(start - t0, 9), round(end - t0, 9), parent]
                for idx, start, end, parent in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
