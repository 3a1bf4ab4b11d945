"""Per-layer tracing applied to pcurv13 from outside the package.

``Tracer.install`` replaces the public functions, methods and properties
of each layer module with wrappers, in every pcurv13 namespace that binds
them (``spectral`` imports ``Subspace``, ``rank`` and friends from
``gfp`` at import time, so patching ``gfp`` alone would miss its calls).

A wrapper counts every call.  It records a span only where control
crosses from one layer into another, because a layer's self time needs
only those: the span's duration minus the spans of other layers nested
in it.  Spans live in flat arrays (name, start, end, parent) and are
written out by ``write_spans`` when the traced invocation ends.

Left unwrapped, so their cost stays with the calling layer:

* ``LEAF_HELPERS``: constant-time helpers called tens of thousands of
  times per p=3 sweep, where a wrapper would cost more than the call;
* generator functions: their work runs while the caller iterates, so
  they are counted but get no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("cli", "pipeline", "spectral", "gfp", "groups", "cohomology", "bazaikin")

LEAF_HELPERS = frozenset(
    {
        "gfp.is_zero",
        "gfp.zero_vec",
        "gfp.Subspace.dim",
        "spectral.monomials",
        "spectral.base_dim",
    }
)

ROOT = -1


def _rows_in(args, kwargs):
    """rref consumes an iterable once; hand it a list so it can be counted."""
    rows = kwargs.pop("rows") if "rows" in kwargs else args[0]
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    return (rows, *args[1:]), kwargs, {"gfp.rref_rows_in": len(rows)}


def _table_meters(args, kwargs, result):
    table = args[0]
    validate = kwargs.get("validate", args[3] if len(args) > 3 else True)
    out = {"groups.table_cells": table.order * table.order}
    if validate:
        out["groups.tables_validated"] = 1
    return out


# qualified name -> function(args, kwargs) -> (args, kwargs, counts), run
# before the call
PREPARE = {"gfp.rref": _rows_in}

# qualified name -> function(args, kwargs, result) -> counts, run after it
MEASURE = {
    "pipeline.theorem_a_report": lambda a, k, r: {
        "pipeline.trace_steps": len(r.case_trace)
    },
    "pipeline.replay_step": lambda a, k, r: {
        "pipeline.replay_mismatches": 0 if r is True else 1
    },
    "spectral.exhaustive_verdict": lambda a, k, r: {
        "spectral.choices_examined": r.choices_examined
    },
    "groups.GroupTable.__init__": _table_meters,
    "bazaikin.enumerate_spaces": lambda a, k, r: {"bazaikin.spaces_found": len(r)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[tuple[int, str]] = []  # (span index, layer)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # wrapping

    def _name_id(self, layer: str, qualname: str) -> int:
        self.names.append(qualname)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def wrap(self, layer: str, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = self._name_id(layer, qualname)
        prepare = PREPARE.get(qualname)
        measure = MEASURE.get(qualname)
        calls, counts, stack = self.calls, self.counts, self.stack
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if prepare is not None:
                args, kwargs, extra = prepare(args, kwargs)
                counts.update(extra)
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(name_id)
                parents.append(stack[-1][0] if stack else ROOT)
                ends.append(0.0)
                stack.append((idx, layer))
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            if measure is not None:
                counts.update(measure(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public callable of every layer, in every namespace."""
        modules = {layer: importlib.import_module(f"pcurv13.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("pcurv13"), *modules.values()]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qualname = f"{layer}.{name}"
                if inspect.isclass(obj):
                    self._wrap_class(layer, qualname, obj)
                elif callable(obj) and qualname not in LEAF_HELPERS:
                    wrapper = self.wrap(layer, qualname, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, key, wrapper)

    def _wrap_class(self, layer: str, qualname: str, cls) -> None:
        if issubclass(cls, BaseException) or type(cls) is not type:
            return  # exceptions and enums carry no work
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__post_init__"):
                continue
            full = f"{qualname}.{name}"
            if full in LEAF_HELPERS:
                continue
            if isinstance(member, staticmethod):
                new = staticmethod(self.wrap(layer, full, member.__func__))
            elif isinstance(member, classmethod):
                new = classmethod(self.wrap(layer, full, member.__func__))
            elif isinstance(member, property):
                new = property(self.wrap(layer, full, member.fget), member.fset, member.fdel)
            elif inspect.isfunction(member):
                new = self.wrap(layer, full, member)
            else:
                continue
            setattr(cls, name, new)

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent outside spans of other layers."""
        n = len(self.span_start)
        covered = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent != ROOT:
                covered[parent] += durations[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            out[self.name_layer[self.span_name[i]]] += durations[i] - covered[i]
        return out

    def summary(self) -> dict:
        return {
            "self_s": self.self_times(),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """A JSON header at ``path`` (name table, column types, span count)
        and the four columns back to back, native byte order, at
        ``path`` + ".bin"."""
        columns = (self.span_name, self.span_start, self.span_end, self.span_parent)
        with open(str(path) + ".bin", "wb") as fh:
            for column in columns:
                column.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.name_layer,
                    "count": len(self.span_start),
                    "columns": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"]],
                },
                fh,
            )
