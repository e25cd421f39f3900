"""Spans and call counters around apnforge's public functions, from outside.

A traced pass patches every module namespace of the package that binds a
listed function (``phi``, ``screen`` and ``ddt`` import names from their
siblings, and the package re-exports them), and the listed methods on their
classes.  Each call then records a span: name, start, end and the enclosing
span.  Spans stay in memory until the pass ends.  ``FieldCtx.mul``, ``pow``
and ``inv`` only bump a counter: a ``survey`` pass makes millions of ``mul``
calls, and a span per call would outweigh the work it measures.  Their time
stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import itertools
import json
import time

# Layer name -> public functions that get a span.
SPANNED_FUNCTIONS = {
    "field": ("create_field", "subfield_embedding"),
    "poly": ("exact_div_linear", "tri_mul", "shift_xy", "embed_tripoly"),
    "phi": (
        "build_phi",
        "build_phi_j",
        "numerator_surface",
        "denominator_surface",
        "gold_product",
        "even_reduction",
    ),
    "ddt": (
        "diff_spectrum",
        "is_apn",
        "projective_point_count",
        "ekp_admissible_u",
        "family_poly",
    ),
    "screen": (
        "screen_exceptional",
        "replay_trace",
        "heuristic_phi_certificate",
        "coprime_bruteforce",
        "linear_form_divides",
        "shifted_form_divides",
        "root_of_unity_audit",
        "cubic_divisor_check",
        "exhaustive_cubic_search",
    ),
}

# (layer, class, method) triples that get a span, named layer.Class.method.
SPANNED_METHODS = (
    ("field", "FieldCtx", "subfield_elements"),
    ("poly", "TriPoly", "eval"),
    ("poly", "TriPoly", "homogeneous_parts"),
    ("poly", "UniPoly", "evaluate"),
)

# FieldCtx methods that only count calls, named field.<method>.
COUNTED_FIELD_METHODS = ("mul", "pow", "inv")

LAYERS = tuple(SPANNED_FUNCTIONS)


class Tracer:
    """In-memory span log: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.labels: dict[int, str] = {}
        self._stack = [-1]
        self._counters: dict[str, itertools.count] = {}
        self._cached: dict[str, object] = {}  # lru_cache'd originals

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, label: str | None = None) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        if label:
            self.labels[idx] = label

    def span(self, name: str, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def counted(self, name: str, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    def install(self, package) -> None:
        """Patch the package's modules; the patch lasts for the process."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer, names in SPANNED_FUNCTIONS.items():
            source = getattr(package, layer)
            for fname in names:
                orig = getattr(source, fname)
                wrapped = self.span(f"{layer}.{fname}", orig)
                if hasattr(orig, "cache_info"):
                    self._cached[f"{layer}.{fname}"] = orig
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        for layer, cname, mname in SPANNED_METHODS:
            cls = getattr(getattr(package, layer), cname)
            setattr(cls, mname, self.span(f"{layer}.{cname}.{mname}", getattr(cls, mname)))
        field_ctx = package.field.FieldCtx
        for mname in COUNTED_FIELD_METHODS:
            setattr(field_ctx, mname, self.counted(f"field.{mname}", getattr(field_ctx, mname)))

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, counter values and hit ratios.

        Self time is a span's duration minus the durations of its direct
        children.  A span whose parent carries a label is also totalled
        under ``name.label``; the workload labels its item spans with the
        input class or the result.  ``<layer>.self_s`` totals a layer.
        """
        count = len(self.names)
        child = [0.0] * count
        for i in range(count):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for i in range(count):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - child[i]
            keys = [name, name.split(".", 1)[0]]
            label = self.labels.get(self.parents[i])
            if label:
                keys.append(f"{name}.{label}")
            for key in keys:
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + own
        for name, counter in self._counters.items():
            out[f"{name}.calls"] = next(counter)
        for name, fn in self._cached.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def dump(self, path) -> None:
        """Write the span log as JSON: a name table and one row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [
            [index[self.names[i]], self.starts[i], self.ends[i], self.parents[i], self.labels.get(i)]
            for i in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "columns": ["name", "start", "end", "parent", "label"], "spans": rows}, fh)
