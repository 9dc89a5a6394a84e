"""Outside-in tracing of the qtkostka layers for the benchmark's traced runs.

Nothing in the package is edited.  `Tracer.install()` wraps public functions
and methods after import, in every `qtkostka.*` module that binds them by
name (kl.py, kostka.py and macdonald.py import d_basis, bar_d, kl_element,
e_tilde, marked_e, cache_get and cache_put directly, so patching only the
defining module would miss those calls).  Modules are reached through
`importlib`, because `qtkostka.kostka` is the function, not the module.

Two kinds of wrapper:

* span wrappers record (id, parent id, name, start ns, end ns) per call and
  accumulate self time (span minus child spans) online;
* count wrappers only bump a counter; they sit on the hot arithmetic
  (`CoeffPoly.__mul__` runs millions of times per deep KL solve) where a
  span per call would cost more than the work.

Spans stay in memory and are written once, at exit, by `write_spans`.  An
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "qtkostka"

# (module, public function) -> span name; every call becomes a span
SPANNED = {
    ("parabolic", "d_basis"): "parabolic.d_basis",
    ("parabolic", "bar_d"): "parabolic.bar_d",
    ("kl", "kl_element"): "kl.kl_element",
    ("macdonald", "e_tilde"): "macdonald.e_tilde",
    ("macdonald", "marked_e"): "macdonald.marked_e",
    ("polyrep", "from_module"): "polyrep.from_module",
    ("kostka", "kostka"): "kostka.kostka",
    ("kostka", "marked_kostka"): "kostka.marked_kostka",
    ("kostka", "msym_expand"): "kostka.msym_expand",
    ("kostka", "pair"): "kostka.pair",
    ("cache", "cache_get"): "cache.get",
    ("cache", "cache_put"): "cache.put",
}

# (module, class) -> {method: counter name}; counted, never spanned
COUNTED_METHODS = {
    ("coeffs", "CoeffPoly"): {
        "__mul__": "coeffs.mul.calls",
        "__add__": "coeffs.add.calls",
        "exact_div": "coeffs.exact_div.calls",
        "b_partition": "coeffs.b_partition.calls",
    },
    ("parabolic", "ModuleElement"): {
        "hi": "parabolic.hecke.calls",
        "hi_inv": "parabolic.hecke.calls",
        "omega": "parabolic.hecke.calls",
    },
}

COUNTED_FUNCTIONS = {("kl", "skew_positive_part"): "kl.skew.calls"}

# lru-cached functions whose cache_info() gives a hit ratio
HIT_RATIOS = {
    "compositions.sorting_data.hit_ratio": ("compositions", "sorting_data"),
    "bruhat.min_rep_length.hit_ratio": ("bruhat", "min_rep_length"),
}


def _module(name):
    return importlib.import_module(PACKAGE + "." + name)


def _rebind(original, replacement):
    """Point every qtkostka module attribute bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start ns, end ns)
        self.counts = {}
        self.self_ns = {}
        self.calls = {}
        self.nested_ns = {}  # (parent name, name) -> inclusive ns
        self.sizes = {}  # metric -> {distinct key: term count}
        self.rows = set()  # distinct (lambda, rank) asked of d_basis
        self.lru_totals = {}  # metric -> [hits, misses] from before each clear
        self._stack = []  # [id, name, child ns]
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.spans.append((sid, parent[0] if parent else -1, name, start, end))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    edge = (parent[1], name)
                    self.nested_ns[edge] = self.nested_ns.get(edge, 0) + dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _size(self, metric, key, size):
        self.sizes.setdefault(metric, {})[key] = size

    def install(self):
        canonicalize = _module("compositions").canonicalize
        observers = {
            "d_basis": lambda a, r: self.rows.add((canonicalize(a[0]), a[1])),
            "kl_element": lambda a, r: self._size(
                "kl", (r.lam, r.rank), len(r.element.terms)
            ),
            "e_tilde": lambda a, r: self._size(
                "mac", ("e", r.lam, r.rank), len(r.element.terms)
            ),
            "marked_e": lambda a, r: self._size(
                "mac", ("marked", a[0].shape, a[0].marked, a[1]), len(r.terms)
            ),
            "cache_get": lambda a, r: r is not None and self._bump("cache.get.hits"),
            "cache_put": lambda a, r: r and self._bump("cache.put.written"),
        }
        for (modname, fname), span in SPANNED.items():
            fn = getattr(_module(modname), fname, None)
            if fn is not None:
                _rebind(fn, self._span(span, fn, observers.get(fname)))
        for (modname, fname), counter in COUNTED_FUNCTIONS.items():
            fn = getattr(_module(modname), fname, None)
            if fn is not None:
                _rebind(fn, self._count(counter, fn))
        for (modname, clsname), methods in COUNTED_METHODS.items():
            cls = getattr(_module(modname), clsname)
            for meth, counter in methods.items():
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._count(counter, raw.__func__)))
                elif meth == "__mul__":
                    setattr(cls, meth, self._mul_counter(raw))
                else:
                    setattr(cls, meth, self._count(counter, raw))
        package = importlib.import_module(PACKAGE)
        clear = getattr(package, "clear_caches", None)
        if clear is not None:

            @functools.wraps(clear)
            def clear_caches():
                self._snapshot_lru()
                return clear()

            package.clear_caches = clear_caches

    def _bump(self, counter):
        self.counts[counter] = self.counts.get(counter, 0) + 1

    def _mul_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def __mul__(a, b):
            counts["coeffs.mul.calls"] = counts.get("coeffs.mul.calls", 0) + 1
            counts["coeffs.mul.term_products"] = counts.get(
                "coeffs.mul.term_products", 0
            ) + len(getattr(a, "terms", ())) * len(getattr(b, "terms", ()))
            return fn(a, b)

        return __mul__

    def _lru_info(self, modname, fname):
        fn = getattr(_module(modname), fname, None)
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None

    def _snapshot_lru(self):
        for metric, (modname, fname) in HIT_RATIOS.items():
            info = self._lru_info(modname, fname)
            if info is not None:
                tot = self.lru_totals.setdefault(metric, [0, 0])
                tot[0] += info.hits
                tot[1] += info.misses

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer figures of this process (times in s, the rest counts)."""
        self._snapshot_lru()
        s = 1e-9
        out = {}
        for name, value in self.counts.items():
            out[name] = value
        for span in SPANNED.values():
            out[span + ".calls"] = self.calls.get(span, 0)
            out[span + ".self_s"] = self.self_ns.get(span, 0) * s
        out["kl.rows_s"] = self.nested_ns.get(("kl.kl_element", "parabolic.d_basis"), 0) * s
        out["kl.selfdual_s"] = self.nested_ns.get(("kl.kl_element", "parabolic.bar_d"), 0) * s
        out["kl.support_terms"] = sum(self.sizes.get("kl", {}).values())
        out["macdonald.terms"] = sum(self.sizes.get("mac", {}).values())
        out["parabolic.rows_cached"] = len(self.rows)
        for metric, (hits, misses) in self.lru_totals.items():
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: id, parent, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
