"""Outside-in tracer for gaugeknot.

The tracer wraps the public functions of the package's layers from outside
and records a span around each call: name, start, end, the span that caused
it, and the span's self time (its duration minus that of its child spans).
Nothing in the package is edited; the wrappers replace every binding of a
wrapped function, because some modules import functions by name
(``harness.compare_case2`` is ``oracles.compare_case2``) and a missed binding
would silently lose its spans.

Ring arithmetic is called millions of times per pass, so ring calls are not
kept as single spans.  They are counted and timed at the outermost ring call
only (products made inside ``_reduce_y``, ``__pow__`` or ``map_poly`` belong
to the outer call) and their time is charged to the enclosing span as child
time.  All other spans are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

#: Traced layers, outermost last.  ``braid`` only parses words and counts
#: components (well under a millisecond a word), so it is not wrapped and its
#: time is part of the caller's self time.
LAYERS = ("ring", "rmat", "ybe", "engine", "oracles", "harness", "cli")

#: LaurentPoly operations timed at their outermost call, by span name.
RING_METHODS = {"__mul__": "mul", "__rmul__": "mul",
                "__add__": "add", "__radd__": "add",
                "__sub__": "add", "__rsub__": "add",
                "__neg__": "neg", "__pow__": "pow"}


def _public_functions(module):
    """Module-level public functions defined in ``module`` (including
    ``functools.lru_cache`` wrappers), by name."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, (types.FunctionType,
                            functools._lru_cache_wrapper)):
            out[name] = obj
    return out


class Patcher:
    """Replaces every binding of a function object in a set of modules,
    and the class attributes of the classes those modules define, and puts
    the originals back on ``restore``."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._saved = []

    def _namespaces(self):
        for mod in self.modules:
            yield mod
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    yield obj

    def replace(self, original, wrapper):
        """Point every binding of ``original`` at ``wrapper``."""
        for ns in self._namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self.set(ns, name, wrapper)

    def set(self, ns, name, value):
        self._saved.append((ns, name, vars(ns)[name]))
        setattr(ns, name, value)

    def restore(self):
        for ns, name, value in reversed(self._saved):
            setattr(ns, name, value)
        self._saved = []


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans and counts around the package's public functions.

    ``install`` wraps the functions, ``restore`` unwraps them.  ``stats``
    maps a span name such as ``"engine.represent"`` to its call count,
    total (inclusive) time and self time; ``counts`` holds the work counters
    taken at the same boundaries.
    """

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.patcher = Patcher(self.modules.values())
        self.stats = {}
        self.counts = {"ring.mul_term_pairs": 0, "ring.y_mul_calls": 0,
                       "engine.columns": 0, "engine.images": 0,
                       "engine.stored_terms": 0, "engine.closure_reads": 0,
                       "oracles.bracket_states": 0}
        self.spans = []          # (id, parent id, name, start, end, self_s)
        self._stack = []         # open spans: [id, child_s]
        self._next_id = 1
        self._in_ring = False

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, mod in self.modules.items():
            wrap = (self._ring_wrapper if layer == "ring"
                    else self._span_wrapper)
            for name, fn in _public_functions(mod).items():
                self.patcher.replace(fn, wrap(f"{layer}.{name}", fn))
        cls = self.modules["ring"].LaurentPoly
        for attr, op in RING_METHODS.items():
            # __rmul__ = __mul__ is one function object in two slots: set
            # each slot rather than replacing bindings of the function
            fn = vars(cls)[attr]
            self.patcher.set(cls, attr, self._ring_wrapper(f"ring.{op}", fn))
        return self

    def restore(self):
        self.patcher.restore()

    # -- wrappers ----------------------------------------------------------

    def _stat(self, span):
        st = self.stats.get(span)
        if st is None:
            st = self.stats[span] = Stat()
        return st

    def _ring_wrapper(self, span, fn):
        clock = time.perf_counter
        stack = self._stack
        st = self._stat(span)
        counts = self.counts
        is_mul = span == "ring.mul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_ring:
                return fn(*args, **kwargs)
            t_in = clock()
            if is_mul:
                a, b = args
                ta = a.terms
                tb = b.terms if hasattr(b, "terms") else None
                counts["ring.mul_term_pairs"] += len(ta) * (
                    1 if tb is None else len(tb))
                yk = a.ring.y_index
                if (yk is not None and tb is not None
                        and any(e[yk] for e in ta)
                        and any(e[yk] for e in tb)):
                    counts["ring.y_mul_calls"] += 1
            self._in_ring = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._in_ring = False
                dt = t1 - t0
                st.calls += 1
                st.total_s += dt
                st.self_s += dt
                if stack:
                    # bookkeeping before t0 is tracer overhead, not the
                    # caller's work
                    stack[-1][1] += t1 - t_in
        return wrapper

    def _span_wrapper(self, span, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        st = self._stat(span)
        before = _BEFORE.get(span)
        after = _AFTER.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_ring:
                return fn(*args, **kwargs)
            t_in = clock()
            if before is not None:
                before(self.counts, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            out = _FAILED
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame[1]
                st.calls += 1
                st.total_s += dur
                st.self_s += self_s
                spans.append((sid, parent, span, t0, t1, self_s))
                if after is not None and out is not _FAILED:
                    after(self.counts, args, kwargs, out)
                if stack:
                    stack[-1][1] += clock() - t_in
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(st.self_s for name, st in self.stats.items()
                   if name.startswith(prefix))

    def write_spans(self, path):
        """One JSON object per line: id, parent, name, start, end, self_s
        (times in seconds on the process's perf_counter clock)."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "self_s": self_s}) + "\n")


def _word_arg(args, kwargs):
    return args[0] if args else kwargs["word"]


def _before_represent(counts, args, kwargs):
    counts["engine.columns"] += 4 ** _word_arg(args, kwargs).strands


def _after_represent(counts, args, kwargs, rep):
    """Images stored, their terms, and the images the closure step reads:
    for input column s it reads the outputs (a, s[1], ..., s[n-1])."""
    images = terms = reads = 0
    for s, vec in rep.items():
        images += len(vec)
        for t, coeff in vec.items():
            terms += len(coeff.terms)
            if t[1:] == s[1:]:
                reads += 1
    counts["engine.images"] += images
    counts["engine.stored_terms"] += terms
    counts["engine.closure_reads"] += reads


def _before_jones(counts, args, kwargs):
    counts["oracles.bracket_states"] += 2 ** len(_word_arg(args, kwargs).letters)


_BEFORE = {"engine.represent": _before_represent,
           "oracles.jones": _before_jones}
_AFTER = {"engine.represent": _after_represent}
_FAILED = object()


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    st = tracer.stats
    c = tracer.counts

    def calls(name):
        return st[name].calls if name in st else 0

    def total(*names):
        return sum(st[n].total_s for n in names if n in st)

    def self_(*names):
        return sum(st[n].self_s for n in names if n in st)

    mul_calls = calls("ring.mul")
    images = c["engine.images"]
    return {
        "ring.mul_calls": mul_calls,
        "ring.mul_term_pairs": c["ring.mul_term_pairs"],
        "ring.pairs_per_mul": (c["ring.mul_term_pairs"] / mul_calls
                               if mul_calls else 0.0),
        "ring.mul_self_s": self_("ring.mul"),
        "ring.add_calls": calls("ring.add"),
        "ring.add_self_s": self_("ring.add"),
        "ring.y_mul_calls": c["ring.y_mul_calls"],
        "ring.self_s": tracer.layer_self("ring"),
        "engine.represent_calls": calls("engine.represent"),
        "engine.columns": c["engine.columns"],
        "engine.images": images,
        "engine.stored_terms": c["engine.stored_terms"],
        "engine.represent_self_s": self_("engine.represent"),
        "engine.closure_self_s": self_("engine.tangle_invariant",
                                       "engine.ambient_invariant"),
        "engine.closure_read_ratio": (c["engine.closure_reads"] / images
                                      if images else 0.0),
        "engine.model_s": total("engine.model"),
        "engine.self_s": tracer.layer_self("engine"),
        "oracles.jones_calls": calls("oracles.jones"),
        "oracles.jones_s": total("oracles.jones"),
        "oracles.bracket_states": c["oracles.bracket_states"],
        "oracles.alexander_s": total("oracles.alexander"),
        "oracles.compare_self_s": self_("oracles.compare_case2",
                                        "oracles.compare_case3"),
        "oracles.self_s": tracer.layer_self("oracles"),
        "rmat.spectral_limit_s": total("rmat.spectral_limit"),
        "rmat.invert_s": total("rmat.invert"),
        "rmat.eigen_check_s": total("rmat.eigen_check"),
        "rmat.charpoly_calls": calls("rmat.charpoly"),
        "rmat.charpoly_s": total("rmat.charpoly"),
        "rmat.deficiency_s": total("rmat.eigenvector_deficiency"),
        "rmat.self_s": tracer.layer_self("rmat"),
        "ybe.qybe_s": total("ybe.verify_qybe"),
        "ybe.tybe_s": total("ybe.verify_tybe_additive"),
        "ybe.gauge_s": total("ybe.verify_gauge_properties"),
        "ybe.self_s": tracer.layer_self("ybe"),
        "harness.self_s": tracer.layer_self("harness"),
        "cli.self_s": tracer.layer_self("cli"),
    }


def package():
    """Import the package and every layer module."""
    pkg = importlib.import_module("gaugeknot")
    for layer in LAYERS + ("braid",):
        importlib.import_module(f"gaugeknot.{layer}")
    return pkg
