"""Spans around eigensplit's public functions, installed from outside.

Each wrapped call records a span: its name, start, end, the span that was
open when it began (its parent) and the id of the query it served.  Spans
stay in memory (compact arrays) until the run ends; then ``self_times``
derives each layer's self time (its duration minus the time its child spans
cover) and ``write_jsonl`` writes them out as gzip-compressed JSON lines.
``PadicInt`` operators are not wrapped: a wrapper would cost more than they
do, so their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

from eigensplit.errors import PrecisionExhausted

# (module, function) pairs and their layer names; every module of the
# package that binds the same object gets the wrapper
FUNCTIONS = (
    ("formal_groups", "cw_tower_x", "formal_groups.cw_tower_x"),
    ("cyclotomic", "galois_apply", "cyclotomic.galois_apply"),
    ("cyclotomic", "norm_down", "cyclotomic.norm_down"),
    ("cyclotomic", "norm_to_qp", "cyclotomic.norm_to_qp"),
    ("cyclotomic", "unit_pow_zp", "cyclotomic.unit_pow_zp"),
    ("cyclotomic", "eigen_unit", "cyclotomic.eigen_unit"),
    ("cyclotomic", "nontorsion_certified", "cyclotomic.nontorsion_certified"),
    ("kummer", "kummer_phi", "kummer.kummer_phi"),
    ("kummer", "cw_unit_pair", "kummer.cw_unit_pair"),
    ("kummer", "lang_generator_search", "kummer.lang_generator_search"),
    ("kummer", "lang_unit", "kummer.lang_unit"),
    ("lfunctions", "bernoulli", "lfunctions.bernoulli"),
    ("lfunctions", "lp_value", "lfunctions.lp_value"),
    ("lfunctions", "irregular_pairs", "lfunctions.irregular_pairs"),
    ("lfunctions", "regularity_certificate",
     "lfunctions.regularity_certificate"),
    ("lfunctions", "configure_cache", "lfunctions.configure_cache"),
    ("homotopy", "homotopy_of", "homotopy.homotopy_of"),
    ("homotopy", "verify_main_duality", "homotopy.verify_main_duality"),
    ("homotopy", "les_consistency", "homotopy.les_consistency"),
    ("homotopy", "assemble", "homotopy.assemble"),
    ("homotopy", "anderson_dual", "homotopy.anderson_dual"),
    ("cli", "main", "cli.main"),
)

# (module, class, method) triples; aliases such as __rmul__ = __mul__
# share the wrapper
METHODS = (
    ("padic", "PadicCtx", "teichmuller", "padic.teichmuller"),
    ("padic", "PadicCtx", "from_rational", "padic.from_rational"),
    ("series", "TruncSeries", "__mul__", "series.mul"),
    ("series", "TruncSeries", "log", "series.log"),
    ("series", "TruncSeries", "invariant_derivative",
     "series.invariant_derivative"),
    ("cyclotomic", "CycElt", "__mul__", "cyclotomic.mul"),
)

QUERY = "query"
SPAN_FIELDS = ["name", "start", "end", "parent", "query"]


class Tracer:
    def __init__(self):
        self.names = [QUERY]
        self._ids = {QUERY: 0}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self._stack = [-1]
        self.query_id = -1
        self.counters = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, query_id: int):
        """Context manager for a root span of one query."""
        return _Span(self, self._id(name), query_id)

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        errors = name + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except PrecisionExhausted as exc:
                # an error crossing nested spans of one name counts once
                if getattr(exc, "_perfbench_counted", None) != nid:
                    exc._perfbench_counted = nid
                    self.count(errors)
                raise
            finally:
                self._close(idx)

        return wrapper

    def aggregate(self) -> dict:
        """Per name: calls, total and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {}
        for k, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[k] - self.start[k]
            row["self_s"] += selfs[k]
        return out

    def write_jsonl(self, path: str, append: bool = False):
        """Write the spans gzip-compressed, one JSON array a line:
        [name, start, end, parent, query]; parent is the line index of
        the parent span among this writer's spans, -1 for a root."""
        with gzip.open(path, "at" if append else "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for k in range(len(self.start)):
                fh.write(json.dumps([
                    self.names[self.name[k]], self.start[k], self.end[k],
                    self.parent[k], self.query[k],
                ], separators=(",", ":")) + "\n")


class _Span:
    def __init__(self, tracer, nid, query_id):
        self.tracer = tracer
        self.nid = nid
        self.query_id = query_id

    def __enter__(self):
        self.tracer.query_id = self.query_id
        self.idx = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans nest (a child lies inside its parent), so the children's
    durations are exactly the part of the parent covered by children.
    """
    covered = [0.0] * len(starts)
    for k, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[k] - starts[k]
    return [ends[k] - starts[k] - covered[k] for k in range(len(starts))]


def _count_level1(tracer, args):
    if args[0].ring.level == 1:
        tracer.count("cyclotomic.mul_level1.calls")


def _bernoulli_index(tracer, args):
    tracer.maximum("lfunctions.bernoulli.max_index", args[0])


HOOKS = {
    "cyclotomic.mul": _count_level1,
    "lfunctions.bernoulli": _bernoulli_index,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eigensplit"
                                  or name.startswith("eigensplit."))]


def install(tracer: Tracer, also=()):
    """Wrap every listed function and method in place, in every module of
    the package and in the modules `also` that import names from it."""
    import eigensplit.cli  # noqa: F401  (loads every submodule)

    modules = _package_modules() + list(also)
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules[f"eigensplit.{mod_name}"], attr)
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"eigensplit.{mod_name}"], cls_name)
        original = cls.__dict__[attr]
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for key, value in list(cls.__dict__.items()):
            if value is original:
                setattr(cls, key, wrapper)
