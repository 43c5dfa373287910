"""Span tracing installed around diffcech entry points from outside the package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function or method with a wrapper, in every loaded ``diffcech`` module that
binds it, and ``Tracer.uninstall`` puts the originals back.  A wrapper records
one span (id, name, start, end, parent id, query id) per call and adds the
span's self time (its duration minus the time its child spans cover) to the
per-name totals.  Scalar arithmetic is counted, not spanned.

Cache hit shares are measured from outside: before a cached entry point runs,
a probe looks into the cache that the call is about to consult.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time


def _tuples_hit(nerve, k):
    return k < 0 or k in nerve._tuple_cache


def _tuples_sizes(args, result, hit):
    if hit:
        return {}
    nerve, k = args[0], args[1]
    return {"out_count": len(result), "examined": len(nerve.charts) ** (k + 1)}


def _affine_hit(pres, k):
    return pres.k_canonical(k) in pres._affine_cache


def _crossed_hit(pres, val, i, n):
    return (val, i, n) in getattr(pres, "_crossed_cache", {})


def _matrix_out_entries(args, result, hit):
    return {"entries": len(result) * (len(result[0]) if result else 0)}


def _matrix_in_entries(args, result, hit):
    M = args[0]
    return {"entries": len(M) * (len(M[0]) if M else 0)}


def _snf_sizes(args, result, hit):
    M = args[0]
    m, n = len(M), (len(M[0]) if M else 0)
    return {"entries": m * n, "max_dim": max(m, n)}


def _terms_in(args, result, hit):
    return {"terms_in": len(args[0].terms)}


def _bytes_in(args, result, hit):
    return {"bytes": len(args[0].encode("utf-8"))}


def _bytes_out(args, result, hit):
    return {"bytes": len(result.encode("utf-8"))}


# (span name, module, attribute, sizer, cache probe).  "Class.attr" targets
# are patched on the class; plain names in every diffcech module binding them.
SPANS = [
    ("presentation.tuples", "diffcech.presentation", "FiniteNerve.tuples",
     _tuples_sizes, _tuples_hit),
    ("presentation.build", "diffcech.presentation", "FiniteNerve.__init__",
     None, None),
    ("presentation.build", "diffcech.presentation", "FiniteNerve.from_facets",
     None, None),
    ("presentation.build", "diffcech.presentation", "GroupQuotient.__init__",
     None, None),
    ("presentation.build", "diffcech.presentation", "circle_arc_nerve",
     None, None),
    ("presentation.affine_of", "diffcech.presentation",
     "GroupQuotient.affine_of", None, _affine_hit),
    ("cech.boundary_matrix", "diffcech.cech", "boundary_matrix",
     _matrix_out_entries, None),
    ("coeff.snf", "diffcech.coeff", "_snf", _snf_sizes, None),
    ("linalg.rref", "diffcech.linalg", "rref", _matrix_in_entries, None),
    ("linalg.rank", "diffcech.linalg", "rank", None, None),
    ("funclass.compose_affine", "diffcech.funclass",
     "FunctionElement.compose_affine", _terms_in, None),
    ("funclass.affine_compose", "diffcech.funclass", "AffineMap.compose",
     None, None),
    ("cech.crossed_value", "diffcech.cech", "crossed_value", None, None),
    ("cech.crossed_single", "diffcech.cech", "_crossed_single", None,
     _crossed_hit),
    ("cech.cohomology", "diffcech.cech", "cohomology", None, None),
    ("cech.coboundary", "diffcech.cech", "coboundary", None, None),
    ("cech.is_cocycle", "diffcech.cech", "is_cocycle", None, None),
    ("cech.classes_equal", "diffcech.cech", "classes_equal", None, None),
    ("cech.pullback_cochain", "diffcech.cech", "pullback_cochain", None, None),
    ("grpcoh.h1_group", "diffcech.grpcoh", "h1_group", None, None),
    ("grpcoh.crossed_from_cocycle", "diffcech.grpcoh", "crossed_from_cocycle",
     None, None),
    ("grpcoh.cocycle_from_crossed", "diffcech.grpcoh", "cocycle_from_crossed",
     None, None),
    ("average.trivializing_homotopy", "diffcech.average",
     "trivializing_homotopy", None, None),
    ("bundle.bundle_from_cocycle", "diffcech.bundle", "bundle_from_cocycle",
     None, None),
    ("bundle.cocycle_from_bundle", "diffcech.bundle", "cocycle_from_bundle",
     None, None),
    ("bundle.is_trivializable", "diffcech.bundle", "is_trivializable",
     None, None),
    ("bundle.isomorphic", "diffcech.bundle", "isomorphic", None, None),
    ("bundle.pullback_bundle", "diffcech.bundle", "pullback_bundle",
     None, None),
    ("serialize.load", "diffcech.serialize", "loads", _bytes_in, None),
    ("serialize.from_dict", "diffcech.serialize", "presentation_from_dict",
     None, None),
    ("serialize.from_dict", "diffcech.serialize", "cochain_document_from_dict",
     None, None),
    ("serialize.from_dict", "diffcech.serialize", "bundle_from_dict",
     None, None),
    ("serialize.dump", "diffcech.serialize", "dumps", _bytes_out, None),
    ("serialize.dump", "diffcech.cli", "_compact", _bytes_out, None),
    ("cli.run", "diffcech.cli", "run", None, None),
]

# (counter name, module, attribute).  __truediv__ alone counts divisions,
# since __rtruediv__ goes through it.
COUNTERS = [
    ("coeff.scalar.add_calls", "diffcech.coeff", "Scalar.__add__"),
    ("coeff.scalar.add_calls", "diffcech.coeff", "Scalar.__radd__"),
    ("coeff.scalar.mul_calls", "diffcech.coeff", "Scalar.__mul__"),
    ("coeff.scalar.mul_calls", "diffcech.coeff", "Scalar.__rmul__"),
    ("coeff.scalar.div_calls", "diffcech.coeff", "Scalar.__truediv__"),
]


KEEP_SPANS = 200_000  # raw spans kept in memory; the totals count every span


class SpanStats:
    __slots__ = ("calls", "self_s", "hits", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.sizes = {}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.stats = {name: SpanStats() for name, *_ in SPANS}
        self.counters = {name: 0 for name, *_ in COUNTERS}
        self.spans = []
        self.record_spans = True
        self.span_total = 0
        self.top_level_s = 0.0
        self.query = None
        self._stack = []
        self._ids = itertools.count()
        self._patches = []

    # -- installation ------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr, sizer, probe in SPANS:
            self._patch(module, attr,
                        lambda fn, n=name, s=sizer, p=probe:
                        self._span_wrapper(n, fn, s, p))
        for name, module, attr in COUNTERS:
            self._patch(module, attr,
                        lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._patches.append((owner, meth, raw))
            setattr(owner, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "diffcech"
                                   or mod_name.startswith("diffcech.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, sizer, probe):
        stats = self.stats[name]
        stack = self._stack
        ids = self._ids
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            hit = probe(*args, **kwargs) if probe is not None else False
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                stats.calls += 1
                stats.self_s += dur - frame[1]
                tracer.span_total += 1
                if tracer.record_spans and len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.query))
            if hit:
                stats.hits += 1
            if sizer is not None:
                sizes = stats.sizes
                for key, val in sizer(args, result, hit).items():
                    if key.startswith("max_"):
                        sizes[key] = max(sizes.get(key, 0), val)
                    else:
                        sizes[key] = sizes.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper
