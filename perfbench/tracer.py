"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions listed in ``WRAPPED`` and
rebinds each wrapper in every ``ckforms.*`` module that holds the original
under some name (``criteria`` and ``rootweyl`` import ``rank`` directly, for
instance).  Methods and properties are wrapped on their class.  Every call
records a span ``(parent, name, start, end)`` in memory; self time is the
span's duration minus the part of it that child spans cover, computed after
the run by ``self_times``.  Counters are derived from arguments and return
values only, so the program runs unchanged.

The tracer assumes one thread: the workloads run serially.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> wrapped functions (``Class.attr`` for methods and properties)
WRAPPED = {
    "cli": ("main", "parse_triple"),
    "enumerate": ("emit_table",),
    "criteria": ("classify_triple", "check_sum", "check_compact_intersection"),
    "rootweyl": ("split_data", "weyl_disjoint"),
    "embeddings": (
        "catalog_lookup", "product_algebra", "diagonal", "product_embedding",
        "factor_embedding", "Embedding.coord_rows", "adapted_split_part",
        "a_map",
    ),
    "realforms": ("build_real_form", "spin_frame"),
    "liealg": (
        "LieAlgebra.tensor", "LieAlgebra.killing_form", "LieAlgebra.theta",
        "direct_sum", "span_closure", "is_compactly_embedded",
    ),
    "exactlin": (
        "rank", "rank_at_least_modp", "kernel", "rref", "intersect",
        "signature", "CoordinateSolver.__init__", "CoordinateSolver.coords",
    ),
    "cartanproj": ("gap_experiment", "gap_union"),
}

# layer entry points that also report inclusive time
TOTAL_OF = (
    "cli.main", "enumerate.emit_table", "criteria.classify_triple",
    "rootweyl.weyl_disjoint", "embeddings.adapted_split_part",
    "cartanproj.gap_experiment",
)

# functions whose hit ratio is reported: a call is a hit when the same
# arguments were already seen in the run
HIT_RATIO_OF = (
    "realforms.build_real_form", "embeddings.catalog_lookup",
    "embeddings.product_algebra", "realforms.spin_frame",
)

ENTRIES_OF = ("exactlin.rank", "exactlin.kernel", "exactlin.rref",
              "exactlin.signature")

# wrapped no-op calls timed by ``Tracer.overhead_s``
OVERHEAD_CALLS = 20000


def qualnames():
    return [f"{layer}.{f}" for layer, fs in WRAPPED.items() for f in fs]


def _entries(m) -> int:
    """rows x cols of a matrix given as an array or a list of rows."""
    shape = getattr(m, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    rows = len(m)
    return rows * (len(m[0]) if rows else 0)


class Tracer:
    def __init__(self):
        self.names = qualnames()
        self.spans = []  # (parent span id or -1, name index, start, end)
        self._stack = []
        self._seen = defaultdict(set)
        self.counts = defaultdict(int)
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        import ckforms.cli  # noqa: F401  (loads every layer)

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "ckforms" or n.startswith("ckforms.")]
        for layer, funcs in WRAPPED.items():
            module = sys.modules[f"ckforms.{layer}"]
            for f in funcs:
                qn = f"{layer}.{f}"
                if "." in f:
                    cls_name, attr = f.split(".")
                    self._wrap_member(getattr(module, cls_name), attr, qn)
                else:
                    self._wrap_function(module, f, qn, mods)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_function(self, module, fname, qn, mods):
        original = getattr(module, fname)
        wrapper = self._wrap(original, qn)
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, name, original))
                    setattr(m, name, wrapper)

    def _wrap_member(self, cls, attr, qn):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            new = property(self._wrap(original.fget, qn), original.fset,
                           original.fdel, original.__doc__)
        else:
            new = self._wrap(original, qn)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, new)

    def _wrap(self, fn, qn):
        idx = self.names.index(qn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observer(qn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, idx, t0, t1)
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return wrapper

    # -- counters -----------------------------------------------------------

    def _observer(self, qn):
        counts = self.counts
        if qn in HIT_RATIO_OF:
            seen = self._seen[qn]

            def hits(args, kwargs, result, exc):
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    counts[qn + ".hits"] += 1
                else:
                    seen.add(key)
            return hits
        if qn in ENTRIES_OF:
            def entries(args, kwargs, result, exc):
                m = args[0] if args else next(iter(kwargs.values()))
                counts[qn + ".entries"] += _entries(m)
            return entries
        if qn == "criteria.check_sum":
            def modp(args, kwargs, result, exc):
                if exc is None and result.method.startswith("full-rank"):
                    counts[qn + ".modp"] += 1
            return modp
        if qn == "exactlin.rank_at_least_modp":
            def success(args, kwargs, result, exc):
                if exc is None and result:
                    counts[qn + ".success"] += 1
            return success
        if qn == "rootweyl.weyl_disjoint":
            from ckforms.rootweyl import WeylCutoffError, weyl_order

            def scans(args, kwargs, result, exc):
                if isinstance(exc, WeylCutoffError):
                    counts[qn + ".cutoff_refusals"] += 1
                    return
                if exc is not None:
                    return
                sd, vh, vl = args[:3]
                # the early returns decide without scanning the group
                if vh.dim and vl.dim and vh.dim + vl.dim <= sd.rank:
                    counts[qn + ".elements"] += weyl_order(sd)
            return scans
        if qn == "cartanproj.gap_experiment":
            def checked(args, kwargs, result, exc):
                if exc is None:
                    counts[qn + ".checked"] += result.checked
            return checked
        return None

    # -- results ------------------------------------------------------------

    def metrics(self, to_ref) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``, with span times
        mapped by ``to_ref`` (a ``speed.Timeline``) to reference seconds."""
        spans = [(parent, idx, to_ref(start), to_ref(end))
                 for parent, idx, start, end in self.spans]
        selfs = self_times(spans)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for (_, idx, _, _), st in zip(spans, selfs):
            calls[idx] += 1
            self_s[idx] += st
        totals = outer_totals(spans, [self.names.index(n) for n in TOTAL_OF])
        out = {}
        for idx, qn in enumerate(self.names):
            out[f"{qn}.calls"] = (calls[idx], "count")
            out[f"{qn}.self_s"] = (self_s[idx], "s")
            if qn in TOTAL_OF:
                out[f"{qn}.total_s"] = (totals[idx], "s")

        def ratio(num, qn):
            n = calls[self.names.index(qn)]
            return num / n if n else 0.0

        c = self.counts
        for qn in HIT_RATIO_OF:
            out[f"{qn}.hit_ratio"] = (ratio(c[qn + ".hits"], qn), "ratio")
        out["criteria.check_sum.modp_ratio"] = (
            ratio(c["criteria.check_sum.modp"], "criteria.check_sum"), "ratio")
        out["exactlin.rank_at_least_modp.success_ratio"] = (
            ratio(c["exactlin.rank_at_least_modp.success"],
                  "exactlin.rank_at_least_modp"), "ratio")
        for qn in ENTRIES_OF:
            out[f"{qn}.entries"] = (c[qn + ".entries"], "count")
        for key in ("rootweyl.weyl_disjoint.elements",
                    "rootweyl.weyl_disjoint.cutoff_refusals",
                    "cartanproj.gap_experiment.checked"):
            out[key] = (c[key], "count")
        return out

    def overhead_s(self) -> float:
        """Estimated seconds the wrappers added to the traced pass: the
        recorded spans times the cost of one wrapped call, timed on a
        wrapped no-op in a scratch tracer."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "cli.main")
        t0 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            wrapped()
        t2 = time.perf_counter()
        return (len(self.spans) * max(0.0, (t2 - t1) - (t1 - t0))
                / OVERHEAD_CALLS)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its child
    spans' intervals, clipped to its own.  ``spans`` holds
    ``(parent, name, start, end)`` tuples indexed by span id."""
    kids = defaultdict(list)
    for sid, (parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for sid, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cur = start
        for cs, ce in sorted(kids.get(sid, ())):
            lo, hi = max(cs, cur), min(ce, end)
            if hi > lo:
                covered += hi - lo
                cur = hi
        out.append((end - start) - covered)
    return out


def outer_totals(spans, name_indices) -> dict:
    """Inclusive time per name, counting only spans with no ancestor of the
    same name, so that recursion is not counted twice."""
    totals = {i: 0.0 for i in name_indices}
    for parent, idx, start, end in spans:
        if idx not in totals:
            continue
        while parent >= 0 and spans[parent][1] != idx:
            parent = spans[parent][0]
        if parent < 0:
            totals[idx] += end - start
    return totals
