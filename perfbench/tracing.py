"""Span tracing of flagcurv from outside the package.

The tracer replaces public functions and methods of every flagcurv module
with timing wrappers.  A name is patched in every module that binds it, so
`minkowski.invariant_blocks` and `homspace.invariant_blocks` are both seen.
Each call becomes a span (name, parent span, round, start, end); counters are
kept at the same boundaries.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, class name or None, counting hook name)
TARGETS = (
    ("liealg.build", "flagcurv.liealg", "build_lie_algebra", None, None),
    ("liealg.root_datum", "flagcurv.liealg", "root_datum", "LieAlgebra", None),
    ("homspace.build_space", "flagcurv.homspace", "build_space", None, None),
    ("homspace.invariant_blocks", "flagcurv.homspace", "invariant_blocks", None, None),
    ("homspace.sample_isotropy", "flagcurv.homspace", "sample_isotropy", "HomogeneousSpace", None),
    ("minkowski.make_norm", "flagcurv.minkowski", "make_norm", None, None),
    ("minkowski.convexity_scan", "flagcurv.minkowski", "_convexity_scan", None, None),
    ("minkowski.gram_batch", "flagcurv.minkowski", "gram_batch_closed", "MinkowskiNorm", "points"),
    ("minkowski.gram", "flagcurv.minkowski", "gram", "MinkowskiNorm", None),
    ("minkowski.value", "flagcurv.minkowski", "value", "MinkowskiNorm", None),
    ("minkowski.value_many", "flagcurv.minkowski", "value_many", "MinkowskiNorm", "points"),
    ("minkowski.check_norm_properties", "flagcurv.minkowski", "check_norm_properties", None, None),
    ("numdiff.hessian", "flagcurv.numdiff", "hessian", None, "stencil"),
    ("curvature.flag_curvature", "flagcurv.curvature", "flag_curvature", None, "verdict"),
    ("flatfinder.construct", "flagcurv.flatfinder", "construct_example_flat", None, None),
    ("flatfinder.extremal", "flagcurv.flatfinder", "extremal_unit_vector", None, None),
    ("flatfinder.align", "flagcurv.flatfinder", "_align_into_plane", None, None),
    ("flatfinder.closure", "flagcurv.flatfinder", "verify_closure_claims", None, None),
    ("flatfinder.search", "flagcurv.flatfinder", "generic_flat_search", None, "certified"),
    ("flatfinder.descend", "flagcurv.flatfinder", "_descend_pole", None, None),
    ("flatfinder.commutant", "flagcurv.flatfinder", "_commutant_in_m", None, None),
    ("cli.main", "flagcurv.cli", "main", None, None),
    ("cli.validate", "flagcurv.cli", "validate_spec", None, None),
    ("cli.space_summary", "flagcurv.cli", "_space_summary", None, None),
    ("cli.render", "flagcurv.cli", "canonical_json", None, "bytes"),
)

# per-layer metric -> (kind, key): a span name for "time" and "self", a
# counter for "count", a (numerator, denominator) pair of counters for "ratio"
PER_LAYER = {
    "liealg.build_s": ("time", "liealg.build"),
    "liealg.root_datum_s": ("time", "liealg.root_datum"),
    "homspace.build_space_s": ("time", "homspace.build_space"),
    "homspace.invariant_blocks_s": ("time", "homspace.invariant_blocks"),
    "homspace.invariant_blocks_calls": ("count", "homspace.invariant_blocks.calls"),
    "homspace.sample_isotropy_s": ("time", "homspace.sample_isotropy"),
    "minkowski.make_norm_s": ("time", "minkowski.make_norm"),
    "minkowski.make_norm_calls": ("count", "minkowski.make_norm.calls"),
    "minkowski.gram_batch_s": ("time", "minkowski.gram_batch"),
    "minkowski.gram_batch_points": ("count", "minkowski.gram_batch.points"),
    "minkowski.scans_per_norm": ("ratio", ("minkowski.convexity_scan.calls", "minkowski.make_norm.calls")),
    "minkowski.gram_fd_calls": ("count", "minkowski.gram.fd"),
    "minkowski.gram_closed_calls": ("count", "minkowski.gram.closed"),
    "minkowski.gram_s": ("time", "minkowski.gram"),
    "minkowski.value_calls": ("count", "minkowski.value.calls"),
    "minkowski.value_many_points": ("count", "minkowski.value_many.points"),
    "minkowski.check_norm_properties_s": ("time", "minkowski.check_norm_properties"),
    "numdiff.hessian_calls": ("count", "numdiff.hessian.calls"),
    "numdiff.hessian_points": ("count", "numdiff.hessian.stencil"),
    "numdiff.hessian_s": ("time", "numdiff.hessian"),
    "curvature.flag_curvature_calls": ("count", "curvature.flag_curvature.calls"),
    "curvature.flag_curvature_s": ("time", "curvature.flag_curvature"),
    "curvature.flag_curvature_self_s": ("self", "curvature.flag_curvature"),
    "curvature.zero_flags": ("count", "curvature.flag_curvature.zero_flag"),
    "flatfinder.construct_s": ("time", "flatfinder.construct"),
    "flatfinder.extremal_s": ("time", "flatfinder.extremal"),
    "flatfinder.extremal_calls": ("count", "flatfinder.extremal.calls"),
    "flatfinder.align_s": ("time", "flatfinder.align"),
    "flatfinder.closure_s": ("time", "flatfinder.closure"),
    "flatfinder.search_s": ("time", "flatfinder.search"),
    "flatfinder.search_starts": ("count", "flatfinder.search.starts"),
    "flatfinder.descend_s": ("time", "flatfinder.descend"),
    "flatfinder.commutant_calls": ("count", "flatfinder.commutant.calls"),
    "flatfinder.certified_per_start": (
        "ratio",
        ("flatfinder.search.certified", "flatfinder.search.starts"),
    ),
    "cli.main_s": ("time", "cli.main"),
    "cli.validate_s": ("time", "cli.validate"),
    "cli.space_summary_s": ("time", "cli.space_summary"),
    "cli.render_s": ("time", "cli.render"),
    "cli.report_bytes": ("count", "cli.render.bytes"),
}


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if PER_LAYER.get(metric, ("",))[0] == "ratio":
        return "ratio"
    return "count"


class Tracer:
    """Patches flagcurv, records spans and counters; uninstall() restores it."""

    def __init__(self):
        self.spans = []  # index is the span id: (name, parent id, round, t0, t1)
        self.stack = []
        self.round = "setup"
        self.counts = defaultdict(int)  # (round, counter) -> value
        self._patched = []

    # -- recording -------------------------------------------------------------

    def count(self, key, n=1):
        self.counts[(self.round, key)] += n

    def _hook(self, name, kind, args, result):
        if kind == "points":
            self.count(name + ".points", len(args[1]) if getattr(args[1], "ndim", 1) > 1 else 1)
        elif kind == "verdict" and result.verdict == "zero_flag":
            self.count(name + ".zero_flag")
        elif kind == "certified":
            self.count(name + ".certified", sum(c.verdict == "zero_flag" for c in result))
        elif kind == "bytes":
            self.count(name + ".bytes", len(result.encode("utf-8")))

    def _wrap(self, name, fn, kind):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if kind == "stencil":
                # count the sample points the Hessian stencil evaluates
                f_batch = args[0]

                def counted(V):
                    self.count(name + ".stencil", len(V))
                    return f_batch(V)

                args = (counted,) + args[1:]
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.round, t0, t1)
            if kind is not None:
                self._hook(name, kind, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self):
        import flagcurv  # noqa: F401  (imports every submodule)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "flagcurv" or k.startswith("flagcurv.")]
        for name, modname, attr, clsname, kind in TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, original, kind)
                # aliases such as MinkowskiNorm.__call__ = value share the object
                for key, val in list(vars(cls).items()):
                    if val is original:
                        setattr(cls, key, wrapped)
                        self._patched.append((cls, key, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, kind)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))
        return self

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched = []

    # -- reduction -------------------------------------------------------------

    def round_tables(self, rounds):
        """Per round: inclusive time and self time per span name, and the
        counters, with each span name's call count as "<name>.calls"."""
        children_time = defaultdict(float)
        child_names = defaultdict(set)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                children_time[parent] += t1 - t0
                child_names[parent].add(name)
        tables = {r: {"time": defaultdict(float), "self": defaultdict(float), "count": defaultdict(int)}
                  for r in rounds}
        for sid, (name, parent, rnd, t0, t1) in enumerate(self.spans):
            if rnd not in tables:
                continue
            tab = tables[rnd]
            tab["count"][name + ".calls"] += 1
            tab["self"][name] += (t1 - t0) - children_time[sid]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                tab["time"][name] += t1 - t0
            if name == "minkowski.gram":
                kind = "fd" if "numdiff.hessian" in child_names[sid] else "closed"
                tab["count"]["minkowski.gram." + kind] += 1
            if name == "flatfinder.commutant" and parent >= 0 and self.spans[parent][0] == "flatfinder.search":
                tab["count"]["flatfinder.search.starts"] += 1
        for (rnd, key), val in self.counts.items():
            if rnd in tables:
                tables[rnd]["count"][key] += val
        return tables

    def layer_metrics(self, rounds):
        """Per-layer metrics over the timed rounds.

        Times are the median over rounds of a round's total; counts and
        ratios are those of the first timed round, so that two traced runs
        at one seed give identical counts.
        """
        tables = self.round_tables(rounds)
        first = tables[rounds[0]]["count"]
        out = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind in ("time", "self"):
                out[metric] = statistics.median(tables[r][kind][key] for r in rounds)
            elif kind == "count":
                out[metric] = first[key]
            else:
                num, den = first[key[0]], first[key[1]]
                out[metric] = num / den if den else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, rnd, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, parent, rnd, t0, t1]) + "\n")
