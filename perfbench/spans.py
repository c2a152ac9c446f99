"""Span and counter recorder that wraps slicereg's public names from outside.

``install()`` replaces each name in ``TARGETS`` by a wrapper that records a
span (name, start, end, parent) and exact call counts.  Everything stays in
memory until ``Recorder.write_spans`` and ``Recorder.summary`` run at the end
of the invocation.  A layer's self time is the time spent in its spans minus
the time covered by their child spans, so the self times of all layers add
up to the root span, ``cli.main``, by construction.

The recorder keeps one call stack, that of the thread that installed it.  A
wrapped name called from any other thread runs unrecorded and is counted in
``foreign_thread_calls``; the benchmark fails such an invocation, because
its spans would not show where the time went.

Only public names are wrapped (plus the special methods ``__init__`` and the
quaternion product).  A name that a later refactor removes is reported as
absent with a note; it never stops the run.

``layer_metrics`` turns one invocation's summary into the named per-layer
metrics of ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter

# (module, qualified name) of every wrapped callable, grouped by layer.
TARGETS = [
    ("cli", "main"),
    ("serialize", "dump_json"),
    ("serialize", "write_csv"),
    ("serialize", "load_domain_spec"),
    ("counterexample", "demonstrate"),
    ("counterexample", "intersection_grid"),
    ("counterexample", "pair_set_grid"),
    ("counterexample", "log_pair"),
    ("counterexample", "BranchedLogFamily.eval"),
    ("extension", "extend_to_completion"),
    ("extension", "extension_formula"),
    ("extension", "rep_coeffs"),
    ("holomorphic", "ContinuedLog.__init__"),
    ("holomorphic", "ContinuedLog.on_slice"),
    ("holomorphic", "ContinuedLog.eval_plane"),
    ("holomorphic", "PowerSeries.eval"),
    ("holomorphic", "segment_crossings"),
    ("holomorphic", "integrate_reciprocal"),
    ("domains", "rasterize"),
    ("domains", "omega_jk_plus"),
    ("domains", "PlanarRegionGrid.label"),
    ("domains", "PlanarRegionGrid.occupancy_digest"),
    ("domains", "is_slice_domain"),
    ("domains", "is_symmetric"),
    ("domains", "is_slice_convex"),
    ("domains", "is_simple"),
    ("quaternions", "Quaternion.__mul__"),
    ("quaternions", "Quaternion.__rmul__"),
]

MODULES = ("cli", "serialize", "counterexample", "extension", "holomorphic",
           "domains", "quaternions")
SPECIAL = {"__init__", "__mul__", "__rmul__"}
ROOT = "cli.main"
KEEP_PER_NAME = 500  # spans written per name; all of them are counted


def _is_public(qualname: str) -> bool:
    return all(not part.startswith("_") or part in SPECIAL
               for part in qualname.split("."))


if not all(_is_public(q) for _, q in TARGETS):
    raise ValueError("trace targets must be public names")


class Recorder:
    """In-memory spans and counts of one invocation."""

    def __init__(self):
        self.stack: list = []        # open frames: [name, child seconds, id]
        self.stats: dict = {}        # name -> [calls, total s, self s]
        self.module_of: dict = {}    # name -> layer
        self.edges: dict = {}        # (name, parent name) -> calls
        self.spans: list = []        # kept (id, name, start, end, parent id)
        self.kept: dict = {}         # name -> spans kept
        self.absent: dict = {}       # name -> note
        self.extra = {"table_build_s": 0.0, "table_first_calls": 0,
                      "cells_rasterized": 0, "bytes_out": 0}
        self._fresh: dict = {}       # id -> ContinuedLog not yet evaluated
        self._next_id = 0
        self.owner = threading.get_ident()
        self.foreign_thread_calls = 0

    def wrap(self, name: str, module: str, fn, after=None):
        stack, edges, spans, kept = self.stack, self.edges, self.spans, self.kept
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.module_of[name] = module
        kept[name] = 0
        rec = self
        owner, get_ident = self.owner, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != owner:
                rec.foreign_thread_calls += 1
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0, rec._next_id]
            rec._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[1]
                pname = None
                if parent is not None:
                    parent[1] += d
                    pname = parent[0]
                key = (name, pname)
                edges[key] = edges.get(key, 0) + 1
                if kept[name] < KEEP_PER_NAME:
                    kept[name] += 1
                    spans.append((frame[2], name, t0, t1,
                                  None if parent is None else parent[2]))
            if after is not None:
                after(args, result, d, pname)
            return result

        return wrapper

    # -- hooks that need arguments or results ------------------------------

    def _after_init(self, args, result, d, parent):
        # a fresh table belongs to every construction except on_slice views
        if parent != "holomorphic.ContinuedLog.on_slice" and args:
            self._fresh[id(args[0])] = args[0]

    def _after_eval_plane(self, args, result, d, parent):
        if args and self._fresh.pop(id(args[0]), None) is not None:
            self.extra["table_build_s"] += d
            self.extra["table_first_calls"] += 1

    def _after_rasterize(self, args, result, d, parent):
        occupied = getattr(result, "occupied", None)
        self.extra["cells_rasterized"] += int(getattr(occupied, "size", 0))

    def _after_write(self, args, result, d, parent):
        # dump_json(obj, path) and write_csv(path, header, rows)
        if len(args) > 1:
            path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
            try:
                self.extra["bytes_out"] += os.path.getsize(path)
            except (OSError, TypeError):
                pass

    def hooks(self) -> dict:
        return {"holomorphic.ContinuedLog.__init__": self._after_init,
                "holomorphic.ContinuedLog.eval_plane": self._after_eval_plane,
                "domains.rasterize": self._after_rasterize,
                "serialize.dump_json": self._after_write,
                "serialize.write_csv": self._after_write}

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        module_self = {m: 0.0 for m in MODULES}
        for name, (_, _, self_s) in self.stats.items():
            module_self[self.module_of[name]] += self_s
        return {
            "names": {n: {"module": self.module_of[n], "calls": s[0],
                          "total_s": s[1], "self_s": s[2]}
                      for n, s in self.stats.items()},
            "edges": [[n, p, c] for (n, p), c in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "module_self_s": module_self,
            "absent": dict(self.absent),
            "extra": dict(self.extra),
            "foreign_thread_calls": self.foreign_thread_calls,
            "spans_kept": len(self.spans),
            "spans_total": sum(s[0] for s in self.stats.values()),
        }

    def write_spans(self, path) -> None:
        """One JSON line per kept span, times in seconds from the root start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as out:
            for sid, name, t0, t1, parent in sorted(self.spans):
                out.write(json.dumps({"id": sid, "name": name,
                                      "start": t0 - origin, "end": t1 - origin,
                                      "parent": parent}) + "\n")


def _resolve(module, qualname):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def install(package: str = "slicereg") -> Recorder:
    """Wrap every target of the imported package; returns the recorder."""
    rec = Recorder()
    hooks = rec.hooks()
    replaced = {}
    for mod_name, qualname in TARGETS:
        name = f"{mod_name}.{qualname}"
        try:
            module = importlib.import_module(f"{package}.{mod_name}")
        except ImportError as exc:
            rec.absent[name] = f"module not importable: {exc}"
            continue
        owner, fn = _resolve(module, qualname)
        if fn is None or not callable(fn):
            rec.absent[name] = f"{qualname} not found in {package}.{mod_name}"
            continue
        wrapper = rec.wrap(name, mod_name, fn, hooks.get(name))
        setattr(owner, qualname.split(".")[-1], wrapper)
        if owner is module:
            replaced[id(fn)] = (fn, wrapper)
    # names imported with "from .x import f" hold the original function
    for mod in [m for k, m in sys.modules.items()
                if k == package or k.startswith(package + ".")]:
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return rec


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "holomorphic.eval_plane_calls": ("count", "lower"),
    "holomorphic.eval_plane_s": ("s", "lower"),
    "holomorphic.query_us": ("us", "lower"),
    "holomorphic.segment_crossings_calls": ("count", "lower"),
    "holomorphic.segment_crossings_s": ("s", "lower"),
    "holomorphic.crossings_per_query": ("ratio", "lower"),
    "holomorphic.quadrature_legs": ("count", "lower"),
    "holomorphic.quadrature_pieces": ("count", "lower"),
    "holomorphic.tables_built": ("count", "lower"),
    "holomorphic.table_build_s": ("s", "lower"),
    "quaternions.mul_calls": ("count", "lower"),
    "extension.rep_coeffs_calls": ("count", "lower"),
    "extension.rep_coeffs_s": ("s", "lower"),
    "counterexample.family_eval_calls": ("count", "lower"),
    "counterexample.family_eval_s": ("s", "lower"),
    "extension.spheres": ("count", "higher"),
    "extension.f_evals_per_sphere": ("ratio", "lower"),
    "extension.extend_to_completion_s": ("s", "lower"),
    "extension.extension_formula_calls": ("count", "lower"),
    "extension.extension_formula_s": ("s", "lower"),
    "domains.is_slice_convex_s": ("s", "lower"),
    "domains.rasterize_calls": ("count", "lower"),
    "domains.rasterize_s": ("s", "lower"),
    "domains.cells_rasterized": ("count", "lower"),
    "domains.label_calls": ("count", "lower"),
    "domains.label_s": ("s", "lower"),
    "domains.is_slice_domain_s": ("s", "lower"),
    "domains.is_symmetric_s": ("s", "lower"),
    "domains.is_simple_s": ("s", "lower"),
    "domains.omega_jk_plus_calls": ("count", "lower"),
    "domains.simple_digest_hit_ratio": ("ratio", "higher"),
    "counterexample.demonstrate_s": ("s", "lower"),
    "counterexample.intersection_grid_s": ("s", "lower"),
    "counterexample.pair_set_grid_s": ("s", "lower"),
    "serialize.dump_json_s": ("s", "lower"),
    "serialize.bytes_out": ("bytes", "lower"),
    "cli.main_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace_overhead_s": ("s", "lower"),
}

# metrics whose value is an exact count; they must repeat between runs
COUNT_METRICS = [n for n, (unit, _) in LAYER_METRICS.items() if unit == "count"]

EVAL_NAMES = ("counterexample.BranchedLogFamily.eval",
              "holomorphic.PowerSeries.eval")


def layer_metrics(summary: dict, spheres: int | None):
    """Named per-layer values of one traced invocation, except
    trace_overhead_s, which needs an untraced invocation.

    Each value is a number, or None when a wrapped name it needs is absent;
    notes[name] says why a value is None or why a ratio has no base.
    """
    names = summary["names"]
    absent = summary["absent"]
    extra = summary["extra"]
    edges = {(n, p): c for n, p, c in summary["edges"]}
    values: dict = {}
    notes: dict = {}

    def put(metric, wrapped, compute):
        missing = [w for w in wrapped if w not in names]
        if missing:
            values[metric] = None
            notes[metric] = "absent: " + "; ".join(
                absent.get(w, f"{w} not wrapped") for w in missing)
        else:
            values[metric] = compute()

    def calls(n):
        return names[n]["calls"]

    def total(n):
        return names[n]["total_s"]

    def ratio(metric, num, den):
        if den == 0:
            notes[metric] = "not exercised on this workload (base is 0)"
            return 0.0
        return num / den

    ep = "holomorphic.ContinuedLog.eval_plane"
    sc = "holomorphic.segment_crossings"
    ir = "holomorphic.integrate_reciprocal"
    init = "holomorphic.ContinuedLog.__init__"
    view = "holomorphic.ContinuedLog.on_slice"
    put("holomorphic.eval_plane_calls", [ep], lambda: calls(ep))
    put("holomorphic.eval_plane_s", [ep], lambda: total(ep))
    put("holomorphic.query_us", [ep], lambda: 1e6 * ratio(
        "holomorphic.query_us", total(ep) - extra["table_build_s"],
        calls(ep) - extra["table_first_calls"]))
    put("holomorphic.segment_crossings_calls", [sc], lambda: calls(sc))
    put("holomorphic.segment_crossings_s", [sc], lambda: total(sc))
    put("holomorphic.crossings_per_query", [sc, ep], lambda: ratio(
        "holomorphic.crossings_per_query", calls(sc), calls(ep)))
    put("holomorphic.quadrature_legs", [ir],
        lambda: calls(ir) - edges.get((ir, ir), 0))
    put("holomorphic.quadrature_pieces", [ir], lambda: edges.get((ir, ir), 0))
    put("holomorphic.tables_built", [init, view],
        lambda: calls(init) - edges.get((init, view), 0))
    put("holomorphic.table_build_s", [init, ep],
        lambda: extra["table_build_s"])
    mul = ("quaternions.Quaternion.__mul__", "quaternions.Quaternion.__rmul__")
    put("quaternions.mul_calls", mul, lambda: sum(calls(n) for n in mul))
    rc = "extension.rep_coeffs"
    put("extension.rep_coeffs_calls", [rc], lambda: calls(rc))
    put("extension.rep_coeffs_s", [rc], lambda: total(rc))
    fam = "counterexample.BranchedLogFamily.eval"
    put("counterexample.family_eval_calls", [fam], lambda: calls(fam))
    put("counterexample.family_eval_s", [fam], lambda: total(fam))
    etc = "extension.extend_to_completion"
    values["extension.spheres"] = spheres or 0
    if spheres is None:
        notes["extension.spheres"] = "no consistency report on this workload"
    put("extension.f_evals_per_sphere", [etc, *EVAL_NAMES], lambda: ratio(
        "extension.f_evals_per_sphere",
        sum(edges.get((n, etc), 0) for n in EVAL_NAMES), spheres or 0))
    put("extension.extend_to_completion_s", [etc], lambda: total(etc))
    ef = "extension.extension_formula"
    put("extension.extension_formula_calls", [ef], lambda: calls(ef))
    put("extension.extension_formula_s", [ef], lambda: total(ef))
    for short in ("is_slice_convex", "is_slice_domain", "is_symmetric",
                  "is_simple"):
        n = f"domains.{short}"
        put(f"{n}_s", [n], lambda n=n: total(n))
    ra = "domains.rasterize"
    put("domains.rasterize_calls", [ra], lambda: calls(ra))
    put("domains.rasterize_s", [ra], lambda: total(ra))
    put("domains.cells_rasterized", [ra], lambda: extra["cells_rasterized"])
    lb = "domains.PlanarRegionGrid.label"
    put("domains.label_calls", [lb], lambda: calls(lb))
    put("domains.label_s", [lb], lambda: total(lb))
    oj = "domains.omega_jk_plus"
    put("domains.omega_jk_plus_calls", [oj], lambda: calls(oj))
    dg = "domains.PlanarRegionGrid.occupancy_digest"
    simple = "domains.is_simple"
    put("domains.simple_digest_hit_ratio", [dg, lb, simple], lambda: ratio(
        "domains.simple_digest_hit_ratio",
        edges.get((dg, simple), 0) - edges.get((lb, simple), 0),
        edges.get((dg, simple), 0)))
    for short in ("demonstrate", "intersection_grid", "pair_set_grid"):
        n = f"counterexample.{short}"
        put(f"{n}_s", [n], lambda n=n: total(n))
    dj = "serialize.dump_json"
    put("serialize.dump_json_s", [dj], lambda: total(dj))
    put("serialize.bytes_out", [dj], lambda: extra["bytes_out"])
    put("cli.main_s", [ROOT], lambda: total(ROOT))
    for m in MODULES:
        values[f"{m}.self_s"] = summary["module_self_s"][m]
    return values, notes
