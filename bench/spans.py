"""Spans around the public functions of each library layer.

The tracer is installed from outside the library: it replaces each public
function of the layer modules with a wrapper, in every ``stellar`` module
that holds a reference to it (so ``moves.link`` and ``tightness.link``
are traced as ``core.link``), and restores the originals on uninstall.
A span is (name, start, end, parent); spans are kept in flat arrays in
memory and written out once, at the end of the run.  Counts that depend
on arguments or results (columns, subsets, search nodes) are taken in
the wrapper.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("core", "vectors", "homology", "exactlinalg", "tightness", "moves")

# Per-bit helpers run millions of times inside the other layers' loops; a
# span each would cost more than the work it measures.
UNTRACED = {"core.mask_of", "core.bits", "core.ids_of", "core.popcount",
            "core.submasks"}

# Complex methods that do a layer's work: construction and the face index
# (traced only when it is built).
COMPLEX_METHODS = ("__init__", "from_facets", "_index")

CONSTRUCT = {"core.Complex.__init__", "core.Complex.from_facets",
             "core.parse_facets"}
SEARCHES = {"moves.stellation_search", "moves.find_shelling"}
KERNEL_FIELD = {"rank_gf2": "gf2", "rank_modp": "zp", "rank_int": "q"}

PER_LAYER = (
    ("tightness.subsets", "count"), ("tightness.subsets_per_s", "1/s"),
    ("tightness.self_s", "s"),
    ("homology.runs", "count"), ("homology.runs_per_s", "1/s"),
    ("homology.self_s", "s"),
    ("exactlinalg.rank_calls", "count"), ("exactlinalg.cols", "count"),
    ("exactlinalg.rank_s.q", "s"), ("exactlinalg.rank_s.zp", "s"),
    ("exactlinalg.rank_s.gf2", "s"),
    ("core.construct.calls", "count"), ("core.construct.self_s", "s"),
    ("core.link.calls", "count"), ("core.link.self_s", "s"),
    ("core.boundary.self_s", "s"), ("core.faces.self_s", "s"),
    ("vectors.self_s", "s"),
    ("moves.enumerate.calls", "count"), ("moves.enumerate.self_s", "s"),
    ("moves.apply.calls", "count"), ("moves.apply.self_s", "s"),
    ("moves.search.nodes", "count"), ("moves.search.nodes_per_s", "1/s"),
    ("moves.search.useful_ratio", "ratio"),
    ("trace_overhead", "ratio"),
)


def _field_tag(field) -> str:
    if field.kind == "rationals":
        return "q"
    return "gf2" if field.p == 2 else "zp"


def _builds_only(raw, traced):
    """Trace the face index only when it is built: every ``has_face``
    looks the index up, and a span per lookup would cost more than it."""
    def index(cx):
        if getattr(cx, "_faces_by_dim", None) is not None:
            return raw(cx)
        return traced(cx)
    return index


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._kernel_ids: set[int] = set()  # span names in exactlinalg
        self._patches: list[tuple[object, str, object]] = []
        self.cols = 0
        self.subsets = 0
        self.search_nodes = 0
        self.search_steps = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a ``stellar`` module refers
        to it."""
        from stellar import core

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"stellar.{layer}"]
            for attr, fn in vars(mod).items():
                label = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or label in UNTRACED
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = self._wrap(fn, layer, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "stellar" or name.startswith("stellar.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for attr in COMPLEX_METHODS:
            raw = core.Complex.__dict__.get(attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, "core", f"Complex.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, "core", f"Complex.{attr}")
            else:
                continue
            if attr == "_index":
                wrapped = _builds_only(raw, wrapped)
            self._patch(core.Complex, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _wrap(self, fn, layer: str, attr: str):
        label = f"{layer}.{attr}"
        nid = self._id(label)
        kernel = layer == "exactlinalg"
        kernel_ids = self._kernel_ids
        tag_ids: dict[str, int] = {}
        static_tag = KERNEL_FIELD.get(attr)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        after = None
        if label == "tightness.sigma_vector":
            after = self._count_subsets
        elif label in SEARCHES:
            after = self._count_search

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = nid
            if kernel:
                if not stack or names[stack[-1]] not in kernel_ids:
                    self.cols += len(args[0])
                tag = static_tag or _field_tag(args[1])
                span_id = tag_ids.get(tag)
                if span_id is None:
                    span_id = tag_ids[tag] = self._id(f"{label}:{tag}")
                    kernel_ids.add(span_id)
            i = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_subsets(self, args, result) -> None:
        if args[0].dim >= 0:
            self.subsets += 1 << args[0].m

    def _count_search(self, args, result) -> None:
        self.search_nodes += result.nodes
        if result.certificate is not None:
            self.search_steps += result.certificate.length

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics per traced pass.  Self time is a span's
        duration minus the time its child spans cover."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        labels = self.names
        layer = [lbl.split(".", 1)[0] for lbl in labels]
        base = [lbl.split(":", 1)[0] for lbl in labels]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        entry_ns: dict[str, int] = {}    # time inside the layer, entered from outside
        entries: dict[str, int] = {}
        for i in range(n):
            nid = self.name[i]
            lbl = labels[nid]
            self_ns[lbl] = self_ns.get(lbl, 0) + dur[i] - child[i]
            calls[lbl] = calls.get(lbl, 0) + 1
            p = self.parent[i]
            if p < 0 or layer[self.name[p]] != layer[nid]:
                entry_ns[layer[nid]] = entry_ns.get(layer[nid], 0) + dur[i]
                entries[layer[nid]] = entries.get(layer[nid], 0) + 1
            if base[nid] in SEARCHES:
                entry_ns["search"] = entry_ns.get("search", 0) + dur[i]
            if base[nid] == "tightness.sigma_vector":
                entry_ns["sigma"] = entry_ns.get("sigma", 0) + dur[i]

        def self_s(pred) -> float:
            return sum(v for k, v in self_ns.items() if pred(k)) / 1e9

        def own_s(label: str) -> float:
            return self_ns.get(label, 0) / 1e9

        def rate(num, key) -> float:
            t = entry_ns.get(key, 0) / 1e9
            return num / t if t else 0.0

        runs = entries.get("homology", 0)
        nodes = self.search_nodes
        out = {
            "tightness.subsets": self.subsets,
            "tightness.subsets_per_s": rate(self.subsets, "sigma"),
            "tightness.self_s": self_s(lambda k: k.startswith("tightness.")),
            "homology.runs": runs,
            "homology.runs_per_s": rate(runs, "homology"),
            "homology.self_s": self_s(lambda k: k.startswith("homology.")),
            "exactlinalg.rank_calls": entries.get("exactlinalg", 0),
            "exactlinalg.cols": self.cols,
            "core.construct.calls": calls.get("core.Complex.__init__", 0),
            "core.construct.self_s": self_s(lambda k: k in CONSTRUCT),
            "core.link.calls": calls.get("core.link", 0),
            "core.link.self_s": own_s("core.link"),
            "core.boundary.self_s": own_s("core.boundary"),
            "core.faces.self_s": own_s("core.Complex._index"),
            "vectors.self_s": self_s(lambda k: k.startswith("vectors.")),
            "moves.enumerate.calls": calls.get("moves.enumerate_bistellar", 0),
            "moves.enumerate.self_s": own_s("moves.enumerate_bistellar"),
            "moves.apply.calls": calls.get("moves.apply_bistellar", 0),
            "moves.apply.self_s": own_s("moves.apply_bistellar"),
            "moves.search.nodes": nodes,
            "moves.search.nodes_per_s": rate(nodes, "search"),
            "moves.search.useful_ratio": self.search_steps / nodes if nodes else 0.0,
        }
        for tag in ("q", "zp", "gf2"):
            out[f"exactlinalg.rank_s.{tag}"] = self_s(
                lambda k, t=tag: k.startswith("exactlinalg.") and k.endswith(f":{t}"))
        # counts and times per pass; the rates are already ratios
        per_pass = {k: (v if k.endswith(("_per_s", "_ratio")) else v / passes)
                    for k, v in out.items()}
        per_pass["trace_overhead"] = overhead
        return per_pass

    def write(self, stem, metrics: dict) -> None:
        """Write the spans as raw arrays (``stem``.spans) described by a
        JSON header (``stem``.json) that also holds the metrics."""
        arrays = (("name", self.name), ("start_ns", self.start),
                  ("end_ns", self.end), ("parent", self.parent))
        with open(f"{stem}.spans", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "layout": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                       for f, a in arrays],
            "byteorder": sys.byteorder,
            "metrics": metrics,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
