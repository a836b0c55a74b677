"""Per-layer tracing for the benchmark, applied from outside the package.

The recorder replaces each public function of the qlrc modules by a
wrapper at every place a qlrc module holds it: the defining module, each
`from .x import f` site, and the BOUND_REGISTRY dict.  FieldSpec's vector
methods get spans too, and its scalar methods a call counter only.  The
source tree is not modified and `uninstall` puts every original back.

Spans are kept in memory as a call tree: one node per (parent node, name)
with its call count, total time and self time, where self time is span
time minus the time of its child spans.  A vector op called inside another
vector op (vsub -> vadd, vneg) is part of the outer op and gets no span of
its own.  Work counters labelled "computed" are derived from the call's
arguments, not measured: words = q^k per brute-force oracle call, bound
terms per row, RREF input cells per from_spanning_set call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("gf", "linear_codes", "grid_codes", "css", "bounds", "lrc", "verifier", "cli")
VECTOR_OPS = ("vadd", "vsub", "vneg", "vmul", "vscale")
SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "pow")
BOUND_IDS = ("singleton", "gg", "luo", "qsingleton", "griesmer", "plotkin", "sphere_packing")

# Per-layer metrics reported by a traced run, as (name, unit).
PER_LAYER = (
    *((f"bounds.{bid}.{kind}", unit) for bid in BOUND_IDS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("bounds.plotkin_profile.self_s", "s"),
    ("bounds.griesmer.terms", "count"),
    ("bounds.sphere_packing.terms", "count"),
    ("verifier.run_sweep.self_s", "s"),
    ("verifier.rows", "count"),
    ("verifier.oracle_rows", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("linear_codes.from_spanning_set.calls", "count"),
    ("linear_codes.from_spanning_set.self_s", "s"),
    ("linear_codes.from_spanning_set.cells", "count"),
    ("linear_codes.euclidean_dual.self_s", "s"),
    ("linear_codes.contains.self_s", "s"),
    ("grid_codes.build_code.self_s", "s"),
    ("grid_codes.build_code.points", "count"),
    ("grid_codes.evaluate.calls", "count"),
    ("grid_codes.evaluate.self_s", "s"),
    ("grid_codes.twist_vector.self_s", "s"),
    ("css.css_from_grid.self_s", "s"),
    ("linear_codes.min_distance_bruteforce.calls", "count"),
    ("linear_codes.min_distance_bruteforce.self_s", "s"),
    ("linear_codes.min_distance_bruteforce.words", "count"),
    ("linear_codes.coset_min_weight_bruteforce.calls", "count"),
    ("linear_codes.coset_min_weight_bruteforce.self_s", "s"),
    ("linear_codes.coset_min_weight_bruteforce.words", "count"),
    ("linear_codes.enum_words_per_s.prime", "1/s"),
    ("linear_codes.enum_words_per_s.ext", "1/s"),
    ("lrc.certify_locality.self_s", "s"),
    ("lrc.heavy_row_check.self_s", "s"),
    ("gf.make_field.calls", "count"),
    ("gf.make_field.self_s", "s"),
    ("gf.vector_ops.calls", "count"),
    ("gf.vector_ops.elements", "count"),
    ("gf.vector_ops.self_s", "s"),
    ("gf.scalar_ops.calls", "count"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)


class Node:
    """One call-tree position: a span name under a given parent."""

    __slots__ = ("name", "layer", "vector", "children", "calls", "total", "self")

    def __init__(self, name: str, layer: str | None, vector: bool = False):
        self.name = name
        self.layer = layer
        self.vector = vector
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self = 0.0

    def child(self, name: str, layer: str, vector: bool = False) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, layer, vector)
        return node

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()

    def to_json(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self,
                "children": [c.to_json() for c in self.children.values()]}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- computed counters, one hook per wrapped name ----------------------------

def _bruteforce_hook(short):
    def hook(counts, args, kwargs, result, dur):
        code = _arg(args, kwargs, 0, "code")
        words = code.field.q ** code.k
        kind = "prime" if code.field.m == 1 else "ext"
        counts[f"linear_codes.{short}.words"] += words
        counts[f"enum.{kind}.words"] += words
        counts[f"enum.{kind}.s"] += dur
    return hook


def _cells_hook(counts, args, kwargs, result, dur):
    counts["linear_codes.from_spanning_set.cells"] += len(_arg(args, kwargs, 1, "vectors")) * result.n


def _points_hook(counts, args, kwargs, result, dur):
    counts["grid_codes.build_code.points"] += _arg(args, kwargs, 0, "grid").n


def _griesmer_terms(counts, args, kwargs, result, dur):
    inp = _arg(args, kwargs, 0, "inp")
    ell_max = -(-(inp.n + inp.k) // (2 * inp.r)) - 1
    for ell in range(ell_max + 1):
        limit = inp.n + inp.k - 2 * inp.r * ell - 2
        if limit >= 0:
            counts["bounds.griesmer.terms"] += limit // 2 + 1


def _sphere_terms(counts, args, kwargs, result, dur):
    inp = _arg(args, kwargs, 0, "inp")
    ell_top = (inp.n - 1) // (inp.r + 1)
    counts["bounds.sphere_packing.terms"] += (ell_top + 1) * ((inp.d - 1) // 2 + 1)


def _elements_hook(counts, args, kwargs, result, dur):
    counts["gf.vector_ops.elements"] += result.size


def _sweep_hook(counts, args, kwargs, result, dur):
    counts["verifier.rows"] += len(result.rows)
    counts["verifier.oracle_rows"] += sum(row.oracle is not None for row in result.rows)


HOOKS = {
    "linear_codes.min_distance_bruteforce": _bruteforce_hook("min_distance_bruteforce"),
    "linear_codes.coset_min_weight_bruteforce": _bruteforce_hook("coset_min_weight_bruteforce"),
    "linear_codes.from_spanning_set": _cells_hook,
    "grid_codes.build_code": _points_hook,
    "bounds.griesmer": _griesmer_terms,
    "bounds.sphere_packing": _sphere_terms,
    "verifier.run_sweep": _sweep_hook,
}


class Recorder:
    """Installs the wrappers, holds the call tree and turns it into metrics."""

    def __init__(self):
        self.root = Node("run", None)
        self.stack = [[self.root, 0.0]]  # frames: [node, time spent in child spans]
        self.counts: Counter = Counter()
        self._scalar_calls = [0]
        self._undo: list = []

    # -- wrappers --

    def _span(self, name: str, layer: str, fn, hook=None, vector: bool = False):
        stack, counts, perf = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = stack[-1]
            if vector and frame[0].vector:
                return fn(*args, **kwargs)
            node = frame[0].child(name, layer, vector)
            mine = [node, 0.0]
            stack.append(mine)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                node.calls += 1
                node.total += dur
                node.self += dur - mine[1]
                frame[1] += dur
            if hook is not None:
                hook(counts, args, kwargs, result, dur)
            return result
        return wrapper

    def _counted(self, fn):
        cell = self._scalar_calls

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # -- installing --

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer at all qlrc import sites."""
        mods = {layer: sys.modules[f"qlrc.{layer}"] for layer in LAYERS}
        registry = mods["bounds"].BOUND_REGISTRY
        bound_names = {id(fn): bid for bid, fn in registry.items()}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{bound_names.get(id(obj), attr)}"
                wrappers[id(obj)] = (obj, self._span(name, layer, obj, HOOKS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "qlrc" and not modname.startswith("qlrc."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for bid, fn in list(registry.items()):
            self._undo.append((registry, bid, fn))
            registry[bid] = wrappers[id(fn)][1]
        spec = mods["gf"].FieldSpec
        for attr in VECTOR_OPS:
            self._set(spec, attr, self._span(f"gf.FieldSpec.{attr}", "gf", vars(spec)[attr],
                                             _elements_hook, vector=True))
        for attr in SCALAR_OPS:
            self._set(spec, attr, self._counted(vars(spec)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    # -- results --

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over the call tree."""
        out: dict[str, list] = {}
        for node in self.root.walk():
            if node is self.root:
                continue
            acc = out.setdefault(node.name, [0, 0.0, 0.0])
            acc[0] += node.calls
            acc[1] += node.total
            acc[2] += node.self
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the recorder itself can give."""
        totals = self.totals()
        counts = self.counts
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            head, _, kind = name.rpartition(".")
            if head in totals and kind in ("calls", "self_s"):
                out[name] = totals[head][0 if kind == "calls" else 2]
            else:
                out[name] = counts.get(name, 0)
        vector = [t for name, t in totals.items() if name.startswith("gf.FieldSpec.")]
        out["gf.vector_ops.calls"] = sum(t[0] for t in vector)
        out["gf.vector_ops.self_s"] = sum(t[2] for t in vector)
        out["gf.scalar_ops.calls"] = self._scalar_calls[0]
        for kind in ("prime", "ext"):
            secs = counts[f"enum.{kind}.s"]
            out[f"linear_codes.enum_words_per_s.{kind}"] = (
                counts[f"enum.{kind}.words"] / secs if secs else 0)
        nodes = [n for n in self.root.walk() if n is not self.root]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(n.self for n in nodes if n.layer == layer)
        out["trace.self_sum_s"] = sum(n.self for n in nodes)
        return out
