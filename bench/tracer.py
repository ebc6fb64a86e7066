"""Per-layer tracing by wrapping the program's public functions from outside.

A Tracer patches each layer module's public functions (and the
constructors and methods listed below) with wrappers that record a span:
name, start, end, parent span and request id.  A name bound by
`from ... import` is patched in every troplin module that holds it, so
`presentations.solve_lp` and `gammoid.stiefel` are traced as well.
troplin.oracle is never patched: only the checker uses it.  restore()
puts every original back.

Left unwrapped on purpose: Matroid.rank, Matroid.closure and the other
small Matroid queries, the cyclic-flat Moebius helpers, trop.xsum,
trop.check_point and the util helpers.  One fiber request calls them up
to 10^5 times, so wrapping them would measure the wrapper; their cost
shows in their callers' self time.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "jsonio", "trop", "valuated", "matroid", "transversal",
          "presentations", "gammoid", "linprog")

SKIP = {"trop": {"xsum", "check_point", "matrix_shape"},
        "cli": {"main"}}

# constructors traced as <layer>.<Class>, and methods as <layer>.<method>
CLASSES = {"matroid": ("Matroid",), "valuated": ("ValuatedMatroid",),
           "gammoid": ("WeightedDigraph",)}
METHODS = {"matroid": ("Matroid", ("flats", "cyclic_flats",
                                   "connected_components", "polytope_face",
                                   "dual", "restrict", "contract")),
           "valuated": ("ValuatedMatroid", ("underlying",))}


def _jsonio_span(name):
    "jsonio is traced as two spans: parse (input) and format (output)."
    if name.startswith("parse") or name == "key_to_mask":
        return "jsonio.parse"
    return "jsonio.format"


class Tracer:
    """Spans kept in parallel lists; self time is computed as spans close.

    A call whose innermost open span has the same name is not recorded
    again, so jsonio.parse counts one span per top-level parse.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.requests = []
        self.child = []
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self._patches = []

    # ---------------------------------------------------------- spans

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.child.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self.ends[idx] = end
        self.stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child[parent] += end - self.starts[idx]

    def wrap(self, name, fn, observe=None):
        tracer = self
        pre, post = observe or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            state = pre(args) if pre else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                post(tracer.counts, args, result, state)
            return result

        return traced

    # ------------------------------------------------------- patching

    def _set(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self):
        """Wrap every layer's public functions wherever they are bound."""
        modules = {name: sys.modules["troplin." + name] for name in LAYERS}
        holders = [m for n, m in sorted(sys.modules.items())
                   if (n == "troplin" or n.startswith("troplin."))
                   and n != "troplin.oracle"]
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or attr in SKIP.get(layer, ())
                        or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                span = (_jsonio_span(attr) if layer == "jsonio"
                        else "%s.%s" % (layer, attr))
                wrapped = self.wrap(span, obj, OBSERVERS.get(span))
                for holder in holders:
                    if vars(holder).get(attr) is obj:
                        self._set(holder, attr, wrapped)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, "__init__", self.wrap(
                    "%s.%s" % (layer, cls_name), cls.__init__))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(
                        "%s.%s" % (layer, meth), vars(cls)[meth]))

    def restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # ---------------------------------------------------- aggregation

    def summary(self, factors=None):
        """({span name: calls}, {span name: self seconds}) over all spans.

        factors: optional per-request multipliers for the self times (the
        benchmark's speed adjustment), indexed by request id.
        """
        calls = Counter()
        self_s = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            own = self.ends[i] - self.starts[i] - self.child[i]
            if factors is not None:
                own *= factors[self.requests[i]]
            self_s[name] += own
        return calls, self_s

    def under(self, name, ancestor):
        "Spans named `name` with an open `ancestor` span above them."
        total = 0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            total += p >= 0
        return total

    def called_from(self, name, layer):
        "Spans named `name` whose parent span belongs to `layer`."
        prefix = layer + "."
        return sum(1 for i, n in enumerate(self.names)
                   if n == name and self.parents[i] >= 0
                   and self.names[self.parents[i]].startswith(prefix))

    def write(self, path):
        "One line per span: id, parent, request, name, start, end."
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,request,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    i, self.parents[i], self.requests[i], name,
                    self.starts[i], self.ends[i]))


# Extra counters taken at a few span boundaries: (pre, post) pairs, where
# pre(args) runs before the call and post(counts, args, result, state)
# after it, with whatever pre returned.

def _solve_lp_done(counts, args, result, state):
    if hasattr(args[2], "__len__"):
        counts["linprog.solve_lp.rows"] += len(args[2])
    if result[0] == "optimal" and result[1] > 0:
        counts["linprog.solve_lp.decisive"] += 1


def _cells_cached(args):
    return getattr(args[0], "_maxcells", None) is not None


def _maximal_cells_done(counts, args, result, cached):
    if not cached:
        counts["valuated.maximal_cells.computed"] += 1


def _fan_member_done(counts, args, result, state):
    if result is True:
        counts["presentations.presentation_fan_member.accepted"] += 1


OBSERVERS = {
    "linprog.solve_lp": (None, _solve_lp_done),
    "valuated.maximal_cells": (_cells_cached, _maximal_cells_done),
    "presentations.presentation_fan_member": (None, _fan_member_done),
}
