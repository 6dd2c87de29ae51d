"""Per-layer tracing of ncdiff from outside the package.

The layers are ncdiff's modules.  Tracer.install wraps the public functions
of each module, and the public methods plus arithmetic, construction and
printing dunders of each public class, in a recording wrapper; uninstall
puts the originals back.  Nothing under src/ changes.

Every wrapped call is counted.  A call that crosses into a different layer
opens a span (name, start, end, parent) at that boundary; calls within one
layer are only counted, which keeps the recursion inside a layer cheap.  A
layer's self time is its spans' time minus the time of their child spans,
so the self times of all layers plus `other`, the time inside an op spent
in no layer, add up to the traced wall time.  Spans are kept in memory, up
to MAX_SPANS of them, and written out at the end; the self times and counts
are exact whatever the cap.

Printing belongs to the render layer wherever it is defined: `__str__`,
and the `render*` and `latex_*` functions, since the plain text the CLI
prints is produced in algebra, calculus and coeff, not only in render.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("other", "coeff", "algebra", "morphism", "calculus", "geometry",
          "dsl", "models", "render", "cli")
_OUTSIDE = len(LAYERS)  # self time of calls made outside any op
_DUNDERS = frozenset(("__init__", "__eq__", "__add__", "__radd__", "__sub__",
                      "__rsub__", "__mul__", "__rmul__", "__truediv__",
                      "__rtruediv__", "__neg__", "__pow__", "__call__",
                      "__str__"))
MAX_SPANS = 100_000


def _is_render(name: str) -> bool:
    return name == "__str__" or name.startswith(("render", "latex_"))


class Tracer:
    def __init__(self):
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.cells = {}
        self.exact_div_hits = 0
        self.render_bytes = 0
        self.nf_distinct = 0
        self.reductions = 0
        self.wall_s = 0.0
        self.ops = 0
        self.spans = []
        self.names = []
        self.span_count = 0
        self._stack = [[_OUTSIDE, 0.0, 0.0, -1]]
        self._patches = []
        self._seen_words = weakref.WeakKeyDictionary()
        self._nf_depth = 0
        self._nf_start = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS[1:]:
            module = importlib.import_module("ncdiff." + layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    home = "render" if _is_render(attr) else layer
                    wrapped[obj] = self._wrap(obj, home, "%s.%s"
                                              % (layer, attr))
                elif inspect.isclass(obj) and not issubclass(obj,
                                                             BaseException):
                    self._wrap_class(obj, layer)
        # Modules import each other's functions by name, so every binding of
        # a wrapped function is replaced, not only the defining one.
        for name, module in list(sys.modules.items()):
            if name != "ncdiff" and not name.startswith("ncdiff."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def _wrap_class(self, cls, layer) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            home = "render" if _is_render(attr) else layer
            qualname = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(member, (classmethod, staticmethod)):
                fn = self._wrap(member.__func__, home, qualname)
                self._patch(cls, attr, type(member)(fn))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, home, qualname))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, layer_name, qualname):
        layer = LAYERS.index(layer_name)
        cell = self.cells.setdefault(qualname, [0])
        name_id = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        perf = time.perf_counter
        enter = leave = None
        if qualname == "algebra.Algebra.normal_form_word":
            enter, leave = self._nf_enter, self._nf_leave
        render = layer_name == "render"
        exact_div = qualname == "coeff.Polynomial.try_exact_divide"

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if enter is not None:
                enter(args)
            try:
                if stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    span_id = self.span_count
                    self.span_count = span_id + 1
                    frame = [layer, perf(), 0.0, span_id]
                    stack.append(frame)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end = perf()
                        stack.pop()
                        duration = end - frame[1]
                        self_s[layer] += duration - frame[2]
                        parent = stack[-1]
                        parent[2] += duration
                        if span_id < MAX_SPANS:
                            spans.append((span_id, parent[3], layer, name_id,
                                          frame[1], end))
                    if render and isinstance(result, str):
                        self.render_bytes += len(result.encode())
            finally:
                if leave is not None:
                    leave(args)
            if exact_div and result is not None:
                self.exact_div_hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # normal_form_word recurses, so its bookkeeping runs only at the
    # outermost call: the delta of the public reduction_count is read there.
    def _nf_enter(self, args) -> None:
        algebra, word = args[0], args[1]
        seen = self._seen_words.get(algebra)
        if seen is None:
            seen = self._seen_words[algebra] = set()
        key = hash(word)
        if key not in seen:
            seen.add(key)
            self.nf_distinct += 1
        if self._nf_depth == 0:
            self._nf_start = getattr(algebra, "reduction_count", 0)
        self._nf_depth += 1

    def _nf_leave(self, args) -> None:
        self._nf_depth -= 1
        if self._nf_depth == 0:
            self.reductions += (getattr(args[0], "reduction_count", 0)
                                - self._nf_start)

    # -- ops ------------------------------------------------------------------

    def run_op(self, call):
        """Run one op as a root span; its time outside layers is `other`."""
        depth = len(self._stack)
        frame = [0, time.perf_counter(), 0.0, self.span_count]
        self.span_count += 1
        self._stack.append(frame)
        try:
            return call()
        finally:
            end = time.perf_counter()
            # An op that dies of RecursionError can skip a wrapper's
            # bookkeeping; the op boundary restores a consistent stack.
            del self._stack[depth + 1:]
            self._stack.pop()
            self._nf_depth = 0
            duration = end - frame[1]
            self.self_s[0] += duration - frame[2]
            self.wall_s += duration
            self.ops += 1
            if frame[3] < MAX_SPANS:
                self.spans.append((frame[3], -1, 0, -1, frame[1], end))

    def count(self, *qualnames) -> int:
        return sum(self.cells[name][0] for name in qualnames
                   if name in self.cells)

    def layer_calls(self, layer: str) -> int:
        return sum(cell[0] for name, cell in self.cells.items()
                   if name.split(".", 1)[0] == layer)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"layers": LAYERS, "names": self.names,
                       "columns": ["id", "parent", "layer", "name", "start",
                                   "end"],
                       "recorded": len(self.spans),
                       "total": self.span_count,
                       "spans": self.spans}, handle)
