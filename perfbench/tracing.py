"""Span tracing of the qec layers, installed from outside the library.

`Tracer.install()` wraps every public function of each layer module, plus the
ring multiplications, and rebinds the wrapper wherever the original is bound:
in the defining module, in every `from .x import f` binding of the other qec
modules, and on the class for methods (including aliases such as
`__rmul__ = __mul__`).  `uninstall()` puts the originals back.

Only calls made while a request runs are recorded, so cycle generation and
answer checks, which also call the library, stay out of the figures.  Each
call records a span (name, start, end, parent span, request id) in memory;
spans past `max_spans` are counted but not kept.  Per-function
aggregates are exact for every call: calls, total time (outermost calls only,
so recursion is not counted twice) and self time (duration minus the time of
direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "scalars",
    "laurent",
    "aq",
    "linalg",
    "modules",
    "ideals",
    "cohomology",
    "duality",
    "suites",
    "cli",
)
METHODS = {"aq": ("AqElement.__mul__",), "laurent": ("LaurentPoly.__mul__",)}


class Tracer:
    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.request = -1
        self.active = False
        self.outside = 0  # wrapped calls made while no request ran
        self.names = []
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()  # work counts and ratio numerators
        self.kind = None  # kind of the running request, for hooks
        self._stack = []
        self._depth = Counter()
        self._patched = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------------

    def install(self, hooks=None):
        """hooks: label -> f(tracer, args, result, duration, self_time),
        called after each call of that label that returns."""
        hooks = hooks or {}
        layers = [importlib.import_module(f"qec.{layer}") for layer in LAYERS]
        qec_modules = [
            m for n, m in sorted(sys.modules.items()) if n == "qec" or n.startswith("qec.")
        ]
        for layer, mod in zip(LAYERS, layers):
            targets = [
                (name, fn)
                for name, fn in vars(mod).items()
                if isinstance(fn, types.FunctionType)
                and not name.startswith("_")
                and fn.__module__ == mod.__name__
            ]
            for name, fn in targets:
                label = f"{layer}.{name}"
                wrapped = self._wrap(label, fn, hooks.get(label))
                for other in qec_modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, attr, wrapped)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                wrapped = self._wrap(f"{layer}.{path}", fn, hooks.get(f"{layer}.{path}"))
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def start_request(self, request, kind):
        self.request, self.kind, self.active = request, kind, True

    def end_request(self):
        """Forget any frame a budget alarm left open mid-bookkeeping."""
        self.request, self.kind, self.active = -1, None, False
        self._stack.clear()
        self._depth.clear()

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording -----------------------------------------------------------------

    def _wrap(self, label, fn, hook):
        name_id = len(self.names)
        self.names.append(label)
        stack = self._stack
        depth = self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                tracer.outside += 1
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if len(tracer.spans) < tracer.max_spans:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            else:
                span_id = -1
                tracer.dropped += 1
            frame = [label, 0.0, span_id]
            stack.append(frame)
            depth[label] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[label] -= 1
                dur = end - start
                tracer.calls[label] += 1
                tracer.self_time[label] += dur - frame[1]
                if not depth[label]:
                    tracer.total[label] += dur
                if parent is not None:
                    parent[1] += dur
                    tracer.edges[(parent[0], label)] += 1
                if span_id >= 0:
                    tracer.spans[span_id] = (
                        name_id,
                        start,
                        end,
                        parent[2] if parent is not None else -1,
                        tracer.request,
                    )
            if hook is not None:
                hook(tracer, args, result, dur, dur - frame[1])
            return result

        return wrapper

    def write(self, path):
        """Spans as JSON: a name table and [name, start, end, parent,
        request] rows; parent and request are -1 when absent."""
        with open(path, "w") as out:
            json.dump(
                {
                    "names": self.names,
                    "dropped": self.dropped,
                    "spans": [s for s in self.spans if s is not None],
                },
                out,
            )
