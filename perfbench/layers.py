"""Wall-clock attribution by pipeline layer, measured from outside.

The traced run wraps each layer's public entry points at the module
attribute (or class attribute) its caller looks up, so no file under
``src/`` carries tracing code.  Every wrapped call is a span: name,
parent span, start, end and the program or request it served.  A
layer's self time is its spans' durations minus the part their wrapped
children cover, so the self times of all layers plus the benchmark's
own harness time add up to the traced wall clock.

Spans stay in memory while the run lasts and are written out as JSON
lines when it ends (:meth:`LayerTracer.write`).
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

#: span name -> span names it folds into when called directly inside
#: one of them (core-library installation is part of bootstrap)
FOLD = {"world.add_slots": ("world.bootstrap",)}


def _doit_compiles(tracer, args, kwargs, result) -> None:
    if kwargs.get("selector") == "<doit>":
        tracer.counts["compiler.doit_compiles"] += 1


def _graph_nodes(tracer, args, kwargs, result) -> None:
    tracer.counts["compiler.graph_nodes"] += result.stats.total


def targets():
    """``(owner, attribute, span name, result hook)`` for every wrapped
    entry point; the owner is the module or class the caller looks the
    attribute up on."""
    import repro.robustness.invalidate as invalidate
    import repro.robustness.tiers as tiers
    import repro.vm.codegen as codegen
    import repro.vm.runtime as runtime
    import repro.vm.translate as translate
    from repro.serve.service import Service
    from repro.world.bootstrap import World

    return (
        (runtime, "parse_doit", "lang.parse", None),
        (World, "__init__", "world.bootstrap", None),
        (World, "add_slots", "world.add_slots", None),
        (World, "fork", "world.fork", None),
        (runtime, "lookup_slot", "world.lookup", None),
        (tiers, "compile_once", "compiler.compile", _graph_nodes),
        (runtime, "compile_with_tiers", "robustness.tiers", _doit_compiles),
        (tiers, "generate", "vm.codegen", None),
        (codegen, "predecode", "vm.predecode", None),
        (runtime, "predecode", "vm.predecode", None),
        (translate, "emit_source", "vm.emit_source", None),
        (translate.Translator, "translate", "vm.host_compile", None),
        (invalidate, "fire", "robustness.invalidate", None),
        (runtime.Runtime, "run", "vm.execute", None),
        (runtime.Runtime, "run_doit", "vm.execute", None),
        (Service, "call", "serve.overhead", None),
    )


#: every span name, in report order
SPAN_NAMES = (
    "lang.parse", "world.bootstrap", "world.add_slots", "world.fork",
    "world.lookup", "compiler.compile", "robustness.tiers", "vm.codegen",
    "vm.predecode", "vm.emit_source", "vm.host_compile",
    "robustness.invalidate", "vm.execute", "serve.overhead",
)


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    ``enable`` installs the wrappers and ``disable`` restores the
    originals, so one process can alternate traced and untraced work.
    """

    def __init__(self) -> None:
        #: [name, parent index or -1, start, end, unit]
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: counts derived from arguments or results (graph nodes, ...)
        self.counts: Counter = Counter()
        #: program or request the current work serves
        self.unit = ""
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._saved: list[tuple] = []

    def enable(self) -> None:
        if self._saved:
            return
        for owner, attribute, name, hook in targets():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, hook))

    def disable(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, hook):
        spans, open_, child_s = self.spans, self._open, self._child_s
        self_s, calls = self.self_s, self.calls
        folds = (name,) + FOLD.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and spans[open_[-1]][0] in folds:
                return fn(*args, **kwargs)
            span = [name, open_[-1] if open_ else -1, perf_counter(), 0.0,
                    self.unit]
            open_.append(len(spans))
            spans.append(span)
            child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[3] = end
                open_.pop()
                duration = end - span[2]
                self_s[name] += duration - child_s.pop()
                calls[name] += 1
                if child_s:
                    child_s[-1] += duration
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, start, end, unit) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start": start, "end": end, "unit": unit,
                }) + "\n")
