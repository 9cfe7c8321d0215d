"""Out-of-process-style tracing of arthurcalc from the benchmark's side.

`Tracer.install` replaces every public function of the arthurcalc modules,
in the module that defines it and under every name another arthurcalc module
imported it as, with a wrapper that records a span (name, start, end, id,
parent, item) and the call's self time: its duration minus the time of the
spans it caused. Classes and their methods (QMonomial and Fraction
arithmetic included) stay unwrapped; their cost lands in the caller's self
time. `uninstall` puts the originals back, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("roots", "nilpotent", "parameters", "lfactors", "classifier", "scenarios", "sweeps", "cli")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_traceable(obj) -> bool:
    # plain functions and lru_cache wrappers defined in one of the layers
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    module = getattr(obj, "__module__", "") or ""
    return module.startswith("arthurcalc.") and module.rsplit(".", 1)[-1] in LAYERS


class Stat:
    __slots__ = ("calls", "errors", "self_s", "results")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.results = 0  # size of what the call returned, where observed


# Result sizes recorded per call: dominantize's word, the eigenvalues an
# l_factor built, and the bytes of an emitted machine report.
OBSERVERS = {
    "roots.dominantize": lambda result: len(result[1]),
    "lfactors.l_factor": lambda result: len(result.eigenvalues),
    "scenarios.emit_report_machine": lambda result: len(result.encode()),
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.item = None
        self.stats: dict[str, dict[str, Stat]] = defaultdict(lambda: defaultdict(Stat))
        self.spans: list | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arthurcalc"]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj):
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrappers[id(obj)] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn):
        name = _span_name(fn)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = tracer.stats[tracer.phase][name]
                stat.calls += 1
                stat.errors += failed
                stat.self_s += duration - frame[1]
                if tracer.spans is not None:
                    tracer.spans.append((name, start, end, span_id, parent, tracer.item))
            if observe is not None:
                stat.results += observe(result)
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(["name", "start", "end", "id", "parent", "item"]) + "\n")
            for span in self.spans or ():
                out.write(json.dumps(span) + "\n")

    def table(self, phase: str, items: int) -> str:
        """Per-function and per-layer rows: calls, self time and failed calls
        per item, sorted by self time."""
        stats = self.stats[phase]
        rows = sorted(stats.items(), key=lambda kv: -kv[1].self_s)
        lines = [f"{'span':48} {'calls/item':>12} {'self ms/item':>13} {'errors/item':>12}"]
        for name, s in rows:
            lines.append(
                f"{name:48} {s.calls / items:12.4f} {1e3 * s.self_s / items:13.4f} {s.errors / items:12.4f}"
            )
        lines.append("")
        for layer in LAYERS:
            self_s = sum(s.self_s for n, s in stats.items() if n.startswith(layer + "."))
            calls = sum(s.calls for n, s in stats.items() if n.startswith(layer + "."))
            lines.append(f"{layer + '.*':48} {calls / items:12.4f} {1e3 * self_s / items:13.4f}")
        return "\n".join(lines) + "\n"
