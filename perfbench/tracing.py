"""Span tracing of elwire's public functions, installed from outside the package.

Every public function defined in one of LAYERS is wrapped once, and the
wrapper replaces the original at *every* module binding, not only where the
function is defined: the package imports with ``from .x import y``, so
``dynamics.sample_geometry`` and ``cli.march`` are separate names that call
sites look up at run time.  A span records its name (``<layer>.<function>``),
its parent span and its start and end; spans stay in memory until the traced
run ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of a span and all its descendants add up
to that span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "elwire"
LAYERS = (
    "geometry", "fields", "elliptic", "wave", "dynamics", "diagnostics", "initial", "config", "cli"
)


class Tracer:
    """Installs span wrappers into the imported ``elwire`` modules."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._installed: list[tuple] = []

    def _modules(self) -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function by its wrapper."""
        modules = {mod.__name__: mod for mod in self._modules()}
        if not self._wrappers:
            for layer in LAYERS:
                mod = modules[f"{PACKAGE}.{layer}"]
                for attr, obj in vars(mod).items():
                    if (
                        not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                    ):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._installed.append((mod, attr, obj))

    def stale_bindings(self) -> list[str]:
        """Module attributes that still hold an unwrapped traced function."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in self._modules()
            for attr, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType) and obj in self._wrappers
        ]

    def uninstall(self) -> None:
        """Restore the original functions at every binding install replaced."""
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def reset(self) -> None:
        """Drop recorded spans (in place: the wrappers hold these lists)."""
        for spans in (self.names, self.parents, self.starts, self.ends, self._stack):
            spans.clear()

    def summary(self, roots: tuple[str, ...]) -> dict:
        """Per-name calls, total and self time, plus the split under the roots.

        ``roots`` names the spans whose subtree is split by self time (the
        first recorded span of the first name present is used).  The result
        also carries the inclusive durations of every ``dynamics.step`` span
        and the time spent inside outermost spans of each layer.
        """
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += duration[i]
        self_time = [duration[i] - children[i] for i in range(n)]

        layer = [name.split(".", 1)[0] for name in self.names]
        # a span is outermost in its layer when no ancestor belongs to that layer
        layers_above: list[frozenset] = []
        per_name: dict[str, dict] = {}
        layer_inclusive = {name: 0.0 for name in LAYERS}
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            above = (
                frozenset()
                if parent < 0
                else layers_above[parent] | frozenset((layer[parent],))
            )
            layers_above.append(above)
            if layer[i] not in above:
                layer_inclusive[layer[i]] += duration[i]
            entry = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += self_time[i]

        split = None
        for root_name in roots:
            if root_name not in per_name:
                continue
            root = self.names.index(root_name)
            inside = [False] * n
            inside[root] = True
            by_name: dict[str, float] = {}
            for i in range(root, n):
                if i != root and not (self.parents[i] >= 0 and inside[self.parents[i]]):
                    continue
                inside[i] = True
                by_name[self.names[i]] = by_name.get(self.names[i], 0.0) + self_time[i]
            split = {"root": root_name, "root_s": duration[root], "self_s": by_name}
            break

        return {
            "per_name": per_name,
            "layer_inclusive_s": layer_inclusive,
            "run_s": sum(duration[i] for i in range(n) if self.parents[i] < 0),
            "step_ms": [
                1e3 * duration[i] for i in range(n) if self.names[i] == "dynamics.step"
            ],
            "split": split,
        }
