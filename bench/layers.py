"""Outside-in per-layer host-time trace.

The benchmark wraps public methods of each layer's objects from its own
files, so ``src/repro`` carries no instrumentation. Each wrapper pushes a
frame, times the call, and charges the duration to its parent frame's
child time; a frame's self time is its duration minus its children's.
Results accumulate per layer path (``timing>svc.cache>svc.vcl>bus``) in
memory and are read when the traced region ends.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

#: Layer -> the callables wrapped for it, as ``Class.method`` (or a bare
#: function name). Each callable belongs to exactly one layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": ("generate_tasks",),
    "timing": ("TimingSimulator.run",),
    "svc.cache": ("SVCSystem.load", "SVCSystem.store"),
    "svc.vcl": (
        "VersionControlLogic.bus_read",
        "VersionControlLogic.bus_write",
        "VersionControlLogic.cast_out",
    ),
    "bus": ("SnoopingBus.reserve",),
    "mem": (
        "MainMemory.read_bytes",
        "MainMemory.write_bytes",
        "MainMemory.read_line",
        "MainMemory.write_line",
    ),
    "commit": ("SVCSystem.commit_head", "ARBSystem.commit_head"),
    "squash": ("SVCSystem.squash_from_rank", "ARBSystem.squash_from_rank"),
    "arb": ("ARBSystem.load", "ARBSystem.store"),
    "arb.dcache": (
        "SharedDataCache.read",
        "SharedDataCache.read_value",
        "SharedDataCache.write",
    ),
    "events": ("EventLog.emit", "EventLog.extend"),
    "check": ("InvariantChecker.on_event",),
}

#: Self time of the traced region outside every wrapped call: system
#: construction and the benchmark's own loop.
HARNESS = "harness"


def _methods_by_class() -> Dict[str, List[Tuple[str, str]]]:
    """Class name -> (method, layer) for every wrapped method."""
    methods: Dict[str, List[Tuple[str, str]]] = {}
    for layer, callables in LAYERS.items():
        for name in callables:
            if "." in name:
                cls, method = name.split(".")
                methods.setdefault(cls, []).append((method, layer))
    return methods


_METHODS = _methods_by_class()


class LayerTracer:
    """Accumulates self time and call counts per layer path while active
    (``with tracer: ...``)."""

    def __init__(self) -> None:
        #: Frames are ``[path, child_seconds]``; the root has path "".
        self._stack: List[list] = [["", 0.0]]
        self._paths: Dict[Tuple[str, str], str] = {}
        #: path -> [self seconds, calls]
        self.paths: Dict[str, list] = {}
        self.wall_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "LayerTracer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        root = self._stack[0]
        self.paths[HARNESS] = [self.wall_s - root[1], 1]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        paths = self._paths
        totals = self.paths
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent[0], layer)
            path = paths.get(key)
            if path is None:
                path = paths[key] = f"{parent[0]}>{layer}" if parent[0] else layer
            frame = [path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                entry = totals.get(path)
                if entry is None:
                    totals[path] = [elapsed - frame[1], 1]
                else:
                    entry[0] += elapsed - frame[1]
                    entry[1] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self, obj) -> None:
        """Wrap, on this instance only, every method ``LAYERS`` names for
        its class."""
        for method, layer in _METHODS.get(type(obj).__name__, ()):
            setattr(obj, method, self.wrap(layer, getattr(obj, method)))

    def layers(self) -> Dict[str, Tuple[float, int]]:
        """Self seconds and calls per layer, summed over its paths."""
        out: Dict[str, Tuple[float, int]] = {layer: (0.0, 0) for layer in LAYERS}
        out[HARNESS] = (0.0, 0)
        for path, (self_s, calls) in self.paths.items():
            layer = path.rsplit(">", 1)[-1]
            total, count = out[layer]
            out[layer] = (total + self_s, count + calls)
        return out
