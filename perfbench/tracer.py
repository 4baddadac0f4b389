"""Span tracer that wraps the public functions of the heatlab modules.

The tracer replaces every module-level binding of a public heatlab function
with a timing wrapper, including bindings made by ``from ... import`` in
another module (``bounds.transition_matrix``, ``cauchy.drift_norms``, ...),
and puts the originals back on ``restore``.  The library itself is not
edited.

Each call records one span (name, start, end, parent) in flat in-memory
arrays; per-name totals are kept as the spans close:

* ``calls`` - number of calls;
* ``s`` - inclusive time, counted once for nested calls of the same name;
* ``self_s`` - inclusive time minus the time covered by traced child spans.

Calls into ``grid.fft``/``grid.ifft`` also add their computed traffic (input
plus output array bytes) to ``transform_bytes``.  Result hooks turn return
values into work counts (series terms, Picard iterations, path steps).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: heatlab modules whose public functions are layers of the benchmark
LAYERS = ("grid", "dyadic", "drifts", "parametrix", "cauchy", "bounds",
          "montecarlo", "harness")

#: span names whose arguments and results are counted as transform traffic
TRANSFORMS = ("grid.fft", "grid.ifft")


def _layer_functions(modules):
    """(span name, original) for every public function defined in a layer."""
    owned = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            owned[id(obj)] = (f"{layer}.{attr}", obj)
    return owned


class Tracer:
    """Install with ``install()``; read ``calls``, ``total_s``, ``self_s`` and
    ``counts``; ``restore()`` puts the original functions back."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.hooks = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active = defaultdict(int)
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        owned = _layer_functions(self.modules)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in owned.items()}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and owned[id(obj)][1] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def restore(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    @property
    def bindings(self) -> list[str]:
        """Every patched binding as ``module.attr`` (for audits and tests)."""
        return [f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a, _ in self._patches]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        transform = name in TRANSFORMS
        hooks = self.hooks
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        stack, child, active = self._stack, self._child, self._active
        calls, total_s, self_s, counts = self.calls, self.total_s, self.self_s, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            active[nid] += 1
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                stack.pop()
                covered = child.pop()
                active[nid] -= 1
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - covered
                if not active[nid]:
                    total_s[name] += dur
                if child:
                    child[-1] += dur
            if transform:
                counts["grid.transform_bytes"] += args[1].nbytes + out.nbytes
            hook = hooks.get(name)
            if hook is not None:
                hook(counts, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times_from_spans(self) -> dict:
        """Self time per name recomputed from the stored spans."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = np.zeros(len(self.names))
        np.add.at(own, name_id, dur - covered)
        return {self.names[i]: float(own[i]) for i in range(len(self.names))
                if self.calls.get(self.names[i])}

    def write(self, path) -> Path:
        """Write all spans to an uncompressed ``.npz`` (names, start, end, parent)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
        return path
