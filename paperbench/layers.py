"""Per-layer host-time attribution by wrapping each ``repro`` module's
public entry points from outside the program.

Wrappers go on the classes, so they must be installed before a ``Machine``
is built: ``Network.register`` binds each handler when the machine wires
itself.  Each wrapped call charges its *self* time (its duration minus the
part its wrapped children cover) and one call to its entry point.  Per-call
spans are kept only at cell and phase boundaries; the roughly million
fine-grained calls per slice are aggregated into counters, so the trace
does not dominate memory.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.baselines.bulksc import BulkSCArbiter
from repro.baselines.tcc import TidVendor
from repro.core.cst import CstEntry
from repro.cpu.core import Core
from repro.engine.events import Simulator
from repro.harness.runner import Machine
from repro.memory.cache import Cache
from repro.memory.directory import DirectoryModule
from repro.memory.hierarchy import CacheHierarchy
from repro.network.noc import Network
from repro.protocols.base import ProcessorEngine
from repro.signatures.bulk_signature import BulkSignature, SignatureFactory
from repro.workloads.generator import SyntheticWorkload


def _handler_layer(engine) -> str:
    """Protocol handlers belong to ``core`` (ScalableBulk) or ``baselines``
    by the module that defines the instance's class."""
    module = type(engine).__module__
    return "baselines" if module.startswith("repro.baselines") else "core"


#: (class, method, layer or layer-of-instance, entry name).  The entry
#: name keys the counters; its layer is the part before the dot.
ENTRY_POINTS: Tuple[tuple, ...] = (
    (Simulator, "run", "engine", "run"),
    (Network, "send", "network", "send"),
    (DirectoryModule, "handle_message", _handler_layer, "dir_handler"),
    (ProcessorEngine, "handle_message", _handler_layer, "proc_handler"),
    (BulkSCArbiter, "handle_message", "baselines", "arbiter"),
    (TidVendor, "handle_message", "baselines", "tid_vendor"),
    (CstEntry, "incompatible_with", "cst", "tests"),
    *((BulkSignature, m, "signatures", m)
      for m in ("insert", "insert_many", "contains", "intersects", "union",
                "union_update")),
    (SignatureFactory, "from_lines", "signatures", "from_lines"),
    *((CacheHierarchy, m, "memory", m)
      for m in ("access", "fill_remote", "invalidate", "commit_chunk",
                "squash_chunk")),
    (Cache, "fill_many", "memory", "fill_many"),
    *((Core, m, "cpu", m)
      for m in ("on_data", "on_read_nack", "on_commit_success", "squash_from",
                "apply_invalidation")),
    (SyntheticWorkload, "next_spec", "workloads", "next_spec"),
    (Machine, "__init__", "runner", "build"),
    (Machine, "prewarm", "runner", "prewarm"),
)

#: Layer charged with a cell's own self time: the benchmark's loop and the
#: calls it makes outside every wrapped entry point (``core.start()``,
#: ``Machine.result()``, workload construction).
HARNESS = "harness"

#: Cyclic garbage collections are a layer of their own: a collection's
#: time is taken out of whichever call it interrupted.
GC = "gc.collect"

clock = time.perf_counter


class LayerTracer:
    """Self time and call counts per ``layer.entry``, plus cell/phase spans.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original methods.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (name, start, end, parent index or -1), cell and phase spans only
        self.spans: List[tuple] = []
        #: children time of each open wrapped call, innermost last
        self._stack: List[float] = []
        self._cell = (-1, 0.0)
        self._saved: List[tuple] = []
        #: start of the running collection, None outside cells
        self._gc_start = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for owner, attr, layer, entry in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, entry))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, _info: dict) -> None:
        stack = self._stack
        if phase == "start":
            if stack:  # only collections inside a cell are attributed
                stack.append(0.0)
                self._gc_start = clock()
        elif self._gc_start is not None:
            duration = clock() - self._gc_start
            self._gc_start = None
            self.self_s[GC] += duration - stack.pop()
            self.calls[GC] += 1
            stack[-1] += duration

    def _wrap(self, fn, layer, entry):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        if isinstance(layer, str):
            key = f"{layer}.{entry}"

            def keyed(_obj) -> str:
                return key
        else:
            keys = {name: f"{name}.{entry}" for name in ("core", "baselines")}

            def keyed(obj) -> str:
                return keys[layer(obj)]

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                duration = clock() - t0
                k = keyed(obj)
                self_s[k] += duration - stack.pop()
                calls[k] += 1
                if stack:
                    stack[-1] += duration

        return wrapper

    # ------------------------------------------------------------------
    # Cell and phase spans (called by the benchmark's cell loop)
    # ------------------------------------------------------------------
    def open_cell(self, key: str) -> None:
        self._stack.append(0.0)
        self._cell = (len(self.spans), clock())
        self.spans.append((key, self._cell[1], None, -1))

    def close_cell(self) -> None:
        end = clock()
        index, start = self._cell
        self.self_s[f"{HARNESS}.cell"] += (end - start) - self._stack.pop()
        self.calls[f"{HARNESS}.cell"] += 1
        name = self.spans[index][0]
        self.spans[index] = (name, start, end, -1)

    def phases(self, spans) -> None:
        """Record (name, start, end) phase spans of the last closed cell."""
        parent = self._cell[0]
        for name, start, end in spans:
            self.spans.append((name, start, end, parent))

    # ------------------------------------------------------------------
    def by_layer(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(self seconds, calls) summed per layer."""
        secs: Dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        for k, v in self.self_s.items():
            secs[k.split(".", 1)[0]] += v
        for k, v in self.calls.items():
            n[k.split(".", 1)[0]] += v
        return dict(secs), dict(n)

    def cell_seconds(self) -> float:
        """Summed duration of every closed cell span."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1 and end is not None)
