"""Span tracing around the public calls of each hybridnoc layer.

The tracer wraps functions from the outside, so the package itself carries
no tracing code.  ``cli`` and ``orchestrator`` import names such as
``simulate`` or ``greedy_allocate`` into their own namespaces, so every
module binding of a wrapped object is replaced, not only the one in the
defining module; otherwise calls through the importing module would go
unrecorded.  ``Simulation`` methods are wrapped on the class.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

# layer -> public names wrapped in that layer's module; "Class.method" wraps
# a method on the class.  Helpers called once per flit or packet (packet_class,
# flits_for_packet, unloaded_latency) are left out: wrapping them would cost
# more than the work they do.
TRACED: Dict[str, Tuple[str, ...]] = {
    "cli": ("main", "cmd_run", "cmd_allocate"),
    "orchestrator": ("load_config", "run_experiment", "run_adaptive",
                     "make_trace", "build_plan", "write_run_report"),
    "traffic": ("load_trace", "ingest", "profile_from_flit_counts", "load_profile"),
    "allocator": ("candidates_from_profile", "greedy_allocate", "ga_allocate",
                  "enumerate_oracle", "save_plan", "load_plan"),
    "simcore": ("simulate", "Simulation.__init__", "Simulation.run_until",
                "Simulation.run_to_completion", "Simulation.finalize",
                "Simulation.schedule_plan", "Simulation.take_pair_counts"),
    "energy": ("account",),
}


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "start", "end")

    def __init__(self, sid: int, parent: int, layer: str, name: str, start: float):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_result(counts: Dict[str, int], name: str, result) -> None:
    """Counters taken at the span boundary from the wrapped call's result."""
    if name == "Simulation.finalize":
        counts["sim_cycles"] += result.cycles_simulated
        counts["sim_flits"] += result.flits_ejected
        counts["sw_allocations"] += result.sw_allocations
        counts["vc_allocations"] += result.vc_allocations
        counts["buffer_writes"] += sum(result.buffer_writes)
    elif name == "candidates_from_profile":
        counts["candidates"] += len(result)
    elif name in ("greedy_allocate", "ga_allocate", "enumerate_oracle"):
        counts["placed"] += result.circuit_count()
    elif name == "ingest":
        counts["packets"] += len(result)
    elif name == "run_adaptive":
        counts["epochs"] += len(result)


class Tracer:
    """Records spans in memory while installed; the caller reads them after."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {
            k: 0 for k in ("sim_cycles", "sim_flits", "sw_allocations",
                           "vc_allocations", "buffer_writes", "candidates",
                           "placed", "packets", "epochs")
        }
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, layer, name, clock())
            spans.append(span)
            stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            _count_result(counts, name, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hybridnoc" or key.startswith("hybridnoc."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"hybridnoc.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(layer, name, cls.__dict__[meth]))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reading the spans ------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the time covered by its child spans."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def total(self, *names: str) -> float:
        """Inclusive time of every span with one of these names."""
        return sum(s.duration for s in self.spans if s.name in names)

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in TRACED}
        for s, t in zip(self.spans, self.self_times()):
            out[s.layer] += t
        return out

    def dump(self) -> List[Dict[str, object]]:
        return [
            {"id": s.sid, "parent": s.parent, "layer": s.layer, "name": s.name,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]

