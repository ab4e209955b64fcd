"""Span-based structured tracing for the toolflow.

A :class:`Tracer` records what the toolflow did as nested *spans*
(name, category, start, duration, attributes) plus point-in-time
*instant* events and sampled *counter* values.  Spans live on one of
two clocks:

* the **wall** clock — real ``time.perf_counter()`` seconds this
  process actually spent (build steps, worker waits);
* the **modeled** clock — the Vivado-scale seconds the compile-time
  model charges (cluster jobs, hls/syn/pnr/bit phases, configuration
  and DMA timings), which is what Tab. 2 reports.

Every event carries a *lane* — "one thread" in the Chrome trace-event
rendering — so cluster jobs appear on their node's lane, parallel build
steps on their worker's lane and host activity on the card's lane.
Successive toolflow invocations share one modeled timeline: call sites
place their spans at :meth:`Tracer.modeled_time` and push the cursor
forward with :meth:`Tracer.advance_modeled`, so a cold compile, an
edit recompile and the reload that follows line up end to end.

The disabled tracer (``Tracer(enabled=False)``, or the shared
:data:`NULL_TRACER`) is a strict no-op: every method returns
immediately and :meth:`span` hands back one reusable null context
manager, so instrumented call sites stay unconditional without
costing the hot paths anything measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Clock names (the two Chrome "processes" of an exported trace).
WALL = "wall"
MODELED = "modeled"


@dataclass
class TraceEvent:
    """One recorded event (span, instant or counter sample)."""

    kind: str                    # "span" | "instant" | "counter"
    name: str
    category: str
    clock: str                   # WALL | MODELED
    lane: str
    start: float                 # seconds on its clock
    duration: float = 0.0        # spans only
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NullSpan:
    """The reusable context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live wall-clock span; records itself on exit."""

    __slots__ = ("_tracer", "_event", "_t0")

    def __init__(self, tracer: "Tracer", event: TraceEvent):
        self._tracer = tracer
        self._event = event
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        self._event.start = self._t0 - self._tracer._epoch
        return self

    def __exit__(self, *exc) -> bool:
        self._event.duration = time.perf_counter() - self._t0
        self._tracer.events.append(self._event)
        return False

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the span (visible in both exports)."""
        self._event.attrs.update(attrs)
        return self


class Tracer:
    """Collects trace events across one toolflow run.

    Args:
        enabled: ``False`` makes every method a cheap no-op, so the
            instrumentation can stay unconditional at the call sites.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._epoch = time.perf_counter()
        self._modeled_offset = 0.0

    # -- wall clock ---------------------------------------------------------

    def span(self, name: str, category: str = "", lane: str = "main",
             **attrs):
        """Context manager timing a wall-clock span."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, TraceEvent("span", name, category, WALL,
                                      lane, 0.0, 0.0, dict(attrs)))

    def now(self) -> float:
        """Wall seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    def wall_span(self, name: str, start: float, duration: float,
                  category: str = "", lane: str = "main", **attrs) -> None:
        """Record a wall span whose interval was measured externally
        (``start`` in :meth:`now` coordinates)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent("span", name, category, WALL,
                                      lane, start, duration, dict(attrs)))

    # -- modeled clock ------------------------------------------------------

    def modeled_time(self) -> float:
        """Current cursor of the shared modeled timeline (seconds)."""
        return self._modeled_offset

    def advance_modeled(self, end: float) -> None:
        """Push the modeled cursor forward to ``end`` (never back)."""
        if end > self._modeled_offset:
            self._modeled_offset = end

    def modeled_span(self, name: str, start: float, duration: float,
                     category: str = "", lane: str = "main",
                     **attrs) -> None:
        """Record a span on the modeled clock (absolute ``start``)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent("span", name, category, MODELED,
                                      lane, start, duration, dict(attrs)))

    def modeled_phases(self, phases: List[Tuple[str, float]],
                       base: Optional[float] = None,
                       category: str = "phase",
                       lane: str = "phases", **attrs) -> float:
        """Lay consecutive phase spans on the modeled clock.

        ``phases`` is ``[(name, seconds), ...]``; zero-length phases
        are skipped.  Returns the modeled end time of the last phase.
        """
        if not self.enabled:
            return base or 0.0
        cursor = self.modeled_time() if base is None else base
        for name, seconds in phases:
            if seconds <= 0:
                continue
            self.modeled_span(name, cursor, seconds, category=category,
                              lane=lane, **attrs)
            cursor += seconds
        return cursor

    # -- point events -------------------------------------------------------

    def instant(self, name: str, category: str = "", lane: str = "main",
                clock: str = WALL, ts: Optional[float] = None,
                **attrs) -> None:
        """A zero-duration marker (Chrome 'i' event)."""
        if not self.enabled:
            return
        if ts is None:
            ts = self.now() if clock == WALL else self.modeled_time()
        self.events.append(TraceEvent("instant", name, category, clock,
                                      lane, ts, 0.0, dict(attrs)))

    def shard_health(self, shard: str, state: str, **attrs) -> None:
        """A remote-store shard health transition, in canonical shape.

        The sharded store client reports every failure-domain event —
        ``breaker-open`` (quarantine entry), ``degraded`` (first
        fallback-served request), ``healed`` (half-open probe
        succeeded), ``reconciled`` (write-behind queue drained) — as
        ``shard:<state>:<address>`` instants on the ``store`` lane, so
        one Perfetto query (category ``store``) tells the whole
        availability story of a build.
        """
        if not self.enabled:
            return
        self.instant(f"shard:{state}:{shard}", category="store",
                     lane="store", shard=shard, state=state, **attrs)

    def counter(self, name: str, value, category: str = "",
                lane: str = "main", clock: str = WALL,
                ts: Optional[float] = None) -> None:
        """A sampled counter value (Chrome 'C' event)."""
        if not self.enabled:
            return
        if ts is None:
            ts = self.now() if clock == WALL else self.modeled_time()
        self.events.append(TraceEvent("counter", name, category, clock,
                                      lane, ts, 0.0, {"value": value}))

    # -- export -------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event dict (see export.py)."""
        from repro.trace.export import chrome_trace
        return chrome_trace(self.events)

    def write_chrome_trace(self, path) -> None:
        """Write ``chrome://tracing`` / Perfetto-compatible JSON."""
        from repro.trace.export import write_chrome_trace
        write_chrome_trace(path, self.events)

    def format_tree(self) -> str:
        """The compact text-tree rendering of this trace."""
        from repro.trace.export import format_trace_tree
        return format_trace_tree(self.chrome_trace())

    def __len__(self) -> int:
        return len(self.events)


#: The shared disabled tracer instrumented code defaults to.
NULL_TRACER = Tracer(enabled=False)
