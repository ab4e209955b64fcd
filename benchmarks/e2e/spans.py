"""Outside-in tracing: spans around calls into the repo's public API.

Nothing under ``src/`` is instrumented.  :func:`traced` patches each
function in :data:`TARGETS` where its caller looks it up (a module or
class attribute), records one span per call, and restores the original
objects on exit.  The daemon and store shards run the same wrappers
through ``launch.py``.

A span holds its layer, start and end on ``time.perf_counter`` (which
is CLOCK_MONOTONIC on Linux, so spans from different processes
compare), the enclosing span on the same thread, and a request id.  On
the daemon the request id is the ticket, read from the
``pld-request-<ticket>`` thread name or from the call's arguments and
result.

:func:`attribute` splits an interval (one operation or one request)
between the layers: each instant goes to the innermost span covering
it, and what no span covers is ``other``.  That is each span's self
time: its duration minus what its children cover.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import os
import re
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The daemon's per-request thread name (``CompileService._dispatch_loop``).
_REQUEST_THREAD = re.compile(r"^pld-request-(\S+)$")


class Span:
    """One call into a layer."""

    __slots__ = ("id", "layer", "start", "end", "parent", "rid", "pid",
                 "tid", "extra")

    def __init__(self, id: str, layer: str, start: float, parent=None,
                 rid=None, pid: int = 0, tid: int = 0):
        self.id = id
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.pid = pid
        self.tid = tid
        self.extra: Dict[str, float] = {}

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.id, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "pid": self.pid, "tid": self.tid, "extra": self.extra}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        span = cls(data["id"], data["layer"], data["start"],
                   data.get("parent"), data.get("rid"), data.get("pid", 0),
                   data.get("tid", 0))
        span.end = data["end"]
        span.extra = dict(data.get("extra") or {})
        return span


class Recorder:
    """Spans of one process, kept in memory until written out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: Scheduler sequence number -> ticket, for queue-wait spans.
        self.seq_ticket: Dict[int, str] = {}
        self._submitted: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> Span:
        stack = self._stack()
        thread = threading.current_thread()
        match = _REQUEST_THREAD.match(thread.name)
        with self._lock:
            span = Span(f"{self.pid}:{len(self.spans)}", layer,
                        self.clock(),
                        parent=stack[-1].id if stack else None,
                        rid=match.group(1) if match else None,
                        pid=self.pid, tid=thread.ident or 0)
            self.spans.append(span)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- the queue-wait span (scheduler submit -> acquire) -------------------

    def queued(self, seq: int) -> None:
        self._submitted[seq] = self.clock()
        self._local.last_seq = seq

    def dequeued(self, seq: int) -> None:
        start = self._submitted.pop(seq, None)
        if start is None:
            return
        with self._lock:
            span = Span(f"{self.pid}:{len(self.spans)}",
                        "service.queue_wait", start, pid=self.pid,
                        tid=threading.get_ident())
            span.extra["seq"] = seq
            self.spans.append(span)
        span.end = self.clock()

    def last_seq(self) -> Optional[int]:
        return getattr(self._local, "last_seq", None)

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {"pid": self.pid,
                "seq_ticket": {str(k): v for k, v in self.seq_ticket.items()},
                "spans": [span.to_json() for span in self.spans]}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)


def load_spans(data: Dict[str, Any]) -> List[Span]:
    """Spans of one recorder dump, with request ids resolved.

    A span without its own request id takes its parent's (a call nested
    in ``CompileService.submit`` learns the ticket only when submit
    returns); a queue-wait span takes the ticket its scheduler sequence
    number was issued for.
    """
    spans = [Span.from_json(item) for item in data.get("spans", [])]
    seq_ticket = {int(k): v for k, v in data.get("seq_ticket", {}).items()}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.rid is None and "seq" in span.extra:
            span.rid = seq_ticket.get(int(span.extra["seq"]))
    for span in spans:
        node = span
        while node.rid is None and node.parent in by_id:
            node = by_id[node.parent]
        span.rid = node.rid
    return spans


# -- wrappers -------------------------------------------------------------------


def _count_place(span: Span, args, result, before) -> None:
    span.extra["moves"] = result.stats.moves_evaluated
    span.extra["accepted"] = result.stats.moves_accepted


def _count_route(span: Span, args, result, before) -> None:
    span.extra["expansions"] = result.node_expansions
    span.extra["iterations"] = result.iterations


def _built_before(args) -> int:
    return len(args[0].record.built)


def _count_step(span: Span, args, result, before) -> None:
    span.extra["miss"] = int(len(args[0].record.built) > before)


def _ticket_of_outcome(span: Span, args, result, before) -> None:
    span.rid = str(args[0].ticket)


def _make_admit_hook(recorder: Recorder):
    def hook(span: Span, args, result, before) -> None:
        span.rid = str(result)
        seq = recorder.last_seq()
        if seq is not None:
            recorder.seq_ticket[seq] = span.rid
    return hook


#: ``(layer, module, attribute path)``: every call the benchmark times.
#: A path with a dot names a method on a class of that module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("rosetta.app", "repro.rosetta", "get_app"),
    ("hls", "repro.core.flows", "schedule_operator"),
    ("hls", "repro.core.flows", "estimate_operator"),
    ("hls", "repro.core.flows", "emit_verilog"),
    ("hls", "repro.core.flows", "synthesize_netlist"),
    ("pnr.pack", "repro.pnr.compile_model", "pack_netlist"),
    ("pnr.place", "repro.pnr.compile_model", "place"),
    ("pnr.route", "repro.pnr.compile_model", "route"),
    ("pnr.timing", "repro.pnr.compile_model", "analyze_timing"),
    ("softcore.compile", "repro.core.flows", "compile_operator"),
    ("dataflow.functional", "repro.dataflow.simulator",
     "FunctionalSimulator.run"),
    ("noc.model", "repro.core.flows", "build_link_configuration"),
    ("noc.model", "repro.noc.perfmodel", "NoCPerformanceModel.bottlenecks"),
    ("core.flow", "repro.core.flows", "O0Flow.compile"),
    ("core.flow", "repro.core.flows", "O1Flow.compile"),
    ("core.flow", "repro.core.flows", "O3Flow.compile"),
    ("core.build", "repro.core.build", "BuildEngine.step"),
    ("core.build.key", "repro.core.build", "content_key"),
    ("core.cluster", "repro.core.cluster",
     "CompileCluster.incremental_schedule"),
    ("core.session", "repro.core.session", "IncrementalSession.compile"),
    ("core.session", "repro.core.session", "IncrementalSession.apply_edit"),
    ("store.local", "repro.store.artifact", "ArtifactStore.get"),
    ("store.local", "repro.store.artifact", "ArtifactStore.put"),
    ("store.serial", "repro.store.artifact", "encode_artifact"),
    ("store.serial", "repro.store.artifact", "decode_artifact"),
    ("store.serial", "repro.store.remote.client", "encode_artifact"),
    ("store.serial", "repro.store.remote.client", "decode_artifact"),
    ("store.serial", "repro.store.remote.client", "pack_artifacts"),
    ("store.serial", "repro.store.remote.client", "unpack_artifacts"),
    ("store.serial", "repro.store.remote.server", "encode_artifact"),
    ("store.serial", "repro.store.remote.server", "decode_artifact"),
    ("store.serial", "repro.store.remote.server", "pack_artifacts"),
    ("store.serial", "repro.store.remote.server", "unpack_artifacts"),
    ("store.remote", "repro.store.remote.client", "ShardClient.request"),
    ("resilience.journal", "repro.resilience.journal",
     "BuildJournal.begin_build"),
    ("resilience.journal", "repro.resilience.journal",
     "BuildJournal.end_build"),
    ("resilience.journal", "repro.resilience.journal",
     "BuildJournal.begin_step"),
    ("resilience.journal", "repro.resilience.journal",
     "BuildJournal.end_step"),
    ("resilience.journal", "repro.resilience.journal",
     "BuildJournal.fail_step"),
    ("service.admit", "repro.service.core", "CompileService.submit"),
    ("daemon.wire", "repro.service.daemon", "outcome_to_wire"),
    ("client.rtt", "repro.service.client", "ServiceClient.call"),
)

#: Every layer a report lists, in report order.  ``service.queue_wait``
#: is synthesized from scheduler submit/acquire; ``other`` is the time
#: no span covers.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [t[0] for t in TARGETS if t[0] != "client.rtt"]
    + ["service.queue_wait", "client.rtt", "other"]))


def _hooks(recorder: Recorder) -> Dict[str, Tuple[Optional[Callable],
                                                  Callable]]:
    """Attribute path -> ``(before(args), after(span, args, result,
    before))`` for wrappers that record more than the span."""
    return {
        "place": (None, _count_place),
        "route": (None, _count_route),
        "BuildEngine.step": (_built_before, _count_step),
        "outcome_to_wire": (None, _ticket_of_outcome),
        "CompileService.submit": (None, _make_admit_hook(recorder)),
    }


def _wrap(recorder: Recorder, layer: str, fn: Callable,
          hook: Optional[Tuple[Optional[Callable], Callable]]) -> Callable:
    before_fn, after_fn = hook if hook is not None else (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = before_fn(args) if before_fn is not None else None
        span = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(span)
        if after_fn is not None:
            after_fn(span, args, result, before)
        return result

    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _scheduler_wrappers(recorder: Recorder, cls) -> Dict[str, Callable]:
    submit, acquire = cls.__dict__["submit"], cls.__dict__["acquire"]

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        entry = submit(self, *args, **kwargs)
        recorder.queued(entry.seq)
        return entry

    @functools.wraps(acquire)
    def traced_acquire(self, *args, **kwargs):
        entry = acquire(self, *args, **kwargs)
        if entry is not None:
            recorder.dequeued(entry.seq)
        return entry

    return {"submit": traced_submit, "acquire": traced_acquire}


class Patches:
    """The installed wrappers; :meth:`restore` puts the originals back."""

    def __init__(self):
        self.saved: List[Tuple[Any, str, Any]] = []
        #: Targets absent from this version of the code (skipped).
        self.missing: List[str] = []

    def set(self, owner, name: str, value) -> None:
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if name not in vars(owner):
        raise AttributeError(f"{module}.{path}")
    return owner, name


def install(recorder: Recorder,
            targets: Iterable[Tuple[str, str, str]] = TARGETS) -> Patches:
    """Wrap every target; targets missing from the code are skipped and
    listed in :attr:`Patches.missing`."""
    patches = Patches()
    hooks = _hooks(recorder)
    for layer, module, path in targets:
        try:
            owner, name = _resolve(module, path)
        except (ImportError, AttributeError):
            patches.missing.append(f"{module}.{path}")
            continue
        patches.set(owner, name, _wrap(recorder, layer,
                                       owner.__dict__[name],
                                       hooks.get(path)))
    try:
        owner, _ = _resolve("repro.service.scheduler",
                            "RequestScheduler.submit")
        for name, fn in _scheduler_wrappers(recorder, owner).items():
            patches.set(owner, name, fn)
    except (ImportError, AttributeError, KeyError):
        patches.missing.append("repro.service.scheduler.RequestScheduler")
    return patches


class traced:
    """``with traced(recorder) as patches:`` — wrappers live inside."""

    def __init__(self, recorder: Recorder,
                 targets: Iterable[Tuple[str, str, str]] = TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.patches: Optional[Patches] = None

    def __enter__(self) -> Patches:
        self.patches = install(self.recorder, self.targets)
        return self.patches

    def __exit__(self, *exc) -> bool:
        if self.patches is not None:
            self.patches.restore()
        return False


def trace_events(spans: Iterable[Span], windows: Iterable[Dict[str, Any]],
                 process_names: Dict[int, str]) -> List[Any]:
    """The spans, plus one span per timed operation, as the program's
    own wall-clock ``TraceEvent`` objects, on one lane per process and
    thread.  ``repro.trace.export.write_chrome_trace`` writes them as
    Chrome trace-event JSON, which Perfetto opens and ``pld trace FILE``
    renders."""
    from repro.trace.tracer import WALL, TraceEvent

    spans = list(spans)
    windows = list(windows)
    starts = [s.start for s in spans] + [w["t0"] for w in windows]
    origin = min(starts) if starts else 0.0

    def lane(pid: int, tid: int) -> str:
        return f"{process_names.get(pid, f'pid {pid}')} / thread {tid}"

    events = [TraceEvent("span", span.layer, span.layer.split(".")[0], WALL,
                         lane(span.pid, span.tid), span.start - origin,
                         span.end - span.start,
                         {"rid": span.rid, **span.extra})
              for span in spans]
    events += [TraceEvent("span", window["item"], "op", WALL,
                          lane(window["pid"], window["tid"]),
                          window["t0"] - origin, window["t1"] - window["t0"],
                          {"rid": window.get("ticket")})
               for window in windows]
    return events


# -- attribution ------------------------------------------------------------------


def attribute(spans: Iterable[Span], t0: float, t1: float,
              tiers: Optional[Dict[int, int]] = None
              ) -> Tuple[Dict[str, float], float]:
    """Split ``[t0, t1]`` between layers.

    Each instant belongs to the innermost covering span.  ``tiers``
    maps a process id to its depth in the call chain (benchmark client
    0, daemon 1, store shard 2; absent means 0): a span in a deeper
    process is inside any span of a shallower one it overlaps, because
    the daemon may start a request before the client's ``result`` call
    goes out.  Within a tier the innermost span is the one that started
    last, and of equal starts the one that ends first.  Returns
    ``(seconds per layer, nesting error)``; the time no span covers is
    the ``other`` layer, so the seconds sum to ``t1 - t0``.

    The nesting error checks the same split computed the other way, as
    each span's duration minus its children's durations within its
    tier: when every pair of spans in a tier is nested or disjoint the
    two agree and the error is 0; overlapping siblings, such as two
    threads working on one request at once, make it positive.  It is a
    share of the interval.
    """
    tiers = tiers or {}
    clipped = []
    for index, span in enumerate(spans):
        start, end = max(span.start, t0), min(span.end, t1)
        if end > start:
            clipped.append((tiers.get(span.pid, 0), start, end, index,
                            span.layer))
    total = t1 - t0
    seconds: Dict[str, float] = {}
    bounds = sorted({t0, t1, *(c[1] for c in clipped),
                     *(c[2] for c in clipped)})
    clipped.sort(key=lambda c: (c[1], -c[2], c[3]))
    heap: List[Tuple[int, float, float, int, str]] = []
    nxt = 0
    for a, b in zip(bounds, bounds[1:]):
        while nxt < len(clipped) and clipped[nxt][1] <= a:
            tier, start, end, index, layer = clipped[nxt]
            heapq.heappush(heap, (-tier, -start, end, -index, layer))
            nxt += 1
        while heap and heap[0][2] <= a:
            heapq.heappop(heap)           # ended: dropped once on top
        layer = heap[0][4] if heap else "other"
        seconds[layer] = seconds.get(layer, 0.0) + (b - a)

    # The tree view, per tier: a span's parent is the innermost span
    # containing it.  Duration minus children sums to the covered time
    # only when the children of each parent (and the roots) do not
    # overlap; the overlap they do have is the error.
    excess = 0.0
    for tier in {c[0] for c in clipped}:
        groups: Dict[Optional[int], List[Tuple[float, float]]] = {}
        stack: List[Tuple[int, float, float, int, str]] = []
        for entry in (c for c in clipped if c[0] == tier):
            start, end = entry[1], entry[2]
            while stack and stack[-1][2] <= start:
                stack.pop()
            while stack and stack[-1][2] < end:
                stack.pop()               # partial overlap: not a parent
            groups.setdefault(stack[-1][3] if stack else None,
                              []).append((start, end))
            stack.append(entry)
        for members in groups.values():
            union, reach = 0.0, float("-inf")
            for start, end in members:    # sorted by start already
                if end > reach:
                    union += end - max(start, reach)
                    reach = end
            excess += sum(end - start for start, end in members) - union
    error = excess / total if total > 0 else 0.0
    return seconds, error
