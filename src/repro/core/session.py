"""Incremental compilation sessions (the paper's edit loop, Sec. 6).

The paper's pitch is that FPGA development should feel like software
development: edit one operator, rebuild in minutes not hours, reload
without disturbing the rest of the running design.
:class:`IncrementalSession` is that loop end to end:

* ``compile(project)`` runs a full -O1 build through a persistent
  :class:`repro.store.ArtifactStore`, so a later session over the same
  directory starts warm;
* ``apply_edit(op, new_spec)`` swaps one operator's IR, recompiles —
  the content keys make every untouched step a cache hit, so only the
  dirty page goes back to the cluster — and computes the *delta*: which
  pages to reload, which link packets to resend;
* ``reload(host)`` applies that delta to a configured card via partial
  reconfiguration (overlay and clean pages stay resident).

The result of each edit is an :class:`EditResult`, which
:func:`repro.core.reports.format_incremental_report` renders in the
style of the paper's Tab. 2: incremental cost next to the cold-build
cost it replaced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import FlowError
from repro.core.build import BuildEngine
from repro.core.flows import FlowBuild, O1Flow, diff_manifests
from repro.core.project import Project
from repro.hls.ir import OperatorSpec, VarDecl
from repro.pnr.compile_model import StageTimes


@dataclass
class EditResult:
    """What one ``apply_edit`` cost and produced."""

    operator: str
    build: FlowBuild
    #: Build steps whose content key changed or appeared (dirty set).
    dirty_steps: List[str] = field(default_factory=list)
    #: Operators behind those steps (usually just the edited one).
    dirty_operators: List[str] = field(default_factory=list)
    #: Pages reloaded through partial reconfiguration.
    pages_reloaded: List[int] = field(default_factory=list)
    #: Delta link packets (only reloaded leaves / changed bindings).
    delta_packets: List = field(default_factory=list)
    #: Makespan of recompiling just the dirty pages.
    recompile_times: StageTimes = field(default_factory=StageTimes)
    #: Fault-free makespan a cold full rebuild would have cost.
    cold_compile_times: StageTimes = field(default_factory=StageTimes)
    #: Configuration-port seconds for the page reloads.
    reload_seconds: float = 0.0
    #: Full-relink packet count, for the delta/full comparison.
    full_packets: int = 0

    @property
    def speedup(self) -> float:
        """Cold makespan over incremental makespan (>= 1 in practice)."""
        incremental = self.recompile_times.total
        cold = self.cold_compile_times.total
        if incremental <= 0:
            return float("inf") if cold > 0 else 1.0
        return cold / incremental


class IncrementalSession:
    """A long-lived edit-compile-reload loop over one project.

    Args:
        cache_dir: directory for the persistent artifact store; None
            keeps the session warm only within this process.
        store: an existing store to share (overrides ``cache_dir``).
            It stays its caller's: :meth:`close` leaves it open.
        effort / seed: the -O1 flow's; the session reuses one engine
            across compiles so the flow's record reflects incremental
            work.
        resume: replay the store's build journal from an interrupted
            invocation — completed steps become ``resume-skip`` cache
            hits; requires a disk-backed store (``cache_dir``).
        journal_dir: where the build journal lives (defaults to the
            store's ``cache_dir``).  The compile service gives every
            leased session its own journal directory while all sessions
            share one store, so a restart can resume each session
            independently.
        engine: a :class:`BuildEngine` to drive compiles, handed over
            to the session (the compile service passes one over its
            store that borrows its worker pool); the session attaches
            its journal to it and closes it.  Default: a private serial
            engine over the store.  A deadline set on the engine
            (``engine.deadline``) bounds each compile; expiry raises
            :class:`repro.errors.DeadlineExceeded` while every finished
            artefact stays banked in the store.
    """

    def __init__(self, cache_dir=None, store=None, effort: float = 1.0,
                 seed: int = 1, tracer=None, resume: bool = False,
                 journal_dir=None, engine: Optional[BuildEngine] = None):
        # Imported here, not at module top: repro.store itself imports
        # repro.core.build, and this module is pulled in by the
        # repro.core package init — a top-level import would make
        # ``import repro.store`` circular.
        from repro.store import ArtifactStore
        from repro.trace import NULL_TRACER

        self.store = store if store is not None \
            else ArtifactStore(cache_dir=cache_dir)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = None
        store_dir = journal_dir if journal_dir is not None \
            else getattr(self.store, "cache_dir", None)
        if store_dir is not None:
            from repro.resilience import BuildJournal
            self.journal = BuildJournal(store_dir, resume=resume)
        elif resume:
            raise FlowError("--resume needs a disk-backed store "
                            "(cache_dir); an in-memory session has no "
                            "journal to replay")
        if engine is not None:
            self.engine = engine
            self.engine.journal = self.journal
        else:
            self.engine = BuildEngine(cache=self.store,
                                      tracer=self.tracer,
                                      journal=self.journal,
                                      owns_cache=store is None)
        self.flow = O1Flow(effort=effort, seed=seed)
        self.project: Optional[Project] = None
        self.build: Optional[FlowBuild] = None
        self.history: List[EditResult] = []

    def compile(self, project: Project) -> FlowBuild:
        """Full -O1 build (warm wherever the store already has steps)."""
        kind = "cold-compile" if self.build is None else "recompile"
        with self.tracer.span(f"session:{kind}", category="session",
                              lane="session",
                              project=project.name) as span:
            if self.journal is not None:
                self.journal.begin_build(self.flow.name, project.name)
            self.build = self.flow.compile(project, self.engine)
            if self.journal is not None:
                self.journal.end_build()
            span.set(pages_rebuilt=len(self.build.recompiled_pages),
                     reused=len(self.build.reused))
        self.project = project
        self._reconcile_store()
        return self.build

    def _reconcile_store(self) -> None:
        """Drain a remote store's write-behind queue between compiles.

        With a :class:`repro.store.remote.ShardedStoreClient` backing
        the session, artefacts written while a shard was quarantined
        sit in the local fallback; the end of a compile is the natural
        moment to try pushing them out (the shard may have healed
        mid-build).  A plain local store has no ``reconcile`` and this
        is a no-op.
        """
        reconcile = getattr(self.store, "reconcile", None)
        if callable(reconcile):
            drained = reconcile()
            if drained:
                self.tracer.instant("session:store-reconciled",
                                    category="session", lane="session",
                                    drained=drained)

    def apply_edit(self, op_name: str, new_spec: OperatorSpec,
                   sample_spec: Optional[OperatorSpec] = None) -> EditResult:
        """Swap one operator's IR, recompile incrementally, diff.

        Only steps whose content key changed rerun; the cluster only
        sees the dirty page jobs, so ``recompile_times`` is the single
        page's compile time for a one-operator edit — the paper's
        minutes-not-hours claim, measurable.
        """
        if self.project is None or self.build is None:
            raise FlowError("apply_edit before compile(); the session "
                            "needs a baseline build to diff against")
        previous = self.build
        edited = self.project.with_spec(op_name, new_spec, sample_spec)
        with self.tracer.span(f"session:edit:{op_name}",
                              category="session", lane="session",
                              operator=op_name) as span:
            build = self.flow.compile(edited, self.engine)

            diff = diff_manifests(previous.manifest(), build.manifest())
            dirty_steps = sorted(diff["changed"] + diff["added"])
            dirty_operators = sorted({step.split(":", 1)[1]
                                      for step in dirty_steps
                                      if ":" in step})
            span.set(dirty_steps=len(dirty_steps),
                     dirty_operators=len(dirty_operators),
                     pages_rebuilt=len(build.recompiled_pages))

        pages = list(build.recompiled_pages)
        delta_packets = []
        if build.link_config is not None:
            delta_packets = build.link_config.delta_config_packets(
                pages, previous=previous.link_config)
        reload_seconds = sum(
            build.page_images[page][0].load_seconds for page in pages
            if page in build.page_images)

        result = EditResult(
            operator=op_name,
            build=build,
            dirty_steps=dirty_steps,
            dirty_operators=dirty_operators,
            pages_reloaded=pages,
            delta_packets=delta_packets,
            recompile_times=build.compile_times,
            cold_compile_times=build.cold_compile_times or StageTimes(),
            reload_seconds=reload_seconds,
            full_packets=len(build.link_packets),
        )
        self.project = edited
        self.build = build
        self.history.append(result)
        return result

    def reload(self, host, result: Optional[EditResult] = None):
        """Apply an edit's delta to a configured card.

        Args:
            host: a :class:`repro.platform.host.HostProgram` already
                configured with the session's previous build.
            result: the edit to apply (defaults to the latest one).
        """
        if result is None:
            if not self.history:
                raise FlowError("no edit to reload")
            result = self.history[-1]
        return host.apply_delta(result.build, result.pages_reloaded,
                                result.delta_packets)

    def close(self) -> None:
        """Release what the session opened: one last reconcile of a
        remote store's write-behind queue, then the journal and the
        engine.  A store passed in stays open for its owner to close."""
        self._reconcile_store()
        if self.journal is not None:
            self.journal.close()
        self.engine.close()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def touch_spec(spec: OperatorSpec, tag: str = "edit") -> OperatorSpec:
    """A minimal semantics-preserving edit to an operator spec.

    Adds one unused 1-bit register named after ``tag``.  The content
    key changes (the variable list is hashed) but behaviour, ports and
    LUT count do not — variables only add flip-flops — so page
    assignment is stable.  Tests and the ``pld edit`` demo use this to
    dirty exactly one operator.
    """
    name = f"__{tag}"
    suffix = 0
    taken = {v.name for v in spec.variables}
    while name in taken:
        suffix += 1
        name = f"__{tag}{suffix}"
    return dataclasses.replace(
        spec, variables=list(spec.variables) + [VarDecl(name, 1, False)])
