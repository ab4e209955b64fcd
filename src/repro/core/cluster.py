"""Compile-cluster model (the paper's Slurm deployment, Sec. 7.1).

Page compiles are independent jobs: the paper runs them on a
Google-Cloud Slurm cluster, 8 threads per operator, so the -O1 compile
time in Tab. 2 is the *longest single page compile*, not the sum.  The
model schedules jobs onto a fixed number of nodes (list scheduling,
longest job first) and reports the makespan plus per-stage maxima.

Real clusters also fail: jobs crash, hang past their walltime, or lose
their node entirely.  :meth:`CompileCluster.schedule` accepts a
:class:`repro.faults.CompileFaultInjector` and models recovery the way
a Slurm deployment would — a per-job timeout bounds hangs, failed
attempts retry with exponential backoff (the wasted attempt time and
the backoff are charged into the node's busy time and hence into the
makespan), and a dead node is retired so the retry lands elsewhere.  A
job that exhausts its retries is reported in
:attr:`ClusterSchedule.failed` rather than raised, because the -O1 flow
can still link the design by remapping that operator to the preloaded
-O0 softcore (the paper's mixed-flow capability, Fig. 10).

An optional :class:`~repro.resilience.Deadline` is checked between
jobs; expiry raises :class:`~repro.errors.DeadlineExceeded` carrying the
jobs already scheduled and those still pending.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import FlowError
from repro.pnr.compile_model import StageTimes
from repro.trace import MODELED, NULL_TRACER


@dataclass(frozen=True)
class Job:
    """One compile job (e.g. one operator's page compile)."""

    name: str
    stages: StageTimes

    @property
    def seconds(self) -> float:
        return self.stages.total


@dataclass
class ClusterSchedule:
    """Result of scheduling a job set."""

    makespan: float
    assignments: Dict[str, int]            # job -> node (failed jobs absent)
    stage_maxima: StageTimes               # per-stage slowest job
    serial_seconds: float                  # total CPU-seconds of work
    attempts: Dict[str, int] = field(default_factory=dict)
    failed: List[str] = field(default_factory=list)
    retry_seconds: float = 0.0             # wasted attempts + backoff
    lost_nodes: List[int] = field(default_factory=list)

    @property
    def parallel_speedup(self) -> float:
        if self.makespan == 0:
            return 1.0
        return self.serial_seconds / self.makespan

    @property
    def total_retries(self) -> int:
        return sum(n - 1 for n in self.attempts.values() if n > 1)


@dataclass
class CompileCluster:
    """A pool of identical compile nodes.

    The paper's cluster: 4-CPU nodes for page jobs, one 15-CPU node for
    monolithic jobs; node count bounds page-compile parallelism.

    Args:
        nodes: node count (bounds page-compile parallelism).
        threads_per_node: threads one job gets.
        job_timeout_seconds: walltime after which a hung job is killed
            and retried (Slurm's ``--time``).
        max_attempts: total tries per job (first run + retries).
        backoff_base_seconds: first retry delay; doubles per retry.
    """

    nodes: int = 24
    threads_per_node: int = 8
    job_timeout_seconds: float = 3_600.0
    max_attempts: int = 3
    backoff_base_seconds: float = 30.0

    def schedule(self, jobs: List[Job], faults=None, tracer=None,
                 deadline=None) -> ClusterSchedule:
        """LPT list-schedule jobs; returns the makespan.

        With a fault injector, each attempt may crash, hang until the
        per-job timeout, or take its node down; retries (with
        exponential backoff) are charged into the makespan.  Jobs whose
        retries exhaust land in :attr:`ClusterSchedule.failed` (and are
        excluded from :attr:`ClusterSchedule.assignments` — they never
        produced a result on any node).

        With a :class:`repro.trace.Tracer`, every job becomes a span on
        its node's lane of the modeled clock; retried jobs additionally
        carry per-attempt and backoff child spans, and a lost node is
        marked with an instant event.

        With a :class:`~repro.resilience.Deadline`, the budget is
        checked before each job; expiry raises
        :class:`~repro.errors.DeadlineExceeded` with the partial
        schedule attached.
        """
        if self.nodes < 1:
            raise FlowError("cluster needs at least one node")
        if self.max_attempts < 1:
            raise FlowError("cluster needs at least one attempt per job")
        tracer = tracer if tracer is not None else NULL_TRACER
        if not jobs:
            return ClusterSchedule(0.0, {}, StageTimes(), 0.0)
        trace_base = tracer.modeled_time()
        ordered = sorted(jobs, key=lambda j: -j.seconds)
        heap: List[Tuple[float, int]] = [(0.0, node)
                                         for node in range(self.nodes)]
        heapq.heapify(heap)
        assignments: Dict[str, int] = {}
        attempts: Dict[str, int] = {}
        failed: List[str] = []
        lost_nodes: List[int] = []
        retry_seconds = 0.0

        def emit_segment(job: Job, node: int, seg_start: float,
                         seg_end: float, children: List[Tuple],
                         n_attempts: int, outcome: str) -> None:
            """One job span on its node lane (+ retry/backoff children)."""
            if not tracer.enabled or seg_end <= seg_start:
                return
            lane = f"node{node}"
            tracer.modeled_span(
                f"job:{job.name}", trace_base + seg_start,
                seg_end - seg_start, category="cluster", lane=lane,
                attempts=n_attempts, outcome=outcome)
            if len(children) > 1:
                for kind, start, duration, attrs in children:
                    if duration <= 0:
                        continue
                    tracer.modeled_span(
                        f"{kind}:{job.name}", trace_base + start,
                        duration, category="cluster", lane=lane, **attrs)

        def node_lost(node: int, when: float, job: Job) -> None:
            lost_nodes.append(node)
            if tracer.enabled:
                tracer.instant(
                    f"node-lost:node{node}", category="cluster",
                    lane=f"node{node}", clock=MODELED,
                    ts=trace_base + when, job=job.name)

        def attempt_wasted(job: Job, outcome: str, fraction: float
                           ) -> float:
            if outcome == "timeout":
                return min(job.seconds * 2, self.job_timeout_seconds)
            if outcome in ("fail", "node"):
                return job.seconds * max(0.0, min(1.0, fraction))
            raise FlowError(
                f"fault injector returned unknown outcome "
                f"{outcome!r} for job {job.name!r}")

        for index, job in enumerate(ordered):
            if deadline is not None:
                deadline.check(
                    f"cluster job {job.name!r}",
                    completed=sorted(attempts),
                    pending=[j.name for j in ordered[index:]])
            if not heap:
                raise FlowError(
                    f"all {self.nodes} compile nodes failed; cannot "
                    f"schedule job {job.name!r}")
            busy_until, node = heapq.heappop(heap)
            seg_start = busy_until
            children: List[Tuple] = []
            attempt = 0
            job_failed = False
            while True:
                attempt += 1
                attempt_start = busy_until
                outcome, fraction = ("ok", 1.0) if faults is None else \
                    faults.attempt_outcome(job.name, attempt)
                if outcome == "ok":
                    busy_until += job.seconds
                    children.append(("attempt", attempt_start,
                                     job.seconds,
                                     {"attempt": attempt,
                                      "outcome": "ok"}))
                    break
                wasted = attempt_wasted(job, outcome, fraction)
                busy_until += wasted
                retry_seconds += wasted
                children.append(("attempt", attempt_start, wasted,
                                 {"attempt": attempt, "outcome": outcome}))
                final = attempt >= self.max_attempts
                if outcome == "node":
                    # The node died under the job: retire it.  On the
                    # final attempt the job simply fails (its closing
                    # segment says so); otherwise the job moves to the
                    # next node that frees up (no backoff — the
                    # reschedule is immediate, just possibly queued).
                    emit_segment(job, node, seg_start, busy_until,
                                 children, attempt,
                                 "failed" if final else "node-lost")
                    node_lost(node, busy_until, job)
                    if final:
                        job_failed = True
                        node = None      # retired; nothing to requeue
                        break
                    if not heap:
                        raise FlowError(
                            f"all {self.nodes} compile nodes failed "
                            f"while retrying job {job.name!r}")
                    next_free, node = heapq.heappop(heap)
                    busy_until = max(busy_until, next_free)
                    seg_start = busy_until
                    children = []
                    continue
                if final:
                    job_failed = True
                    break
                backoff = self.backoff_base_seconds \
                    * 2.0 ** (attempt - 1)
                children.append(("backoff", busy_until, backoff,
                                 {"attempt": attempt}))
                busy_until += backoff
                retry_seconds += backoff
            attempts[job.name] = attempt
            if job_failed:
                failed.append(job.name)
            else:
                assignments[job.name] = node
            if node is not None:
                emit_segment(job, node, seg_start, busy_until, children,
                             attempt, "failed" if job_failed else "ok")
                heapq.heappush(heap, (busy_until, node))

        makespan = max(t for t, _node in heap) if heap else 0.0
        if tracer.enabled:
            tracer.advance_modeled(trace_base + makespan)
        maxima = StageTimes()
        failed_set = set(failed)
        for job in jobs:
            if job.name in failed_set:
                continue
            # A retried job reran its whole pipeline: charge every
            # attempt into the per-stage ceiling the flow reports.
            maxima = maxima.merged_parallel(
                job.stages.scaled(attempts.get(job.name, 1)))
        serial = sum(job.seconds for job in jobs)
        return ClusterSchedule(makespan, assignments, maxima, serial,
                               attempts=attempts, failed=failed,
                               retry_seconds=retry_seconds,
                               lost_nodes=lost_nodes)

    def incremental_schedule(self, all_jobs: List[Job], dirty_names,
                             faults=None, tracer=None, deadline=None
                             ) -> Tuple[ClusterSchedule, ClusterSchedule]:
        """Schedule only the dirty subset; also price the cold rebuild.

        The incremental story (Sec. 6): after an edit, only pages whose
        content key changed go back to the cluster, so the reported
        makespan is what the developer actually waits.  The second
        schedule is the fault-free cost of compiling *every* job — the
        cold-build reference a report compares against.  Faults (and
        the deadline) are only applied to the dirty schedule: jobs that
        are not rerun cannot fail, and pricing a hypothetical rebuild
        costs no wall clock.

        Returns ``(dirty_schedule, cold_schedule)``.
        """
        dirty = set(dirty_names)
        unknown = dirty - {job.name for job in all_jobs}
        if unknown:
            raise FlowError(
                f"dirty jobs not in the job set: {sorted(unknown)}")
        dirty_jobs = [job for job in all_jobs if job.name in dirty]
        # Only the dirty schedule is traced: the cold schedule prices a
        # hypothetical rebuild, not work this invocation performed.
        dirty_schedule = self.schedule(dirty_jobs, faults=faults,
                                       tracer=tracer, deadline=deadline)
        cold_schedule = self.schedule(all_jobs)
        return dirty_schedule, cold_schedule
