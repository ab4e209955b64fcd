"""Compile-cluster fault-recovery tests."""

import hashlib
import itertools

import pytest

from repro.core.cluster import CompileCluster, Job
from repro.errors import FlowError
from repro.faults import FaultPlan
from repro.pnr.compile_model import StageTimes


def _jobs(n=6, seconds=100.0):
    quarter = seconds / 4
    return [Job(f"op_{i}",
                StageTimes(quarter, quarter, quarter, quarter))
            for i in range(n)]


class TestFaultFreePath:
    def test_no_injector_matches_legacy_behavior(self):
        cluster = CompileCluster(nodes=3)
        schedule = cluster.schedule(_jobs(6))
        assert schedule.makespan == pytest.approx(200.0)
        assert not schedule.failed
        assert schedule.retry_seconds == 0.0
        assert schedule.total_retries == 0
        assert all(n == 1 for n in schedule.attempts.values())

    def test_clean_injector_changes_nothing(self):
        plan = FaultPlan(0)          # all rates zero
        cluster = CompileCluster(nodes=3)
        a = cluster.schedule(_jobs(6))
        b = cluster.schedule(_jobs(6), faults=plan.compile_faults())
        assert a.makespan == b.makespan
        assert a.stage_maxima.total == b.stage_maxima.total


class TestRetries:
    def test_transient_failure_retries_and_charges_makespan(self):
        plan = FaultPlan(5, compile_fail_rate=0.4)
        cluster = CompileCluster(nodes=2, max_attempts=4)
        schedule = cluster.schedule(_jobs(4), faults=plan.compile_faults())
        baseline = CompileCluster(nodes=2).schedule(_jobs(4))
        assert schedule.total_retries > 0
        assert schedule.retry_seconds > 0
        assert schedule.makespan > baseline.makespan
        assert plan.events("compile")

    def test_timeout_charges_walltime_cap(self):
        plan = FaultPlan(2, compile_timeout_rate=1.0)
        cluster = CompileCluster(nodes=1, max_attempts=2,
                                 job_timeout_seconds=150.0,
                                 backoff_base_seconds=10.0)
        schedule = cluster.schedule(_jobs(1, seconds=100.0),
                                    faults=plan.compile_faults())
        # Both attempts hang until the 150s timeout; the job then fails.
        assert schedule.failed == ["op_0"]
        assert schedule.retry_seconds == pytest.approx(150.0 * 2 + 10.0)

    def test_exhausted_job_lands_in_failed_not_raised(self):
        plan = FaultPlan(0, kill_jobs=["op_1"])
        cluster = CompileCluster(nodes=2, max_attempts=3)
        schedule = cluster.schedule(_jobs(3), faults=plan.compile_faults())
        assert schedule.failed == ["op_1"]
        assert schedule.attempts["op_1"] == 3
        # Failed jobs do not contribute to the per-stage ceiling.
        clean = CompileCluster(nodes=2).schedule(
            [j for j in _jobs(3) if j.name != "op_1"])
        assert schedule.stage_maxima.total \
            == pytest.approx(clean.stage_maxima.total)

    def test_retried_job_scales_stage_maxima(self):
        plan = FaultPlan(13, compile_fail_rate=0.35)
        cluster = CompileCluster(nodes=4, max_attempts=5)
        jobs = _jobs(8)
        schedule = cluster.schedule(jobs, faults=plan.compile_faults())
        worst = max(schedule.attempts.values())
        assert worst > 1
        assert schedule.stage_maxima.total \
            == pytest.approx(jobs[0].seconds * worst)


class TestNodeFailures:
    def test_dead_node_is_retired_and_jobs_still_finish(self):
        plan = FaultPlan(8, node_fail_rate=0.3)
        cluster = CompileCluster(nodes=6, max_attempts=6)
        jobs = _jobs(10)
        schedule = cluster.schedule(jobs, faults=plan.compile_faults())
        assert schedule.lost_nodes
        # Every job still completed somewhere despite the dead nodes.
        assert not schedule.failed
        assert set(schedule.assignments) == {j.name for j in jobs}
        assert any("node-fail" in str(e)
                   for e in plan.events("compile"))

    def test_all_nodes_dying_is_fatal(self):
        plan = FaultPlan(1, node_fail_rate=1.0)
        cluster = CompileCluster(nodes=2, max_attempts=10)
        with pytest.raises(FlowError, match="nodes failed"):
            cluster.schedule(_jobs(4), faults=plan.compile_faults())


class TestDeterminism:
    def test_schedule_replays_identically(self):
        def once():
            plan = FaultPlan(42, compile_fail_rate=0.3,
                             compile_timeout_rate=0.1,
                             node_fail_rate=0.05)
            cluster = CompileCluster(nodes=4, max_attempts=4)
            s = cluster.schedule(_jobs(12), faults=plan.compile_faults())
            return (s.makespan, s.attempts, s.failed, s.lost_nodes,
                    [str(e) for e in plan.log])

        assert once() == once()

    #: sha256 over the schedules below, recorded when the cluster still
    #: had a second (hedged) retry ladder; the one ladder left must
    #: reproduce every schedule and trace event bit for bit.
    SCHEDULE_DIGEST = ("74e951074aa79623d9317e85fe35738b"
                       "ad0bbc229bcd40107dd5d5daf760c36a")

    def test_seeded_schedules_match_pinned_digest(self):
        from repro.trace import Tracer

        mixes = ({"compile_fail_rate": 0.3, "compile_timeout_rate": 0.1},
                 {"compile_timeout_rate": 0.3, "node_fail_rate": 0.05},
                 {"node_fail_rate": 0.15})
        job_sets = (_jobs(12),
                    _jobs(6, seconds=10.0)
                    + [Job("huge", StageTimes(pnr=1000.0))])
        cluster = CompileCluster(nodes=4, max_attempts=3)
        digest = hashlib.sha256()
        for seed, mix, jobs in itertools.product(range(40), mixes, job_sets):
            tracer = Tracer()
            faults = FaultPlan(seed, **mix).compile_faults()
            try:
                s = cluster.schedule(jobs, faults=faults, tracer=tracer)
            except FlowError as exc:             # every node died
                digest.update(repr(("error", str(exc))).encode())
                continue
            events = [(e.name, e.start, e.duration) for e in tracer.events]
            digest.update(repr((
                s.makespan, s.assignments, s.attempts, s.failed,
                s.retry_seconds, s.lost_nodes, s.stage_maxima.total,
                events)).encode())
        assert digest.hexdigest() == self.SCHEDULE_DIGEST


class TestNodeLossBookkeeping:
    def test_failed_job_excluded_from_assignments(self):
        """Regression: a job whose final attempt took its node down must
        land in ``failed`` and must NOT claim a node in ``assignments``
        (it never produced a result anywhere)."""
        plan = FaultPlan(1, node_fail_rate=1.0)
        cluster = CompileCluster(nodes=3, max_attempts=2)
        schedule = cluster.schedule(_jobs(1), faults=plan.compile_faults())
        assert schedule.failed == ["op_0"]
        assert "op_0" not in schedule.assignments
        assert schedule.attempts["op_0"] == 2
        # Both dead nodes were retired; the third is untouched.
        assert sorted(schedule.lost_nodes) == [0, 1]

    def test_final_node_death_emits_failed_segment(self):
        """The job's closing trace span says 'failed', not 'node-lost'."""
        from repro.trace import Tracer

        plan = FaultPlan(1, node_fail_rate=1.0)
        cluster = CompileCluster(nodes=3, max_attempts=2)
        tracer = Tracer()
        cluster.schedule(_jobs(1), faults=plan.compile_faults(),
                         tracer=tracer)
        outcomes = [e.attrs.get("outcome") for e in tracer.events
                    if e.name == "job:op_0" and e.kind == "span"]
        assert outcomes                 # a segment was emitted at all
        assert outcomes[-1] == "failed"

    def test_mixed_failed_and_ok_jobs_assignments_are_consistent(self):
        plan = FaultPlan(0, kill_jobs=["op_1"])
        cluster = CompileCluster(nodes=2, max_attempts=2)
        jobs = _jobs(4)
        schedule = cluster.schedule(jobs, faults=plan.compile_faults())
        assert schedule.failed == ["op_1"]
        assert set(schedule.assignments) \
            == {j.name for j in jobs} - {"op_1"}
        assert set(schedule.attempts) == {j.name for j in jobs}
