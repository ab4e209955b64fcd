"""Unit tests for the supervision layer: journal, deadline, breaker,
lock, and their wiring into the build engine and the -O1 flow."""

import json
import os

import pytest

from repro.core import BuildEngine, O1Flow
from repro.core.build import BuildCache
from repro.errors import CircuitOpenError, DeadlineExceeded, StoreError
from repro.resilience import (
    BuildJournal,
    CircuitBreaker,
    Deadline,
    StoreLock,
    completed_steps,
    in_flight_steps,
    journal_path,
    load_journal,
    repair_journal,
)

from tests.test_core_flows import EFFORT, make_project


# --------------------------------------------------------------------------
# journal
# --------------------------------------------------------------------------


class TestJournal:
    def test_fresh_journal_truncates_and_records(self, tmp_path):
        path = journal_path(tmp_path)
        path.write_text('{"t": "end", "step": "old", "key": "k"}\n')
        with BuildJournal(tmp_path) as journal:
            assert journal.completed == {}     # fresh build, old log gone
            journal.begin_build("o1", "tiny")
            journal.begin_step("hls:op0", "abc")
            journal.end_step("hls:op0", "abc")
            journal.end_build()
        records, good = load_journal(path)
        assert [r["t"] for r in records] \
            == ["build-begin", "begin", "end", "build-end"]
        assert good == path.stat().st_size

    def test_resume_replays_completions(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            journal.begin_build()
            journal.begin_step("a", "k1")
            journal.end_step("a", "k1")
            journal.begin_step("b", "k2")   # crashed mid-step: no end
        resumed = BuildJournal(tmp_path, resume=True)
        assert resumed.resuming
        assert resumed.interrupted
        assert resumed.completed == {"a": "k1"}
        assert resumed.can_skip("a", "k1")
        assert not resumed.can_skip("a", "other-key")   # edit invalidates
        assert not resumed.can_skip("b", "k2")
        resumed.close()

    def test_fail_record_revokes_completion(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            journal.end_step("a", "k1")
            journal.fail_step("a", "k1", error="BuildError('boom')")
        resumed = BuildJournal(tmp_path, resume=True)
        assert resumed.completed == {}
        resumed.close()

    def test_torn_tail_is_ignored_and_truncated_on_resume(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            journal.end_step("a", "k1")
        path = journal_path(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'{"t": "end", "step": "b", "key"')  # torn line
        records, good = load_journal(path)
        assert completed_steps(records) == {"a": "k1"}
        assert good < path.stat().st_size
        resumed = BuildJournal(tmp_path, resume=True)
        resumed.close()
        assert path.stat().st_size == good      # tail gone
        assert resumed.completed == {"a": "k1"}

    def test_in_flight_steps(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            journal.begin_step("a", "k1")
            journal.end_step("a", "k1")
            journal.begin_step("b", "k2")
        records, _good = load_journal(journal_path(tmp_path))
        assert in_flight_steps(records) == {"b": "k2"}

    def test_repair_drops_ends_without_objects(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            journal.end_step("a", "k1")
            journal.end_step("b", "k2")
        path = journal_path(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"garbage-without-newline")
        truncated, dropped = repair_journal(
            path, key_exists=lambda key: key == "k1")
        assert truncated == len(b"garbage-without-newline")
        assert dropped == 1
        records, good = load_journal(path)
        assert completed_steps(records) == {"a": "k1"}
        assert good == path.stat().st_size
        # Second repair is a no-op.
        assert repair_journal(path, key_exists=lambda key: True) == (0, 0)


# --------------------------------------------------------------------------
# deadline
# --------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_check_passes_then_raises(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        deadline.check("step1")                 # plenty of budget
        clock.now = 9.9
        assert deadline.remaining() == pytest.approx(0.1)
        assert not deadline.expired
        clock.now = 10.1
        with pytest.raises(DeadlineExceeded) as exc_info:
            deadline.check("step2", completed=["step1"],
                           pending=["step2", "step3"])
        exc = exc_info.value
        assert exc.seconds == 10.0
        assert exc.elapsed == pytest.approx(10.1)
        assert exc.completed == ["step1"]
        assert exc.pending == ["step2", "step3"]
        assert "step2" in str(exc)

    def test_engine_banks_finished_artifacts(self):
        clock = FakeClock()
        cache = BuildCache()
        engine = BuildEngine(cache=cache,
                             deadline=Deadline(5.0, clock=clock))
        engine.step("a", ("a",), lambda: "A")
        clock.now = 6.0
        with pytest.raises(DeadlineExceeded) as exc_info:
            engine.step("b", ("b",), lambda: "B")
        assert exc_info.value.completed == ["a"]
        # The finished artefact survived the expiry.
        assert engine.record.built == ["a"]
        assert len(cache) == 1
        # Cache hits are free even after expiry (no builder runs).
        assert engine.step("a", ("a",), lambda: "A") == "A"


# --------------------------------------------------------------------------
# circuit breaker
# --------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_and_success_resets(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure("impl:a")
        breaker.record_failure("impl:a")
        assert not breaker.is_open("impl:a")
        breaker.record_success("impl:a")        # reset
        breaker.record_failure("impl:a")
        breaker.record_failure("impl:a")
        breaker.record_failure("impl:a")
        assert breaker.is_open("impl:a")
        assert breaker.open_steps() == ["impl:a"]
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.check("impl:a")
        assert exc_info.value.failures == 3

    def test_half_open_admits_exactly_one_probe_across_threads(self):
        """The client shares one breaker between the request workers'
        engines and the reconciler; after a cooldown, exactly one of
        them may be admitted as the half-open probe."""
        import threading

        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1,
                                 cooldown_seconds=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure("shard")
        assert breaker.is_open("shard")
        clock[0] += 2.0                     # cooldown elapsed
        barrier = threading.Barrier(8)
        admitted = []

        def probe():
            barrier.wait()
            if not breaker.is_open("shard"):
                admitted.append(1)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert breaker.half_open("shard")
        # The losing threads stay blocked until the probe resolves.
        assert breaker.is_open("shard")

    def test_engine_fast_fails_open_step(self):
        breaker = CircuitBreaker(failure_threshold=2)
        engine = BuildEngine(breaker=breaker)

        def boom():
            raise RuntimeError("flaky builder")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                engine.step("bad", ("k", os.getpid()), boom)
        calls = []
        with pytest.raises(CircuitOpenError):
            engine.step("bad", ("k", os.getpid()),
                        lambda: calls.append(1))
        assert calls == []                      # builder never ran

    def test_flow_degrades_tripped_operator_to_softcore(self):
        """An impl step with an open breaker goes straight to -O0."""
        project = make_project()
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("impl:op1")
        engine = BuildEngine(breaker=breaker)
        build = O1Flow(effort=EFFORT).compile(project, engine)
        assert "op1" in build.remapped
        assert "circuit breaker open" in build.remapped["op1"]
        # The degraded page loads a softcore image, not a bitstream.
        page = build.page_of["op1"]
        _image, occupant, softcore = build.page_images[page]
        assert occupant == "op1" and softcore
        assert "impl:op1" not in build.step_keys
        # Function is preserved (the paper's mixed-flow guarantee).
        clean = O1Flow(effort=EFFORT).compile(project, BuildEngine())
        inputs = project.sample_inputs
        assert build.execute(inputs) == clean.execute(inputs)


# --------------------------------------------------------------------------
# store lock
# --------------------------------------------------------------------------


class TestStoreLock:
    def test_exclusive_lock_round_trip(self, tmp_path):
        with StoreLock(tmp_path) as lock:
            assert lock.held
        assert not lock.held

    def test_second_exclusive_acquire_times_out(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        del fcntl
        with StoreLock(tmp_path):
            blocked = StoreLock(tmp_path, timeout=0.1)
            with pytest.raises(StoreError, match="lock"):
                blocked.acquire()

    def test_shared_locks_coexist(self, tmp_path):
        pytest.importorskip("fcntl")
        with StoreLock(tmp_path, exclusive=False):
            with StoreLock(tmp_path, exclusive=False, timeout=0.5) as two:
                assert two.held


# --------------------------------------------------------------------------
# engine + journal integration
# --------------------------------------------------------------------------


class TestEngineJournal:
    def test_steps_are_journaled_and_resume_skips(self, tmp_path):
        cache = BuildCache()
        with BuildJournal(tmp_path) as journal:
            engine = BuildEngine(cache=cache, journal=journal)
            engine.step("a", ("a",), lambda: "A")
            engine.step("b", ("b",), lambda: "B")
        records, _good = load_journal(journal_path(tmp_path))
        assert completed_steps(records).keys() == {"a", "b"}

        # Same cache, resumed journal: hits count as resumed steps.
        with BuildJournal(tmp_path, resume=True) as journal:
            engine = BuildEngine(cache=cache, journal=journal)
            engine.step("a", ("a",), lambda: "A")
            engine.step("c", ("c",), lambda: "C")
        assert engine.record.resumed == ["a"]
        assert engine.record.built == ["c"]

    def test_failed_step_journals_fail_record(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            engine = BuildEngine(journal=journal)
            with pytest.raises(RuntimeError):
                engine.step("bad", ("k",),
                            lambda: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        records, _good = load_journal(journal_path(tmp_path))
        assert [r["t"] for r in records] == ["begin", "fail"]
        assert "boom" in records[-1]["error"]

    def test_journal_lines_are_valid_json(self, tmp_path):
        with BuildJournal(tmp_path) as journal:
            engine = BuildEngine(journal=journal)
            engine.step("a", ("a",), lambda: "A")
        for line in journal_path(tmp_path).read_text().splitlines():
            assert isinstance(json.loads(line), dict)
