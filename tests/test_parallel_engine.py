"""Tests for the process-parallel path of the build engine.

The contract under test: ``BuildEngine(workers=N)`` is an *execution*
optimisation only — for any batch of independent steps it must produce
bit-identical artefacts, the same content keys and the same
built/reused records as the serial :class:`BuildEngine`, and worker
failures (a crashed process, a poisoned pool, unpicklable work) must
degrade to in-process execution instead of hanging or corrupting the
build.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import BatchStep, BuildEngine
from repro.core.build import BuildCache


# Builders must be module-level so (fn, args, kwargs) pickles into the
# worker processes.

def _double(x):
    return x * 2


def _describe(name, n=1):
    return {"name": name, "n": n}


def _crash_in_worker(x):
    """Dies hard in a worker process; succeeds when retried in-parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x + 1


def _always_raises(x):
    raise ValueError(f"deterministic failure for {x}")


def _batch(n=6):
    return [BatchStep(f"step:{i}", (i,), _double, (i,)) for i in range(n)]


class TestParallelMatchesSerial:
    def test_identical_results_and_records(self):
        serial = BuildEngine()
        serial_out = serial.step_batch(_batch())
        with BuildEngine(workers=2) as par:
            par_out = par.step_batch(_batch())
            assert par_out == serial_out == [i * 2 for i in range(6)]
            assert par.record.keys == serial.record.keys
            assert par.record.built == serial.record.built
            assert par.record.reused == serial.record.reused == []
            assert par.worker_retries == 0
            # Every miss was timed (parent-observed wait).
            assert set(par.record.build_seconds) == set(par.record.built)

    def test_second_batch_is_all_cache_hits(self):
        with BuildEngine(workers=2) as engine:
            first = engine.step_batch(_batch())
            engine.fresh_record()
            second = engine.step_batch(_batch())
            assert second == first
            assert engine.record.built == []
            assert engine.record.reused == [f"step:{i}" for i in range(6)]

    def test_kwargs_and_mixed_hits(self):
        steps = [
            BatchStep("a", ("a",), _describe, ("a",), {"n": 3}),
            BatchStep("b", ("b",), _describe, ("b",)),
        ]
        with BuildEngine(workers=2) as engine:
            out = engine.step_batch(steps)
            assert out == [{"name": "a", "n": 3}, {"name": "b", "n": 1}]
            engine.fresh_record()
            steps2 = steps + [BatchStep("c", ("c",), _describe, ("c",))]
            out2 = engine.step_batch(steps2)
            assert out2[:2] == out
            assert engine.record.reused == ["a", "b"]
            assert engine.record.built == ["c"]

    def test_duplicate_key_builds_once(self):
        # Same name + key parts twice in one batch: the serial engine
        # builds once and reuses once; the pooled engine must too.
        dup = [BatchStep("dup", (7,), _double, (7,)),
               BatchStep("dup", (7,), _double, (7,)),
               BatchStep("other", (1,), _double, (1,))]
        serial = BuildEngine()
        serial_out = serial.step_batch(dup)
        with BuildEngine(workers=2) as par:
            par_out = par.step_batch(dup)
        assert par_out == serial_out == [14, 14, 2]
        assert sorted(par.record.built) == sorted(serial.record.built) \
            == ["dup", "other"]
        assert par.record.reused == serial.record.reused == ["dup"]

    def test_workers_one_stays_in_process(self):
        engine = BuildEngine(workers=1)
        assert engine.step_batch(_batch(3)) == [0, 2, 4]
        assert engine._pool is None
        engine.close()


class TestWorkerFailure:
    def test_crashed_worker_is_retried_not_hung(self):
        steps = [BatchStep(f"crash:{i}", (i,), _crash_in_worker, (i,))
                 for i in range(3)]
        with BuildEngine(workers=2) as engine:
            out = engine.step_batch(steps)
            # The in-parent retry computed the real artefacts.
            assert out == [1, 2, 3]
            assert engine.worker_retries >= 1
            assert engine.record.built == [f"crash:{i}" for i in range(3)]
            # The engine stays usable: the pool is re-created on demand.
            assert engine.step_batch(_batch(4)) == [0, 2, 4, 6]

    def test_deterministic_error_raises_in_parent(self):
        steps = [BatchStep("boom", (0,), _always_raises, (0,))] \
            + _batch(2)
        with BuildEngine(workers=2) as engine:
            with pytest.raises(ValueError, match="deterministic failure"):
                engine.step_batch(steps)
            assert engine.worker_retries >= 1

    def test_unpicklable_work_falls_back_to_in_process(self):
        steps = [BatchStep(f"lambda:{i}", (i,), (lambda x: x + 10), (i,))
                 for i in range(3)]
        with BuildEngine(workers=2) as engine:
            assert engine.step_batch(steps) == [10, 11, 12]
            assert engine.worker_retries >= 1

    def test_close_is_idempotent(self):
        engine = BuildEngine(workers=2)
        engine.step_batch(_batch(2))
        engine.close()
        engine.close()
        assert engine._pool is None


class TestFlowLevelEquivalence:
    def test_o1_flow_identical_under_parallel_engine(self):
        """A full -O1 compile must be bit-identical: same manifest keys,
        same rebuilt set, same modeled makespan, same execution."""
        from repro.core import O1Flow
        from repro.rosetta import get_app

        app = get_app("spam-filter")

        serial = BuildEngine(cache=BuildCache())
        serial_build = O1Flow(effort=0.1).compile(app.project, serial)

        with BuildEngine(cache=BuildCache(), workers=2) as par:
            par_build = O1Flow(effort=0.1).compile(app.project, par)
            assert par.worker_retries == 0

        assert par.record.keys == serial.record.keys
        assert sorted(par.record.built) == sorted(serial.record.built)
        assert sorted(par.record.reused) == sorted(serial.record.reused)
        assert (par_build.compile_times.total
                == serial_build.compile_times.total)
        assert (sorted(par_build.recompiled_pages)
                == sorted(serial_build.recompiled_pages))
        assert (par_build.execute(app.project.sample_inputs)
                == serial_build.execute(app.project.sample_inputs))
