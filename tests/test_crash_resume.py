"""Crash-safe resume: kill a build at every step, resume, and prove the
manifest is bit-identical to an uninterrupted build.

Two layers: an in-process property test using :class:`CrashPlan`'s
``raise`` mode (crash at step *k* for every *k* and every crash window),
and one real-subprocess end-to-end test where the CLI SIGKILLs itself
mid-compile and ``pld compile --resume`` finishes the job.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import BuildEngine, O1Flow
from repro.faults import CrashPlan, InjectedCrash
from repro.resilience import (
    BuildJournal,
    completed_steps,
    journal_path,
    load_journal,
)
from repro.store import ArtifactStore

from tests.test_core_flows import EFFORT, make_project

REPO = pathlib.Path(__file__).resolve().parent.parent


def _compile(cache_dir, project, resume=False, crash_plan=None,
             parallel=False):
    store = ArtifactStore(cache_dir=cache_dir)
    journal = BuildJournal(cache_dir, resume=resume)
    engine = BuildEngine(cache=store, journal=journal,
                         crash_plan=crash_plan,
                         workers=2 if parallel else 1)
    journal.begin_build("o1", project.name)
    try:
        build = O1Flow(effort=EFFORT).compile(project, engine)
        journal.end_build()
        return build
    finally:
        journal.close()
        engine.close()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted build: the manifest every resume must match."""
    project = make_project(n_ops=2)
    build = _compile(tmp_path_factory.mktemp("ref"), project)
    return project, build


class TestCrashAtEveryStep:
    @pytest.mark.parametrize("point", ["begin", "mid", "end"])
    def test_kill_at_step_k_then_resume(self, tmp_path, point, reference):
        """Crash at every step *k* in every crash window, then resume.

        The resumed build's manifest must be bit-identical to the
        uninterrupted one, and no step the journal recorded as complete
        may run its builder again.
        """
        project, ref = reference
        n_steps = len(ref.rebuilt)
        assert n_steps >= 4            # 2 hls + 2 impl for the 2-op app
        for k in range(1, n_steps + 1):
            cache_dir = tmp_path / f"{point}-{k}"
            plan = CrashPlan(k, point=point)
            with pytest.raises(InjectedCrash):
                _compile(cache_dir, project, crash_plan=plan)
            assert plan.fired
            records, _good = load_journal(journal_path(cache_dir))
            done_before = set(completed_steps(records))
            # The crash fires before the step's own journal completion
            # lands, whatever the window: k-1 steps are journaled done.
            assert len(done_before) == k - 1

            build = _compile(cache_dir, project, resume=True)
            assert build.manifest() == ref.manifest()
            # Journaled completions are never rebuilt — only skipped.
            assert done_before.isdisjoint(build.rebuilt)
            assert sorted(build.resumed) == sorted(done_before)
            # And the remaining steps really did re-execute.
            assert set(build.rebuilt) \
                == set(ref.rebuilt) - set(build.reused)

    def test_crash_in_parallel_engine_resumes_too(self, tmp_path,
                                                  reference):
        """A pooled engine (``workers=2``) journals identically."""
        project, ref = reference
        plan = CrashPlan(2, point="mid")
        with pytest.raises(InjectedCrash):
            _compile(tmp_path, project, crash_plan=plan, parallel=True)
        build = _compile(tmp_path, project, resume=True, parallel=True)
        assert build.manifest() == ref.manifest()

    def test_interrupted_flag_and_fresh_journal_resets(self, tmp_path,
                                                       reference):
        project, _ref = reference
        with pytest.raises(InjectedCrash):
            _compile(tmp_path, project, crash_plan=CrashPlan(2))
        resumed = BuildJournal(tmp_path, resume=True)
        assert resumed.interrupted
        resumed.close()
        # A non-resume invocation wipes the journal: nothing to skip.
        build = _compile(tmp_path, project, resume=False)
        assert build.resumed == []


class TestSigkillEndToEnd:
    """One real SIGKILL through the CLI, then ``--resume``."""

    def _cli(self, *argv, check=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=300)
        if check and result.returncode != 0:
            raise AssertionError(
                f"cli {' '.join(argv)} failed rc={result.returncode}:\n"
                f"{result.stdout}\n{result.stderr}")
        return result

    def test_sigkill_mid_compile_then_resume_matches_clean(self, tmp_path):
        app = "spam-filter"
        crashed = self._cli(
            "compile", app, "--flow", "o1", "--effort", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
            "--crash-at-step", "3", "--crash-point", "mid", check=False)
        assert crashed.returncode == -9        # really SIGKILLed

        resumed = self._cli(
            "compile", app, "--flow", "o1", "--effort", "0.1",
            "--cache-dir", str(tmp_path / "cache"), "--resume",
            "--manifest", str(tmp_path / "resumed.json"))
        assert "resuming interrupted build" in resumed.stdout
        assert "resume: skipped" in resumed.stdout

        self._cli(
            "compile", app, "--flow", "o1", "--effort", "0.1",
            "--cache-dir", str(tmp_path / "clean"),
            "--manifest", str(tmp_path / "clean.json"))
        with open(tmp_path / "resumed.json") as handle:
            after_resume = json.load(handle)
        with open(tmp_path / "clean.json") as handle:
            clean = json.load(handle)
        assert after_resume == clean

        # The healed store passes fsck with nothing to repair... almost:
        # the SIGKILL may have left an orphan .tmp behind, which fsck
        # reaps; a second run must then be perfectly clean.
        self._cli("fsck", str(tmp_path / "cache"))
        second = self._cli("fsck", str(tmp_path / "cache"))
        assert "clean" in second.stdout
