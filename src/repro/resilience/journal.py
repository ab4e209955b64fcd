"""The write-ahead build journal (crash-safe resumable compiles).

A :class:`BuildJournal` lives next to the artifact store
(``cache_dir/journal.jsonl``) and records what the build engine is
doing as it does it: a ``begin`` line before a builder runs, an ``end``
line after its artefact is safely in the store, a ``fail`` line when a
builder raises.  Each line is one JSON object, appended with an fsync,
so a SIGKILL at any instant leaves at worst one torn final line — which
:func:`load_journal` detects and ignores (and ``pld fsck`` truncates).

Resume semantics are deliberately thin: *correctness* comes from the
content-addressed store (a completed step's key hits the cache whether
or not the journal survived); the journal supplies the *bookkeeping* —
which steps a resumed build may skip (``resume-skip`` trace instants,
the ``resumed`` list in :class:`~repro.core.flows.FlowBuild`), whether
the previous invocation died mid-build, and the in-flight step set
``pld fsck`` uses to explain orphan temp files.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Callable, Dict, List, Optional, Tuple

#: Journal file name inside the store's ``cache_dir``.
JOURNAL_NAME = "journal.jsonl"

#: Journal format version (first line of every journal).
JOURNAL_VERSION = 1


def journal_path(cache_dir) -> pathlib.Path:
    return pathlib.Path(cache_dir) / JOURNAL_NAME


def load_journal(path) -> Tuple[List[Dict[str, object]], int]:
    """Parse a journal file, tolerating a torn tail.

    Returns ``(records, good_bytes)`` where ``good_bytes`` is the byte
    offset of the end of the last fully-written line — everything past
    it (a line without a newline, or one that fails to parse) is the
    torn tail a crash left behind and is simply not returned.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return [], 0
    records: List[Dict[str, object]] = []
    good = 0
    cursor = 0
    while cursor < len(data):
        newline = data.find(b"\n", cursor)
        if newline < 0:
            break                      # no terminator: torn tail
        line = data[cursor:newline]
        try:
            record = json.loads(line.decode())
            if not isinstance(record, dict):
                break
        except (UnicodeDecodeError, json.JSONDecodeError):
            break                      # corrupt line: stop replaying here
        records.append(record)
        cursor = newline + 1
        good = cursor
    return records, good


def completed_steps(records: List[Dict[str, object]]) -> Dict[str, str]:
    """``step name -> content key`` of every journaled completion."""
    done: Dict[str, str] = {}
    for record in records:
        if record.get("t") == "end":
            done[str(record.get("step"))] = str(record.get("key"))
        elif record.get("t") == "fail":
            done.pop(str(record.get("step")), None)
    return done


def interrupted(records: List[Dict[str, object]]) -> bool:
    """True when a build began and never ended: what a killed process
    leaves behind."""
    began = sum(1 for r in records if r.get("t") == "build-begin")
    ended = sum(1 for r in records if r.get("t") == "build-end")
    return began > ended


def in_flight_steps(records: List[Dict[str, object]]) -> Dict[str, str]:
    """Steps with a ``begin`` but no matching ``end``/``fail`` yet."""
    open_steps: Dict[str, str] = {}
    for record in records:
        step = str(record.get("step"))
        if record.get("t") == "begin":
            open_steps[step] = str(record.get("key"))
        elif record.get("t") in ("end", "fail"):
            open_steps.pop(step, None)
    return open_steps


def repair_journal(path, key_exists: Optional[Callable[[str], bool]] = None
                   ) -> Tuple[int, int]:
    """Heal a journal in place: truncate the torn tail, drop stale ends.

    ``key_exists`` (when given) maps a content key to whether the store
    still holds that object; ``end`` records whose artefact is gone are
    dropped so a resume never skips a step it cannot actually reuse.
    Returns ``(truncated_bytes, dropped_records)``.
    """
    path = pathlib.Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return 0, 0
    records, good = load_journal(path)
    truncated = size - good
    dropped = 0
    kept = records
    if key_exists is not None:
        kept = []
        for record in records:
            if record.get("t") == "end" \
                    and not key_exists(str(record.get("key"))):
                dropped += 1
                continue
            kept.append(record)
    if truncated or dropped:
        tmp = path.with_suffix(".jsonl.rewrite")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in kept:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    return truncated, dropped


class BuildJournal:
    """Append-only write-ahead journal for one artifact-store directory.

    Args:
        cache_dir: the store directory the journal sits in (created if
            missing).
        resume: replay the existing journal — :attr:`completed` then
            names the steps a resumed build may skip, and the engine
            emits ``resume-skip`` instants for them.  Without ``resume``
            the journal is truncated and a fresh build record starts.
    """

    def __init__(self, cache_dir, resume: bool = False):
        self.path = journal_path(cache_dir)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.resuming = resume
        self.completed: Dict[str, str] = {}
        self.interrupted = False
        if resume:
            records, good = load_journal(self.path)
            self.completed = completed_steps(records)
            self.interrupted = interrupted(records)
            # Drop the torn tail so our appends start on a line boundary.
            try:
                if good < self.path.stat().st_size:
                    with open(self.path, "rb+") as handle:
                        handle.truncate(good)
            except OSError:
                pass
        else:
            self.path.write_text("")
        self._handle = open(self.path, "a", encoding="utf-8")
        #: Optional post-append hook.  The compile service points this
        #: at its session-meta publication when a shard fleet is
        #: attached, so every fsynced record is also visible to peer
        #: daemons — a SIGKILL mid-build then leaves the *fleet*, not
        #: just the local disk, holding the steps a peer can resume.
        self.publish: Optional[Callable[[], None]] = None

    # -- record appends ----------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self.publish is not None:
            try:
                self.publish()
            except Exception:
                pass          # publication is best-effort bookkeeping

    def begin_build(self, flow: str = "", project: str = "") -> None:
        self._append({"t": "build-begin", "v": JOURNAL_VERSION,
                      "flow": flow, "project": project})

    def end_build(self) -> None:
        self._append({"t": "build-end"})

    def begin_step(self, step: str, key: str) -> None:
        self._append({"t": "begin", "step": step, "key": key})

    def end_step(self, step: str, key: str) -> None:
        self._append({"t": "end", "step": step, "key": key})
        self.completed[step] = key

    def fail_step(self, step: str, key: str, error: str = "") -> None:
        self._append({"t": "fail", "step": step, "key": key,
                      "error": error})
        self.completed.pop(step, None)

    # -- resume queries ----------------------------------------------------

    def can_skip(self, step: str, key: str) -> bool:
        """True when a resumed build already completed this exact step."""
        return self.resuming and self.completed.get(step) == key

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BuildJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        mode = "resume" if self.resuming else "fresh"
        return (f"BuildJournal({str(self.path)!r}, {mode}, "
                f"{len(self.completed)} completed)")
