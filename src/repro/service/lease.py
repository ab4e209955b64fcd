"""Session leases: which daemon owns a leased session, at which epoch.

A leased session keeps its build journal and a ``lease.json`` in
``<state>/sessions/<name>/``.  Over a shard fleet both are published
under ``session-meta:<name>``, so a daemon with another state directory
can adopt the session and resume its build.  :class:`SessionLeases` is
the whole protocol — open (adopt, then claim an epoch past every epoch
seen), save/publish, check (fence a superseded owner) and release — and
it needs only the session directory and the fleet's ``put`` and
``fresh_get``, so ``tests/test_service_lease.py`` drives it over a dict.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError, StoreError
from repro.resilience.journal import interrupted, journal_path, load_journal

#: Subdirectory of the state dir holding one directory per session.
SESSIONS_DIR = "sessions"
#: Lease record inside a session directory.
LEASE_NAME = "lease.json"
#: Store-key prefix of the published ``{"lease", "journal"}`` record.
SESSION_META_PREFIX = "session-meta:"


@dataclass
class Lease:
    """One daemon's claim on a leased session."""

    name: str
    #: None without a state dir: nothing is written or published.
    directory: Optional[pathlib.Path]
    epoch: int
    owner: str
    tenant: str = "default"
    app: str = ""
    effort: float = 0.3
    status: str = "idle"         # idle | active | released
    edits: int = 0

    def record(self) -> Dict[str, Any]:
        """The ``lease.json`` fields, also the published ``lease``."""
        return {"session": self.name, "tenant": self.tenant,
                "app": self.app, "effort": self.effort,
                "status": self.status, "pid": os.getpid(),
                "edits": self.edits, "epoch": self.epoch,
                "owner": self.owner}


def _epoch(record: Dict[str, Any]) -> int:
    return int(record.get("epoch", 0) or 0)


class SessionLeases:
    """The lease protocol for one daemon (``owner``) over its state
    directory (None: leases live in memory only) and the shard fleet
    (None: no peer can adopt, so nothing is published)."""

    def __init__(self, state_dir, fleet=None, owner: str = "",
                 notify: Optional[Callable[[str], None]] = None):
        self.root = pathlib.Path(state_dir) / SESSIONS_DIR \
            if state_dir else None
        self.fleet = fleet
        self.owner = owner
        self._notify = notify if notify is not None else (lambda _: None)

    def open(self, name: str, **fields) -> Tuple[Lease, bool]:
        """Claim session ``name``; returns ``(lease, resume)``.

        A peer that published a higher epoch than the local lease's
        owned the session more recently: its journal replaces ours, so
        a build killed there resumes here (``resume``: the journal
        shows an interrupted build).  The claim is not yet saved.
        """
        directory = self.root / name if self.root is not None else None
        local_epoch = _epoch(_read(directory)) \
            if directory is not None else 0
        published = self.published(name) or {}
        peer = published.get("lease", {})
        if directory is not None and _epoch(peer) > local_epoch:
            directory.mkdir(parents=True, exist_ok=True)
            journal_path(directory).write_text(
                str(published.get("journal", "")))
            self._notify(
                f"session {name!r}: adopted from "
                f"{peer.get('owner', 'unknown daemon')} "
                f"(epoch {_epoch(peer)})")
        lease = Lease(name, directory,
                      epoch=max(local_epoch, _epoch(peer)) + 1,
                      owner=self.owner, **fields)
        resume = directory is not None and interrupted(
            load_journal(journal_path(directory))[0])
        if resume:
            self._notify(f"session {name!r}: resuming interrupted "
                         f"build from its journal")
        return lease, resume

    def save(self, lease: Lease, status: str) -> None:
        """Record a status transition: ``lease.json``, then publish."""
        lease.status = status
        if lease.directory is None:
            return
        self._write(lease)
        self.publish(lease)

    def publish(self, lease: Lease) -> None:
        """Push the lease and journal to the fleet for a peer to adopt.
        Best-effort: the content-addressed artefacts, not this record,
        make a resume bit-identical."""
        if self.fleet is None or lease.directory is None:
            return
        try:
            journal = journal_path(lease.directory).read_text()
        except OSError:
            journal = ""
        try:
            self.fleet.put(SESSION_META_PREFIX + lease.name,
                           {"lease": lease.record(), "journal": journal})
        except StoreError:
            pass

    def published(self, name: str) -> Optional[Dict[str, Any]]:
        """The ``{"lease", "journal"}`` record last published for
        ``name``, or None.  Read remote-first: the local hot tier would
        shadow a peer's newer epoch forever."""
        if self.fleet is None:
            return None
        try:
            meta = self.fleet.fresh_get(SESSION_META_PREFIX + name)
        except StoreError:
            return None
        return meta if isinstance(meta, dict) else None

    def _superseding(self, lease: Lease) -> Optional[Dict[str, Any]]:
        """The published lease that supersedes ours, if any: a higher
        epoch, or ours claimed by another owner too (both opened before
        either published; the last to publish wins)."""
        peer = (self.published(lease.name) or {}).get("lease", {})
        epoch = _epoch(peer)
        if epoch > lease.epoch or (epoch == lease.epoch
                                   and peer.get("owner") != lease.owner):
            return peer
        return None

    def check(self, lease: Lease) -> None:
        """Refuse to build on a lease a peer has superseded
        (``kind="fenced"``).  The caller evicts the session; a later
        submit re-adopts at a higher epoch."""
        peer = self._superseding(lease)
        if peer is None:
            return
        raise ServiceError(
            f"session {lease.name!r} adopted by "
            f"{peer.get('owner', 'another daemon')} at epoch "
            f"{_epoch(peer)} (ours: {lease.epoch}); lease fenced — "
            f"resubmit there, or resubmit here to re-adopt",
            kind="fenced")

    def release(self, lease: Lease) -> None:
        """Mark the lease released; publish it unless a peer's claim
        supersedes it, which would hand the session back to a stale
        epoch."""
        lease.status = "released"
        if lease.directory is None:
            return
        self._write(lease)
        if self._superseding(lease) is None:
            self.publish(lease)

    def interrupted(self) -> List[str]:
        """Sessions whose journal shows a build that never ended."""
        if self.root is None or not self.root.is_dir():
            return []
        return [path.name for path in sorted(self.root.iterdir())
                if path.is_dir() and interrupted(
                    load_journal(journal_path(path))[0])]

    def _write(self, lease: Lease) -> None:
        lease.directory.mkdir(parents=True, exist_ok=True)
        tmp = lease.directory / (LEASE_NAME + ".tmp")
        tmp.write_text(json.dumps(lease.record(), sort_keys=True,
                                  indent=2))
        os.replace(tmp, lease.directory / LEASE_NAME)


def _read(directory: pathlib.Path) -> Dict[str, Any]:
    try:
        return json.loads((directory / LEASE_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return {}
