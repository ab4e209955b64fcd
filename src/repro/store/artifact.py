"""The content-addressed artifact store (persistent build cache).

:class:`ArtifactStore` backs the :class:`repro.core.build.BuildEngine`
with two tiers:

* an in-memory LRU front (a bounded :class:`repro.core.build.BuildCache`)
  serving repeated lookups within one process at dict speed;
* an optional on-disk backend (``cache_dir``) holding every artefact in
  the versioned format of :mod:`repro.store.serial`, so a second
  process — or a second day — reopens the same directory and gets every
  unchanged compile step as a hit.

Keys are the build engine's content keys: a hash over the operator IR,
target, page type and tool options.  An edit changes the key, so stale
artefacts are never *wrong*, only unreferenced; ``prune`` exists for
hygiene, not correctness.  Disk reads re-hash the payload; a corrupt or
version-skewed file counts as a miss and is deleted.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Any, Dict, Iterator, Optional

from repro.errors import StoreError
from repro.core.build import BuildCache
from repro.store.serial import (
    STORE_VERSION,
    artifact_kind,
    decode_artifact,
    encode_artifact,
)

#: Default bound on the in-memory front.
DEFAULT_MEMORY_ENTRIES = 4_096


class ArtifactStore:
    """Two-tier content-addressed artefact store.

    Args:
        cache_dir: directory for the persistent backend; None keeps the
            store memory-only (still LRU-bounded).
        max_entries: in-memory LRU entry bound.

    The store satisfies the engine-cache contract (``get``/``put``) and
    adds :meth:`stats` with hit/miss/eviction and disk counters.
    """

    def __init__(self, cache_dir=None,
                 max_entries: Optional[int] = DEFAULT_MEMORY_ENTRIES):
        self.memory = BuildCache(max_entries=max_entries)
        self.cache_dir: Optional[pathlib.Path] = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.corrupt = 0
        if cache_dir is not None:
            self.cache_dir = pathlib.Path(cache_dir)
            self._objects = self.cache_dir / "objects"
            self._objects.mkdir(parents=True, exist_ok=True)

    # -- the engine-cache contract -----------------------------------------

    def get(self, key: str):
        """Look up an artefact: memory first, then disk (with re-hash)."""
        artifact = self.memory.peek(key)
        if artifact is not None:
            self.hits += 1
            return artifact
        artifact = self._disk_read(key)
        if artifact is not None:
            self.hits += 1
            self.disk_hits += 1
            self.memory.put(key, artifact)
            return artifact
        self.misses += 1
        return None

    def put(self, key: str, artifact) -> None:
        self.memory.put(key, artifact)
        self._disk_write(key, artifact)

    # -- the disk backend ----------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self._objects / key[:2] / f"{key}.art"

    def _disk_read(self, key: str):
        if self.cache_dir is None:
            return None
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            _kind, artifact = decode_artifact(data, expect_key=key)
        except StoreError:
            # Integrity or version failure: degrade to a miss and drop
            # the file so the slot heals on the next put.
            self.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return artifact

    def _disk_write(self, key: str, artifact) -> None:
        if self.cache_dir is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"store backend cannot create {path.parent}: "
                f"{exc}") from exc
        data = encode_artifact(key, artifact)
        # Atomic, durable publish: fsync before the rename so a crash
        # right after os.replace can't leave an empty file behind the
        # final name, and a reader never sees a half-written artefact.
        try:
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       suffix=".tmp")
        except OSError as exc:
            raise StoreError(
                f"store backend cannot stage artifact {key!r} in "
                f"{path.parent}: {exc}") from exc
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            # A full disk or a permission flip mid-compile is a store
            # failure the CLI reports as exit 2, not a raw OSError
            # traceback.
            raise StoreError(
                f"store backend failed writing artifact {key!r} to "
                f"{path}: {exc}") from exc
        self.disk_writes += 1

    # -- introspection ----------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All keys reachable on disk (or in memory when memory-only)."""
        if self.cache_dir is None:
            yield from self.memory.entries
            return
        for path in sorted(self._objects.glob("*/*.art")):
            yield path.stem

    def kind_of(self, key: str) -> str:
        """The stored kind of one artefact (``""`` when absent)."""
        artifact = self.memory.peek(key)
        if artifact is not None:
            return artifact_kind(artifact)
        artifact = self._disk_read(key)
        return artifact_kind(artifact) if artifact is not None else ""

    def prune(self, keep) -> int:
        """Delete on-disk artefacts whose key is not in ``keep``.

        Also reaps *stale* orphaned ``.tmp`` staging files (the residue
        of a writer killed between ``mkstemp`` and ``os.replace``); a
        concurrent writer's in-flight staging file is young and
        survives the sweep.  Runs under the store's exclusive advisory
        lock so two maintenance passes never race each other.
        """
        if self.cache_dir is None:
            return 0
        from repro.resilience.fsck import stale_tmps
        from repro.resilience.lock import StoreLock

        keep = set(keep)
        removed = 0
        with StoreLock(self.cache_dir, exclusive=True):
            for path in self._objects.glob("*/*.art"):
                if path.stem not in keep:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            for path in stale_tmps(self._objects):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.memory.evictions,
            "entries": len(self.memory),
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "corrupt": self.corrupt,
            "version": STORE_VERSION,
        }

    def __len__(self) -> int:
        if self.cache_dir is None:
            return len(self.memory)
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:
        where = str(self.cache_dir) if self.cache_dir else "memory"
        return (f"ArtifactStore({where!r}, {len(self.memory)} in memory, "
                f"{self.hits} hits / {self.misses} misses)")
