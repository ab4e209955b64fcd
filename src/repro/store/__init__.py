"""Persistent content-addressed artifact storage.

The durable half of the paper's incremental story: compile artefacts
(netlists, schedules, bitstreams, softcore binaries, link
configurations) are keyed by a hash of their build inputs and kept in a
two-tier store — an in-memory LRU front plus an on-disk backend with
versioned, integrity-checked serialization — so cache hits survive
across processes and an edit-compile-run loop only ever pays for what
changed.

:mod:`repro.store.remote` extends the same contract across machines:
:class:`~repro.store.remote.StoreServer` serves any ArtifactStore as a
shard backend over a framed TCP protocol, and
:class:`~repro.store.remote.ShardedStoreClient` routes keys across N
shards by rendezvous hashing with per-request deadlines, retries,
circuit-breaker quarantine, and degraded-mode fallback to a local
store.  It is imported lazily (``repro.store.remote``) so
the local store stays free of socket machinery.
"""

from repro.store.artifact import ArtifactStore, DEFAULT_MEMORY_ENTRIES
from repro.store.serial import (
    STORE_VERSION,
    artifact_kind,
    decode_artifact,
    encode_artifact,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_MEMORY_ENTRIES",
    "STORE_VERSION",
    "artifact_kind",
    "decode_artifact",
    "encode_artifact",
]
