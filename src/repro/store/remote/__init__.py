"""Remote sharded artifact storage (client/backend protocol).

Splits :mod:`repro.store` across machines: N :class:`StoreServer`
shard backends — each one an ordinary :class:`repro.store.ArtifactStore`
behind a framed TCP protocol — and a :class:`ShardedStoreClient` that
routes keys by rendezvous hashing and satisfies the build engine's
cache contract.  Robustness is the design center: per-request
deadlines, bounded retries with backoff + jitter, per-shard circuit
breakers with quarantine and half-open probes, and a degraded mode
where a dead shard means slower compiles (local cache misses), never
failed ones.
"""

from repro.store.remote.client import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_QUARANTINE_SECONDS,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ShardClient,
    ShardedStoreClient,
    parse_store_urls,
    rendezvous_shard,
)
from repro.store.remote.framing import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    recv_frame,
    send_frame,
)
from repro.store.remote.server import StoreServer, serve_forever

__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_QUARANTINE_SECONDS",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "ShardClient",
    "ShardedStoreClient",
    "StoreServer",
    "parse_store_urls",
    "recv_frame",
    "rendezvous_shard",
    "send_frame",
    "serve_forever",
]
