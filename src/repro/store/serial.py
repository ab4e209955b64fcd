"""Versioned artifact serialization for the persistent store.

Every on-disk artifact is a small JSON header line followed by a pickle
payload.  The header carries the store format version, the artifact
*kind* (netlist, schedule, bitstream, softcore binary, link
configuration, …) and a SHA-256 digest of the payload; readers re-hash
the payload and refuse anything that does not match, so a truncated or
bit-flipped cache file degrades to a miss instead of poisoning a build.

Bumping :data:`STORE_VERSION` invalidates old files wholesale — a
version mismatch is treated as a miss, never as an error, so upgrading
the toolflow silently falls back to a cold rebuild.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any, Iterable, List, Tuple

from repro.errors import StoreError

#: On-disk format version.  Bump when artefact classes change shape.
STORE_VERSION = 1

#: Header/payload separator (the header is a single JSON line).
_SEP = b"\n"

#: Every kind :func:`artifact_kind` can emit.  The payload digest does
#: not cover the header, so :func:`decode_artifact` refuses any other
#: kind as a corrupt header.
ARTIFACT_KINDS = frozenset((
    "netlist", "schedule", "bitstream", "softcore-binary",
    "link-configuration", "implementation", "bundle", "object"))


def artifact_kind(artifact: Any) -> str:
    """Classify an artefact for the header (best effort, by type name).

    The kind is metadata for humans and reports; lookups are keyed
    purely by content hash, so an unknown type is fine ("object").
    """
    from repro.fabric.bitstream import Bitstream
    from repro.hls.netlist import Netlist
    from repro.hls.schedule import Schedule
    from repro.noc.linking import LinkConfiguration
    from repro.pnr.compile_model import ImplementationResult
    from repro.softcore.compiler import CompiledOperator

    if isinstance(artifact, Netlist):
        return "netlist"
    if isinstance(artifact, Schedule):
        return "schedule"
    if isinstance(artifact, Bitstream):
        return "bitstream"
    if isinstance(artifact, CompiledOperator):
        return "softcore-binary"
    if isinstance(artifact, LinkConfiguration):
        return "link-configuration"
    if isinstance(artifact, ImplementationResult):
        return "implementation"
    if isinstance(artifact, tuple):
        return "bundle"
    return "object"


def encode_artifact(key: str, artifact: Any) -> bytes:
    """Serialize one artefact to the versioned on-disk format."""
    try:
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise StoreError(
            f"artifact {key!r} ({type(artifact).__name__}) is not "
            f"serializable: {exc}") from exc
    header = {
        "version": STORE_VERSION,
        "key": key,
        "kind": artifact_kind(artifact),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(header, sort_keys=True).encode() + _SEP + payload


def decode_artifact(data: bytes, expect_key: str = "") -> Tuple[str, Any]:
    """Parse, verify and unpickle one stored artefact.

    Returns ``(kind, artifact)``.  Raises :class:`StoreError` on any
    integrity problem: bad header, version mismatch, unknown kind,
    digest mismatch (the payload re-hash), wrong key, or an
    unpicklable payload.
    """
    head, sep, payload = data.partition(_SEP)
    if not sep:
        raise StoreError("stored artifact has no header/payload split")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"corrupt artifact header: {exc}") from exc
    if not isinstance(header, dict):
        # json.loads happily returns scalars/lists; garbage input must
        # surface as the structured error, never an AttributeError.
        raise StoreError(
            f"corrupt artifact header: {type(header).__name__}, "
            f"expected object")
    if header.get("version") != STORE_VERSION:
        raise StoreError(
            f"store version mismatch: file has "
            f"{header.get('version')!r}, tool speaks {STORE_VERSION}")
    if expect_key and header.get("key") != expect_key:
        raise StoreError(
            f"artifact key mismatch: file claims {header.get('key')!r}, "
            f"expected {expect_key!r}")
    kind = header.get("kind")
    if kind not in ARTIFACT_KINDS:
        raise StoreError(f"corrupt artifact header: unknown kind {kind!r}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise StoreError(
            f"artifact {header.get('key')!r} failed its integrity "
            f"re-hash (stored {header.get('sha256')!r}, got {digest!r})")
    try:
        artifact = pickle.loads(payload)
    except Exception as exc:
        raise StoreError(
            f"artifact {header.get('key')!r} failed to deserialize: "
            f"{exc}") from exc
    return kind, artifact


def pack_artifacts(items: Iterable[Tuple[str, Any]]
                   ) -> Tuple[List[str], List[int], bytes]:
    """Concatenate encodings for a batched (``multi_put``) frame.

    Returns ``(keys, sizes, payload)``: the frame header carries the
    parallel ``keys``/``sizes`` lists and the payload is the encodings
    back to back, so one frame moves a whole batch while each artefact
    keeps its own header and digest (the per-item trust boundary is
    unchanged).
    """
    keys: List[str] = []
    sizes: List[int] = []
    chunks: List[bytes] = []
    for key, artifact in items:
        blob = encode_artifact(key, artifact)
        keys.append(key)
        sizes.append(len(blob))
        chunks.append(blob)
    return keys, sizes, b"".join(chunks)


def unpack_artifacts(keys: List[str], sizes: List[int], payload: bytes
                     ) -> List[Tuple[str, Any]]:
    """Split and verify a batched payload back into ``(key, artifact)``.

    Every item goes through :func:`decode_artifact` (re-hash included);
    mismatched keys/sizes lists or a payload whose length disagrees
    with ``sizes`` raise :class:`StoreError` before anything decodes.
    """
    if len(keys) != len(sizes):
        raise StoreError(
            f"batched frame is torn: {len(keys)} keys vs "
            f"{len(sizes)} sizes")
    if sum(sizes) != len(payload):
        raise StoreError(
            f"batched frame is torn: sizes sum to {sum(sizes)} but "
            f"payload is {len(payload)} bytes")
    out: List[Tuple[str, Any]] = []
    offset = 0
    for key, size in zip(keys, sizes):
        if size < 0:
            raise StoreError(f"batched frame has negative size {size}")
        blob = payload[offset:offset + size]
        offset += size
        _kind, artifact = decode_artifact(blob, expect_key=key)
        out.append((key, artifact))
    return out
