"""Length-prefixed frames for the remote-store wire protocol.

One frame is::

    u32 header_len | header (JSON, UTF-8) | u64 payload_len | payload

The header is a small JSON object (op, key, ok, error, ...); the
payload is opaque bytes — for artefact traffic it is the versioned
:mod:`repro.store.serial` encoding, so the content digest rides along
and both ends can re-hash at the trust boundary.

Every failure mode a real socket has is mapped to a structured
exception: a peer that half-closes mid-frame raises
:class:`~repro.errors.FrameError` ("short read"), an oversized or
garbage length prefix raises :class:`~repro.errors.FrameError`, and a
socket timeout raises :class:`~repro.errors.TransportError` naming the
operation that timed out.  Nothing in this module retries — retry
budgets, backoff and hedging live in the client, where the policy is.

The store shards and the ``pld serve`` daemon run the same
:class:`~repro.store.remote.server.FrameServer` loop over these two
functions, and their clients call them directly.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import FrameError, TransportError

#: Sanity bound on the JSON header (a header is tens of bytes).
MAX_HEADER_BYTES = 1 << 20
#: Sanity bound on one payload (largest artefacts are page bitstreams).
MAX_PAYLOAD_BYTES = 1 << 30

_HEADER_LEN = struct.Struct(">I")
_PAYLOAD_LEN = struct.Struct(">Q")


def _recv_exact(sock: socket.socket, n: int, what: str,
                deadline: Optional[float] = None) -> bytes:
    """Read exactly ``n`` bytes or raise a structured error; with a
    ``deadline`` (``time.monotonic()``) the reads must finish by then."""
    chunks = []
    remaining = n
    while remaining:
        try:
            if deadline is not None:
                sock.settimeout(max(1e-6, deadline - time.monotonic()))
            chunk = sock.recv(min(remaining, 1 << 16))
        except socket.timeout as exc:
            raise TransportError(
                f"deadline expired reading {what} "
                f"({n - remaining}/{n} bytes in)") from exc
        except OSError as exc:
            raise TransportError(
                f"connection error reading {what}: {exc}") from exc
        if not chunk:
            raise FrameError(
                f"peer half-closed reading {what} "
                f"({n - remaining}/{n} bytes in)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, header: Dict[str, Any],
               payload: bytes = b"") -> None:
    """Serialize and send one frame (a single ``sendall``)."""
    head = json.dumps(header, sort_keys=True).encode()
    if len(head) > MAX_HEADER_BYTES:
        raise FrameError(f"header too large ({len(head)} bytes)")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"payload too large ({len(payload)} bytes)")
    frame = (_HEADER_LEN.pack(len(head)) + head
             + _PAYLOAD_LEN.pack(len(payload)) + payload)
    try:
        sock.sendall(frame)
    except socket.timeout as exc:
        raise TransportError("deadline expired sending frame") from exc
    except OSError as exc:
        raise TransportError(f"connection error sending frame: "
                             f"{exc}") from exc


def recv_frame(sock: socket.socket,
               frame_timeout: Optional[float] = None
               ) -> Tuple[Dict[str, Any], bytes]:
    """Receive one frame; returns ``(header, payload)``.

    Raises :class:`~repro.errors.FrameError` on anything malformed and
    :class:`~repro.errors.TransportError` on timeouts/resets.  A clean
    EOF *before any byte* of a frame raises :class:`FrameError` too —
    callers that treat connection close as normal (the server's
    per-connection loop) catch it.

    ``frame_timeout`` (seconds) is a server's slow-loris guard: once
    the 4-byte header length arrives, the rest of the frame must follow
    within it.  The wait for the length itself is left to the socket's
    own timeout (a server's is unbounded: an idle keep-alive connection
    between requests is normal, a peer that starts a frame and then
    trickles it is not).
    """
    raw = _recv_exact(sock, _HEADER_LEN.size, "header length")
    deadline = None if frame_timeout is None \
        else time.monotonic() + frame_timeout
    (head_len,) = _HEADER_LEN.unpack(raw)
    if head_len > MAX_HEADER_BYTES:
        raise FrameError(f"header length {head_len} exceeds "
                         f"{MAX_HEADER_BYTES}")
    head = _recv_exact(sock, head_len, "header", deadline)
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"corrupt frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError(
            f"frame header is {type(header).__name__}, expected object")
    raw = _recv_exact(sock, _PAYLOAD_LEN.size, "payload length", deadline)
    (payload_len,) = _PAYLOAD_LEN.unpack(raw)
    if payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError(f"payload length {payload_len} exceeds "
                         f"{MAX_PAYLOAD_BYTES}")
    payload = _recv_exact(sock, payload_len, "payload", deadline)
    return header, payload
