"""Framed TCP servers: the shared :class:`FrameServer` loop and the shard
backend, a :class:`StoreServer` any ArtifactStore can back.

One server owns one :class:`repro.store.ArtifactStore` (usually
disk-backed) and speaks the framed protocol of
:mod:`repro.store.remote.framing` over TCP.  The request set is small
and idempotent — content addressing makes PUT a blind overwrite of
identical bytes, so clients can retry anything without a dedup
handshake:

=============  ======================================================
``ping``       liveness + shard identity (breaker half-open probes)
``get``        one artefact by key; payload is the serial.py encoding
``put``        store one artefact; the server decodes (re-hash
               included) before it touches the store, so a corrupt
               frame never lands
``multi_put``  a batch of puts (the client's write-behind drain); the
               whole batch decodes before any of it lands
``keys``       all keys the shard holds (reconciliation and fsck)
``stats``      the backing store's counters plus server request
               counters
``fsck``       run the store doctor on the shard's own directory
=============  ======================================================

Threading model (:class:`FrameServer`, which the ``pld serve`` daemon
runs too): one accept loop plus one thread per connection, all
daemonic, with an optional connection cap and slow-loris frame
timeout.  ``stop()`` closes the listener and every live connection.
A coarse lock serializes store access (the store's own cross-process
safety is for *processes*; in-process callers share one object).
"""

from __future__ import annotations

import select
import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import StoreError, TransportError
from repro.store.remote.framing import recv_frame, send_frame
from repro.store.serial import (
    decode_artifact,
    encode_artifact,
    pack_artifacts,  # noqa: F401 (a span target of benchmarks/e2e/spans.py)
    unpack_artifacts,
)


class FrameServer:
    """One accept loop plus one daemonic thread per connection.

    Each connection thread reads a frame, answers it through
    :meth:`_handle`, sends the reply and reads the next, until the
    peer hangs up, speaks garbage or :meth:`stop` shuts it down.  The
    store shard (:class:`StoreServer`) and the ``pld serve`` daemon
    (:class:`repro.service.daemon.ServeDaemon`) are its subclasses.

    Args:
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`address`).
        max_connections: live-connection cap; an over-limit connection
            gets one ``kind="overloaded"`` frame and is closed.
        frame_timeout: seconds the rest of a started frame, and then
            its reply, may each take (the slow-loris guard); the idle
            wait for a frame's first bytes stays unbounded.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_connections: Optional[int] = None,
                 frame_timeout: Optional[float] = None):
        self._host = host
        self._port = port
        self.max_connections = max_connections
        self.frame_timeout = frame_timeout
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set = set()
        self._running = False
        #: Guards the counters and the connection set: every
        #: connection thread updates them.
        self._lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.rejected_connections = 0
        #: Requests read but not yet answered.
        self.in_flight = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise StoreError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def active_connections(self) -> int:
        with self._lock:
            return len(self._conns)

    def start(self):
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        self._listener = listener
        self._running = True
        host, port = self.address
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name=f"{type(self).__name__}:{host}:{port}", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every connection, join the accept
        thread (idempotent — a double stop is a no-op)."""
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            # A thread blocked in accept() is not reliably woken by
            # close() on Linux; poke it with a throwaway connection so
            # the join below returns immediately instead of timing out.
            try:
                host, port = listener.getsockname()[:2]
                if host == "0.0.0.0":
                    host = "127.0.0.1"
                socket.create_connection((host, port),
                                         timeout=0.5).close()
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            # Wakes a connection thread blocked in recv() (close() from
            # another thread does not on Linux); that thread closes it.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        accept, self._accept_thread = self._accept_thread, None
        if accept is not None and accept is not threading.current_thread():
            accept.join(timeout=2.0)

    # -- the serve loop ------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while self._running:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return                       # listener closed by stop()
            if not self._running:            # stop()'s poke
                conn.close()
                return
            with self._lock:
                self.connections += 1
                full = self._at_capacity()
                if full:
                    self.rejected_connections += 1
                else:
                    self._conns.add(conn)
            if full:
                self._reject(conn)
                continue
            # Workers are daemonic and not retained: a long-running
            # server would otherwise grow a list without bound, and
            # stop() only needs the connections (shutting one down
            # ends its worker).
            threading.Thread(target=self._serve_connection,
                             args=(conn,), daemon=True).start()

    def _at_capacity(self) -> bool:
        """Whether the connection cap is reached (call under the lock).
        A connection whose peer has hung up does not count: its thread
        may not have noticed yet."""
        cap = self.max_connections
        if cap is None or len(self._conns) < cap:
            return False
        return sum(not peer_closed(conn) for conn in self._conns) >= cap

    def _reject(self, conn: socket.socket) -> None:
        """One error frame, then hang up: the cap protects the server's
        memory and threads, not the client's feelings."""
        try:
            conn.settimeout(self.frame_timeout or 5.0)
            send_frame(conn, {"ok": False, "kind": "overloaded",
                              "error": f"connection limit "
                                       f"({self.max_connections}) reached",
                              "retry_after": 1.0})
        except (OSError, TransportError):
            pass
        finally:
            conn.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._running:
                try:
                    if self.frame_timeout is not None:
                        conn.settimeout(None)    # idle keep-alive wait
                    header, payload = recv_frame(
                        conn, frame_timeout=self.frame_timeout)
                except (OSError, TransportError):
                    return               # peer went away or spoke garbage
                with self._lock:
                    self.requests += 1
                    self.in_flight += 1
                try:
                    reply = self._handle(header, payload, conn)
                    if reply is None:
                        return           # the peer hung up mid-request
                    if self.frame_timeout is not None:
                        conn.settimeout(self.frame_timeout)
                    send_frame(conn, *reply)
                except (OSError, TransportError):
                    return
                finally:
                    with self._lock:
                        self.in_flight -= 1
                    self._replied(header)
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, header: Dict[str, Any], payload: bytes,
                conn: socket.socket
                ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Answer one frame with ``(header, payload)``, or None to hang
        up without answering."""
        raise NotImplementedError

    def _replied(self, header: Dict[str, Any]) -> None:
        """Called once a request's reply is sent (or could not be)."""


def peer_closed(conn: socket.socket) -> bool:
    """True once the peer has closed its end (or shut down sending).

    Polls without reading, so it never blocks and any thread may ask —
    the accept thread asks about other threads' connections — and the
    bytes of a pipelined next request are not a hang-up.
    """
    poller = select.poll()
    try:
        poller.register(conn, select.POLLRDHUP)
        return bool(poller.poll(0))       # RDHUP, or HUP/ERR on a reset
    except (OSError, ValueError):         # already closed
        return True


class StoreServer(FrameServer):
    """Serve one ArtifactStore as a shard backend over TCP.

    Args:
        store: the backing :class:`repro.store.ArtifactStore` (or
            anything with get/put/keys/stats).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`address`).
        name: shard identity reported by ``ping`` (defaults to
            ``host:port`` once bound).
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0,
                 name: str = ""):
        super().__init__(host, port)
        self.store = store
        self._store_lock = threading.Lock()
        self.errors = 0
        self._name = name

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    def start(self) -> "StoreServer":
        super().start()
        if not self._name:
            host, port = self.address
            self._name = f"{host}:{port}"
        return self

    # -- request handlers ----------------------------------------------------

    def _handle(self, header: Dict[str, Any], payload: bytes,
                conn: socket.socket) -> Tuple[Dict[str, Any], bytes]:
        op = header.get("op", "")
        key = header.get("key", "")
        try:
            if op == "ping":
                return {"ok": True, "shard": self._name}, b""
            if op == "get":
                return self._handle_get(key)
            if op == "put":
                return self._handle_put(key, payload)
            if op == "multi_put":
                return self._handle_multi_put(header, payload)
            if op == "keys":
                with self._store_lock:
                    keys = sorted(self.store.keys())
                return {"ok": True, "keys": keys}, b""
            if op == "stats":
                with self._store_lock:
                    stats = dict(self.store.stats())
                stats.update(server_requests=self.requests,
                             server_errors=self.errors,
                             shard=self._name)
                return {"ok": True, "stats": stats}, b""
            if op == "fsck":
                return self._handle_fsck(header)
            error = f"unknown op {op!r}"
        except StoreError as exc:
            error = str(exc)
        except Exception as exc:        # never let one request kill the shard
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self.errors += 1
        return {"ok": False, "error": error}, b""

    def _handle_get(self, key: str) -> Tuple[Dict[str, Any], bytes]:
        with self._store_lock:
            artifact = self.store.get(key)
        if artifact is None:
            return {"ok": True, "found": False}, b""
        return {"ok": True, "found": True}, encode_artifact(key, artifact)

    def _handle_put(self, key: str, payload: bytes
                    ) -> Tuple[Dict[str, Any], bytes]:
        # Decode first: the re-hash inside decode_artifact is the trust
        # boundary, so a corrupt frame is rejected before the store is
        # touched.
        _kind, artifact = decode_artifact(payload, expect_key=key)
        with self._store_lock:
            self.store.put(key, artifact)
        return {"ok": True, "stored": True}, b""

    def _handle_multi_put(self, header: Dict[str, Any], payload: bytes
                          ) -> Tuple[Dict[str, Any], bytes]:
        """Batched put: decode the whole batch first, then store it.

        Decode-before-store keeps the trust boundary of the single
        ``put``: one corrupt item rejects the frame and nothing from
        the batch lands, so the client's retry replays it whole.
        """
        keys = header.get("keys", [])
        sizes = header.get("sizes", [])
        if not isinstance(keys, list) or not isinstance(sizes, list):
            raise StoreError("multi_put needs 'keys' and 'sizes' lists")
        items = unpack_artifacts([str(k) for k in keys],
                                 [int(s) for s in sizes], payload)
        with self._store_lock:
            for key, artifact in items:
                self.store.put(key, artifact)
        return {"ok": True, "stored": len(items)}, b""

    def _handle_fsck(self, header: Dict[str, Any]
                     ) -> Tuple[Dict[str, Any], bytes]:
        from repro.resilience.fsck import TMP_GRACE_SECONDS, fsck_store

        cache_dir = getattr(self.store, "cache_dir", None)
        if cache_dir is None:
            return {"ok": False,
                    "error": "shard store is memory-only; nothing to "
                             "fsck"}, b""
        grace = float(header.get("grace", TMP_GRACE_SECONDS))
        with self._store_lock:
            report = fsck_store(cache_dir, grace=grace)
        return {"ok": True,
                "report": {
                    "cache_dir": report.cache_dir,
                    "objects_checked": report.objects_checked,
                    "orphan_tmps_removed": report.orphan_tmps_removed,
                    "corrupt_objects_removed":
                        report.corrupt_objects_removed,
                    "journal_bytes_truncated":
                        report.journal_bytes_truncated,
                    "journal_entries_dropped":
                        report.journal_entries_dropped,
                    "clean": report.clean,
                    "actions": list(report.actions),
                }}, b""

    def __repr__(self) -> str:
        state = "up" if self._running else "down"
        return f"StoreServer({self._name or 'unbound'}, {state})"


def serve_forever(cache_dir, host: str = "127.0.0.1",
                  port: int = 0) -> None:
    """Blocking entry point for ``pld store serve``."""
    from repro.store import ArtifactStore

    store = ArtifactStore(cache_dir=cache_dir)
    server = StoreServer(store, host=host, port=port).start()
    bound_host, bound_port = server.address
    print(f"pld store shard serving {cache_dir} on "
          f"tcp://{bound_host}:{bound_port}", flush=True)
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
