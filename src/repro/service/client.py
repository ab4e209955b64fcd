"""Synchronous client for the ``pld serve`` daemon.

The CLI verbs ``pld submit``/``pld status``/``pld result`` (and the
repo benchmark's serve workloads) talk to the daemon through this
class.  One :class:`ServiceClient` holds one TCP connection and
issues request/response frames in
:mod:`repro.store.remote.framing`'s wire format; a server answer with
``ok: false`` re-raises as :class:`~repro.errors.ServiceError`
carrying the server-reported ``kind``, so callers can tell a deadline
expiry (``kind == "deadline"``) from a rejected request.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import OverloadedError, ServiceError, TransportError
from repro.store.remote.framing import recv_frame, send_frame

DEFAULT_TIMEOUT = 30.0
#: Default total budget (seconds) for ``submit(..., wait=True)``.
DEFAULT_SUBMIT_WAIT = 60.0
#: Backoff used when an overload rejection carries no ``retry_after``.
FALLBACK_RETRY_AFTER = 0.5


class ServiceClient:
    """One connection to a compile-service daemon.

    Args:
        host/port: where ``pld serve`` listens.
        timeout: socket timeout for connect and for every response
            *except* ``result``, which blocks server-side for up to the
            caller-supplied wait and gets a correspondingly larger
            socket timeout.
        token: tenant shared secret, attached to every ``submit``
            header (daemons started with ``--token`` reject submits
            without it, ``kind="auth"``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = DEFAULT_TIMEOUT,
                 token: Optional[str] = None,
                 rng: Optional[random.Random] = None,
                 sleep=time.sleep):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.token = token
        #: Jitter source and sleep for overload backoff — injectable so
        #: tests exercise the retry loop deterministically and instantly.
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep
        #: Overload rejections retried by the last waiting submit.
        self.retries = 0
        self._sock: Optional[socket.socket] = None

    # -- transport -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as exc:
                raise TransportError(
                    f"cannot reach pld serve at "
                    f"{self.host}:{self.port}: {exc}",
                    op="connect") from exc
        return self._sock

    def call(self, header: Dict[str, Any],
             timeout: Optional[float] = None
             ) -> Tuple[Dict[str, Any], bytes]:
        """One request/response round trip; raises on ``ok: false``."""
        sock = self._connect()
        sock.settimeout(timeout if timeout is not None
                        else self.timeout)
        try:
            send_frame(sock, header)
            response, payload = recv_frame(sock)
        except TransportError:
            # The connection is in an unknown state; drop it so the
            # next call dials fresh.
            self.close()
            raise
        if not response.get("ok", False):
            kind = str(response.get("kind", ""))
            message = response.get("error", "service request failed")
            retry_after = response.get("retry_after")
            if kind == "overloaded":
                raise OverloadedError(
                    message,
                    retry_after=float(retry_after)
                    if retry_after is not None else 0.0,
                    reason=str(response.get("reason", "")))
            raise ServiceError(
                message, kind=kind,
                retry_after=float(retry_after)
                if retry_after is not None else None,
                peers=tuple(response.get("peers", ()) or ()))
        return response, payload

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        response, _ = self.call({"op": "ping"})
        return response

    def submit(self, app: str, wait: Optional[float] = None,
               **fields) -> str:
        """Enqueue a compile/edit; returns the ticket id.

        ``wait`` is the well-behaved-client knob (``pld submit
        --wait``): on an ``overloaded``/``draining`` rejection, back
        off by the server's ``retry_after`` hint plus up to the hint
        again in jitter (so a shed thundering herd de-synchronizes)
        and retry, up to ``wait`` total seconds.  ``wait=True`` means
        :data:`DEFAULT_SUBMIT_WAIT`; ``None``/``0`` raises immediately
        (the pre-overload behaviour).
        """
        header = {"op": "submit", "app": app}
        if self.token is not None:
            header["token"] = self.token
        header.update({k: v for k, v in fields.items()
                       if v is not None})
        if wait is True:
            wait = DEFAULT_SUBMIT_WAIT
        budget = float(wait) if wait else 0.0
        self.retries = 0
        while True:
            try:
                response, _ = self.call(dict(header))
                return str(response["ticket"])
            except ServiceError as exc:
                if exc.kind not in ("overloaded", "draining"):
                    raise
                hint = exc.retry_after or FALLBACK_RETRY_AFTER
                delay = hint * (1.0 + self.rng.random())
                if delay > budget:
                    raise
                budget -= delay
                self.retries += 1
                self.sleep(delay)

    def status(self, ticket: str) -> Dict[str, Any]:
        response, _ = self.call({"op": "status", "ticket": ticket})
        return response

    def result(self, ticket: str,
               timeout: Optional[float] = None
               ) -> Tuple[Dict[str, Any], bytes]:
        """Block until the ticket finishes.

        Returns ``(summary, manifest_bytes)``; the manifest payload is
        the build's step→content-key map as sorted JSON, so two clients
        can diff byte-for-byte.
        """
        header: Dict[str, Any] = {"op": "result", "ticket": ticket}
        if timeout is not None:
            header["timeout"] = timeout
        # The server blocks until done; give the socket headroom past
        # the server-side wait so we fail with the server's timeout
        # error, not a raw socket timeout.
        sock_timeout = (timeout + self.timeout) if timeout is not None \
            else None
        return self.call(header, timeout=sock_timeout)

    def compile(self, app: str, timeout: Optional[float] = None,
                **fields) -> Tuple[Dict[str, Any], bytes]:
        """Submit + result in one call (the loadgen's inner loop)."""
        return self.result(self.submit(app, **fields), timeout=timeout)

    def stats(self) -> Dict[str, Any]:
        response, _ = self.call({"op": "stats"})
        return response

    def health(self) -> Dict[str, Any]:
        """Liveness + readiness (``ready`` is False while draining)."""
        response, _ = self.call({"op": "health"})
        return response

    def drain(self) -> Dict[str, Any]:
        """Start a zero-downtime drain; returns peer hints."""
        response, _ = self.call({"op": "drain"})
        return response

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit (graceful stop)."""
        response, _ = self.call({"op": "shutdown"})
        return response

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
