"""Start and stop the ``pld serve`` daemon and its store shards.

Untraced runs start the real command lines (``python -m repro.cli serve``
and ``python -m repro.cli store serve``).  Traced runs start the same
servers through ``launch.py``, which installs the span wrappers first
and writes the spans to a file when the process exits.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Seconds a server may take to print its address.
START_TIMEOUT = 60.0
#: Seconds a server may take to exit once asked to stop.
STOP_TIMEOUT = 30.0

_DAEMON_READY = re.compile(r"pld serve listening on ([\d.]+):(\d+)")
_SHARD_READY = re.compile(r"serving .* on (tcp://[\d.]+:\d+)")


def child_env() -> dict:
    """Environment for every process the benchmark starts: the repo's
    sources first on the path, unbuffered output."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One started server process and the log its output goes to."""

    def __init__(self, argv: List[str], log: pathlib.Path,
                 spans: Optional[pathlib.Path]):
        self.log = log
        self.spans = spans
        self._log_handle = open(log, "w")
        self.proc = subprocess.Popen(argv, stdout=self._log_handle,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=str(ROOT))

    def wait_for(self, pattern: "re.Pattern") -> "re.Match":
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            match = pattern.search(self.log.read_text())
            if match:
                return match
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.log.name}: server exited with "
                                   f"{self.proc.returncode}: "
                                   f"{self.log.read_text()[-400:]}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.log.name}: no address after "
                                   f"{START_TIMEOUT:g}s")
            time.sleep(0.005)

    def stop(self, graceful: bool = False) -> None:
        """Wait for the process to end; ``graceful`` means it was asked
        to stop already (the daemon's shutdown op), otherwise SIGTERM."""
        if self.proc.poll() is None and not graceful:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT)
        self._log_handle.close()


class Fleet:
    """Every server one benchmark run started; :meth:`close` stops all."""

    def __init__(self, workdir: pathlib.Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.servers: List[Server] = []
        self._count = 0

    def _argv(self, role: str, args: List[str],
              spans: Optional[pathlib.Path]) -> List[str]:
        if spans is None:
            if role == "daemon":
                return [sys.executable, "-m", "repro.cli", "serve", *args]
            return [sys.executable, "-m", "repro.cli", "store", "serve",
                    *args]
        return [sys.executable, str(HERE / "launch.py"), "--spans",
                str(spans), role, *args]

    def _start(self, role: str, *options: str) -> Server:
        """Start a server whose state directory is named after it."""
        self._count += 1
        name = f"{role}{self._count}"
        spans = self.workdir / f"{name}.spans.json" if self.traced else None
        args = [str(self.workdir / f"{name}.state"), "--port", "0",
                *options]
        server = Server(self._argv(role, args, spans),
                        self.workdir / f"{name}.log", spans)
        self.servers.append(server)
        return server

    def start_shards(self, count: int) -> Tuple[List[Server], List[str]]:
        shards = [self._start("shard") for _ in range(count)]
        urls = [shard.wait_for(_SHARD_READY).group(1) for shard in shards]
        return shards, urls

    def start_daemon(self, store_urls: Optional[List[str]] = None
                     ) -> Tuple[Server, str, int]:
        options = ["--store", ",".join(store_urls)] if store_urls else []
        daemon = self._start("daemon", *options)
        match = daemon.wait_for(_DAEMON_READY)
        return daemon, match.group(1), int(match.group(2))

    def close(self) -> None:
        for server in self.servers:
            server.stop()
