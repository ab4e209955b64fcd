"""Start a traced ``pld serve`` daemon or store shard.

Installs the span wrappers of ``spans.py``, then runs the same entry
point the CLI runs (``repro.service.daemon.serve`` or
``repro.store.remote.server.serve_forever``).  On exit the spans go to
``--spans FILE``.  A daemon stops through its ``shutdown`` op; a shard
stops on SIGTERM.

    python benchmarks/e2e/launch.py --spans FILE daemon STATE --port 0 [--store URLS]
    python benchmarks/e2e/launch.py --spans FILE shard DIR --port 0
"""

from __future__ import annotations

import argparse
import signal
import sys

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("role", choices=("daemon", "shard"))
    parser.add_argument("state")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--store", default=None)
    args = parser.parse_args(argv)

    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        if args.role == "daemon":
            from repro.service.daemon import serve
            return serve(args.state, port=args.port, store_urls=args.store)
        from repro.store.remote.server import serve_forever
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        serve_forever(args.state, port=args.port)
        return 0
    finally:
        patches.restore()
        recorder.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
