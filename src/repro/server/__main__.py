"""Serving CLI: ``python -m repro.server [options]``.

Boot the HTTP compilation gateway::

    python -m repro.server --port 8000 --workers 4 --store .repro-store

or a sharded deployment (N worker processes behind the hash router,
sharing the persistent store)::

    python -m repro.server --port 8000 --shards 4 --workers 2 \
        --store .repro-store

The process prints one ``repro.server listening on http://...`` line
once it accepts traffic (scripts wait for it), serves until interrupted,
and shuts down *draining* — queued and running jobs finish first.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional


def _raise_interrupt(signum, frame):  # noqa: ARG001 - signal API
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve the compilation stack over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8000,
                        help="port to listen on; 0 picks a free port "
                             "(default 8000)")
    parser.add_argument("--workers", type=int, default=4,
                        help="compilation worker threads per shard (default 4)")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker *processes* behind the fingerprint-hash "
                             "router; 1 serves in-process (default 1)")
    parser.add_argument("--store", default=None, metavar="SPEC",
                        help="persistent result store: a directory path or "
                             "'dir:PATH' (created if missing); all shards "
                             "share it")
    parser.add_argument("--auth-keys", default=None, metavar="SPEC",
                        help="API keys: a JSON file path or inline JSON "
                             "({'keys': [{'key': ..., 'name': ..., 'rate': "
                             "...}]}); unset serves anonymously (or from "
                             "$REPRO_API_KEYS when exported)")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="job-queue bound per shard before submissions "
                             "get 503 (default 256)")
    parser.add_argument("--target", default="D0", choices=["D0", "D1"],
                        help="default spin-qubit duration calibration for "
                             "submissions that name no target (default D0)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write structured JSONL trace events to PATH "
                             "(see python -m repro.trace); shards append to "
                             "the same file")
    args = parser.parse_args(argv)

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2

    # SIGTERM (docker stop, CI cleanup) gets the same draining shutdown
    # as Ctrl-C.
    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass

    if args.trace:
        # Through the environment (not start_tracing directly) so shard
        # subprocesses inherit it and append to the same trace file.
        import os

        from repro.trace import start_tracing

        os.environ["REPRO_TRACE"] = args.trace
        start_tracing(args.trace)

    if args.shards > 1:
        from repro.server.sharding import ShardRouter

        try:
            router = ShardRouter(
                shards=args.shards,
                host=args.host,
                port=args.port,
                workers=args.workers,
                store=args.store,
                durations=args.target,
                max_pending=args.max_pending,
                auth=args.auth_keys,
            )
        except ValueError as error:  # a bad --store or --auth-keys spec
            print(f"error: {error}", file=sys.stderr)
            return 2
        router.start()
        print(f"repro.server listening on {router.url} "
              f"(shards={args.shards}, workers={args.workers}/shard"
              f"{', store=' + args.store if args.store else ''})",
              flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("draining...", flush=True)
            router.shutdown(drain=True)
        return 0

    from repro.server.app import build_server

    try:
        server = build_server(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store=args.store,
            durations=args.target,
            max_pending=args.max_pending,
            auth=args.auth_keys,
        )
    except ValueError as error:  # a bad --store or --auth-keys spec
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"repro.server listening on {server.url} "
          f"(workers={args.workers}"
          f"{', store=' + args.store if args.store else ''})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", flush=True)
        server.stop(drain=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
