"""``python -m repro.serve`` / ``repro serve`` — run the ingest daemon.

Binds a local socket, prints the address, serves until SIGINT/SIGTERM,
then drains cleanly (flush complete datasets, drop incomplete ones, close
every file).  The daemon's CI gates are ``repro.verify``'s ``serve_parity``
pillar and ``perfbench``'s ``served_shared`` selftest.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.core.config import PipelineConfig
from repro.serve.daemon import ReproServer


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Multi-tenant ingest daemon for the predictive engine.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7707,
                        help="TCP port (0 picks an ephemeral port; default 7707)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="serve on a unix socket path instead of TCP")
    parser.add_argument("--executor", default="thread",
                        help="fan-out backend for coalesced collective runs "
                             "(default: thread — the daemon's parallelism)")
    parser.add_argument("--nranks", type=int, default=4,
                        help="default SPMD width for facade-partitioned writes")
    parser.add_argument("--strategy", default="reorder",
                        help="default write strategy for served files")
    parser.add_argument("--tenant-depth", type=int, default=64,
                        help="per-tenant ingest queue cap (backpressure knob)")
    parser.add_argument("--total-depth", type=int, default=1024,
                        help="aggregate ingest queue cap (backpressure knob)")
    return parser.parse_args(argv)


def _build_server(args) -> ReproServer:
    return ReproServer(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        config=PipelineConfig(executor=args.executor),
        nranks=args.nranks,
        strategy=args.strategy,
        tenant_depth=args.tenant_depth,
        total_depth=args.total_depth,
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    server = _build_server(args)
    server.start()
    print(f"repro serve: listening on {server.address} "
          f"(tenant depth {args.tenant_depth}, total {args.total_depth}, "
          f"executor {args.executor!r}); Ctrl-C drains and exits")

    def _stop(signum, frame):  # pragma: no cover - signal path
        threading.Thread(target=server.stop, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    server.serve_forever()
    print("repro serve: drained and closed")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
