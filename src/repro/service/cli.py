"""``repro-serve``: launch the partitioning service.

    repro-serve --port 8080 --workers 4 --backend thread:4 \\
        --cache-dir /var/tmp/repro-cache --rate 10 --burst 20

Runs :class:`~repro.service.http.ServiceServer` on an asyncio event
loop until interrupted; ``--port 0`` (the default) binds an ephemeral
port and prints it, which is what the tests and benchmarks use.  Also
reachable as ``repro-contact serve ...`` (argument tail forwarded
verbatim).
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.http import ServiceServer

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "partitioning-as-a-service: async job engine with a "
            "content-addressed result cache (docs/SERVICE.md)"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent job executors"
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="pending-job bound (full queue returns 503)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        help="in-memory result-cache entries (LRU)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent disk cache tier",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        help=(
            "execution backend spec for contact-step jobs "
            "(serial, thread:N, process:N, ...)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="per-client submissions/second (0 = unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=int,
        default=8,
        help="per-client burst size for the token bucket",
    )
    parser.add_argument(
        "--job-history",
        type=int,
        default=1024,
        help=(
            "retained job records; the oldest finished records beyond "
            "this are evicted (their ids then return 404)"
        ),
    )
    parser.add_argument(
        "--mesh-root",
        default=None,
        help=(
            "restrict {'kind': 'mesh'} source paths to this directory "
            "(default: any server-readable path — trusted clients only)"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Translate parsed CLI flags into an :class:`EngineConfig`."""
    return EngineConfig(
        workers=args.workers,
        queue_maxsize=args.queue_size,
        cache_capacity=args.cache_capacity,
        cache_dir=args.cache_dir,
        backend=args.backend,
        rate_per_s=args.rate,
        rate_burst=args.burst,
        job_history=args.job_history,
        mesh_root=args.mesh_root,
    )


async def _serve(args: argparse.Namespace) -> int:
    engine = ServiceEngine(config_from_args(args))
    server = ServiceServer(engine, host=args.host, port=args.port)
    await server.start()
    print(
        f"repro-serve listening on {args.host}:{server.port} "
        f"(workers={args.workers}, backend={args.backend!r}, "
        f"cache={args.cache_capacity}"
        + (f", disk={args.cache_dir}" if args.cache_dir else "")
        + ")",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # the shutdown path
        pass
    finally:
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
