"""The tiles-zoom workload's tile server, run as its own process.

Usage (started by ``run.py``, not by hand)::

    python3 perfbench/server.py --seed N [--trace]

Builds the K=2 sharded tile service over the seed's incidents, starts a
``TileServer`` on an ephemeral port and prints ``ready <port>``. It then
reads commands from stdin, one per line, and answers each with one JSON
line on stdout:

* ``counters`` -- the exact work counters so far (``QueryStats`` of
  every shard plus the service's ``tiles.*`` counters);
* ``rss`` -- the process's peak resident set so far;
* ``clear`` -- empty every tile cache level (png, density, bounds);
* ``trace`` -- (with ``--trace``) drop the spans recorded so far, so
  the report covers only what follows;
* ``quit`` -- stop serving, then report counters, peak RSS and (with
  ``--trace``) the per-request span summary; the process then exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from typing import Any, Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Tile service shape for the tiles-zoom workload.
SHARDS = 2
TILE_PX = 128
REQUEST_WORKERS = 2
ZOOM_MAX = 4


def build_service(seed: int) -> Any:
    from repro.serve import RenderConfig, ServiceConfig, ShardingConfig, TileService

    config = ServiceConfig(
        render=RenderConfig(tile_px=TILE_PX, eps=0.05, workers=REQUEST_WORKERS),
        sharding=ShardingConfig(shards=SHARDS),
    )
    service = TileService(config=config)
    service.registry.register("crime", common.incidents(seed))
    return service


def tile_counters(service: Any) -> Dict[str, int]:
    """The service's ``tiles.*`` counters now."""
    counters = service.metrics.as_dict()["counters"]
    return {name: int(value) for name, value in counters.items() if name.startswith("tiles.")}


def work_counters(service: Any, dataset: str, zoom_max: int) -> Dict[str, int]:
    """Exact work so far: summed ``QueryStats`` plus ``tiles.*`` counters."""
    entry = service.registry.get(dataset)
    renderers: Dict[int, Any] = {}
    for zoom in range(zoom_max + 1):
        for renderer in entry.tile_routes(zoom).renderers:
            renderers[id(renderer)] = renderer
    totals: Dict[str, int] = {}
    for renderer in renderers.values():
        for field, value in renderer.get_method(entry.method).stats.as_dict().items():
            totals[field] = totals.get(field, 0) + int(value)
    totals.update(tile_counters(service))
    return totals


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return common.self_peak_rss_mb()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    common.require_program()

    from repro.serve import TileServer

    import spans

    service = build_service(args.seed)
    rec = spans.Recorder() if args.trace else None
    # Wrappers go in before the server starts: it binds its connection
    # handler once, at start.
    restore = spans.install(rec) if rec is not None else None

    loop = asyncio.new_event_loop()
    stop = asyncio.Event()
    bound = threading.Event()
    port: Dict[str, int] = {}

    async def serve() -> None:
        server = await TileServer(service, port=0).start()
        port["value"] = server.port
        bound.set()
        try:
            await stop.wait()
        finally:
            await server.stop()

    thread = threading.Thread(target=loop.run_until_complete, args=(serve(),))
    thread.start()
    try:
        bound.wait(timeout=60)
        print(f"ready {port['value']}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "counters":
                print(json.dumps(work_counters(service, "crime", ZOOM_MAX)), flush=True)
            elif command == "rss":
                print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
            elif command == "clear":
                print(json.dumps({"cleared": service.cache.clear()}), flush=True)
            elif command == "trace" and rec is not None:
                rec.clear()
                print(json.dumps({"tracing": True}), flush=True)
            elif command == "quit":
                break
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join()
        loop.close()
        if restore is not None:
            restore()
    final: Dict[str, Any] = {
        "counters": work_counters(service, "crime", ZOOM_MAX),
        "peak_rss_mb": peak_rss_mb(),
    }
    service.close()
    if rec is not None:
        summary = spans.Summary(rec)
        final["traced"] = spans.trace_data(summary, rec)
        final["requests"] = {
            str(client): {"root_s": summary.root_s.get(root, 0.0),
                          "layers": summary.by_request.get(root, {})}
            for root, client in rec.client_rid.items()
        }
        folder = os.path.join(common.OUT, "spans")
        os.makedirs(folder, exist_ok=True)
        rec.write(os.path.join(folder, f"tiles-zoom-seed{args.seed}.json.gz"))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
