"""The three workloads. Each is a closed loop: the caller waits for every
frame or tile before it asks for the next.

Every workload returns a :class:`Outcome`: its end-to-end metrics
(``E2E`` names), the same numbers under the names the paper and the
roadmap use (printed with their sample counts), the exact work counters
of its deterministic segment, and -- for a traced run -- the per-layer
metrics of :mod:`spans`. Its timings are scaled to the reference host
speed of :class:`common.HostSpeed`, sampled between operations.

A traced run interleaves traced and untraced work, and the relative
change of the primary latency between the two is the tracing overhead:
the in-process workloads trace every second cycle; tiles-zoom serves the
first half of the window from an untraced server and the second half
from a traced one, which records spans from the end of its prefix.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import common
import gate
import server
import spans
from common import Ledger, Timing

#: End-to-end metrics every workload reports, with units. What each
#: slot measures per workload is ``Outcome.named`` (see README.md).
E2E: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("tertiary_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

_PER_SECOND = {"s": 1.0, "ms": 1e3}

#: Pixels sampled per checked frame or tile.
GATE_PIXELS = 256
TILE_EPS = 0.05


class Outcome:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.e2e: Dict[str, Tuple[float, int]] = {}
        self.named: List[Tuple[str, float, str, int, str]] = []
        self.counters: Dict[str, int] = {}
        self.layers: Optional[Dict[str, float]] = None
        self.breakdown: Dict[str, float] = {}
        self.ledger = Ledger()
        self.host = common.HostSpeed()

    def report(
        self, slot: Optional[str], name: str, value: float, unit: str, n: int,
        gated: Optional[float] = None,
    ) -> None:
        """Record one measured number; ``slot`` is its ``E2E`` name, if any,
        which holds ``gated`` (by default ``value``)."""
        if slot is not None:
            self.e2e[slot] = (value if gated is None else gated, n)
        self.named.append((name, value, unit, n, slot or ""))

    def timing(self, slot: Optional[str], timing: Timing, unit: str = "ms") -> None:
        """Record a timing, printed in ``unit``. Its slot holds the timing
        at the reference host speed, in the slot's unit.

        Set-up timings are scaled by the whole run's speed: right after a
        build the kernel ran at half speed for up to a few seconds, so
        samples between builds would misread the host.
        """
        gated = None
        if slot == "setup_s":
            gated = timing.value * self.host.factor
        elif slot is not None:
            gated = _PER_SECOND[dict(E2E)[slot]] * timing.scaled(self.host).value
        self.report(slot, timing.name, _PER_SECOND[unit] * timing.value, unit,
                    len(timing.samples), gated)

    def finish(self) -> None:
        """Report the failure rate and scale the throughput to the
        reference host speed; call after the last check is counted."""
        rate = self.ledger.success_rate
        self.report("success_rate", "fail_rate", 1.0 - rate, "ratio", self.ledger.attempted)
        self.e2e["success_rate"] = (rate, self.ledger.attempted)
        value, count = self.e2e["throughput_per_s"]
        self.e2e["throughput_per_s"] = (value / self.host.factor, count)


def _setup_samples(count: int, build: Any) -> List[Tuple[float, float]]:
    """``(start, seconds)`` of ``count`` builds."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        build()
        samples.append((start, time.perf_counter() - start))
    return samples


def _cycles(seconds: float, rec: Optional[spans.Recorder]) -> Iterator[bool]:
    """Yield once per closed-loop cycle until the window closes.

    Yields whether the cycle is traced: with a recorder, every second
    cycle runs with the span wrappers installed, so traced and untraced
    cycles interleave and their difference is the tracing overhead. A
    cycle starts only while at least half of the previous one still
    fits in the window; a traced run makes at least one cycle of each
    kind.
    """
    deadline = time.perf_counter() + seconds
    minimum = 1 if rec is None else 2
    index = 0
    while True:
        traced = rec is not None and index % 2 == 1
        restore = spans.install(rec) if traced and rec is not None else None
        start = time.perf_counter()
        try:
            yield traced
        finally:
            if restore is not None:
                restore()
        index += 1
        now = time.perf_counter()
        if index >= minimum and now + 0.5 * (now - start) >= deadline:
            return


def _overhead_pct(untraced: List[Tuple[float, float]], traced: List[Tuple[float, float]]) -> float:
    """Traced over untraced median, as a change in percent; the lists
    hold ``(start, seconds)`` pairs."""
    if not untraced or not traced:
        return 0.0
    return 100.0 * (Timing("traced", traced).value / Timing("untraced", untraced).value - 1.0)


# -- frame ---------------------------------------------------------------------

#: Frames of one cycle. The two short frames run twice, so each kind
#: gets a similar share of the window and a similar spread.
FRAME_CYCLE = ("eps", "tau", "eps_dist", "tau", "eps_dist")


def frame(seed: int, seconds: float, trace: bool) -> Outcome:
    """Full-frame renders through ``KDVRenderer.render``; no serving layer.

    One caller, one render thread. The frames are a Gaussian ε=0.01
    frame and a τ frame (τ = mean density) at 320x240, and an
    Epanechnikov ε=0.01 frame at 32x24, whose bounds run the per-row
    distance provider; :data:`FRAME_CYCLE` orders them.
    """
    from repro.visual.kdv import KDVRenderer
    from repro.visual.request import RenderOptions, RenderRequest

    out = Outcome()
    points = common.incidents(seed)
    built: Dict[str, Any] = {}

    def build() -> None:
        built["gauss"] = KDVRenderer(points, resolution=(320, 240))
        built["gauss"].get_method("quad")
        built["dist"] = KDVRenderer(points, resolution=(32, 24), kernel="epanechnikov")
        built["dist"].get_method("quad")

    setup = _setup_samples(9, build)
    gauss, dist = built["gauss"], built["dist"]
    coarse = gauss.grid.scaled(0.25)
    tau = float(np.mean(gate.exact_at(gauss, coarse.centers())))
    options = RenderOptions(tile_size=64)
    kinds = (
        ("eps", gauss, RenderRequest.for_eps(0.01, "quad", options=options)),
        ("tau", gauss, RenderRequest.for_tau(tau, "quad", options=options)),
        ("eps_dist", dist, RenderRequest.for_eps(0.01, "quad", options=options)),
    )
    first: Dict[str, Any] = {}
    work: Dict[str, Dict[str, int]] = {}
    times: Dict[Tuple[bool, str], List[Tuple[float, float]]] = {}
    cycles: List[float] = []
    rec = spans.Recorder() if trace else None
    traced_frames = 0

    by_kind = {kind: (renderer, request) for kind, renderer, request in kinds}
    for traced in _cycles(seconds, rec):
        cycle_s = 0.0
        for kind in FRAME_CYCLE:
            renderer, request = by_kind[kind]
            stats = renderer.get_method("quad").stats
            before = stats.as_dict()
            start = time.perf_counter()
            image = renderer.render(request)
            elapsed = time.perf_counter() - start
            after = stats.as_dict()
            delta = {key: after[key] - before[key] for key in after}
            problems = []
            if kind not in first:
                first[kind] = np.asarray(image)
                work[kind] = delta
            else:
                if not np.array_equal(image, first[kind]):
                    problems.append(f"{kind} frame differs from the first {kind} frame")
                if delta != work[kind]:
                    problems.append(f"{kind} frame work {delta} != first {work[kind]}")
            out.ledger.op(problems)
            times.setdefault((traced, kind), []).append((start, elapsed))
            traced_frames += int(traced)
            cycle_s += elapsed
            out.host.sample()
        if not traced:
            cycles.append(cycle_s)

    # Correctness gate, outside the timed window.
    rng = np.random.default_rng(seed + 1)
    for kind, renderer, request in kinds:
        grid = renderer.grid
        index = gate.sample_pixels(grid.num_pixels, GATE_PIXELS, rng)
        exact = gate.exact_at(renderer, grid.centers()[index])
        values = first[kind].reshape(-1)[index]
        if kind == "tau":
            problems = gate.check_tau(f"{kind} frame", values, exact, tau)
        else:
            resolved = request.resolve(renderer)
            problems = gate.check_eps(
                f"{kind} frame", values, exact, float(resolved.eps), float(resolved.atol)
            )
        out.ledger.op(problems)

    for kind, _renderer, _request in kinds:
        for field, value in work[kind].items():
            out.counters[f"{kind}.{field}"] = value
            out.counters[field] = out.counters.get(field, 0) + value

    out.timing("setup_s", Timing("setup_s", setup), unit="s")
    slots = {"eps": "primary_ms", "tau": "secondary_ms", "eps_dist": "tertiary_ms"}
    for kind, _renderer, _request in kinds:
        out.timing(slots[kind], Timing(f"frame_{kind}_s", times[(False, kind)]), unit="s")
    frames = len(FRAME_CYCLE) * len(cycles)
    out.report("throughput_per_s", "frames_per_s", frames / sum(cycles), "1/s", frames)
    out.report("peak_rss_mb", "peak_rss_mb", common.self_peak_rss_mb(), "MB", 1)

    if trace and rec is not None:
        overheads = [
            _overhead_pct(times[(False, kind)], times.get((True, kind), []))
            for kind, _r, _q in kinds
        ]
        summary = spans.Summary(rec)
        rec.write(_spans_path(f"frame-seed{seed}.json.gz"))
        out.layers = spans.layer_metrics(
            spans.trace_data(summary, rec), traced_frames, [], out.counters, {}, 1,
            statistics.mean(overheads),
        )
    return out


# -- tiles-append ----------------------------------------------------------------

APPEND_BATCH = 500
APPEND_ZOOM_MAX = 3


def tiles_append(seed: int, seconds: float, trace: bool) -> Outcome:
    """Appends beside reads, in process, from one thread.

    K=1 service with a coreset tier below zoom 2, ε tiles only. Each
    cycle appends the seed's next 500 incidents, then replays one short
    zoom-in session, the same in every cycle, twice; the second pass is
    served from L1.
    """
    from loadgen import ZipfViewports, session_tiles
    from _client import check_wellformed

    from repro.serve import RenderConfig, ServiceConfig, ShardingConfig, TileService

    out = Outcome()
    pool, order = common.incident_order(seed)
    points = pool[order[:common.N_POINTS]]
    config = ServiceConfig(
        render=RenderConfig(tile_px=server.TILE_PX, eps=TILE_EPS, workers=1),
        sharding=ShardingConfig(shards=1),
    )
    services: List[Any] = []

    def build() -> None:
        service = TileService(config=config)
        service.registry.register("crime", points, coreset_zoom=2)
        services.append(service)

    setup = _setup_samples(5, build)
    for spare in services[:-1]:
        spare.close()
    service = services[-1]
    # One session, replayed every cycle: each cycle then misses on the
    # same tiles, however many cycles fit in the window.
    sessions = random.Random(common.MAP_SEED)
    viewports = ZipfViewports(APPEND_ZOOM_MAX, 1.1, random.Random(common.MAP_SEED))
    session = session_tiles(viewports.sample(sessions), 1, sessions)
    offset = common.N_POINTS
    expected_n = common.N_POINTS
    # (start, seconds) of each operation.
    append_s: Dict[bool, List[Tuple[float, float]]] = {}
    first_tile_s: Dict[bool, List[Tuple[float, float]]] = {}
    miss_s: List[Tuple[float, float]] = []
    hit_s: List[Tuple[float, float]] = []
    busy = 0.0
    rec = spans.Recorder() if trace else None
    traced_cycles = 0
    traced_misses: List[Tuple[float, int]] = []
    traced_window: Dict[str, int] = {}

    try:
        for traced in _cycles(seconds, rec):
            out.host.sample(3)
            cycle_start = time.perf_counter()
            counted = server.tile_counters(service)
            batch = pool[order[offset:offset + APPEND_BATCH]]
            offset += APPEND_BATCH
            expected_n += APPEND_BATCH
            start = time.perf_counter()
            count = service.append_points("crime", batch)
            append_s.setdefault(traced, []).append((start, time.perf_counter() - start))
            out.ledger.op(
                [] if count == expected_n
                else [f"append returned {count}, expected {expected_n}"]
            )
            served: Dict[Tuple[int, int, int], bytes] = {}
            for replay in (0, 1):
                for position, (z, x, y) in enumerate(session):
                    before = len(rec) if rec is not None else 0
                    start = time.perf_counter()
                    data, info = service.get_tile("crime", z, x, y, eps=TILE_EPS)
                    elapsed = time.perf_counter() - start
                    tile = f"tile {z}/{x}/{y}"
                    headers = {"X-Cache": str(info["cache"])}
                    problems = []
                    if info.get("degraded"):
                        headers["X-Repro-Degraded"] = str(info["degraded"])
                        problems.append(f"{tile} degraded: {info['degraded']}")
                    violation = check_wellformed(200, headers, data)
                    if violation is not None:
                        problems.append(f"{tile}: {violation}")
                    if replay == 1 and (info["cache"] != "hit" or served[(z, x, y)] != data):
                        problems.append(f"{tile} replay was not an identical L1 hit")
                    served.setdefault((z, x, y), data)
                    out.ledger.op(problems)
                    if traced:
                        if info["cache"] == "miss":
                            # The get_tile span is the request's root.
                            root = _last_root(rec, before, "serve.service.get_tile")
                            if root is not None:
                                traced_misses.append((elapsed, root))
                        if replay == 0 and position == 0:
                            first_tile_s.setdefault(True, []).append((start, elapsed))
                    elif replay == 0 and position == 0:
                        first_tile_s.setdefault(False, []).append((start, elapsed))
                    elif info["cache"] == "hit":
                        hit_s.append((start, elapsed))
                    else:
                        miss_s.append((start, elapsed))
            if traced:
                traced_cycles += 1
                for name, value in server.tile_counters(service).items():
                    traced_window[name] = traced_window.get(name, 0) + value - counted.get(name, 0)
            else:
                busy += time.perf_counter() - cycle_start
                if not out.counters:
                    out.counters = _service_counters(service, "crime", APPEND_ZOOM_MAX)
        out.host.sample(3)

        # Correctness gate: the session's tiles, as last served, carry the ε contract.
        entry = service.registry.get("crime")
        check_rng = np.random.default_rng(seed + 1)
        for z, x, y in dict.fromkeys(session):
            plan = service.plan_tile("crime", z, x, y, eps=TILE_EPS)
            values = service.cache.get_density(plan.density_key)
            if values is None:
                out.ledger.op([f"tile {z}/{x}/{y}: density level missing after replay"])
                continue
            grid = plan.resolved.grid
            index = gate.sample_pixels(grid.num_pixels, GATE_PIXELS // 4, check_rng)
            exact = gate.exact_at(entry.renderer, grid.centers()[index])
            # Tier tiles carry the coreset's absolute envelope.
            cap = (
                float(entry.renderer.weight) * entry.points.shape[0]
                if plan.resolved.tier is not None else None
            )
            out.ledger.op(gate.check_eps(
                f"tile {z}/{x}/{y}", np.asarray(values).reshape(-1)[index], exact,
                TILE_EPS, float(plan.resolved.atol), cap,
            ))
        rss = common.self_peak_rss_mb()
    finally:
        service.close()

    out.timing("setup_s", Timing("setup_s", setup), unit="s")
    out.timing("primary_ms", Timing("first_tile_ms", first_tile_s[False]))
    out.timing("secondary_ms", Timing("append_ms", append_s[False]))
    # The in-process L1 hit is a fraction of a millisecond of pure Python
    # and swings with the host's speed far more than a render does, so
    # it is printed but the gated slot is the miss.
    out.timing("tertiary_ms", Timing("tile_miss_ms.p50", miss_s))
    out.timing(None, Timing("tile_hit_ms.p50", hit_s))
    untraced_tiles = len(hit_s) + len(miss_s) + len(first_tile_s[False])
    out.report("throughput_per_s", "tiles_per_s", untraced_tiles / busy, "1/s", untraced_tiles)
    out.report("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)

    if trace and rec is not None:
        summary = spans.Summary(rec)
        rec.write(_spans_path(f"tiles-append-seed{seed}.json.gz"))
        misses = [
            (latency, summary.by_request.get(root, {})) for latency, root in traced_misses
        ]
        out.breakdown = spans.miss_breakdown(misses)
        out.layers = spans.layer_metrics(
            spans.trace_data(summary, rec), traced_cycles, misses, out.counters,
            traced_window, 1, _overhead_pct(first_tile_s[False], first_tile_s.get(True, [])),
        )
    return out


def _spans_path(name: str) -> str:
    folder = os.path.join(common.OUT, "spans")
    os.makedirs(folder, exist_ok=True)
    return os.path.join(folder, name)


def _last_root(rec: spans.Recorder, since: int, name: str) -> Optional[int]:
    """Id of the last root span called ``name`` recorded after ``since``."""
    code = rec.code_of(name)
    for i in range(len(rec) - 1, since - 1, -1):
        if rec.code[i] == code and rec.parent[i] == 0:
            return int(rec.sid[i])
    return None


def _service_counters(service: Any, dataset: str, zoom_max: int) -> Dict[str, int]:
    totals = server.work_counters(service, dataset, zoom_max)
    tier = service.registry.get(dataset).coreset_tier(0)
    if tier is not None:
        totals["coreset.m"] = int(tier.coreset.m)
        totals["coreset.n"] = int(tier.coreset.n_source)
    return totals


# -- tiles-zoom ----------------------------------------------------------------

CLIENTS = 2
ZOOM_MAX = 4
#: Server starts timed for ``setup_s`` (the last one serves the window).
SERVER_STARTS = 5
PREFIX_ZOOM = 1
#: Sessions each client runs per pass.
SESSIONS_PER_PASS = 2


class _Server:
    """One tile server process, driven over stdin/stdout."""

    def __init__(self, seed: int, traced: bool) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "server.py"), "--seed", str(seed)]
        if traced:
            command.append("--trace")
        started = self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=common.ROOT,
        )
        try:
            line = self._line()
            if not line.startswith("ready "):
                raise RuntimeError(f"tile server did not start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(line.split()[1])

    def _line(self) -> str:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("tile server exited early")
        return line.strip()

    def ask(self, command: str) -> Dict[str, Any]:
        import json

        assert self.process.stdin is not None
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return json.loads(self._line())

    def quit(self) -> Dict[str, Any]:
        final = self.ask("quit")
        self.process.wait(timeout=60)
        return final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)


class _Request:
    __slots__ = ("rid", "op", "tile", "start", "seconds", "status", "cache", "body")

    def __init__(self, rid: int, op: str, tile: Tuple[int, int, int]) -> None:
        self.rid = rid
        self.op = op
        self.tile = tile
        self.start = 0.0
        self.seconds = 0.0
        self.status = 0
        self.cache = ""
        self.body = b""


def tiles_zoom(seed: int, seconds: float, trace: bool) -> Outcome:
    """Zipf zoom-in/pan map traffic against a K=2 ``TileServer`` process.

    Two closed-loop clients each run two of the map's zipf sessions over
    z0-z4, three ε sessions and one τ session between them, in whole
    passes from empty tile caches (see ``drive``). Before
    the timed window, one client replays a fixed prefix (one ε and one
    τ session, cut at zoom 1) sequentially; its exact work counters are
    the workload's.
    """
    from loadgen import ZipfViewports, session_tiles
    from _client import check_wellformed, http_get

    from repro.serve.tiles import tile_grid
    from repro.visual.kdv import KDVRenderer

    out = Outcome()
    points = common.incidents(seed)
    probe = KDVRenderer(points)
    base = probe.grid
    tau = float(np.mean(gate.exact_at(probe, base.scaled(64 / base.width).centers())))
    rid_counter = [0]

    def path_for(op: str, tile: Tuple[int, int, int], rid: int) -> str:
        z, x, y = tile
        param = f"tau={tau!r}" if op == "tau" else f"eps={TILE_EPS!r}"
        return f"/tile/crime/{z}/{x}/{y}.png?{param}&rid={rid}"

    async def fetch(port: int, op: str, tile: Tuple[int, int, int]) -> _Request:
        rid_counter[0] += 1
        request = _Request(rid_counter[0], op, tile)
        start = request.start = time.perf_counter()
        try:
            status, headers, body = await http_get(
                "127.0.0.1", port, path_for(op, tile, request.rid), timeout=120.0
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            request.seconds = time.perf_counter() - start
            out.ledger.op([f"{tile}: transport failure {error!r}"])
            return request
        request.seconds = time.perf_counter() - start
        request.status = status
        request.cache = headers.get("X-Cache", "")
        request.body = body
        problems = []
        violation = check_wellformed(status, headers, body)
        if violation is not None:
            problems.append(f"{tile}: {violation}")
        if status != 200:
            problems.append(f"{tile}: status {status}")
        elif headers.get("X-Repro-Degraded"):
            problems.append(f"{tile}: degraded {headers['X-Repro-Degraded']}")
        out.ledger.op(problems)
        return request

    def prefix_sessions() -> List[Tuple[str, Tuple[int, int, int]]]:
        sessions = random.Random(common.MAP_SEED)
        viewports = ZipfViewports(ZOOM_MAX, 1.1, random.Random(common.MAP_SEED))
        steps = []
        for op in ("eps", "tau"):
            for tile in session_tiles(viewports.sample(sessions), 2, sessions):
                if tile[0] <= PREFIX_ZOOM:
                    steps.append((op, tile))
        return steps

    async def prefix(port: int) -> List[_Request]:
        return [await fetch(port, op, tile) for op, tile in prefix_sessions()]

    def pass_requests() -> List[List[Tuple[str, Tuple[int, int, int]]]]:
        """Each client's requests in one pass, the same in every pass:
        :data:`SESSIONS_PER_PASS` sessions each, every fourth one τ."""
        viewports = ZipfViewports(ZOOM_MAX, 1.1, random.Random(common.MAP_SEED))
        lists = []
        for index in range(CLIENTS):
            sessions = random.Random((common.MAP_SEED << 16) ^ (index + 1))
            steps = []
            for session in range(SESSIONS_PER_PASS):
                op = "tau" if (index * SESSIONS_PER_PASS + session) % 4 == 3 else "eps"
                target = viewports.sample(sessions)
                steps.extend((op, tile) for tile in session_tiles(target, 2, sessions))
            lists.append(steps)
        return lists

    async def run_pass(port: int, lists: List[List[Tuple[str, Tuple[int, int, int]]]]
                       ) -> List[_Request]:
        done: List[_Request] = []

        async def client(steps: List[Tuple[str, Tuple[int, int, int]]]) -> None:
            for op, tile in steps:
                done.append(await fetch(port, op, tile))

        await asyncio.gather(*(client(steps) for steps in lists))
        return done

    def drive(live: _Server, window: float) -> Tuple[List[_Request], float]:
        """Serve whole passes until the window closes; returns the
        requests and the seconds spent serving them.

        Every pass starts from empty tile caches, so each pass asks for
        the same tiles and misses on the same ones, however many passes
        fit. Each pass then replays its requests once, from one client,
        as a user panning back over tiles already seen. The replay is all
        L1 hits, which gives ``tile_hit_ms`` enough samples; one client,
        so that a hit's time is the request's own and not the other
        client's turn on the server's event loop. Before each pass, before
        its replay and after the last pass, with no request in flight,
        the host's speed is sampled. A pass starts only while half of the
        previous one still fits in the window.
        """
        lists = pass_requests()
        done: List[_Request] = []
        serving = last = 0.0
        deadline = time.perf_counter() + window
        while not done or time.perf_counter() + 0.5 * last < deadline:
            live.ask("clear")
            out.host.sample(3)
            start = time.perf_counter()
            done.extend(asyncio.run(run_pass(live.port, lists)))
            cold = time.perf_counter() - start
            out.host.sample(3)
            start = time.perf_counter()
            done.extend(asyncio.run(run_pass(live.port, [sum(lists, [])])))
            last = cold + time.perf_counter() - start
            serving += last
        out.host.sample(3)
        return done, serving

    processes: List[_Server] = []
    served: List[_Request] = []
    try:
        setup: List[Tuple[float, float]] = []
        for _ in range(SERVER_STARTS - 1):
            spare = _Server(seed, traced=False)
            processes.append(spare)
            setup.append((spare.started, spare.setup_s))
            spare.quit()
            processes.remove(spare)
        segments: Dict[bool, Dict[str, Any]] = {}
        windows = [(False, seconds / 2.0), (True, seconds / 2.0)] if trace else [(False, seconds)]
        for traced, window in windows:
            live = _Server(seed, traced=traced)
            processes.append(live)
            if not traced:
                setup.append((live.started, live.setup_s))
            warm = asyncio.run(prefix(live.port))
            segment = {
                "counters": live.ask("counters"),
                # Peak memory with both clients in flight depends on
                # whether two τ fallbacks overlap; the sequential
                # prefix's peak does not, so that one is the gated one.
                "prefix_rss": live.ask("rss")["peak_rss_mb"],
            }
            if traced:
                live.ask("trace")
            segment["done"], segment["elapsed"] = drive(live, window)
            segment["final"] = live.quit()
            processes.remove(live)
            segments[traced] = segment
            served.extend(warm + segment["done"])
    finally:
        for process in processes:
            process.kill()

    untraced = segments[False]
    done, elapsed, counters = untraced["done"], untraced["elapsed"], untraced["counters"]
    out.counters = counters
    if trace and segments[True]["counters"] != counters:
        out.ledger.op(["traced server's prefix work counters differ from the untraced server's"])

    # Correctness gate: decode a sample of served τ tiles (the prefix
    # always serves some).
    rng = np.random.default_rng(seed + 1)
    checked = 0
    seen = set()
    for request in served:
        if checked >= 4:
            break
        if request.op != "tau" or request.status != 200 or request.tile in seen:
            continue
        seen.add(request.tile)
        checked += 1
        try:
            mask, problems = gate.tau_tile_mask(request.body)
        except ValueError as error:
            out.ledger.op([f"tau tile {request.tile}: {error}"])
            continue
        grid = tile_grid(base, *request.tile, server.TILE_PX)
        index = gate.sample_pixels(grid.num_pixels, GATE_PIXELS // 2, rng)
        exact = gate.exact_at(probe, grid.centers()[index])
        problems += gate.check_tau(f"tau tile {request.tile}", mask.reshape(-1)[index], exact, tau)
        out.ledger.op(problems)
    if checked == 0:
        out.ledger.op(["no tau tile was served, so none could be checked"])

    misses = [(r.start, r.seconds) for r in done if r.status == 200 and r.cache == "miss"]
    hits = [(r.start, r.seconds) for r in done if r.status == 200 and r.cache == "hit"]
    out.timing("setup_s", Timing("setup_s", setup), unit="s")
    out.timing("primary_ms", Timing("tile_miss_ms.p50", misses))
    out.timing("secondary_ms", Timing("tile_miss_ms.p90", misses, q=0.9))
    out.timing("tertiary_ms", Timing("tile_hit_ms.p50", hits))
    out.report("throughput_per_s", "tiles_per_s", len(done) / elapsed, "1/s", len(done))
    out.report("peak_rss_mb", "peak_rss_mb.prefix", float(untraced["prefix_rss"]), "MB", 1)
    out.report(None, "peak_rss_mb.window", float(untraced["final"]["peak_rss_mb"]), "MB", 1)

    if trace:
        traced_done, traced_final = segments[True]["done"], segments[True]["final"]
        requests = traced_final.get("requests", {})
        miss_rows = []
        for request in traced_done:
            server_side = requests.get(str(request.rid))
            if request.cache == "miss" and server_side is not None:
                miss_rows.append((request.seconds, server_side["layers"]))
        out.breakdown = spans.miss_breakdown(miss_rows)
        after, before = traced_final["counters"], segments[True]["counters"]
        window = {name: after[name] - before.get(name, 0) for name in after}
        out.layers = spans.layer_metrics(
            traced_final["traced"], len(traced_done), miss_rows, counters, window,
            server.SHARDS,
            _overhead_pct(
                [(r.start, r.seconds) for r in done if r.cache == "miss"],
                [(r.start, r.seconds) for r in traced_done if r.cache == "miss"],
            ),
        )
    return out


RUNNERS = {"frame": frame, "tiles-zoom": tiles_zoom, "tiles-append": tiles_append}
