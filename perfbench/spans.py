"""Span tracing from outside the program.

The benchmark never edits ``repro``: it times each layer by replacing a
public function or method of a ``repro`` module, at the name its caller
resolves, with a wrapper that records one span per call. A span is
``(id, parent, name, start, end, request id)``; spans stay in memory
(compact arrays, one lock-protected append per span) and are written out
when the run ends.

Parent links follow a :mod:`contextvars` variable, so they are correct
across asyncio tasks. Work handed to a thread pool carries its parent on
the :class:`~repro.serve.service.TilePlan` it receives: the plan wrapper
stamps the planning context onto the plan, and the serve wrapper on the
worker thread picks it up (the gap between the L1 lookup and the worker
starting is the request's pool wait).

:func:`install` wraps every layer and returns a function that puts the
originals back, so one process can alternate traced and untraced work.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = (
    contextvars.ContextVar("perfbench_span", default=None)
)

#: Attribute the benchmark stamps on a ``TilePlan`` to carry context
#: across the request pool.
_PLAN_CTX = "_perfbench_ctx"
_PLAN_L1_END = "_perfbench_l1_end"


class Recorder:
    """In-memory span store plus per-layer work tallies."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop every span and tally recorded so far (names stay)."""
        self.sid = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self.code = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        # name -> summed work amount (rows, pairs, ...), recorded with spans.
        self.amount: Dict[str, float] = {}
        # cache level -> [lookups, hits]
        self.cache: Dict[str, List[int]] = {}
        # Pool wait of cross-thread serve calls: parent span id -> seconds.
        self.pool_wait: Dict[int, float] = {}
        # Root (HTTP) span id -> the client's request id.
        self.client_rid: Dict[int, int] = {}

    def code_of(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            with self._lock:
                code = self._codes.get(name)
                if code is None:
                    code = len(self.names)
                    self.names.append(name)
                    self._codes[name] = code
        return code

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, sid: int, parent: int, rid: int, code: int, t0: float, t1: float) -> None:
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.rid.append(rid)
            self.code.append(code)
            self.t0.append(t0)
            self.t1.append(t1)

    def tally(self, name: str, amount: float) -> None:
        with self._lock:
            self.amount[name] = self.amount.get(name, 0.0) + amount

    def cache_lookup(self, level: str, hit: bool) -> None:
        with self._lock:
            entry = self.cache.setdefault(level, [0, 0])
            entry[0] += 1
            entry[1] += int(hit)

    def __len__(self) -> int:
        return len(self.sid)

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON (``names`` + one row per span)."""
        rows = [
            [self.sid[i], self.parent[i], self.rid[i], self.code[i],
             round(self.t0[i], 7), round(self.t1[i], 7)]
            for i in range(len(self.sid))
        ]
        payload = {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class Summary:
    """Self times of recorded spans, in total and per request.

    A span's self time is its duration minus the part of it that its
    child spans cover. ``by_request`` maps each request (root span id)
    to ``{layer: self seconds}``, with the pool wait split out of the
    root's own time; ``root_s`` holds each request's root duration.
    """

    def __init__(self, rec: Recorder) -> None:
        import numpy as np

        n = len(rec)
        sid = np.frombuffer(rec.sid, dtype=np.int64)[:n].copy()
        parent = np.frombuffer(rec.parent, dtype=np.int64)[:n].copy()
        rid = np.frombuffer(rec.rid, dtype=np.int64)[:n].copy()
        code = np.frombuffer(rec.code, dtype=np.int32)[:n].copy()
        t0 = np.frombuffer(rec.t0, dtype=np.float64)[:n].copy()
        t1 = np.frombuffer(rec.t1, dtype=np.float64)[:n].copy()
        index_of = {int(s): i for i, s in enumerate(sid)}
        covered = np.zeros(n)
        order = np.lexsort((t0, parent))
        start = 0
        while start < n:
            p = int(parent[order[start]])
            stop = start
            while stop < n and int(parent[order[stop]]) == p:
                stop += 1
            owner = index_of.get(p)
            if p != 0 and owner is not None:
                lo, hi = t0[owner], t1[owner]
                total = 0.0
                cur_lo = cur_hi = None
                for k in order[start:stop]:
                    a, b = max(t0[k], lo), min(t1[k], hi)
                    if b <= a:
                        continue
                    if cur_hi is None or a > cur_hi:
                        if cur_hi is not None:
                            total += cur_hi - cur_lo
                        cur_lo, cur_hi = a, b
                    else:
                        cur_hi = max(cur_hi, b)
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                covered[owner] = total
            start = stop
        self_s = np.maximum(t1 - t0 - covered, 0.0)
        self.names = list(rec.names)
        self.spans = n
        self.total_s: Dict[str, float] = {}
        for c in np.unique(code):
            self.total_s[self.names[int(c)]] = float(self_s[code == c].sum())
        self.by_request: Dict[int, Dict[str, float]] = {}
        self.root_s: Dict[int, float] = {}
        for i in range(n):
            layers = self.by_request.setdefault(int(rid[i]), {})
            name = self.names[int(code[i])]
            layers[name] = layers.get(name, 0.0) + float(self_s[i])
            if parent[i] == 0:
                self.root_s[int(sid[i])] = float(t1[i] - t0[i])
        pool_total = 0.0
        for root, wait in rec.pool_wait.items():
            layers = self.by_request.get(root)
            if layers is None:
                continue
            if "serve.http" in layers:
                layers["serve.http"] -= wait
            layers["serve.service.pool_wait"] = wait
            pool_total += wait
        if pool_total:
            self.total_s["serve.http"] = self.total_s.get("serve.http", 0.0) - pool_total
            self.total_s["serve.service.pool_wait"] = pool_total


def _enter(parent_ctx: Optional[Tuple[int, int]], rec: Recorder) -> Tuple[int, int, int]:
    sid = rec.next_id()
    if parent_ctx is None:
        return sid, 0, sid
    return sid, parent_ctx[0], parent_ctx[1]


def _span(
    rec: Recorder,
    name: str,
    fn: Callable[..., Any],
    *,
    pick: Optional[Callable[[tuple], str]] = None,
    amount: Optional[Callable[[tuple, Any], float]] = None,
    parent_from_plan: bool = False,
    after: Optional[Callable[[tuple, Any], None]] = None,
) -> Callable[..., Any]:
    """A synchronous wrapper recording one span per call of ``fn``."""
    default_code = rec.code_of(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        ctx = _CURRENT.get()
        if parent_from_plan and ctx is None and len(args) > 1:
            ctx = getattr(args[1], _PLAN_CTX, None)
            l1_end = getattr(args[1], _PLAN_L1_END, None)
            if ctx is not None and l1_end is not None:
                rec.pool_wait[ctx[0]] = time.perf_counter() - l1_end
        sid, parent, rid = _enter(ctx, rec)
        code = rec.code_of(pick(args)) if pick is not None else default_code
        token = _CURRENT.set((sid, rid))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            rec.add(sid, parent, rid, code, t0, t1)
        if amount is not None:
            rec.tally(rec.names[code], amount(args, result))
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _async_root(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """An ``async def`` wrapper: one root span per awaited call."""
    code = rec.code_of(name)

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid, parent, rid = _enter(_CURRENT.get(), rec)
        token = _CURRENT.set((sid, rid))
        t0 = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            rec.add(sid, parent, rid, code, t0, t1)

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced layer; returns a function restoring the originals."""
    import repro.serve.registry as registry_mod
    import repro.serve.service as service_mod
    from repro.cache.tiles import TileCache
    from repro.core.backends.numpy_backend import NumpyBackend
    from repro.core.batch_engine import BatchRefinementEngine
    from repro.index.kdtree import KDTree
    from repro.serve.http import TileServer
    from repro.serve.registry import DatasetEntry, DatasetRegistry
    from repro.serve.service import TileService
    from repro.serve.sharding import ShardedDatasetEntry, ShardedDatasetRegistry
    from repro.visual.colormap import Colormap
    from repro.visual.kdv import KDVRenderer

    saved: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def rows(args: tuple, _result: Any) -> float:
        return float(args[3].shape[0])

    def bound_name(kind: str) -> Callable[[tuple], str]:
        # The distance-form provider evaluates row by row; its time is
        # kept apart from the vectorised providers'.
        def pick(args: tuple) -> str:
            distance = "Distance" in type(args[1]).__name__
            return f"core.bounds.{'dist_' if distance else ''}{kind}"
        return pick

    # core.bounds / core.backends
    patch(NumpyBackend, "node_bounds_batch",
          lambda f: _span(rec, "core.bounds.node", f, pick=bound_name("node"), amount=rows))
    patch(NumpyBackend, "leaf_exact_batch",
          lambda f: _span(rec, "core.bounds.leaf", f, pick=bound_name("leaf"), amount=rows))
    # core.batch_engine
    for method in ("query_eps_batch", "query_eps_bounds", "query_tau_batch", "query_tau_bounds"):
        patch(BatchRefinementEngine, method, lambda f: _span(rec, "core.batch_engine", f))
    patch(BatchRefinementEngine, "root_envelope",
          lambda f: _span(rec, "core.batch_engine.root_envelope", f))

    # core.exact, at the names the serving modules resolve.
    def pairs(args: tuple, _result: Any) -> float:
        points, queries = args[0], args[1]
        return float(len(points)) * float(len(queries))

    for module in (service_mod, registry_mod):
        patch(module, "exact_density", lambda f: _span(rec, "core.exact", f, amount=pairs))

    # index
    patch(KDTree, "__init__", lambda f: _span(rec, "index.build", f))

    # sampling.coreset
    patch(registry_mod, "coreset_for_delta",
          lambda f: _span(rec, "sampling.coreset.build", f))

    # visual
    patch(KDVRenderer, "render", lambda f: _span(rec, "visual.render", f))
    patch(Colormap, "apply", lambda f: _span(rec, "visual.encode", f))
    for attr in ("png_bytes", "two_color_map"):
        patch(service_mod, attr, lambda f: _span(rec, "visual.encode", f))

    # cache
    def looked_up(level: str) -> Callable[[tuple, Any], None]:
        return lambda _args, result: rec.cache_lookup(level, result is not None)

    for level in ("png", "density", "bounds"):
        patch(TileCache, f"get_{level}",
              lambda f, level=level: _span(rec, "cache.lookup", f, after=looked_up(level)))

    # serve.registry
    for owner in (DatasetRegistry, ShardedDatasetRegistry):
        patch(owner, "register", lambda f: _span(rec, "serve.registry.register", f))
    patch(DatasetRegistry, "append", lambda f: _span(rec, "serve.registry.append", f))
    for owner in (DatasetEntry, ShardedDatasetEntry):
        patch(owner, "coarse_density",
              lambda f: _span(rec, "serve.registry.coarse_density", f))

    # serve.sharding
    patch(TileService, "_shard_density",
          lambda f: _span(rec, "serve.sharding.shard_render", f))

    # serve.service
    def stamp_plan(_args: tuple, plan: Any) -> None:
        setattr(plan, _PLAN_CTX, _CURRENT.get())

    def stamp_l1(args: tuple, _result: Any) -> None:
        setattr(args[1], _PLAN_L1_END, time.perf_counter())

    patch(TileService, "plan_tile", lambda f: _span(rec, "serve.service.plan", f, after=stamp_plan))
    patch(TileService, "cached_png", lambda f: _span(rec, "serve.service.l1", f, after=stamp_l1))
    patch(TileService, "serve_tile",
          lambda f: _span(rec, "serve.service.serve", f, parent_from_plan=True))
    patch(TileService, "render_tile", lambda f: _span(rec, "serve.service.singleflight", f))
    patch(TileService, "_render_uncached", lambda f: _span(rec, "serve.service.render", f))
    patch(TileService, "_entry_vmax", lambda f: _span(rec, "serve.service.vmax", f))
    patch(TileService, "get_tile", lambda f: _span(rec, "serve.service.get_tile", f))
    patch(TileService, "append_points", lambda f: _span(rec, "serve.service.append", f))

    # serve.http: one root span per connection; the client's request id
    # rides in the query string and is read where the server routes.
    patch(TileServer, "_handle_connection", lambda f: _async_root(rec, "serve.http", f))

    def route(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        async def wrapper(self: Any, path: str, params: Dict[str, str]) -> Any:
            ctx = _CURRENT.get()
            raw = params.get("rid")
            if ctx is not None and raw is not None and raw.isdigit():
                rec.client_rid[ctx[0]] = int(raw)
            return await fn(self, path, params)
        return wrapper

    patch(TileServer, "_route", route)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return restore


#: Every per-layer metric a traced run prints, with its unit. Times and
#: work amounts are per operation of the workload (a frame, a tile
#: request, or an append cycle); ``tile_miss.*`` are per tile miss; the
#: exact work counters come from the workload's deterministic segment.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.bounds.node_ms", "ms"),
    ("core.bounds.node_rows", "count"),
    ("core.bounds.dist_node_ms", "ms"),
    ("core.bounds.dist_node_rows", "count"),
    ("core.bounds.leaf_ms", "ms"),
    ("core.bounds.leaf_rows", "count"),
    ("core.bounds.dist_leaf_ms", "ms"),
    ("core.bounds.dist_leaf_rows", "count"),
    ("core.batch_engine.self_ms", "ms"),
    ("core.batch_engine.root_envelope_ms", "ms"),
    ("core.batch_engine.queries", "count"),
    ("core.batch_engine.iterations", "count"),
    ("core.batch_engine.node_evaluations", "count"),
    ("core.batch_engine.leaf_evaluations", "count"),
    ("core.batch_engine.point_evaluations", "count"),
    ("core.batch_engine.shortcircuit_ratio", "ratio"),
    ("core.exact.ms", "ms"),
    ("core.exact.pairs", "count"),
    ("index.build_ms", "ms"),
    ("sampling.coreset.build_ms", "ms"),
    ("sampling.coreset.m", "count"),
    ("sampling.coreset.n", "count"),
    ("sampling.coreset.compression", "ratio"),
    ("serve.registry.append_ms", "ms"),
    ("serve.registry.coarse_density_ms", "ms"),
    ("serve.sharding.shard_render_ms", "ms"),
    ("serve.sharding.tau_exact_pixels", "count"),
    ("serve.service.plan_ms", "ms"),
    ("serve.service.vmax_ms", "ms"),
    ("serve.service.pool_wait_ms", "ms"),
    ("serve.service.singleflight_shared", "count"),
    ("serve.service.bounds_shortcircuit", "count"),
    ("serve.http.self_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.png.hit_ratio", "ratio"),
    ("cache.density.hit_ratio", "ratio"),
    ("cache.bounds.hit_ratio", "ratio"),
    ("visual.render_ms", "ms"),
    ("visual.encode_ms", "ms"),
    ("tile_miss.total_ms", "ms"),
    ("tile_miss.unattributed_ms", "ms"),
    ("tile_miss.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)

#: Per-operation self time, per-layer metric <- span name.
_SELF_MS = {
    "core.bounds.node_ms": "core.bounds.node",
    "core.bounds.dist_node_ms": "core.bounds.dist_node",
    "core.bounds.leaf_ms": "core.bounds.leaf",
    "core.bounds.dist_leaf_ms": "core.bounds.dist_leaf",
    "core.batch_engine.self_ms": "core.batch_engine",
    "core.batch_engine.root_envelope_ms": "core.batch_engine.root_envelope",
    "core.exact.ms": "core.exact",
    "index.build_ms": "index.build",
    "sampling.coreset.build_ms": "sampling.coreset.build",
    "serve.registry.append_ms": "serve.registry.append",
    "serve.registry.coarse_density_ms": "serve.registry.coarse_density",
    "serve.sharding.shard_render_ms": "serve.sharding.shard_render",
    "serve.service.plan_ms": "serve.service.plan",
    "serve.service.vmax_ms": "serve.service.vmax",
    "serve.service.pool_wait_ms": "serve.service.pool_wait",
    "serve.http.self_ms": "serve.http",
    "cache.lookup_ms": "cache.lookup",
    "visual.render_ms": "visual.render",
    "visual.encode_ms": "visual.encode",
}

#: Per-operation work amount, per-layer metric <- span name.
_AMOUNT = {
    "core.bounds.node_rows": "core.bounds.node",
    "core.bounds.dist_node_rows": "core.bounds.dist_node",
    "core.bounds.leaf_rows": "core.bounds.leaf",
    "core.bounds.dist_leaf_rows": "core.bounds.dist_leaf",
    "core.exact.pairs": "core.exact",
}

#: Exact work counters, per-layer metric <- counter name.
COUNTER_METRICS = {
    "core.batch_engine.queries": "queries",
    "core.batch_engine.iterations": "iterations",
    "core.batch_engine.node_evaluations": "node_evaluations",
    "core.batch_engine.leaf_evaluations": "leaf_evaluations",
    "core.batch_engine.point_evaluations": "point_evaluations",
    "serve.sharding.tau_exact_pixels": "tiles.shard_tau_exact_pixels",
    "serve.service.bounds_shortcircuit": "tiles.bounds_shortcircuit",
    "sampling.coreset.m": "coreset.m",
    "sampling.coreset.n": "coreset.n",
}

#: Span names the miss breakdown reports as one stage each.
MISS_STAGES = (
    "serve.http", "serve.service.pool_wait", "serve.service.plan", "cache.lookup",
    "serve.service.vmax", "serve.registry.coarse_density", "core.exact",
    "serve.sharding.shard_render", "visual.render", "core.batch_engine.root_envelope",
    "core.batch_engine", "core.bounds.node", "core.bounds.leaf", "visual.encode",
)


def miss_breakdown(
    misses: Sequence[Tuple[float, Dict[str, float]]]
) -> Dict[str, float]:
    """Mean ms per miss of each stage; stages plus remainder sum to the total.

    ``misses`` holds ``(client latency s, {span name: self s})`` per
    miss. Span names outside :data:`MISS_STAGES` are folded into
    ``other``; ``unattributed`` is the client latency no span covers
    (client, socket and accept queue).
    """
    if not misses:
        return {}
    stages: Dict[str, float] = {name: 0.0 for name in MISS_STAGES}
    stages["other"] = 0.0
    total = 0.0
    for latency, layers in misses:
        total += latency
        for name, seconds in layers.items():
            stages[name if name in stages else "other"] += seconds
    stages["unattributed"] = total - sum(stages.values())
    count = len(misses)
    out = {name: 1e3 * seconds / count for name, seconds in stages.items()}
    out["total"] = 1e3 * total / count
    return out


def trace_data(summary: Summary, rec: Recorder) -> Dict[str, Any]:
    """The JSON-ready part of a traced run that :func:`layer_metrics` reads."""
    return {
        "spans": summary.spans,
        "total_s": summary.total_s,
        "amount": dict(rec.amount),
        "cache": {level: list(v) for level, v in rec.cache.items()},
    }


def layer_metrics(
    traced: Optional[Dict[str, Any]],
    ops: int,
    misses: Sequence[Tuple[float, Dict[str, float]]],
    counters: Dict[str, int],
    window: Dict[str, int],
    shards: int,
    overhead_pct: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where the layer did not run).

    ``counters`` are the exact counters of the deterministic segment;
    ``window`` holds the service's ``tiles.*`` counter increments over
    the traced part, which give the short-circuit ratio (of ``shards``
    shard renders per tile render) and the single-flight sharing.
    """
    per_op = 1.0 / ops if ops else 0.0
    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    if traced is not None:
        for metric, span in _SELF_MS.items():
            out[metric] = 1e3 * traced["total_s"].get(span, 0.0) * per_op
        for metric, span in _AMOUNT.items():
            out[metric] = traced["amount"].get(span, 0.0) * per_op
        for level in ("png", "density", "bounds"):
            lookups, hits = traced["cache"].get(level, (0, 0))
            out[f"cache.{level}.hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.spans_per_op"] = traced["spans"] * per_op
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = float(counters.get(counter, 0))
    if counters.get("coreset.m"):
        out["sampling.coreset.compression"] = counters["coreset.n"] / counters["coreset.m"]
    if window.get("tiles.renders"):
        out["core.batch_engine.shortcircuit_ratio"] = (
            window.get("tiles.bounds_shortcircuit", 0) / (window["tiles.renders"] * shards)
        )
    out["serve.service.singleflight_shared"] = float(window.get("tiles.shared", 0))
    breakdown = miss_breakdown(misses)
    if breakdown:
        out["tile_miss.total_ms"] = breakdown["total"]
        out["tile_miss.unattributed_ms"] = breakdown["unattributed"]
        out["tile_miss.unattributed_share"] = breakdown["unattributed"] / breakdown["total"]
    out["trace.overhead_pct"] = overhead_pct
    return out
