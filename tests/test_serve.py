"""Tests for the tile service stack (repro.serve).

Covers tile addressing (seam-free pyramids), the dataset registry
(shared indexes, versioned appends, invalidation), the service itself
(cache hit byte-identity verified through the obs counters, cache-on vs
cache-off identity, the root-bounds short-circuit, single-flight dedup
under real concurrency, backpressure, deadlines) and the asyncio HTTP
layer end to end on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    DatasetNotFoundError,
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadedError,
)
from repro.serve import (
    DatasetRegistry,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    TileServer,
    TileService,
    tile_count,
    tile_grid,
    validate_tile,
)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


@pytest.fixture(scope="module")
def service(small_points):
    svc = TileService(
        config=ServiceConfig(render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None))
    )
    svc.registry.register("crime", small_points)
    yield svc
    svc.close()


class TestTileMath:
    def test_tile_count_doubles_per_zoom(self):
        assert [tile_count(z) for z in range(4)] == [1, 2, 4, 8]

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            validate_tile(-1, 0, 0)
        with pytest.raises(InvalidParameterError):
            validate_tile(1, 2, 0)
        with pytest.raises(InvalidParameterError):
            validate_tile(1, 0, -1)
        with pytest.raises(InvalidParameterError):
            validate_tile(3, 0, 0, max_zoom=2)

    def test_zoom_zero_covers_the_base_viewport(self, small_points):
        from repro.visual.grid import PixelGrid

        base = PixelGrid(64, 64, np.array([0.0, 0.0]), np.array([4.0, 2.0]))
        tile = tile_grid(base, 0, 0, 0, tile_px=32)
        np.testing.assert_array_equal(tile.low, base.low)
        np.testing.assert_array_equal(tile.high, base.high)
        assert tile.width == tile.height == 32

    def test_adjacent_tiles_share_edges_exactly(self):
        from repro.visual.grid import PixelGrid

        base = PixelGrid(
            64, 64, np.array([0.1, -3.7]), np.array([7.3, 11.9])
        )
        for z in (1, 2, 3):
            for x in range(tile_count(z) - 1):
                left = tile_grid(base, z, x, 0, tile_px=8)
                right = tile_grid(base, z, x + 1, 0, tile_px=8)
                assert left.high[0] == right.low[0]  # lint: allow-float-eq -- seam identity is the contract
        top_row = tile_grid(base, 2, 0, 3, tile_px=8)
        assert top_row.high[1] == base.high[1]  # lint: allow-float-eq -- seam identity is the contract


class TestDatasetRegistry:
    def test_register_get_roundtrip(self, small_points):
        registry = DatasetRegistry()
        entry = registry.register("demo", small_points)
        assert registry.get("demo") is entry
        assert entry.versioned_id() == "demo@v1"
        assert "demo" in registry and len(registry) == 1

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetNotFoundError):
            DatasetRegistry().get("nope")

    def test_duplicate_and_bad_ids_rejected(self, small_points):
        registry = DatasetRegistry()
        registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.register("a/b", small_points)

    def test_append_bumps_version_and_invalidates(self, small_points):
        invalidated = []
        registry = DatasetRegistry(on_invalidate=invalidated.append)
        entry = registry.register("demo", small_points)
        base_grid = entry.base_grid
        count = registry.append("demo", small_points[:50])
        assert count == small_points.shape[0] + 50
        assert entry.versioned_id() == "demo@v2"
        assert invalidated == ["demo"]
        # Tile addressing must stay stable across appends.
        assert entry.base_grid is base_grid

    def test_append_validates_shape(self, small_points):
        registry = DatasetRegistry()
        registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.append("demo", np.zeros((4, 3)))


class TestTileService:
    def test_cold_miss_then_warm_hit_byte_identical(self, service):
        before = service.metrics.counter("tile_cache.png.hits").value
        cold, cold_info = service.get_tile("crime", 1, 0, 1)
        warm, warm_info = service.get_tile("crime", 1, 0, 1)
        assert cold_info["cache"] == "miss"
        assert warm_info["cache"] == "hit"
        assert warm == cold
        assert cold.startswith(PNG_SIGNATURE)
        assert service.metrics.counter("tile_cache.png.hits").value == before + 1

    def test_cache_off_renders_identical_bytes(self, service, small_points):
        warm, _ = service.get_tile("crime", 1, 1, 0)
        # A fresh service with an empty cache must produce the same bytes.
        fresh = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None)
            )
        )
        try:
            fresh.registry.register("crime", small_points)
            cold, info = fresh.get_tile("crime", 1, 1, 0)
            assert info["cache"] == "miss"
            assert cold == warm
        finally:
            fresh.close()

    def test_cleared_cache_rerenders_identical_bytes(self, service):
        first, _ = service.get_tile("crime", 2, 1, 1)
        service.cache.clear()
        second, info = service.get_tile("crime", 2, 1, 1)
        assert info["cache"] == "miss"
        assert second == first

    def test_density_level_survives_colormap_change(self, service):
        service.cache.clear()
        service.get_tile("crime", 1, 0, 0, colormap="density")
        renders_before = service.metrics.counter("tiles.renders").value
        recoloured, info = service.get_tile("crime", 1, 0, 0, colormap="heat")
        assert info["cache"] == "miss"  # different PNG key...
        # ...but the density level fed it: no new refinement happened.
        assert service.metrics.counter("tiles.renders").value == renders_before + 1
        hits = service.metrics.counter("tile_cache.density.hits").value
        assert hits >= 1
        assert recoloured.startswith(PNG_SIGNATURE)

    def test_bounds_shortcircuit_is_bit_identical(self, service):
        # A very high tau: every root upper bound sits below it, so the
        # whole tile is decided at the root without refinement.
        tau_cold = 1e9
        before = service.metrics.counter("tiles.bounds_shortcircuit").value
        png, _ = service.get_tile("crime", 0, 0, 0, tau=tau_cold)
        assert service.metrics.counter("tiles.bounds_shortcircuit").value == before + 1
        # Bit-identity against the full engine render, bypassing every
        # cache level.
        plan = service.plan_tile("crime", 0, 0, 0, tau=tau_cold)
        full = service._render_full(plan)
        shortcut = service.cache.get_density(plan.density_key)
        np.testing.assert_array_equal(np.asarray(shortcut), np.asarray(full))

    def test_bounds_level_reused_across_parameters(self, service):
        service.cache.clear()
        service.get_tile("crime", 1, 1, 1, eps=0.2)
        misses = service.metrics.counter("tile_cache.bounds.misses").value
        hits = service.metrics.counter("tile_cache.bounds.hits").value
        # Same viewport, different epsilon: the bounds key is identical.
        service.get_tile("crime", 1, 1, 1, eps=0.3)
        assert service.metrics.counter("tile_cache.bounds.misses").value == misses
        assert service.metrics.counter("tile_cache.bounds.hits").value >= hits

    def test_single_flight_dedups_concurrent_identical_requests(self, service):
        service.cache.clear()
        renders_before = service.metrics.counter("tiles.renders").value
        plan = service.plan_tile("crime", 2, 2, 2)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results: list[bytes] = []
        lock = threading.Lock()

        def worker():
            barrier.wait(timeout=10.0)
            data = service.render_tile(plan)
            with lock:
                results.append(data)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(results) == n_threads
        assert len(set(results)) == 1
        assert service.metrics.counter("tiles.renders").value == renders_before + 1

    def test_backpressure_rejects_when_queue_full(self, small_points):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, workers=1),
                resilience=ResilienceConfig(queue_limit=2),
            )
        )
        try:
            assert svc.try_acquire_slot() and svc.try_acquire_slot()
            assert svc.try_acquire_slot() is False
            with pytest.raises(ServiceOverloadedError):
                svc.acquire_slot()
            assert svc.metrics.counter("tiles.rejected").value == 2
            svc.release_slot()
            assert svc.try_acquire_slot() is True
        finally:
            svc.release_slot()
            svc.release_slot()
            svc.close()

    def test_deadline_trips_and_nothing_is_cached(self, small_points):
        svc = TileService(
            config=ServiceConfig(render=RenderConfig(tile_px=48, eps=0.001, workers=1))
        )
        try:
            svc.registry.register("crime", small_points)
            plan = svc.plan_tile("crime", 0, 0, 0, deadline_ms=1e-6)
            with pytest.raises(DeadlineExceededError):
                svc.render_tile(plan)
            assert svc.metrics.counter("tiles.degraded").value == 1
            assert svc.cached_png(plan) is None
            assert svc.cache.get_density(plan.density_key) is None
        finally:
            svc.close()

    def test_append_invalidates_and_rekeys(self, service, small_points):
        _, before_info = service.get_tile("crime", 1, 0, 0)
        assert before_info["dataset"].startswith("crime@v")
        invalidations = service.metrics.counter("tiles.invalidations").value
        service.append_points("crime", small_points[:25])
        assert service.metrics.counter("tiles.invalidations").value == invalidations + 1
        _, after_info = service.get_tile("crime", 1, 0, 0)
        assert after_info["cache"] == "miss"
        assert after_info["dataset"] != before_info["dataset"]
        assert after_info["fingerprint"] != before_info["fingerprint"]

    def test_plan_rejects_unknown_colormap_and_dataset(self, service):
        from repro.errors import UnknownNameError

        with pytest.raises(UnknownNameError):
            service.plan_tile("crime", 0, 0, 0, colormap="nope")
        with pytest.raises(DatasetNotFoundError):
            service.plan_tile("missing", 0, 0, 0)

    def test_stats_shape(self, service):
        stats = service.stats()
        assert set(stats) == {
            "uptime_s", "datasets", "cache", "metrics", "load", "config",
            "resilience",
        }
        assert "crime" in stats["datasets"]
        assert stats["load"]["queue_limit"] == 32
        resilience = stats["resilience"]
        assert resilience["draining"] is False
        assert resilience["degraded_serving"] is True
        assert isinstance(resilience["breakers"], dict)
        # Process-lifetime counters: other tests in this process may have
        # broken pools on purpose, so only assert shape and sanity.
        assert resilience["pool_breaks"] >= 0
        assert resilience["pool_rebuilds"] >= 0
        json.dumps(stats)  # must be JSON-serialisable for /stats


class TestHttpServer:
    def test_end_to_end(self, small_points):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None)
            )
        )
        svc.registry.register("crime", small_points)

        def fetch(url, path):
            try:
                response = urllib.request.urlopen(url + path, timeout=30)
                return response.status, dict(response.headers), response.read()
            except urllib.error.HTTPError as error:
                return error.code, dict(error.headers), error.read()

        async def scenario():
            server = await TileServer(svc, port=0).start()
            url = server.url
            loop = asyncio.get_running_loop()

            async def get(path):
                return await loop.run_in_executor(None, fetch, url, path)

            status, headers, body = await get("/tile/crime/1/0/1.png")
            assert status == 200
            assert headers["X-Cache"] == "miss"
            assert body.startswith(PNG_SIGNATURE)

            status2, headers2, body2 = await get("/tile/crime/1/0/1.png")
            assert status2 == 200
            assert headers2["X-Cache"] == "hit"
            assert body2 == body

            status3, _, stats_body = await get("/stats")
            assert status3 == 200
            stats = json.loads(stats_body)
            assert "crime" in stats["datasets"]

            for path, expected in [
                ("/tile/ghost/0/0/0.png", 404),
                ("/tile/crime/1/7/0.png", 400),
                ("/tile/crime/0/0/0.png?eps=abc", 400),
                ("/nothing", 404),
            ]:
                status_err, _, _ = await get(path)
                assert status_err == expected, path

            status4, _, health = await get("/healthz")
            assert status4 == 200 and json.loads(health) == {"status": "ok"}
            await server.stop()

        try:
            asyncio.run(scenario())
        finally:
            svc.close()
