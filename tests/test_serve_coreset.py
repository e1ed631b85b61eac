"""Serve-layer coreset tier: routing, rejection, cache keys, invalidation.

The versioned-invalidation coverage here is the satellite contract: an
``append()`` must drop coreset-rendered PNG / density / root-bounds
entries at *every* zoom, not just exact-tier ones — the coreset
pyramid is rebuilt against the merged points, so any surviving entry
would serve a stale tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.serve import RenderConfig, ServiceConfig, TileService
from repro.serve.registry import CoresetTier, DatasetRegistry
from repro.serve.tiles import zoom_cell_size
from repro.visual.grid import PixelGrid

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


@pytest.fixture()
def coreset_service(small_points):
    svc = TileService(
        config=ServiceConfig(render=RenderConfig(tile_px=24, eps=0.05, workers=1, deadline_ms=None))
    )
    svc.registry.register(
        "crime", small_points, coreset_zoom=2, coreset_delta_cap=0.01, leaf_size=32
    )
    yield svc
    svc.close()


class TestZoomCellSize:
    def test_halves_per_zoom_over_the_larger_span(self):
        base = PixelGrid(32, 32, np.array([0.0, 0.0]), np.array([8.0, 2.0]))
        sizes = [zoom_cell_size(base, z, 256) for z in range(4)]
        assert sizes[0] == pytest.approx(8.0 / 256.0)
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt == pytest.approx(prev / 2.0)

    def test_validates_inputs(self):
        base = PixelGrid(8, 8, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            zoom_cell_size(base, -1, 256)
        with pytest.raises(InvalidParameterError):
            zoom_cell_size(base, 0, 0)


class TestRegistryTiers:
    def test_register_builds_one_tier_per_low_zoom(self, coreset_service):
        entry = coreset_service.registry.get("crime")
        assert entry.coreset_zoom == 2
        for zoom in (0, 1):
            tier = entry.coreset_tier(zoom)
            assert isinstance(tier, CoresetTier)
            assert tier.delta_z <= entry.coreset_delta_cap
            assert tier.renderer.point_weights is not None
            np.testing.assert_allclose(
                tier.coreset.weights.sum(), float(len(entry.points))
            )
        assert entry.coreset_tier(2) is None
        assert entry.coreset_tier(5) is None

    def test_disabled_by_default(self, small_points):
        registry = DatasetRegistry()
        entry = registry.register("plain", small_points)
        assert entry.coreset_zoom is None
        assert entry.coreset_tier(0) is None
        entry.close()

    def test_register_validates_coreset_parameters(self, small_points):
        registry = DatasetRegistry()
        with pytest.raises(InvalidParameterError):
            registry.register("bad", small_points, coreset_zoom=0)
        with pytest.raises(InvalidParameterError):
            registry.register("bad", small_points, coreset_zoom=2, coreset_delta_cap=0.0)

    def test_converged_tiers_share_one_coreset(self, small_points):
        # A cap this tight refines every zoom's halving sequence to the
        # same terminal cell (or the identity fallback), and successive
        # sequences coincide — the registry must share the converged
        # coreset and its fitted renderer instead of storing copies.
        registry = DatasetRegistry()
        entry = registry.register(
            "dedup", small_points, coreset_zoom=3, coreset_delta_cap=1e-7
        )
        t0, t1, t2 = (entry.coreset_tier(z) for z in range(3))
        assert (t0.zoom, t1.zoom, t2.zoom) == (0, 1, 2)
        assert t1.coreset is t0.coreset and t1.renderer is t0.renderer
        assert t2.coreset is t0.coreset and t2.renderer is t0.renderer
        entry.close()

    def test_stats_expose_tier_summaries(self, coreset_service):
        snapshot = coreset_service.registry.get("crime").as_dict()
        assert snapshot["coreset"]["zoom_threshold"] == 2
        tiers = snapshot["coreset"]["tiers"]
        assert [tier["zoom"] for tier in tiers] == [0, 1]
        for tier in tiers:
            assert 0.0 <= tier["delta_z"] <= 0.01
            assert tier["m"] <= tier["n_source"]


class TestTierRouting:
    def test_low_zoom_routes_to_coreset_high_zoom_to_exact(self, coreset_service):
        entry = coreset_service.registry.get("crime")
        low = coreset_service.plan_tile("crime", 1, 0, 1)
        high = coreset_service.plan_tile("crime", 2, 1, 1)
        assert low.resolved.tier == "coreset-z1"
        assert low.renderer is entry.coreset_tier(1).renderer
        assert low.tier_delta_z == pytest.approx(entry.coreset_tier(1).delta_z)
        assert high.resolved.tier is None
        assert high.renderer is entry.renderer
        assert high.tier_delta_z is None

    def test_eps_budget_is_folded(self, coreset_service):
        entry = coreset_service.registry.get("crime")
        plan = coreset_service.plan_tile("crime", 0, 0, 0, eps=0.05)
        assert plan.resolved.eps == pytest.approx(
            0.05 - entry.coreset_tier(0).delta_z
        )

    def test_eps_below_delta_is_rejected(self, coreset_service):
        entry = coreset_service.registry.get("crime")
        delta = entry.coreset_tier(0).delta_z
        assert delta > 0.0
        with pytest.raises(InvalidParameterError, match="delta_z"):
            coreset_service.plan_tile("crime", 0, 0, 0, eps=delta * 0.5)
        # The same eps is fine where the exact tier serves.
        plan = coreset_service.plan_tile("crime", 2, 0, 0, eps=delta * 0.5)
        assert plan.resolved.tier is None

    def test_tau_routes_through_coreset_unchanged(self, coreset_service):
        plan = coreset_service.plan_tile("crime", 0, 0, 0, tau=0.05)
        assert plan.resolved.tier == "coreset-z0"
        assert plan.resolved.tau == pytest.approx(0.05)

    def test_get_tile_reports_tier_and_serves_png(self, coreset_service):
        png, info = coreset_service.get_tile("crime", 0, 0, 0)
        assert png.startswith(PNG_SIGNATURE)
        assert info["tier"] == "coreset-z0"
        png2, info2 = coreset_service.get_tile("crime", 0, 0, 0)
        assert info2["cache"] == "hit" and png2 == png


class TestTierFingerprints:
    def test_tier_field_splits_cache_keys(self, coreset_service, small_points):
        plan = coreset_service.plan_tile("crime", 0, 0, 0)
        untiered = plan.resolved.replace(tier=None)
        assert plan.resolved.tier is not None
        assert plan.resolved.fingerprint() != untiered.fingerprint()
        payload = plan.resolved.fingerprint_payload()
        assert payload["tier"] == "coreset-z0"
        assert payload["format"].endswith("v2")

    def test_distinct_tiers_never_alias(self, coreset_service):
        first = coreset_service.plan_tile("crime", 0, 0, 0)
        # Same viewport rendered through z1's quadrant tiles has
        # different grids anyway; force the comparison on equal grids by
        # relabelling the tier alone.
        relabelled = first.resolved.replace(tier="coreset-z1")
        assert first.resolved.fingerprint() != relabelled.fingerprint()


class TestAppendInvalidation:
    """Satellite: append() invalidates coreset tiles at every zoom/level."""

    def test_append_drops_every_zoom_and_level(self, coreset_service, small_points):
        svc = coreset_service
        tiles = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 1)]
        plans = {}
        for z, x, y in tiles:
            plan = svc.plan_tile("crime", z, x, y)
            svc.get_tile("crime", z, x, y)
            plans[(z, x, y)] = plan
        # Precondition: every level is populated for every tile (the
        # bounds level only exists for indexed renders, which these are).
        for plan in plans.values():
            assert svc.cache.get_png(plan.png_key) is not None
            assert svc.cache.get_density(plan.density_key) is not None
            assert svc.cache.get_bounds(plan.bounds_key) is not None

        rng = np.random.default_rng(21)
        svc.append_points("crime", small_points[:40] + rng.normal(scale=0.05, size=(40, 2)))

        for plan in plans.values():
            assert svc.cache.get_png(plan.png_key) is None
            assert svc.cache.get_density(plan.density_key) is None
            assert svc.cache.get_bounds(plan.bounds_key) is None

    def test_append_rebuilds_tiers_and_rekeys(self, coreset_service, small_points):
        svc = coreset_service
        entry = svc.registry.get("crime")
        before = svc.plan_tile("crime", 0, 0, 0)
        old_tier = entry.coreset_tier(0)
        svc.append_points("crime", small_points[:25])
        after = svc.plan_tile("crime", 0, 0, 0)
        assert entry.coreset_tier(0) is not old_tier
        assert after.versioned_id != before.versioned_id
        assert after.png_key != before.png_key
        assert after.density_key != before.density_key
        assert after.bounds_key != before.bounds_key
        png, info = svc.get_tile("crime", 0, 0, 0)
        assert info["cache"] == "miss" and info["tier"] == "coreset-z0"
