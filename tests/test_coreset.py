"""Weighted grid coresets: error bounds, pyramid, ZOrder coreset mode.

Covers the kernel Lipschitz constants the bound rests on, the
construction invariants (weight preservation, exact realised
``delta_abs``, identity fallback), the refinement loop, the
``ZOrderMethod`` coreset mode's deterministic guarantee, the eps
cache-key canonicalisation regression, and the end-to-end folded
guarantee through the tile service (zoom < k coreset renders within
``eps`` of the exact tier everywhere, with τ masks agreeing wherever
the density clears the threshold by more than ``eps``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import exact_density
from repro.core.kernels import KERNEL_REGISTRY, get_kernel
from repro.errors import InvalidParameterError
from repro.methods.zorder import ZOrderMethod
from repro.sampling.coreset import (
    Coreset,
    build_pyramid,
    coreset_for_delta,
    grid_coreset,
    pyramid_cell_size,
)

KERNELS = sorted(KERNEL_REGISTRY)


def make_points(n=800, seed=11):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n // 2, 2)) * 0.6
    b = rng.normal(size=(n - n // 2, 2)) * 0.4 + np.array([2.5, 1.0])
    return np.vstack([a, b])


class TestLipschitz:
    @pytest.mark.parametrize("name", KERNELS)
    def test_constant_is_positive_and_scales_with_gamma(self, name):
        kernel = get_kernel(name)
        assert kernel.lipschitz(1.0) > 0.0
        assert kernel.lipschitz(4.0) >= kernel.lipschitz(1.0)

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.7])
    def test_bounds_empirical_slope_in_distance(self, name, gamma):
        kernel = get_kernel(name)
        lipschitz = kernel.lipschitz(gamma)
        dists = np.linspace(0.0, 5.0 / gamma, 20001)
        values = kernel.evaluate(dists**2, gamma)
        slopes = np.abs(np.diff(values)) / np.diff(dists)
        # The supremum of finite-difference slopes never exceeds L
        # (up to discretisation noise).
        assert slopes.max() <= lipschitz * (1.0 + 1e-3)


class TestGridCoreset:
    def test_preserves_total_weight_and_count(self):
        points = make_points()
        coreset = grid_coreset(points, "gaussian", 1.0, 1.0 / len(points), cell_size=0.4)
        assert coreset.m < len(points)
        assert coreset.n_source == len(points)
        np.testing.assert_allclose(coreset.weights.sum(), float(len(points)))
        assert np.all(coreset.weights > 0.0)

    @pytest.mark.parametrize("name", KERNELS)
    def test_density_error_within_delta_abs_everywhere(self, name):
        points = make_points()
        weight = 1.0 / len(points)
        gamma = 0.9
        coreset = grid_coreset(points, name, gamma, weight, cell_size=0.5)
        rng = np.random.default_rng(5)
        queries = rng.uniform(-3.0, 5.0, size=(400, 2))
        exact = exact_density(points, queries, name, gamma, weight)
        approx = exact_density(
            coreset.points, queries, name, gamma, weight,
            point_weights=coreset.weights,
        )
        assert np.abs(exact - approx).max() <= coreset.delta_abs + 1e-15

    def test_respects_input_point_weights(self):
        points = make_points(n=300)
        rng = np.random.default_rng(9)
        input_weights = rng.uniform(0.5, 3.0, size=len(points))
        weight = 1.0 / input_weights.sum()
        coreset = grid_coreset(
            points, "gaussian", 1.0, weight,
            cell_size=0.3, point_weights=input_weights,
        )
        np.testing.assert_allclose(coreset.weights.sum(), input_weights.sum())
        queries = rng.uniform(-2.0, 4.0, size=(100, 2))
        exact = exact_density(
            points, queries, "gaussian", 1.0, weight, point_weights=input_weights
        )
        approx = exact_density(
            coreset.points, queries, "gaussian", 1.0, weight,
            point_weights=coreset.weights,
        )
        assert np.abs(exact - approx).max() <= coreset.delta_abs + 1e-15

    def test_tiny_cells_give_identity_coreset_with_zero_delta(self):
        points = make_points(n=100)
        coreset = grid_coreset(points, "gaussian", 1.0, 0.01, cell_size=1e-12)
        assert coreset.m == len(points)
        assert coreset.delta_abs == 0.0
        np.testing.assert_array_equal(coreset.points, points)

    def test_rejects_bad_parameters(self):
        points = make_points(n=50)
        with pytest.raises(InvalidParameterError):
            grid_coreset(points, "gaussian", 1.0, 0.02, cell_size=0.0)
        with pytest.raises(InvalidParameterError):
            grid_coreset(
                points, "gaussian", 1.0, 0.02,
                cell_size=0.5, point_weights=np.ones(3),
            )
        with pytest.raises(InvalidParameterError):
            grid_coreset(
                points, "gaussian", 1.0, 0.02,
                cell_size=0.5, point_weights=-np.ones(len(points)),
            )


class TestCoresetForDelta:
    def test_achieves_requested_delta_cap(self):
        points = make_points()
        weight = 1.0 / len(points)
        for cap in (0.05, 0.01, 0.002):
            coreset = coreset_for_delta(
                points, "gaussian", 1.0, weight, cell_size=2.0, delta_cap=cap
            )
            assert coreset.delta_z <= cap

    def test_coarser_cap_gives_no_larger_coreset(self):
        points = make_points()
        weight = 1.0 / len(points)
        loose = coreset_for_delta(
            points, "gaussian", 1.0, weight, cell_size=2.0, delta_cap=0.05
        )
        tight = coreset_for_delta(
            points, "gaussian", 1.0, weight, cell_size=2.0, delta_cap=0.001
        )
        assert loose.m <= tight.m


class TestPyramid:
    def test_cell_size_halves_per_zoom(self):
        sizes = [pyramid_cell_size(10.0, z, 256) for z in range(4)]
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt == pytest.approx(prev / 2.0)

    def test_build_pyramid_covers_requested_zooms_with_uniform_cap(self):
        points = make_points()
        weight = 1.0 / len(points)
        pyramid = build_pyramid(
            points, "gaussian", 1.0, weight,
            zooms=range(3), tile_px=64, delta_cap=0.01,
        )
        assert sorted(pyramid) == [0, 1, 2]
        for coreset in pyramid.values():
            assert isinstance(coreset, Coreset)
            assert coreset.delta_z <= 0.01


class TestZOrderCoresetMode:
    def test_coreset_mode_is_deterministically_bounded(self):
        points = make_points()
        method = ZOrderMethod(mode="coreset")
        method.fit(points, "gaussian", 1.0, 1.0 / len(points))
        rng = np.random.default_rng(3)
        queries = rng.uniform(-3.0, 5.0, size=(200, 2))
        eps = 0.02
        values = method.batch_eps(queries, eps, atol=0.0)
        exact = exact_density(points, queries, "gaussian", 1.0, 1.0 / len(points))
        coreset = method.coreset_for(eps)
        assert coreset.delta_z <= eps
        assert np.abs(values - exact).max() <= coreset.delta_abs + 1e-15
        # ... and delta_abs itself honours the requested normalised cap.
        assert coreset.delta_abs <= eps * coreset.f_cap

    def test_mode_validated_and_default_unchanged(self):
        with pytest.raises(InvalidParameterError):
            ZOrderMethod(mode="bogus")
        assert ZOrderMethod().mode == "sample"

    def test_coreset_cache_reuses_canonical_eps(self):
        points = make_points(n=200)
        method = ZOrderMethod(mode="coreset")
        method.fit(points, "gaussian", 1.0, 1.0 / len(points))
        first = method.coreset_for(0.05)
        second = method.coreset_for(0.05 + 1e-16)
        assert second is first


class TestZOrderEpsCanonicalisation:
    """Regression: near-identical eps values must share one cached sample."""

    def test_perturbed_eps_sweep_builds_one_sample(self):
        points = make_points(n=400)
        method = ZOrderMethod()
        method.fit(points, "gaussian", 1.0, 1.0 / len(points))
        base = 0.1 + 0.2 - 0.25  # 0.05 with float noise
        perturbed = [
            0.05,
            base,
            np.nextafter(0.05, 1.0),
            np.nextafter(0.05, 0.0),
            0.05 * (1.0 + 2.0**-50),
        ]
        samples = [method.sample_for(eps) for eps in perturbed]
        assert len(method._samples.keys()) == 1
        first_sample, first_mult = samples[0]
        for sample, mult in samples[1:]:
            assert sample is first_sample
            assert mult == first_mult

    def test_genuinely_different_eps_values_stay_apart(self):
        points = make_points(n=400)
        method = ZOrderMethod()
        method.fit(points, "gaussian", 1.0, 1.0 / len(points))
        method.sample_for(0.05)
        method.sample_for(0.06)
        assert len(method._samples.keys()) == 2


class TestFoldedGuaranteeEndToEnd:
    """Acceptance property: the folded coreset guarantee holds per pixel."""

    @pytest.fixture()
    def serve_pair(self, small_points):
        from repro.serve import RenderConfig, ServiceConfig, TileService

        eps = 0.05
        coreset_svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=24, eps=eps, workers=1, deadline_ms=None)
            )
        )
        coreset_svc.registry.register(
            "d", small_points, coreset_zoom=2, coreset_delta_cap=0.01, leaf_size=32
        )
        exact_svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=24, eps=eps, workers=1, deadline_ms=None)
            )
        )
        exact_svc.registry.register("d", small_points, leaf_size=32)
        yield coreset_svc, exact_svc, eps
        coreset_svc.close()
        exact_svc.close()

    @pytest.mark.parametrize("tile", [(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    def test_eps_renders_agree_within_eps_everywhere(self, serve_pair, small_points, tile):
        coreset_svc, exact_svc, eps = serve_pair
        z, x, y = tile
        coreset_plan = coreset_svc.plan_tile("d", z, x, y)
        exact_plan = exact_svc.plan_tile("d", z, x, y)
        assert coreset_plan.resolved.tier == f"coreset-z{z}"
        assert exact_plan.resolved.tier is None
        coreset_values = np.asarray(coreset_svc._compute_values(coreset_plan))
        exact_values = np.asarray(exact_svc._compute_values(exact_plan))

        entry = coreset_svc.registry.get("d")
        renderer = entry.renderer
        grid = coreset_plan.resolved.grid
        truth = grid.to_image(
            exact_density(
                small_points, grid.centers(), renderer.kernel,
                renderer.gamma, renderer.weight,
            )
        )
        f_cap = renderer.weight * len(small_points)
        atol = float(coreset_plan.resolved.atol)
        # Provable folded bound: eps_effective * F_c + delta_abs + atol
        # <= eps * F_cap + atol for every pixel.
        assert np.abs(coreset_values - truth).max() <= eps * f_cap + atol
        # ... and the two tiers' rendered images stay within eps of
        # each other per pixel (the acceptance phrasing).
        assert np.abs(coreset_values - exact_values).max() <= eps

    def test_tau_masks_agree_where_density_clears_threshold(self, serve_pair, small_points):
        coreset_svc, exact_svc, eps = serve_pair
        entry = exact_svc.registry.get("d")
        renderer = entry.renderer
        for z, x, y in [(0, 0, 0), (1, 0, 0)]:
            coreset_plan = coreset_svc.plan_tile("d", z, x, y, tau=0.05)
            exact_plan = exact_svc.plan_tile("d", z, x, y, tau=0.05)
            coreset_mask = np.asarray(coreset_svc._compute_values(coreset_plan))
            exact_mask = np.asarray(exact_svc._compute_values(exact_plan))
            grid = exact_plan.resolved.grid
            truth = grid.to_image(
                exact_density(
                    small_points, grid.centers(), renderer.kernel,
                    renderer.gamma, renderer.weight,
                )
            )
            decided = np.abs(truth - 0.05) > eps
            np.testing.assert_array_equal(
                coreset_mask[decided], exact_mask[decided]
            )

    def test_zoom_at_threshold_falls_through_to_exact_values(self, serve_pair):
        # At zoom >= coreset_zoom both services render the exact tier:
        # same points, same request, bit-identical density values. (PNG
        # bytes may differ only through the colour-normalisation vmax,
        # which the coreset service computes from its finest tier.)
        coreset_svc, exact_svc, _ = serve_pair
        coreset_plan = coreset_svc.plan_tile("d", 2, 1, 2)
        exact_plan = exact_svc.plan_tile("d", 2, 1, 2)
        assert coreset_plan.resolved.tier is None
        assert exact_plan.resolved.tier is None
        assert coreset_plan.renderer is coreset_svc.registry.get("d").renderer
        np.testing.assert_array_equal(
            np.asarray(coreset_svc._compute_values(coreset_plan)),
            np.asarray(exact_svc._compute_values(exact_plan)),
        )
