"""Property tests (hypothesis) for the batched node-bound kernel.

The batch path evaluates a node for a whole query batch in one pass over
the query columns: ``sq_dist_interval_batch`` on the node region,
``NodeAggregates.dist_sums_batch`` on the centred moments, and the
providers' ``node_bounds_batch`` on top. On random kd-tree and ball-tree
nodes, weighted or not, in one to three dimensions, and on the
cancellation-prone case of coordinates near 1e2 with a 1e-3 spread, it
must agree with the scalar per-query path, enclose the brute-force node
sum, and agree with the un-jitted numba kernel. Queries sit inside each
node, on the edge of its region and outside it.

The distance-kernel provider (triangular, cosine, exponential,
Epanechnikov, quartic) is held to the same properties, with bandwidths
that put rows inside the support, across its edge and past it, and
must raise no RuntimeWarning on any row, masked or not.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.backends.numba_backend import NumbaBackend
from repro.core.bounds import make_bound_provider
from repro.index.balltree import BallTree
from repro.index.kdtree import KDTree
from repro.index.rectangle import Rectangle

case_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "dims": st.sampled_from([1, 2, 3]),
        "n": st.integers(8, 60),
        "index": st.sampled_from(["kd", "ball"]),
        "weighted": st.booleans(),
        "offset": st.sampled_from([0.0, 1e2]),
    }
)


def make_tree(case):
    """A random tree, its bandwidth and the spread of its points."""
    rng = np.random.default_rng(case["seed"])
    spread = 1e-3 if case["offset"] else 1.0
    points = case["offset"] + rng.normal(size=(case["n"], case["dims"])) * spread
    weights = rng.uniform(0.1, 3.0, size=case["n"]) if case["weighted"] else None
    index = KDTree if case["index"] == "kd" else BallTree
    return index(points, leaf_size=6, weights=weights), 0.5 / spread**2, spread


def node_queries(node, spread, rng):
    """Queries inside the node, on the edge of its region and outside it."""
    center = np.asarray(node.agg.center, dtype=np.float64)
    region = node.rect
    rows = [center]
    if isinstance(region, Rectangle):
        rows += [region.low, region.high]
        for axis in range(center.shape[0]):
            face = center.copy()
            face[axis] = region.high[axis]
            rows.append(face)
    else:
        rows.append(region.center + region.radius * np.eye(center.shape[0])[0])
    for _ in range(3):
        rows.append(center + rng.normal(size=center.shape[0]) * 4.0 * spread)
    return np.array(rows, dtype=np.float64)


def node_sum(provider, node, query):
    """Brute-force weighted kernel sum of the node's points at ``query``."""
    stack, total = [node], 0.0
    while stack:
        current = stack.pop()
        if not current.is_leaf:
            stack += [current.left, current.right]
            continue
        sq_dists = ((current.points - query) ** 2).sum(axis=1)
        values = provider.kernel.evaluate(sq_dists, provider.gamma)
        weights = 1.0 if current.weights is None else current.weights
        total += float(np.sum(values * weights))
    return provider.weight * total


def each_node(case, provider_name, kernel="gaussian", reach=1.0):
    """Yield ``(provider, node, queries, queries_sq)`` over every node of a case.

    A distance kernel gets ``gamma = reach / spread``: ``x = gamma * dist``
    is then about ``reach`` at one spread from a point.
    """
    tree, gamma, spread = make_tree(case)
    if kernel != "gaussian":
        gamma = reach / spread
    provider = make_bound_provider(provider_name, kernel, gamma, 1.0 / case["n"])
    rng = np.random.default_rng(case["seed"] + 1)
    for node in tree.nodes():
        queries = node_queries(node, spread, rng)
        yield provider, node, queries, np.einsum("ij,ij->i", queries, queries)


def scalar_bounds(provider, node, queries, queries_sq):
    """The scalar ``node_bounds`` row by row, as an ``(m, 2)`` array."""
    rows = [provider.node_bounds(node, q, float(q_sq)) for q, q_sq in zip(queries, queries_sq)]
    return np.array(rows, dtype=np.float64)


property_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@property_settings
@given(case=case_strategy, provider_name=st.sampled_from(["quad", "linear"]))
def test_batch_bounds_match_scalar_bounds(case, provider_name):
    for provider, node, queries, queries_sq in each_node(case, provider_name):
        lower, upper = provider.node_bounds_batch(node, queries, queries_sq)
        scalar = scalar_bounds(provider, node, queries, queries_sq)
        np.testing.assert_allclose(lower, scalar[:, 0], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(upper, scalar[:, 1], rtol=1e-12, atol=1e-300)


@property_settings
@given(case=case_strategy, provider_name=st.sampled_from(["quad", "linear"]))
def test_batch_bounds_enclose_brute_force(case, provider_name):
    for provider, node, queries, queries_sq in each_node(case, provider_name):
        lower, upper = provider.node_bounds_batch(node, queries, queries_sq)
        exact = np.array([node_sum(provider, node, q) for q in queries])
        slack = 1e-12 * exact + 1e-300
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)


@property_settings
@given(case=case_strategy)
def test_batch_distance_interval_matches_scalar(case):
    for __, node, queries, __ in each_node(case, "quad"):
        min_sq, max_sq = node.rect.sq_dist_interval_batch(queries)
        expected_min = [node.rect.min_sq_dist(q) for q in queries]
        expected_max = [node.rect.max_sq_dist(q) for q in queries]
        np.testing.assert_allclose(min_sq, expected_min, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(max_sq, expected_max, rtol=1e-15, atol=0.0)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=case_strategy)
def test_unjitted_numba_kernel_matches_batch_bounds(case):
    backend = NumbaBackend(force=True)
    for provider, node, queries, queries_sq in each_node(case, "quad"):
        expected = provider.node_bounds_batch(node, queries, queries_sq)
        got = backend.node_bounds_batch(provider, node, queries, queries_sq)
        np.testing.assert_allclose(got[0], expected[0], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got[1], expected[1], rtol=1e-12, atol=1e-300)


def test_tangent_line_fallback_rows_match_scalar():
    """Mass piled at the far corner puts t near xmax: the line fallback rows."""
    rng = np.random.default_rng(7)
    for dims in (1, 2, 3):
        far = 1.0 + rng.uniform(0.0, 1e-4, size=(30, dims))
        points = np.vstack([np.zeros((1, dims)), far])
        weights = np.concatenate([[1e-3], np.ones(30)])
        tree = KDTree(points, leaf_size=64, weights=weights)
        provider = make_bound_provider("quad", "gaussian", 2.0, 1.0 / 31)
        queries = np.array([[-0.5] * dims, [-0.1] * dims, [0.0] * dims], dtype=np.float64)
        queries_sq = np.einsum("ij,ij->i", queries, queries)
        lower, upper = provider.node_bounds_batch(tree.root, queries, queries_sq)
        scalar = scalar_bounds(provider, tree.root, queries, queries_sq)
        np.testing.assert_allclose(lower, scalar[:, 0], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(upper, scalar[:, 1], rtol=1e-12, atol=1e-300)
        exact = np.array([node_sum(provider, tree.root, q) for q in queries])
        assert np.all(lower <= exact) and np.all(exact <= upper)


DISTANCE_KERNELS = ["triangular", "cosine", "exponential", "epanechnikov", "quartic"]
#: Kernels whose bounds use only + - * / and sqrt, so batch equals scalar.
EXACT_KERNELS = {"triangular", "epanechnikov"}


def assert_distance_batch_matches_scalar(provider, node, queries, queries_sq):
    """Batch vs scalar bounds, brute-force enclosure and warning cleanliness."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lower, upper = provider.node_bounds_batch(node, queries, queries_sq)
    scalar = scalar_bounds(provider, node, queries, queries_sq)
    if provider.kernel.name in EXACT_KERNELS:
        np.testing.assert_array_equal(lower, scalar[:, 0])
        np.testing.assert_array_equal(upper, scalar[:, 1])
    else:
        np.testing.assert_allclose(lower, scalar[:, 0], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(upper, scalar[:, 1], rtol=1e-12, atol=1e-300)
    exact = np.array([node_sum(provider, node, q) for q in queries])
    slack = 1e-12 * exact + 1e-300
    assert np.all(lower <= exact + slack)
    assert np.all(exact <= upper + slack)


@property_settings
@given(case=case_strategy, kernel=st.sampled_from(DISTANCE_KERNELS))
def test_distance_batch_bounds_match_scalar_and_enclose(case, kernel):
    # From all rows inside the support (reach 0.05) to most rows past it (20).
    for reach in (0.05, 0.3, 1.0, 3.0, 20.0):
        for provider, node, queries, queries_sq in each_node(case, "quad", kernel, reach):
            assert_distance_batch_matches_scalar(provider, node, queries, queries_sq)


@pytest.mark.parametrize("kernel", DISTANCE_KERNELS)
def test_distance_batch_degenerate_rows(kernel):
    """Zero-width intervals, and all mass at the query without a zero width.

    A node of duplicate points has a zero-width interval at every query.
    A node of a heavy point at the query and a light one ``5e-11`` away
    has a non-degenerate interval but a mean-square ``x`` below the
    exponential kernel's ``1e-12`` tangent cut-off.
    """
    for dims in (1, 2, 3):
        point = np.linspace(0.5, 1.5, dims)
        axis = np.eye(dims)[0]
        duplicates = KDTree(np.tile(point, (12, 1)), leaf_size=4, weights=np.linspace(0.5, 2.0, 12))
        offsets = np.array([0.0, 0.1, 0.9, 1.0, 1.2, 1.6, 3.0, 900.0])
        queries = point + offsets[:, None] * axis
        queries_sq = np.einsum("ij,ij->i", queries, queries)
        for gamma in (0.5, 1.0, 2.0):
            provider = make_bound_provider("quad", kernel, gamma, 1.0 / 12)
            for node in duplicates.nodes():
                assert_distance_batch_matches_scalar(provider, node, queries, queries_sq)
        pair = KDTree(np.vstack([point, point + 5e-11 * axis]), weights=np.array([1.0, 1e-4]))
        provider = make_bound_provider("quad", kernel, 1.0, 1.0)
        assert_distance_batch_matches_scalar(provider, pair.root, point[None, :], queries_sq[:1])
