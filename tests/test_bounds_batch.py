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
"""

import numpy as np
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
    """Brute-force weighted Gaussian sum of the node's points at ``query``."""
    stack, total = [node], 0.0
    while stack:
        current = stack.pop()
        if not current.is_leaf:
            stack += [current.left, current.right]
            continue
        sq_dists = ((current.points - query) ** 2).sum(axis=1)
        values = np.exp(-provider.gamma * sq_dists)
        weights = 1.0 if current.weights is None else current.weights
        total += float(np.sum(values * weights))
    return provider.weight * total


def each_node(case, provider_name):
    """Yield ``(provider, node, queries, queries_sq)`` over every node of a case."""
    tree, gamma, spread = make_tree(case)
    provider = make_bound_provider(provider_name, "gaussian", gamma, 1.0 / case["n"])
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
