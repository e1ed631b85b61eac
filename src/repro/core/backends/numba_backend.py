"""Numba-compiled backend for the Gaussian QUAD bounds and leaf sums.

The hot loops are written as plain-Python, njit-compatible functions
(``*_impl``) that replicate the vectorised formulas of
:class:`~repro.core.bounds.quadratic.QuadraticBoundProvider` row by row
— same Theorem-1 coefficients (sign-corrected), same ``exp`` clamp at
:data:`~repro.core.bounds.base.EXP_NEG_XMAX`, same degenerate-width and
tangent-line fallbacks, same baseline intersection. When numba is
installed (the ``[perf]`` extra) they are compiled with
``nogil=True`` so thread workers scale; without numba the backend
reports unavailable and :func:`repro.core.backends.resolve_backend`
falls back to numpy — but the ``*_impl`` functions remain importable
pure Python, which is how the parity tests exercise these formulas even
on machines without numba.

Scope: the compiled paths cover exactly the Gaussian/quad combination
on kd-tree (rectangle) nodes that the paper benchmarks. Any other
provider, kernel or node region (a ball-tree ``Ball``) delegates to the
provider's own numpy implementation, so mixed configurations stay
correct rather than fast.

Numerics: results may differ from numpy in the last few ulps (scalar
accumulation vs numpy pairwise summation / FMA contraction). That is
within the engine's tolerance by construction — bounds stay sound
because the formulas are identical, ε answers stay inside the
``(1 ± eps)`` envelope, and τ masks stay bit-identical because
boundary-tight pixels are canonicalised through the scalar provider
path (see :meth:`repro.core.batch_engine.BatchRefinementEngine._tau_refined`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.backends.base import ComputeBackend
from repro.core.bounds.base import EXP_NEG_XMAX
from repro.core.bounds.quadratic import (
    _DEGENERATE_WIDTH,
    _MIN_GAP_FRACTION,
    QuadraticBoundProvider,
)
from repro.index.rectangle import Rectangle

if TYPE_CHECKING:
    from repro._types import FloatArray
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTreeNode

__all__ = ["NumbaBackend", "numba_available"]

try:  # pragma: no cover - exercised only where the [perf] extra is installed
    import numba as _numba
except ImportError:  # pragma: no cover - default path on minimal installs
    _numba = None


def numba_available() -> bool:
    """Whether the numba JIT is importable in this environment."""
    return _numba is not None


def _quad_gaussian_node_bounds_impl(
    queries,
    low,
    high,
    center,
    mom_a,
    mom_v,
    mom_c,
    total_weight,
    mom_b,
    mom_h,
    gamma,
    weight,
    tangent_mean,
    lowers,
    uppers,
):  # pragma: no cover - covered via the jitted/pure-python parity tests
    """Row-wise QUAD Gaussian bounds over an ``(m, d)`` query batch.

    Mirrors ``QuadraticBoundProvider.node_bounds_batch`` exactly; all
    moment inputs are the centroid-centred aggregates of
    :class:`~repro.core.aggregates.NodeAggregates` (``mom_c`` as a
    ``(d, d)`` matrix). Results are written into ``lowers``/``uppers``.
    """
    m, dims = queries.shape
    scale = weight * total_weight
    for i in range(m):
        # Rectangle min/max squared distance (see Rectangle.sq_dist_interval_batch).
        min_sq = max_sq = 0.0
        for j in range(dims):
            below = low[j] - queries[i, j]
            above = queries[i, j] - high[j]
            nearest = below if below > above else above
            if nearest > 0.0:
                min_sq += nearest * nearest
            farthest = below if below < above else above
            max_sq += farthest * farthest
        xmin = gamma * min_sq
        xmax = gamma * max_sq
        exp_xmin = math.exp(-(xmin if xmin < EXP_NEG_XMAX else EXP_NEG_XMAX))
        exp_xmax = math.exp(-(xmax if xmax < EXP_NEG_XMAX else EXP_NEG_XMAX))
        baseline_lower = scale * exp_xmax
        baseline_upper = scale * exp_xmin
        width = xmax - xmin
        if width <= _DEGENERATE_WIDTH:
            lowers[i] = baseline_lower
            uppers[i] = baseline_upper
            continue

        # Centred moments, upper triangle of q^T C q (NodeAggregates.dist_sums_batch).
        q_sq = dot_qa = dot_qv = quad_form = 0.0
        for j in range(dims):
            qj = queries[i, j] - center[j]
            q_sq += qj * qj
            dot_qa += qj * mom_a[j]
            dot_qv += qj * mom_v[j]
            quad_form += qj * qj * mom_c[j, j]
            for r in range(j):
                quad_form += 2.0 * (queries[i, r] - center[r]) * qj * mom_c[r, j]
        sq_sum = total_weight * q_sq - 2.0 * dot_qa + mom_b
        if sq_sum < 0.0:
            sq_sum = 0.0
        quartic_sum = (
            total_weight * q_sq * q_sq
            - 4.0 * q_sq * dot_qa
            - 4.0 * dot_qv
            + 2.0 * q_sq * mom_b
            + mom_h
            + 4.0 * quad_form
        )
        if quartic_sum < 0.0:
            quartic_sum = 0.0
        x_sum = gamma * sq_sum
        x2_sum = gamma * gamma * quartic_sum

        # Upper parabola (Theorem 1, sign-corrected).
        au = (exp_xmin - (width + 1.0) * exp_xmax) / (width * width)
        bu = (exp_xmax - exp_xmin) / width - au * (xmin + xmax)
        cu = (exp_xmin * xmax - exp_xmax * xmin) / width + au * xmin * xmax
        upper = weight * (au * x2_sum + bu * x_sum + cu * total_weight)

        # Lower parabola tangent at t (Section 4.3) with line fallback.
        if tangent_mean:
            t = x_sum / total_weight
            if t < xmin:
                t = xmin
            elif t > xmax:
                t = xmax
        else:
            t = 0.5 * (xmin + xmax)
        gap = xmax - t
        exp_t = math.exp(-(t if t < EXP_NEG_XMAX else EXP_NEG_XMAX))
        if gap <= _DEGENERATE_WIDTH or gap <= _MIN_GAP_FRACTION * width:
            lower = weight * exp_t * ((1.0 + t) * total_weight - x_sum)
        else:
            al = (exp_xmax + (xmax - 1.0 - t) * exp_t) / (gap * gap)
            bl = -exp_t - 2.0 * t * al
            cl = (1.0 + t) * exp_t + t * t * al
            lower = weight * (al * x2_sum + bl * x_sum + cl * total_weight)

        if upper > baseline_upper:
            upper = baseline_upper
        if lower < baseline_lower:
            lower = baseline_lower
        if lower > upper:
            lower = upper
        lowers[i] = lower
        uppers[i] = upper


def _gaussian_leaf_exact_impl(
    queries,
    queries_sq,
    points,
    sq_norms,
    point_weights,
    has_weights,
    gamma,
    weight,
    out,
):  # pragma: no cover - covered via the jitted/pure-python parity tests
    """Exact weighted Gaussian sums of one leaf over an ``(m, d)`` batch.

    Expanded squared-distance form with the same clamps as
    ``BoundProvider.leaf_exact_batch`` + ``GaussianKernel.profile``.
    ``point_weights`` is ignored when ``has_weights`` is false (pass any
    float64 array; numba needs a concrete array type either way).
    """
    m, dims = queries.shape
    n = points.shape[0]
    for i in range(m):
        q_sq = queries_sq[i]
        acc = 0.0
        for k in range(n):
            dot = 0.0
            for j in range(dims):
                dot += points[k, j] * queries[i, j]
            sq_dist = sq_norms[k] - 2.0 * dot + q_sq
            if sq_dist < 0.0:
                sq_dist = 0.0
            x = gamma * sq_dist
            value = math.exp(-(x if x < EXP_NEG_XMAX else EXP_NEG_XMAX))
            if has_weights:
                value *= point_weights[k]
            acc += value
        out[i] = weight * acc


if _numba is not None:  # pragma: no cover - [perf] extra only
    _node_bounds_jit = _numba.njit(cache=True, nogil=True)(
        _quad_gaussian_node_bounds_impl
    )
    _leaf_exact_jit = _numba.njit(cache=True, nogil=True)(_gaussian_leaf_exact_impl)
else:
    _node_bounds_jit = _quad_gaussian_node_bounds_impl
    _leaf_exact_jit = _gaussian_leaf_exact_impl

_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


class NumbaBackend(ComputeBackend):
    """JIT-compiled Gaussian/QUAD kernels; numpy delegation elsewhere."""

    name = "numba"
    releases_gil = True

    def __init__(self, force: bool = False) -> None:
        # ``force`` lets tests run the un-jitted pure-Python kernels on
        # machines without numba, proving formula parity everywhere.
        if not force and not self.available():
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                "numba backend requested but numba is not importable; "
                "install the [perf] extra or use resolve_backend() for "
                "a graceful numpy fallback"
            )

    @classmethod
    def available(cls) -> bool:
        return numba_available()

    @staticmethod
    def _supports_node(provider: BoundProvider, node: KDTreeNode) -> bool:
        # The kernel reads the node's box (``low``/``high``), so ball-tree
        # nodes take the provider's numpy path, as do weightless nodes.
        return (
            type(provider) is QuadraticBoundProvider
            and provider.kernel.name == "gaussian"
            and isinstance(node.rect, Rectangle)
            and node.agg.total_weight > 0.0
        )

    @staticmethod
    def _supports_leaf(provider: BoundProvider) -> bool:
        return provider.kernel.name == "gaussian"

    def node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        if not self._supports_node(provider, node):
            # lint: allow-backend-dispatch -- explicit numpy delegation
            # for provider/kernel/region combinations the JIT does not cover.
            return provider.node_bounds_batch(node, queries, queries_sq)
        agg = node.agg
        lowers = np.empty(queries.shape[0], dtype=np.float64)
        uppers = np.empty(queries.shape[0], dtype=np.float64)
        center, mom_a, mom_v, mom_c = agg._moment_arrays()
        _node_bounds_jit(
            queries,
            node.rect.low,
            node.rect.high,
            center,
            mom_a,
            mom_v,
            mom_c,
            agg.total_weight,
            agg.b,
            agg.h,
            provider.gamma,
            provider.weight,
            provider.tangent == "mean",
            lowers,
            uppers,
        )
        return lowers, uppers

    def leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        if not self._supports_leaf(provider):
            # lint: allow-backend-dispatch -- explicit numpy delegation
            # for kernels the JIT does not cover.
            return provider.leaf_exact_batch(node, queries, queries_sq)
        out = np.empty(queries.shape[0], dtype=np.float64)
        weights = node.weights
        _leaf_exact_jit(
            queries,
            queries_sq,
            node.points,
            node.sq_norms,
            _EMPTY_WEIGHTS if weights is None else weights,
            weights is not None,
            provider.gamma,
            provider.weight,
            out,
        )
        return out
