"""KARL's linear bounds of ``exp(-x)`` — the state of the art before QUAD.

For the Gaussian kernel with ``x_i = gamma * dist(q, p_i)**2``, KARL
(the paper's Section 3.3) sandwiches ``exp(-x)`` on ``[xmin, xmax]``:

* **upper** — the chord through ``(xmin, e^-xmin)`` and
  ``(xmax, e^-xmax)`` (lies above, since ``exp(-x)`` is convex);
* **lower** — the tangent line at ``t`` (lies below, same convexity),
  with ``t* = gamma / |P| * sum dist^2``, the mean of the ``x_i``.

Both aggregate in O(d) time through ``sum_i x_i = gamma * sum_i dist^2``
(Lemma 1). A pleasant closed form falls out of the tangent-at-the-mean
choice: the aggregated lower bound equals ``w |P| exp(-t*)``, which by
Jensen's inequality is the tightest possible *linear* lower bound and is
never worse than the baseline ``w |P| exp(-xmax)``.

Section 5.1 of the paper explains why this technique is Gaussian-only:
the other kernels depend on ``sum_i dist`` (not squared), which has no
O(d) aggregate — so this provider rejects them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bounds.base import BoundProvider

if TYPE_CHECKING:
    from repro._types import BoundPair, FloatArray, PointLike
    from repro.index.kdtree import KDTreeNode

__all__ = ["LinearBoundProvider"]

#: Interval width below which the node is treated as a single x value.
_DEGENERATE_WIDTH = 1e-12


class LinearBoundProvider(BoundProvider):
    """Chord upper / tangent lower linear bounds (KARL, ICDE 2019)."""

    name = "linear"
    supported_kernels = frozenset({"gaussian"})

    def node_bounds(self, node: KDTreeNode, q: PointLike, q_sq: float) -> BoundPair:
        agg = node.agg
        n = agg.total_weight  # sum of point weights (= count unweighted)
        scale = self.weight * n
        if n <= 0.0:
            return 0.0, 0.0
        xmin, xmax = self.x_interval(node, q)
        exp_xmin = math.exp(-xmin)
        exp_xmax = math.exp(-xmax)
        if xmax - xmin <= _DEGENERATE_WIDTH:
            # Every point sits at (numerically) the same x: the constant
            # bounds are exact up to rounding.
            return scale * exp_xmax, scale * exp_xmin
        x_sum = self.gamma * agg.sum_sq_dists(q)
        # Tangent lower bound EL(x) = e^-t (1 + t - x) at t = mean(x_i).
        # The mean always lies in [xmin, xmax]; the clamp only guards
        # against rounding in the aggregate.
        t = x_sum / n
        if t < xmin:
            t = xmin
        elif t > xmax:
            t = xmax
        # Aggregated: w * e^-t * ((1 + t) n - sum x_i); at t = mean this
        # collapses to w * n * e^-t.
        lower = self.weight * math.exp(-t) * ((1.0 + t) * n - x_sum)
        # Chord (secant) upper bound: EU(x) = mu * x + ku.
        mu = (exp_xmax - exp_xmin) / (xmax - xmin)
        ku = exp_xmin - mu * xmin
        upper = self.weight * (mu * x_sum + ku * n)
        # The chord never exceeds the baseline on the interval; the min is
        # purely a guard against floating-point drift.
        baseline_upper = scale * exp_xmin
        if upper > baseline_upper:
            upper = baseline_upper
        if lower > upper:
            lower = upper
        return lower, upper

    def node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised :meth:`node_bounds` over an ``(m, d)`` query batch.

        Row-wise identical formulas to the scalar path, with the
        degenerate-interval case handled by a mask and ``exp`` arguments
        clamped at :data:`~repro.core.bounds.base.EXP_NEG_XMAX`.
        """
        n = node.agg.total_weight
        m = queries.shape[0]
        if n <= 0.0:
            return (
                np.zeros(m, dtype=np.float64),
                np.zeros(m, dtype=np.float64),
            )
        scale = self.weight * n
        xmin, xmax = self.x_interval_batch(node, queries)
        exp_xmin = self.kernel.profile(xmin)
        exp_xmax = self.kernel.profile(xmax)
        width = xmax - xmin
        degenerate = width <= _DEGENERATE_WIDTH
        safe_width = np.where(degenerate, 1.0, width)
        x_sum, __ = node.agg.dist_sums_batch(queries, quartic=False)
        x_sum *= self.gamma
        t = np.clip(x_sum / n, xmin, xmax)
        exp_t = self.kernel.profile(t)
        lower = self.weight * exp_t * ((1.0 + t) * n - x_sum)
        mu = (exp_xmax - exp_xmin) / safe_width
        ku = exp_xmin - mu * xmin
        upper = self.weight * (mu * x_sum + ku * n)
        baseline_upper = scale * exp_xmin
        np.minimum(upper, baseline_upper, out=upper)
        np.minimum(lower, upper, out=lower)
        np.copyto(lower, scale * exp_xmax, where=degenerate)
        np.copyto(upper, baseline_upper, where=degenerate)
        return lower, upper
