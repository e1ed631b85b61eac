"""QUAD's ``a x^2 + c`` bounds for distance-based kernels (paper Section 5).

For the triangular, cosine and exponential kernels, ``x_i = gamma *
dist(q, p_i)`` and the O(d) aggregate only exists for ``sum_i x_i^2 =
gamma^2 * sum_i dist^2`` — so QUAD fixes the linear coefficient ``b = 0``
and bounds the profile by ``Q(x) = a x^2 + c`` (Equation 7):

.. math::

    FQ_P(q, Q) = w \\left( a \\gamma^2 \\sum_i d_i^2 + c |P| \\right)

Per kernel (Sections 5.2 and 9.6):

* **triangular** ``k(x) = max(1 - x, 0)`` — upper: the concave
  chord-in-``x^2`` through the endpoint values (Section 5.2.1; remains
  valid even when the interval straddles the support edge ``x = 1``,
  since the chord stays above both the line ``1 - x`` and zero); lower:
  the parabola tangent to the line ``1 - x`` with
  ``a*_l = -sqrt(|P| / (4 gamma^2 sum d^2))`` (Theorem 2), whose
  aggregate has the closed form ``w (|P| - sqrt(|P| * sum x^2))``; it is
  a valid lower bound for *all* ``x >= 0`` (``QL <= 1 - x <=
  max(1-x, 0)``), clamped at zero as the paper prescribes.
* **cosine** ``k(x) = cos(x)`` on ``[0, pi/2]`` — endpoint chord upper
  (Lemma 9) and tangent-at-``xmax`` lower (Lemma 10) while
  ``xmax <= pi/2``. When the interval straddles ``pi/2``, the chord
  upper would dip below zero past ``pi/2`` (invalid there), so the upper
  falls back to the baseline ``w |P| cos(xmin)``; the lower uses the
  tangent at ``pi/2`` (``QL(x) = -x^2/pi + pi/4``), which stays a valid
  lower bound everywhere and beats the baseline zero.
* **exponential** ``k(x) = exp(-x)`` — endpoint chord upper (Lemma 11)
  and tangent lower at ``t* = sqrt(gamma^2 sum d^2 / |P|)``
  (Equations 16-18), both valid on all of ``x >= 0``.

Extension kernels (beyond the paper, see DESIGN.md):

* **epanechnikov** ``k(x) = max(1 - x^2, 0)`` is the *triangular profile
  in the variable* ``u = x^2``, so the same O(d) aggregate gives the
  node sum **exactly** (``w (|P| - sum x^2)``) whenever the node lies
  inside the support, and chord/zero bounds when it straddles.
* **quartic** ``k(x) = max((1 - x^2)^2, 0)``: ``(1 - u)^2`` expands over
  ``sum u`` and ``sum u^2`` (the O(d^2) fourth-moment aggregate) — exact
  inside the support, an upper bound when straddling.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bounds.base import BoundProvider

if TYPE_CHECKING:
    from repro._types import BoundPair, FloatArray, KernelLike, PointLike
    from repro.index.kdtree import KDTreeNode

__all__ = ["DistanceQuadraticBoundProvider"]

_HALF_PI = math.pi / 2.0
#: Interval width below which the node is treated as a single x value.
_DEGENERATE_WIDTH = 1e-12


class DistanceQuadraticBoundProvider(BoundProvider):
    """QUAD bounds for kernels of the plain distance ``gamma * dist``."""

    name = "quad"
    supported_kernels = frozenset(
        {"triangular", "cosine", "exponential", "epanechnikov", "quartic"}
    )

    def __init__(self, kernel: KernelLike, gamma: float, weight: float = 1.0) -> None:
        super().__init__(kernel, gamma, weight)
        bounds_by_kernel = {
            "triangular": (self._triangular_bounds, self._triangular_bounds_batch),
            "cosine": (self._cosine_bounds, self._cosine_bounds_batch),
            "exponential": (self._exponential_bounds, self._exponential_bounds_batch),
            "epanechnikov": (self._epanechnikov_bounds, self._epanechnikov_bounds_batch),
            "quartic": (self._quartic_bounds, self._quartic_bounds_batch),
        }
        self._kernel_bounds, self._kernel_bounds_batch = bounds_by_kernel[self.kernel.name]

    def node_bounds(
        self, node: KDTreeNode, q: PointLike, q_sq: float
    ) -> BoundPair:
        gamma = self.gamma
        xmin = gamma * math.sqrt(node.rect.min_sq_dist(q))
        xmax = gamma * math.sqrt(node.rect.max_sq_dist(q))
        n = node.agg.total_weight  # sum of point weights (= count unweighted)
        if n <= 0.0:
            return 0.0, 0.0
        if xmax - xmin <= _DEGENERATE_WIDTH:
            value = self.weight * n * self.kernel.profile_scalar(xmin)
            return value, value
        # sum of x_i^2 = gamma^2 * sum of squared distances (O(d)).
        x2_sum = gamma * gamma * node.agg.sum_sq_dists(q)
        return self._kernel_bounds(node, q, q_sq, n, xmin, xmax, x2_sum)

    def node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised :meth:`node_bounds` over an ``(m, d)`` query batch.

        Each ``_<kernel>_bounds_batch`` mirrors its scalar method row by
        row and in the same operand order; every branch becomes a mask,
        and masked rows divide by a safe denominator.
        """
        n = node.agg.total_weight
        m = queries.shape[0]
        if n <= 0.0:
            return (
                np.zeros(m, dtype=np.float64),
                np.zeros(m, dtype=np.float64),
            )
        gamma = self.gamma
        xmin, xmax = self.x_interval_batch(node, queries)
        x2_sum, x4_sum = node.agg.dist_sums_batch(
            queries, quartic=self.kernel.name == "quartic"
        )
        x2_sum *= gamma * gamma
        umin = xmin * xmin
        umax = xmax * xmax
        denom = umax - umin
        degenerate = xmax - xmin <= _DEGENERATE_WIDTH
        np.copyto(denom, 1.0, where=degenerate)  # safe denominator
        lower, upper = self._kernel_bounds_batch(
            n, xmin, xmax, umin, umax, denom, x2_sum, x4_sum
        )
        if degenerate.any():
            value = self.kernel.profile(xmin) * (self.weight * n)
            np.copyto(lower, value, where=degenerate)
            np.copyto(upper, value, where=degenerate)
        return lower, upper

    # -- triangular ----------------------------------------------------

    def _triangular_bounds(
        self,
        node: KDTreeNode,
        q: PointLike,
        q_sq: float,
        n: float,
        xmin: float,
        xmax: float,
        x2_sum: float,
    ) -> BoundPair:
        weight = self.weight
        if xmin >= 1.0:
            return 0.0, 0.0
        k_min = 1.0 - xmin
        k_max = 1.0 - xmax if xmax < 1.0 else 0.0
        # Upper: chord in x^2 through (xmin, k_min) and (xmax, k_max).
        denom = xmax * xmax - xmin * xmin
        au = (k_max - k_min) / denom
        cu = (xmax * xmax * k_min - xmin * xmin * k_max) / denom
        upper = weight * (au * x2_sum + cu * n)
        baseline_upper = weight * n * k_min
        if upper > baseline_upper:
            upper = baseline_upper
        # Lower: closed form of Theorem 2, w (n - sqrt(n * sum x^2)).
        lower = weight * (n - math.sqrt(n * x2_sum))
        baseline_lower = weight * n * k_max
        if lower < baseline_lower:
            lower = baseline_lower
        if lower < 0.0:
            lower = 0.0
        if lower > upper:
            lower = upper
        return lower, upper

    def _triangular_bounds_batch(
        self,
        n: float,
        xmin: FloatArray,
        xmax: FloatArray,
        umin: FloatArray,
        umax: FloatArray,
        denom: FloatArray,
        x2_sum: FloatArray,
        x4_sum: FloatArray | None,
    ) -> tuple[FloatArray, FloatArray]:
        weight = self.weight
        scale = weight * n
        k_min = 1.0 - xmin
        k_max = np.where(xmax < 1.0, 1.0 - xmax, 0.0)
        au = (k_max - k_min) / denom
        cu = (umax * k_min - umin * k_max) / denom
        upper = weight * (au * x2_sum + cu * n)
        np.minimum(upper, scale * k_min, out=upper)
        lower = weight * (n - np.sqrt(n * x2_sum))
        np.maximum(lower, scale * k_max, out=lower)
        np.maximum(lower, 0.0, out=lower)
        np.minimum(lower, upper, out=lower)
        return _zero_where(xmin >= 1.0, lower, upper)

    # -- cosine ----------------------------------------------------------

    def _cosine_bounds(
        self,
        node: KDTreeNode,
        q: PointLike,
        q_sq: float,
        n: float,
        xmin: float,
        xmax: float,
        x2_sum: float,
    ) -> BoundPair:
        weight = self.weight
        if xmin >= _HALF_PI:
            return 0.0, 0.0
        cos_xmin = math.cos(xmin)
        if xmax <= _HALF_PI:
            cos_xmax = math.cos(xmax)
            # Upper: chord in x^2 through the endpoints (Lemma 9).
            denom = xmax * xmax - xmin * xmin
            au = (cos_xmax - cos_xmin) / denom
            cu = (xmax * xmax * cos_xmin - xmin * xmin * cos_xmax) / denom
            upper = weight * (au * x2_sum + cu * n)
            # Lower: tangent (in x^2) at xmax (Lemma 10).
            al = -math.sin(xmax) / (2.0 * xmax)
            cl = cos_xmax + xmax * math.sin(xmax) / 2.0
            lower = weight * (al * x2_sum + cl * n)
            baseline_upper = weight * n * cos_xmin
            baseline_lower = weight * n * cos_xmax
        else:
            # Straddling pi/2: chord upper is invalid past the support
            # edge, use the baseline; the tangent-at-pi/2 lower stays
            # valid everywhere (it is <= 0 past pi/2, where k = 0).
            upper = weight * n * cos_xmin
            lower = weight * (-x2_sum / math.pi + n * math.pi / 4.0)
            baseline_upper = upper
            baseline_lower = 0.0
        if upper > baseline_upper:
            upper = baseline_upper
        if lower < baseline_lower:
            lower = baseline_lower
        if lower < 0.0:
            lower = 0.0
        if lower > upper:
            lower = upper
        return lower, upper

    def _cosine_bounds_batch(
        self,
        n: float,
        xmin: FloatArray,
        xmax: FloatArray,
        umin: FloatArray,
        umax: FloatArray,
        denom: FloatArray,
        x2_sum: FloatArray,
        x4_sum: FloatArray | None,
    ) -> tuple[FloatArray, FloatArray]:
        weight = self.weight
        scale = weight * n
        inside = xmax <= _HALF_PI
        cos_xmin = np.cos(xmin)
        cos_xmax = np.cos(xmax)
        sin_xmax = np.sin(xmax)
        baseline_upper = scale * cos_xmin
        # Inside: chord upper (Lemma 9) and tangent-at-xmax lower (Lemma 10).
        au = (cos_xmax - cos_xmin) / denom
        cu = (umax * cos_xmin - umin * cos_xmax) / denom
        chord = weight * (au * x2_sum + cu * n)
        # xmax = 0 only on degenerate rows, which node_bounds_batch overwrites.
        al = -sin_xmax / (2.0 * np.where(xmax > 0.0, xmax, 1.0))
        cl = cos_xmax + xmax * sin_xmax / 2.0
        tangent = weight * (al * x2_sum + cl * n)
        # Straddling pi/2: baseline upper, tangent-at-pi/2 lower.
        straddle = weight * (-x2_sum / math.pi + n * math.pi / 4.0)
        upper = np.where(inside, chord, baseline_upper)
        np.minimum(upper, baseline_upper, out=upper)
        lower = np.where(inside, tangent, straddle)
        np.maximum(lower, np.where(inside, scale * cos_xmax, 0.0), out=lower)
        np.maximum(lower, 0.0, out=lower)
        np.minimum(lower, upper, out=lower)
        return _zero_where(xmin >= _HALF_PI, lower, upper)

    # -- exponential -----------------------------------------------------

    def _exponential_bounds(
        self,
        node: KDTreeNode,
        q: PointLike,
        q_sq: float,
        n: float,
        xmin: float,
        xmax: float,
        x2_sum: float,
    ) -> BoundPair:
        weight = self.weight
        exp_xmin = math.exp(-xmin)
        exp_xmax = math.exp(-xmax)
        # Upper: chord in x^2 through the endpoints (Lemma 11).
        denom = xmax * xmax - xmin * xmin
        au = (exp_xmax - exp_xmin) / denom
        cu = (xmax * xmax * exp_xmin - xmin * xmin * exp_xmax) / denom
        upper = weight * (au * x2_sum + cu * n)
        # Lower: tangent in x^2 at t* = sqrt(mean of x_i^2) (Eq. 16-18).
        t = math.sqrt(x2_sum / n)
        if t < xmin:
            t = xmin
        elif t > xmax:
            t = xmax
        if t <= _DEGENERATE_WIDTH:
            # Every point coincides with q; the sum is exactly w * n.
            lower = weight * n
        else:
            exp_t = math.exp(-t)
            al = -exp_t / (2.0 * t)
            cl = 0.5 * (t + 2.0) * exp_t
            lower = weight * (al * x2_sum + cl * n)
        baseline_upper = weight * n * exp_xmin
        baseline_lower = weight * n * exp_xmax
        if upper > baseline_upper:
            upper = baseline_upper
        if lower < baseline_lower:
            lower = baseline_lower
        if lower > upper:
            lower = upper
        return lower, upper

    def _exponential_bounds_batch(
        self,
        n: float,
        xmin: FloatArray,
        xmax: FloatArray,
        umin: FloatArray,
        umax: FloatArray,
        denom: FloatArray,
        x2_sum: FloatArray,
        x4_sum: FloatArray | None,
    ) -> tuple[FloatArray, FloatArray]:
        weight = self.weight
        scale = weight * n
        exp_xmin = self.kernel.profile(xmin)
        exp_xmax = self.kernel.profile(xmax)
        au = (exp_xmax - exp_xmin) / denom
        cu = (umax * exp_xmin - umin * exp_xmax) / denom
        upper = weight * (au * x2_sum + cu * n)
        t = np.clip(np.sqrt(x2_sum / n), xmin, xmax)
        coincident = t <= _DEGENERATE_WIDTH
        np.copyto(t, 1.0, where=coincident)  # safe denominator
        exp_t = self.kernel.profile(t)
        al = -exp_t / (2.0 * t)
        cl = 0.5 * (t + 2.0) * exp_t
        lower = weight * (al * x2_sum + cl * n)
        np.copyto(lower, scale, where=coincident)
        np.minimum(upper, scale * exp_xmin, out=upper)
        np.maximum(lower, scale * exp_xmax, out=lower)
        np.minimum(lower, upper, out=lower)
        return lower, upper

    # -- epanechnikov (extension) -----------------------------------------

    def _epanechnikov_bounds(
        self,
        node: KDTreeNode,
        q: PointLike,
        q_sq: float,
        n: float,
        xmin: float,
        xmax: float,
        x2_sum: float,
    ) -> BoundPair:
        weight = self.weight
        if xmin >= 1.0:
            return 0.0, 0.0
        if xmax <= 1.0:
            # Inside the support the profile is itself 1 - x^2: exact.
            value = weight * (n - x2_sum)
            if value < 0.0:
                value = 0.0
            return value, value
        # Straddling: per point 1 - x^2 <= k(x), so the linear-in-u
        # aggregate is a lower bound; the chord in u = x^2 through
        # (umin, 1 - umin) and (umax, 0) is an upper bound.
        umin = xmin * xmin
        umax = xmax * xmax
        lower = weight * (n - x2_sum)
        if lower < 0.0:
            lower = 0.0
        upper = weight * (1.0 - umin) * (umax * n - x2_sum) / (umax - umin)
        baseline_upper = weight * n * (1.0 - umin)
        if upper > baseline_upper:
            upper = baseline_upper
        if lower > upper:
            lower = upper
        return lower, upper

    def _epanechnikov_bounds_batch(
        self,
        n: float,
        xmin: FloatArray,
        xmax: FloatArray,
        umin: FloatArray,
        umax: FloatArray,
        denom: FloatArray,
        x2_sum: FloatArray,
        x4_sum: FloatArray | None,
    ) -> tuple[FloatArray, FloatArray]:
        weight = self.weight
        exact = weight * (n - x2_sum)
        np.maximum(exact, 0.0, out=exact)
        k_min = 1.0 - umin
        upper = weight * k_min * (umax * n - x2_sum) / denom
        np.minimum(upper, weight * n * k_min, out=upper)
        np.copyto(upper, exact, where=xmax <= 1.0)
        lower = np.minimum(exact, upper, out=exact)
        return _zero_where(xmin >= 1.0, lower, upper)

    # -- quartic (extension) ----------------------------------------------

    def _quartic_bounds(
        self,
        node: KDTreeNode,
        q: PointLike,
        q_sq: float,
        n: float,
        xmin: float,
        xmax: float,
        x2_sum: float,
    ) -> BoundPair:
        weight = self.weight
        if xmin >= 1.0:
            return 0.0, 0.0
        gamma = self.gamma
        # sum of x_i^4 = gamma^4 * sum dist^4 (O(d^2) aggregate).
        x4_sum = gamma ** 4 * node.agg.sum_quartic_dists(q)
        expanded = weight * (n - 2.0 * x2_sum + x4_sum)
        if xmax <= 1.0:
            value = expanded if expanded > 0.0 else 0.0
            return value, value
        # Straddling: (1 - u)^2 >= k(u) for every u, so the expansion is
        # an upper bound; no aggregated lower beats zero here.
        k_min = 1.0 - xmin * xmin
        upper = expanded
        baseline_upper = weight * n * k_min * k_min
        if upper > baseline_upper:
            upper = baseline_upper
        if upper < 0.0:
            upper = 0.0
        return 0.0, upper

    def _quartic_bounds_batch(
        self,
        n: float,
        xmin: FloatArray,
        xmax: FloatArray,
        umin: FloatArray,
        umax: FloatArray,
        denom: FloatArray,
        x2_sum: FloatArray,
        x4_sum: FloatArray | None,
    ) -> tuple[FloatArray, FloatArray]:
        assert x4_sum is not None
        weight = self.weight
        upper = weight * (n - 2.0 * x2_sum + x4_sum * self.gamma ** 4)
        k_min = 1.0 - umin
        straddle = xmax > 1.0
        np.minimum(upper, weight * n * k_min * k_min, out=upper, where=straddle)
        np.maximum(upper, 0.0, out=upper)
        lower = np.where(straddle, 0.0, upper)
        return _zero_where(xmin >= 1.0, lower, upper)


def _zero_where(
    outside: FloatArray, lower: FloatArray, upper: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Zero both bounds on the rows whose node lies outside the support."""
    np.copyto(lower, 0.0, where=outside)
    np.copyto(upper, 0.0, where=outside)
    return lower, upper
