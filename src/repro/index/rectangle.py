"""Axis-aligned bounding rectangles and point-to-rectangle distances.

Every bound function in the paper needs the interval ``[xmin, xmax]`` of
scaled distances between a pixel ``q`` and the points inside an index
node. The node stores its minimum bounding rectangle (MBR); the interval
endpoints come from the minimum and maximum Euclidean distance between
``q`` and that rectangle (Section 4 of the paper), both computable in
``O(d)`` time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike

__all__ = ["Rectangle"]


class Rectangle:
    """An axis-aligned rectangle ``[low_j, high_j]`` per dimension ``j``.

    Instances are immutable in spirit: the bound arrays are copied on
    construction and never mutated afterwards.
    """

    __slots__ = ("low", "high", "_low_list", "_high_list", "dims")

    def __init__(self, low: PointLike, high: PointLike) -> None:
        low = np.asarray(low, dtype=np.float64).reshape(-1).copy()
        high = np.asarray(high, dtype=np.float64).reshape(-1).copy()
        if low.shape != high.shape:
            raise InvalidParameterError(
                f"low and high must have the same length, got {low.shape} vs {high.shape}"
            )
        if low.shape[0] < 1:
            raise InvalidParameterError("rectangle must have at least one dimension")
        if np.any(low > high):
            raise InvalidParameterError("rectangle must satisfy low <= high per dimension")
        self.low = low
        self.high = high
        # Plain-float copies: the per-pixel refinement loop hits
        # min/max-distance millions of times and list indexing beats numpy
        # scalar extraction by roughly an order of magnitude.
        self._low_list = low.tolist()
        self._high_list = high.tolist()
        self.dims = low.shape[0]

    @classmethod
    def of_points(cls, points: PointLike) -> Rectangle:
        """The minimum bounding rectangle of an ``(n, d)`` point array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise InvalidParameterError("points must be a non-empty (n, d) array")
        return cls(points.min(axis=0), points.max(axis=0))

    def contains(self, point: PointLike) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the box."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return bool(np.all(point >= self.low) and np.all(point <= self.high))

    def min_sq_dist(self, query: Sequence[float]) -> float:
        """Minimum squared Euclidean distance from ``query`` to the box.

        Zero when the query lies inside the rectangle. ``query`` may be
        any sequence of ``dims`` coordinates; each is coerced to a plain
        float once so the arithmetic below never degrades to numpy
        scalar operations (an order of magnitude slower per op).
        """
        low = self._low_list
        high = self._high_list
        if self.dims == 2:
            # Unrolled 2-D fast path for the per-pixel hot loop.
            total = 0.0
            value = float(query[0])
            if value < low[0]:
                delta = low[0] - value
                total = delta * delta
            elif value > high[0]:
                delta = value - high[0]
                total = delta * delta
            value = float(query[1])
            if value < low[1]:
                delta = low[1] - value
                total += delta * delta
            elif value > high[1]:
                delta = value - high[1]
                total += delta * delta
            return total
        total = 0.0
        for j in range(self.dims):
            value = float(query[j])
            if value < low[j]:
                delta = low[j] - value
            elif value > high[j]:
                delta = value - high[j]
            else:
                continue
            total += delta * delta
        return total

    def max_sq_dist(self, query: Sequence[float]) -> float:
        """Maximum squared Euclidean distance from ``query`` to the box.

        Attained at the rectangle corner farthest from the query in every
        coordinate.
        """
        low = self._low_list
        high = self._high_list
        if self.dims == 2:
            # Unrolled 2-D fast path: farthest corner per axis is whichever
            # bound is farther from the query coordinate.
            value = float(query[0])
            d_low = value - low[0]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[0]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            total = delta * delta
            value = float(query[1])
            d_low = value - low[1]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[1]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            return total + delta * delta
        total = 0.0
        for j in range(self.dims):
            value = float(query[j])
            d_low = value - low[j]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[j]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            total += delta * delta
        return total

    def sq_dist_interval_batch(self, queries: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Vectorised ``(min_sq_dist, max_sq_dist)`` for an ``(m, d)`` batch.

        Per axis, ``below = low - x`` and ``above = x - high`` feed both ends:
        nearest offset ``max(below, above, 0)``, farthest ``-min(below, above)``.
        """
        min_sq, max_sq = np.zeros((2, queries.shape[0]), dtype=np.float64)
        for low, high, column in zip(self._low_list, self._high_list, queries.T):
            below = low - column
            above = column - high
            farthest = np.minimum(below, above)
            np.maximum(np.maximum(below, above, out=below), 0.0, out=below)
            min_sq += np.square(below, out=below)
            max_sq += np.square(farthest, out=farthest)
        return min_sq, max_sq

    def distance_interval(self, query: Sequence[float]) -> tuple[float, float]:
        """Return ``(min_dist, max_dist)`` — plain (non-squared) distances."""
        return math.sqrt(self.min_sq_dist(query)), math.sqrt(self.max_sq_dist(query))

    def widest_dimension(self) -> int:
        """Index of the dimension with the largest extent (split heuristic)."""
        return int(np.argmax(self.high - self.low))

    def __repr__(self) -> str:
        return f"Rectangle(low={self.low.tolist()}, high={self.high.tolist()})"
