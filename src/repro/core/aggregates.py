"""Per-node aggregate statistics powering the O(d)/O(d^2) bound evaluation.

The key identity behind KARL's linear bounds (the paper's Section 3.3) is

.. math::

    \\sum_{p_i} dist(q, p_i)^2 = |P| \\, \\lVert q \\rVert^2 - 2 q \\cdot a_P + b_P

with ``a_P = sum(p_i)`` and ``b_P = sum(||p_i||^2)`` precomputed per node.
QUAD's Gaussian bounds additionally need the fourth moment (Lemma 3):

.. math::

    \\sum_{p_i} dist(q, p_i)^4 = |P| \\lVert q \\rVert^4
        - 4 \\lVert q \\rVert^2 (q \\cdot a_P) - 4 (q \\cdot v_P)
        + 2 \\lVert q \\rVert^2 b_P + h_P + 4 q^T C_P q

with ``v_P = sum(||p_i||^2 p_i)``, ``h_P = sum(||p_i||^4)`` and the
``d x d`` moment matrix ``C_P = sum(p_i p_i^T)``.

Numerical stability — a correctness-critical implementation detail the
paper leaves implicit: evaluated in *absolute* coordinates, the fourth
moment identity cancels catastrophically whenever the coordinate
magnitude dwarfs the point spread (latitude/longitude data is the
canonical offender: ``|P| ||q||^4 ~ 1e9`` against a true sum of
``~1e-6`` leaves zero significant digits, which silently breaks the
bound correctness guarantee). All moments here are therefore stored
**relative to the node's centroid**; the identities are
translation-invariant, the centred first moment is ~0, and every term
stays at the scale of the true distances. The evaluation methods shift
the query by the stored centroid on the fly.

The evaluation methods take the query as a plain Python list; the
refinement engine calls them millions of times per colour map, and
plain-float arithmetic is roughly an order of magnitude faster than
numpy scalar extraction at ``d <= 3``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike

__all__ = ["NodeAggregates"]


class NodeAggregates:
    """Centroid-centred (optionally weighted) moment statistics.

    With per-point weights ``w_i >= 0`` every moment is the weighted sum
    (uniform weight 1 when none are given) — the form needed to support
    re-weighted samples, the paper's footnote 5. The bound formulas all
    generalise by substituting the total weight ``W = sum(w_i)`` for the
    point count, which :attr:`total_weight` carries.

    Attributes
    ----------
    n:
        Number of points ``|P|``.
    total_weight:
        ``sum(w_i)`` (equals ``n`` for unweighted data).
    center:
        The (weighted) centroid the moments are relative to.
    a:
        Centred first moment ``sum(w_i (p_i - c))`` (≈ 0 up to rounding,
        kept in the identities for exactness); list of ``d`` floats.
    b:
        Scalar ``sum(w_i ||p_i - c||^2)``.
    v:
        Third-moment vector ``sum(w_i ||p_i - c||^2 (p_i - c))``.
    h:
        Scalar ``sum(w_i ||p_i - c||^4)``.
    c:
        Row-major flattened ``d x d`` matrix
        ``sum(w_i (p_i - c)(p_i - c)^T)``.
    dims:
        Dimensionality ``d``.
    """

    __slots__ = (
        "n",
        "total_weight",
        "center",
        "a",
        "b",
        "v",
        "h",
        "c",
        "dims",
        "_arrays",
    )

    def __init__(
        self,
        n: int,
        center: Sequence[float],
        a: Sequence[float],
        b: float,
        v: Sequence[float],
        h: float,
        c: Sequence[float],
        dims: int,
        total_weight: float | None = None,
    ) -> None:
        self.n = int(n)
        self.total_weight = float(n if total_weight is None else total_weight)
        self.center = list(center)
        self.a = list(a)
        self.b = float(b)
        self.v = list(v)
        self.h = float(h)
        self.c = list(c)
        self.dims = int(dims)
        # Lazy numpy copies of the moments, built on the first batched
        # evaluation (the scalar fast paths keep using the plain lists).
        self._arrays: tuple[FloatArray, FloatArray, FloatArray, FloatArray] | None = None

    @classmethod
    def from_points(
        cls, points: PointLike, weights: PointLike | None = None
    ) -> NodeAggregates:
        """Centroid-centred aggregates of an ``(n, d)`` array.

        Parameters
        ----------
        points:
            Point array.
        weights:
            Optional non-negative per-point weights ``(n,)``; ``None``
            means uniform weight 1.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise InvalidParameterError("points must be a non-empty (n, d) array")
        if weights is None:
            total_weight = float(points.shape[0])
            center = points.mean(axis=0)
            centred = points - center
            sq_norms = np.einsum("ij,ij->i", centred, centred)
            a = centred.sum(axis=0)
            b = float(sq_norms.sum())
            v = (centred * sq_norms[:, None]).sum(axis=0)
            h = float(np.dot(sq_norms, sq_norms))
            c = centred.T @ centred
        else:
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weights.shape[0] != points.shape[0]:
                raise InvalidParameterError(
                    f"weights length {weights.shape[0]} != points {points.shape[0]}"
                )
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise InvalidParameterError("weights must be finite and >= 0")
            total_weight = float(weights.sum())
            if total_weight <= 0.0:
                raise InvalidParameterError("weights must not all be zero")
            center = (points * weights[:, None]).sum(axis=0) / total_weight
            centred = points - center
            sq_norms = np.einsum("ij,ij->i", centred, centred)
            a = (centred * weights[:, None]).sum(axis=0)
            b = float(np.dot(weights, sq_norms))
            v = (centred * (weights * sq_norms)[:, None]).sum(axis=0)
            h = float(np.dot(weights, sq_norms * sq_norms))
            c = (centred * weights[:, None]).T @ centred
        return cls(
            n=points.shape[0],
            center=center.tolist(),
            a=a.tolist(),
            b=b,
            v=v.tolist(),
            h=h,
            c=c.reshape(-1).tolist(),
            dims=points.shape[1],
            total_weight=total_weight,
        )

    def recentered(self, new_center: Sequence[float]) -> NodeAggregates:
        """The same moments expressed relative to ``new_center``.

        Uses the exact translation formulas for each moment (with shift
        ``s = c_old - c_new``, so centred points gain ``+ s``); needed to
        merge sibling aggregates whose centroids differ.
        """
        new_center = [float(value) for value in new_center]
        if len(new_center) != self.dims:
            raise InvalidParameterError("new_center has wrong dimensionality")
        s = [old - new for old, new in zip(self.center, new_center)]
        s_sq = sum(value * value for value in s)
        dims = self.dims
        # Every "count" in the translation formulas is sum of w_i.
        n = self.total_weight
        a = self.a
        v = self.v
        c = self.c
        s_dot_a = sum(s[j] * a[j] for j in range(dims))
        s_dot_v = sum(s[j] * v[j] for j in range(dims))
        # C s (matrix-vector) and s^T C s.
        c_s = [0.0] * dims
        index = 0
        for i in range(dims):
            row = 0.0
            for j in range(dims):
                row += c[index] * s[j]
                index += 1
            c_s[i] = row
        s_c_s = sum(s[i] * c_s[i] for i in range(dims))
        new_a = [a[j] + n * s[j] for j in range(dims)]
        new_b = self.b + 2.0 * s_dot_a + n * s_sq
        new_v = [
            v[j]
            + self.b * s[j]
            + 2.0 * c_s[j]
            + 2.0 * s_dot_a * s[j]
            + s_sq * a[j]
            + n * s_sq * s[j]
            for j in range(dims)
        ]
        new_h = (
            self.h
            + 4.0 * s_c_s
            + n * s_sq * s_sq
            + 4.0 * s_dot_v
            + 2.0 * s_sq * self.b
            + 4.0 * s_sq * s_dot_a
        )
        new_c = list(c)
        index = 0
        for i in range(dims):
            for j in range(dims):
                new_c[index] += s[i] * a[j] + a[i] * s[j] + n * s[i] * s[j]
                index += 1
        return NodeAggregates(
            n=self.n, center=new_center, a=new_a, b=new_b, v=new_v, h=new_h,
            c=new_c, dims=dims, total_weight=self.total_weight,
        )

    @classmethod
    def merged(cls, left: NodeAggregates, right: NodeAggregates) -> NodeAggregates:
        """Aggregates of the union of two disjoint point sets.

        The merged centroid is the size-weighted mean of the children's;
        both children are re-centred onto it before summing.
        """
        if left.dims != right.dims:
            raise InvalidParameterError("cannot merge aggregates of different dims")
        total = left.n + right.n
        weight_total = left.total_weight + right.total_weight
        center = [
            (left.total_weight * cl + right.total_weight * cr) / weight_total
            for cl, cr in zip(left.center, right.center)
        ]
        left = left.recentered(center)
        right = right.recentered(center)
        return cls(
            n=total,
            total_weight=weight_total,
            center=center,
            a=[x + y for x, y in zip(left.a, right.a)],
            b=left.b + right.b,
            v=[x + y for x, y in zip(left.v, right.v)],
            h=left.h + right.h,
            c=[x + y for x, y in zip(left.c, right.c)],
            dims=left.dims,
        )

    def sum_sq_dists(self, q: Sequence[float]) -> float:
        """``sum_i w_i dist(q, p_i)^2`` in O(d) time (w_i = 1 unweighted).

        Parameters
        ----------
        q:
            Query coordinates as a list of ``d`` floats (absolute; the
            centroid shift happens internally).
        """
        a = self.a
        center = self.center
        if self.dims == 2:
            # Unrolled 2-D fast path: KDV queries are overwhelmingly 2-D
            # and this method sits on the per-pixel hot loop. Coordinates
            # are coerced to plain floats once so numpy scalars handed in
            # by the engine never degrade the arithmetic below.
            q0 = float(q[0]) - center[0]
            q1 = float(q[1]) - center[1]
            value = (
                self.total_weight * (q0 * q0 + q1 * q1)
                - 2.0 * (q0 * a[0] + q1 * a[1])
                + self.b
            )
            return value if value > 0.0 else 0.0
        q_sq = 0.0
        dot_qa = 0.0
        for j in range(self.dims):
            qj = float(q[j]) - center[j]
            q_sq += qj * qj
            dot_qa += qj * a[j]
        value = self.total_weight * q_sq - 2.0 * dot_qa + self.b
        # The true value is non-negative; rounding can leave a tiny
        # negative residue when every point coincides with q.
        return value if value > 0.0 else 0.0

    def _moment_arrays(self) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
        arrays = self._arrays
        if arrays is None:
            arrays = (
                np.asarray(self.center, dtype=np.float64),
                np.asarray(self.a, dtype=np.float64),
                np.asarray(self.v, dtype=np.float64),
                np.asarray(self.c, dtype=np.float64).reshape(self.dims, self.dims),
            )
            self._arrays = arrays
        return arrays

    def dist_sums_batch(
        self, queries: FloatArray, quartic: bool = True
    ) -> tuple[FloatArray, FloatArray | None]:
        """Vectorised ``(sum_sq_dists, sum_quartic_dists)`` for an ``(m, d)`` batch.

        Each centroid-shifted query column is computed once and feeds
        ``||q||^2``, ``q.a``, ``q.v`` and the upper triangle of ``q^T C q``;
        Lemma 3's factors 2, 4, 8 fold exactly into the moment scalars.
        ``quartic=False`` skips the O(d^2) sum (``None`` in its place).
        """
        dims, a, v, c = self.dims, self.a, self.v, self.c
        cols = [column - shift for column, shift in zip(queries.T, self.center)]
        q_sq, dot_qa, dot_qv, quad = (np.zeros(len(queries), dtype=np.float64) for __ in range(4))
        for j, col in enumerate(cols):
            q_sq += np.square(col)
            dot_qa += col * (2.0 * a[j])
            if quartic:
                dot_qv += col * (4.0 * v[j])
                quad += np.square(col) * (4.0 * c[j * dims + j])
                for i in range(j):
                    quad += (cols[i] * col) * (8.0 * c[i * dims + j])
        weighted_sq = q_sq * self.total_weight
        sq_sum = np.maximum(weighted_sq - dot_qa + self.b, 0.0)
        if not quartic:
            return sq_sum, None
        # Lemma 3 in the scalar operand order; each out= buffer is dead once overwritten.
        quartic_sum = np.multiply(weighted_sq, q_sq, out=weighted_sq)
        quartic_sum -= np.multiply(dot_qa, 2.0 * q_sq, out=dot_qa)
        quartic_sum -= dot_qv
        quartic_sum += np.multiply(q_sq, 2.0 * self.b, out=q_sq)
        quartic_sum += self.h
        quartic_sum += quad
        return sq_sum, np.maximum(quartic_sum, 0.0, out=quartic_sum)

    def sum_quartic_dists(self, q: Sequence[float]) -> float:
        """``sum_i w_i dist(q, p_i)^4`` in O(d^2) time (Lemma 3)."""
        dims = self.dims
        a = self.a
        v = self.v
        c = self.c
        center = self.center
        if dims == 2:
            # Unrolled 2-D fast path (see sum_sq_dists).
            q0 = float(q[0]) - center[0]
            q1 = float(q[1]) - center[1]
            q_sq = q0 * q0 + q1 * q1
            value = (
                self.total_weight * q_sq * q_sq
                - 4.0 * q_sq * (q0 * a[0] + q1 * a[1])
                - 4.0 * (q0 * v[0] + q1 * v[1])
                + 2.0 * q_sq * self.b
                + self.h
                + 4.0 * (q0 * q0 * c[0] + 2.0 * q0 * q1 * c[1] + q1 * q1 * c[3])
            )
            return value if value > 0.0 else 0.0
        shifted = [0.0] * dims
        q_sq = 0.0
        dot_qa = 0.0
        dot_qv = 0.0
        for j in range(dims):
            qj = float(q[j]) - center[j]
            shifted[j] = qj
            q_sq += qj * qj
            dot_qa += qj * a[j]
            dot_qv += qj * v[j]
        quad_form = 0.0
        index = 0
        for i in range(dims):
            row = 0.0
            for j in range(dims):
                row += c[index] * shifted[j]
                index += 1
            quad_form += shifted[i] * row
        value = (
            self.total_weight * q_sq * q_sq
            - 4.0 * q_sq * dot_qa
            - 4.0 * dot_qv
            + 2.0 * q_sq * self.b
            + self.h
            + 4.0 * quad_form
        )
        return value if value > 0.0 else 0.0

    def __repr__(self) -> str:
        return f"NodeAggregates(n={self.n}, dims={self.dims})"
