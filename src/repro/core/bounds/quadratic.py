"""QUAD's quadratic bounds for the Gaussian kernel (paper Section 4).

With ``x_i = gamma * dist(q, p_i)**2`` bounded in ``[xmin, xmax]``, the
exponential profile is sandwiched by parabolas
``Q(x) = a x**2 + b x + c``:

* **upper** ``QU`` passes through both interval endpoints of ``exp(-x)``
  and bends down as much as correctness allows (``a_u = a*_u``,
  Theorem 1) — tighter than KARL's chord, which is the ``a_u = 0``
  special case;
* **lower** ``QL`` is tangent to ``exp(-x)`` at ``t`` and passes through
  ``(xmax, exp(-xmax))`` (Section 4.3) — tighter than KARL's tangent
  line, which it dominates by the added ``a_l (x - t)**2 >= 0`` term.

The aggregate (Equation 2)

.. math::

    FQ_P(q, Q) = w \\left( a \\gamma^2 \\sum_i d_i^4
        + b \\gamma \\sum_i d_i^2 + c |P| \\right)

is evaluated in O(d^2) time from the node moments (Lemma 3).

Erratum implemented here (see DESIGN.md): the paper prints Theorem 1 as
``a*_u = ((xmax-xmin+1) e^-xmax - e^-xmin) / (xmax-xmin)^2``, which is
negative for every non-degenerate interval (``e^Delta > 1 + Delta``) and
so contradicts both the theorem's own requirement ``a_u > 0`` and the
worked example of the paper's Figure 7. Re-deriving the binding
constraint ``QU'(xmax) <= -exp(-xmax)`` gives the sign-corrected optimum

.. math::

    a^*_u = \\frac{e^{-x_{min}} - (x_{max} - x_{min} + 1) e^{-x_{max}}}
                 {(x_{max} - x_{min})^2} > 0

which reproduces Figure 7 (interval ~[0.5, 3.5] -> ``a*_u ~ 0.054``, so
``a_u = 0.05`` is correct and ``a_u = 0.1`` is not, exactly as pictured).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bounds.base import BoundProvider

if TYPE_CHECKING:
    from repro._types import BoundPair, FloatArray, KernelLike, PointLike
    from repro.index.kdtree import KDTreeNode

__all__ = ["QuadraticBoundProvider"]

#: Interval / tangent-gap width below which closed forms degenerate.
_DEGENERATE_WIDTH = 1e-12
#: Minimum (xmax - t) as a fraction of the interval width before the
#: lower bound falls back to the tangent line: the a_l cancellation
#: error is amplified by (width / gap)^2, so this cap keeps the induced
#: relative error below ~1e-10 (see node_bounds).
_MIN_GAP_FRACTION = 2e-3


def optimal_upper_curvature(xmin: float, xmax: float) -> float:
    """The sign-corrected ``a*_u`` of Theorem 1 (see module docstring)."""
    width = xmax - xmin
    return (math.exp(-xmin) - (width + 1.0) * math.exp(-xmax)) / (width * width)


def upper_coefficients(xmin: float, xmax: float) -> tuple[float, float, float]:
    """Coefficients ``(a_u, b_u, c_u)`` of the tight quadratic upper bound.

    ``QU`` interpolates ``exp(-x)`` at both endpoints (Section 4.2), with
    the optimal curvature from Theorem 1.
    """
    exp_xmin = math.exp(-xmin)
    exp_xmax = math.exp(-xmax)
    width = xmax - xmin
    au = optimal_upper_curvature(xmin, xmax)
    bu = (exp_xmax - exp_xmin) / width - au * (xmin + xmax)
    cu = (exp_xmin * xmax - exp_xmax * xmin) / width + au * xmin * xmax
    return au, bu, cu


def lower_coefficients(t: float, xmax: float) -> tuple[float, float, float]:
    """Coefficients ``(a_l, b_l, c_l)`` of the tight quadratic lower bound.

    ``QL`` is tangent to ``exp(-x)`` at ``t`` and interpolates it at
    ``xmax`` (Section 4.3). Requires ``t < xmax``.
    """
    exp_t = math.exp(-t)
    exp_xmax = math.exp(-xmax)
    gap = xmax - t
    al = (exp_xmax + (xmax - 1.0 - t) * exp_t) / (gap * gap)
    bl = -exp_t - 2.0 * t * al
    cl = (1.0 + t) * exp_t + t * t * al
    return al, bl, cl


class QuadraticBoundProvider(BoundProvider):
    """QUAD bounds for the Gaussian kernel — the paper's contribution.

    Parameters
    ----------
    tangent:
        Where the lower-bound parabola touches ``exp(-x)``: ``"mean"``
        (the paper's ``t*``, Equation 3) or ``"midpoint"`` of
        ``[xmin, xmax]`` — exposed for the tangent-choice ablation.
    """

    name = "quad"
    supported_kernels = frozenset({"gaussian"})

    def __init__(
        self,
        kernel: KernelLike,
        gamma: float,
        weight: float = 1.0,
        tangent: str = "mean",
    ) -> None:
        super().__init__(kernel, gamma, weight)
        if tangent not in ("mean", "midpoint"):
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                f"tangent must be 'mean' or 'midpoint', got {tangent!r}"
            )
        self.tangent = tangent

    def node_bounds(self, node: KDTreeNode, q: PointLike, q_sq: float) -> BoundPair:
        # Fully inlined hot path: this method runs once per node pop per
        # pixel (millions of calls per colour map), so the coefficient
        # helpers above are folded in, sharing one exp() per endpoint.
        agg = node.agg
        n = agg.total_weight  # sum of point weights (= count unweighted)
        weight = self.weight
        scale = weight * n
        if n <= 0.0:
            return 0.0, 0.0
        gamma = self.gamma
        xmin = gamma * node.rect.min_sq_dist(q)
        xmax = gamma * node.rect.max_sq_dist(q)
        exp_xmin = math.exp(-xmin)
        exp_xmax = math.exp(-xmax)
        baseline_lower = scale * exp_xmax
        baseline_upper = scale * exp_xmin
        width = xmax - xmin
        if width <= _DEGENERATE_WIDTH:
            return baseline_lower, baseline_upper
        x_sum = gamma * agg.sum_sq_dists(q)
        x2_sum = gamma * gamma * agg.sum_quartic_dists(q)

        # Upper: endpoints interpolation + optimal curvature (Theorem 1,
        # sign-corrected; see module docstring).
        au = (exp_xmin - (width + 1.0) * exp_xmax) / (width * width)
        bu = (exp_xmax - exp_xmin) / width - au * (xmin + xmax)
        cu = (exp_xmin * xmax - exp_xmax * xmin) / width + au * xmin * xmax
        upper = weight * (au * x2_sum + bu * x_sum + cu * n)

        # Tangent abscissa t* = mean of the x_i (Equation 3), which always
        # lies inside [xmin, xmax]; clamped for rounding safety. The
        # midpoint alternative serves the tangent-choice ablation.
        if self.tangent == "mean":
            t = x_sum / n
            if t < xmin:
                t = xmin
            elif t > xmax:
                t = xmax
        else:
            t = 0.5 * (xmin + xmax)
        gap = xmax - t
        exp_t = math.exp(-t)
        if gap <= _DEGENERATE_WIDTH or gap <= _MIN_GAP_FRACTION * width:
            # The parabola through the tangent point and (xmax, .)
            # degenerates as t -> xmax, and worse: the cancellation error
            # of a_l is amplified by (width / gap)^2 across the interval,
            # which can push QL *above* exp(-x) — an invalid bound. Fall
            # back to the tangent *line* (KARL's lower bound, stable and
            # nearly as tight here since the points cluster at xmax).
            lower = weight * exp_t * ((1.0 + t) * n - x_sum)
        else:
            al = (exp_xmax + (xmax - 1.0 - t) * exp_t) / (gap * gap)
            bl = -exp_t - 2.0 * t * al
            cl = (1.0 + t) * exp_t + t * t * al
            lower = weight * (al * x2_sum + bl * x_sum + cl * n)

        # Intersect with the always-valid baseline interval. Theorems 1-2
        # make this a mathematical no-op; it guards floating-point drift.
        if upper > baseline_upper:
            upper = baseline_upper
        if lower < baseline_lower:
            lower = baseline_lower
        if lower > upper:
            lower = upper
        return lower, upper

    def node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised :meth:`node_bounds` over an ``(m, d)`` query batch.

        Mirrors the scalar formulas row-wise and in the same operand order,
        reusing buffers in place; the degenerate-interval and tangent-line
        fallbacks become masks. The Gaussian profile clamps ``exp``
        arguments at :data:`~repro.core.bounds.base.EXP_NEG_XMAX`.
        """
        n = node.agg.total_weight
        weight = self.weight
        m = queries.shape[0]
        if n <= 0.0:
            return (
                np.zeros(m, dtype=np.float64),
                np.zeros(m, dtype=np.float64),
            )
        xmin, xmax = self.x_interval_batch(node, queries)
        x_sum, x2_sum = node.agg.dist_sums_batch(queries)
        assert x2_sum is not None
        x_sum *= self.gamma
        x2_sum *= self.gamma * self.gamma
        exp_xmin = self.kernel.profile(xmin)
        exp_xmax = self.kernel.profile(xmax)
        baseline_lower = exp_xmax * (weight * n)
        baseline_upper = exp_xmin * (weight * n)
        width = xmax - xmin
        degenerate = width <= _DEGENERATE_WIDTH
        safe_width = np.where(degenerate, 1.0, width)
        tmp = np.empty_like(width)  # temporary: each value is dead by its next use

        # Upper (Theorem 1, sign-corrected).
        au = np.subtract(exp_xmin, np.multiply(safe_width + 1.0, exp_xmax, out=tmp))
        au /= np.square(safe_width, out=tmp)
        bu = np.divide(np.subtract(exp_xmax, exp_xmin, out=tmp), safe_width)
        bu -= np.multiply(np.add(xmin, xmax, out=tmp), au, out=tmp)
        cu = np.subtract(exp_xmin * xmax, np.multiply(exp_xmax, xmin, out=tmp))
        cu /= safe_width
        cu += np.multiply(np.multiply(au, xmin, out=tmp), xmax, out=tmp)
        upper = np.multiply(au, x2_sum, out=au)  # au, bu, cu are dead from here
        upper += np.multiply(bu, x_sum, out=bu)
        upper += np.multiply(cu, n, out=cu)
        upper *= weight

        # Lower: tangent parabola at t, or the tangent line near t = xmax.
        if self.tangent == "mean":
            t = np.clip(x_sum / n, xmin, xmax)
        else:
            t = 0.5 * (xmin + xmax)
        gap = xmax - t
        exp_t = self.kernel.profile(t)
        width *= _MIN_GAP_FRACTION  # width is dead from here
        use_line = gap <= np.maximum(width, _DEGENERATE_WIDTH, out=width)
        one_t = t + 1.0
        line = np.subtract(one_t * n, x_sum)
        line *= np.multiply(exp_t, weight, out=tmp)
        np.copyto(gap, 1.0, where=use_line)  # gap is safe_gap, then its square
        al = np.subtract(xmax - 1.0, t)
        al *= exp_t
        al += exp_xmax
        al /= np.square(gap, out=gap)
        # bl = -(exp_t + 2 t al), so bl * x_sum is subtracted below.
        bl = np.multiply(np.multiply(t, 2.0, out=gap), al, out=gap)  # gap now holds bl
        bl += exp_t
        cl = np.multiply(one_t, exp_t, out=one_t)  # one_t is dead from here
        cl += np.multiply(np.square(t, out=t), al, out=t)  # t is dead from here
        lower = np.multiply(al, x2_sum, out=al)  # al, bl, cl are dead from here
        lower -= np.multiply(bl, x_sum, out=bl)
        lower += np.multiply(cl, n, out=cl)
        lower *= weight
        np.copyto(lower, line, where=use_line)

        # Intersect with the always-valid baseline interval.
        np.minimum(upper, baseline_upper, out=upper)
        np.maximum(lower, baseline_lower, out=lower)
        np.minimum(lower, upper, out=lower)
        np.copyto(lower, baseline_lower, where=degenerate)
        np.copyto(upper, baseline_upper, where=degenerate)
        return lower, upper
