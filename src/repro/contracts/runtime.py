"""Runtime soundness contracts for the bound machinery.

Every competitive method in the paper is correct only if each per-node
bound evaluation satisfies ``LB_R(q) <= F_R(q) <= UB_R(q)``. A silently
broken bound does not crash — it makes εKDV/τKDV return wrong pixels
while tests keep passing. This module provides machine checks for those
invariants, activated by the ``REPRO_CHECK_INVARIANTS`` environment
variable (values ``1``/``true``/``on``/``yes``, case-insensitive):

* **bound-order** — every ``node_bounds`` call returns a finite pair
  with ``lower <= upper`` and ``upper >= 0``;
* **leaf-containment** — the exact leaf kernel sum lies inside the leaf
  bounds that advertised it (the direct ``LB <= F <= UB`` check);
* **monotone-tightening** — the engine's global ``[LB(q), UB(q)]``
  interval only tightens as the priority queue refines;
* **kernel-nonnegative** — kernel evaluations are finite and >= 0;
* **eps-agreement** — εKDV answers of deterministic methods agree with
  the exact density within the ``(1 ± eps)`` contract.

Checks are designed to cost nothing when disabled: hot paths read one
cached boolean (:func:`invariants_enabled`) per query and skip the
validation branches entirely. Enabling the flag re-routes the engine
through the checking variants; expect a moderate slowdown plus an O(n)
exact evaluation per εKDV query for the agreement check.

Violations raise :class:`repro.errors.InvariantViolation` naming the
invariant, the bound class, the node and the query — they are never
caught and repaired internally.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import InvariantViolation

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike

__all__ = [
    "ENV_VAR",
    "invariants_enabled",
    "set_invariants",
    "refresh_from_env",
    "checking",
    "check_bound_pair",
    "check_bound_pairs",
    "check_leaf_containment",
    "check_monotone_tightening",
    "check_kernel_values",
    "check_eps_agreement",
]

#: Environment variable toggling runtime invariant checks.
ENV_VAR = "REPRO_CHECK_INVARIANTS"

#: Values of :data:`ENV_VAR` interpreted as "enabled".
_TRUTHY = frozenset({"1", "true", "on", "yes"})

#: Relative slack absorbing benign floating-point drift in comparisons.
#: The engine's Kahan-compensated accumulators keep genuine drift at the
#: rounding floor, so this is orders of magnitude above noise yet far
#: below any real bound violation.
_REL_TOL = 1e-9


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class _State:
    """Cached enable flag plus an explicit override for tests/tools."""

    __slots__ = ("enabled", "override")

    def __init__(self) -> None:
        self.override: bool | None = None
        self.enabled: bool = _env_enabled()


_state = _State()


def invariants_enabled() -> bool:
    """Whether runtime invariant checks are active.

    Reads a cached flag — safe to call on hot paths. The cache refreshes
    from the environment on import and via :func:`refresh_from_env`;
    :func:`set_invariants` / :func:`checking` override it explicitly.
    """
    return _state.enabled


def set_invariants(enabled: bool | None) -> None:
    """Force invariant checking on/off, or ``None`` to follow the env var."""
    _state.override = enabled
    _state.enabled = _env_enabled() if enabled is None else bool(enabled)


def refresh_from_env() -> bool:
    """Re-read :data:`ENV_VAR` (unless overridden) and return the state."""
    if _state.override is None:
        _state.enabled = _env_enabled()
    return _state.enabled


@contextmanager
def checking(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping an invariant-checking override."""
    previous_override = _state.override
    previous_enabled = _state.enabled
    set_invariants(enabled)
    try:
        yield
    finally:
        _state.override = previous_override
        _state.enabled = previous_enabled


def _describe_query(query: PointLike | None) -> object:
    if query is None:
        return None
    return [float(value) for value in query]


def check_bound_pair(
    lower: float,
    upper: float,
    *,
    bound: str,
    node: int | None = None,
    query: PointLike | None = None,
) -> None:
    """Validate one ``(LB, UB)`` bound evaluation.

    Requires both endpoints finite, ``lower <= upper`` (up to relative
    rounding slack) and ``upper >= 0`` — an upper bound below zero would
    contradict the non-negativity of the kernel sum it bounds.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise InvariantViolation(
            f"{bound}: non-finite bounds ({lower!r}, {upper!r}) "
            f"at node {node!r}, query {_describe_query(query)!r}",
            invariant="bound-order",
            bound=bound,
            node=node,
            query=_describe_query(query),
        )
    slack = _REL_TOL * max(abs(lower), abs(upper), 1.0)
    if lower > upper + slack or upper < -slack:
        raise InvariantViolation(
            f"{bound}: invalid bound interval [{lower!r}, {upper!r}] "
            f"at node {node!r}, query {_describe_query(query)!r} "
            "(requires lower <= upper and upper >= 0)",
            invariant="bound-order",
            bound=bound,
            node=node,
            query=_describe_query(query),
        )


def check_bound_pairs(
    lowers: FloatArray, uppers: FloatArray, *, bound: str, node: int, queries: FloatArray
) -> None:
    """:func:`check_bound_pair` on every row of a batched evaluation."""
    for lower, upper, query in zip(lowers.tolist(), uppers.tolist(), queries.tolist()):
        check_bound_pair(lower, upper, bound=bound, node=node, query=query)


def check_leaf_containment(
    exact: float,
    lower: float,
    upper: float,
    *,
    bound: str,
    node: int | None = None,
    query: PointLike | None = None,
) -> None:
    """Validate ``LB <= F <= UB`` on an exactly evaluated leaf.

    This is the paper's correctness condition checked directly: the
    vectorised exact kernel sum of a leaf must lie inside the bound
    interval that the provider previously advertised for that leaf.
    """
    slack = _REL_TOL * max(abs(exact), abs(lower), abs(upper), 1.0)
    if exact < lower - slack or exact > upper + slack:
        raise InvariantViolation(
            f"{bound}: exact leaf sum {exact!r} escapes its bound interval "
            f"[{lower!r}, {upper!r}] at node {node!r}, "
            f"query {_describe_query(query)!r}",
            invariant="leaf-containment",
            bound=bound,
            node=node,
            query=_describe_query(query),
        )


def check_monotone_tightening(
    previous_lower: float,
    previous_upper: float,
    lower: float,
    upper: float,
    *,
    bound: str,
    node: int | None = None,
    query: PointLike | None = None,
) -> None:
    """Validate that a refinement step only tightened the global interval.

    Replacing a node's bounds by its children's (or by the exact leaf
    sum) must never loosen ``[LB(q), UB(q)]``; a widening step means
    some child interval is not contained in its parent's.
    """
    slack = _REL_TOL * max(abs(previous_lower), abs(previous_upper), 1.0)
    if lower < previous_lower - slack or upper > previous_upper + slack:
        raise InvariantViolation(
            f"{bound}: refinement loosened the global interval "
            f"[{previous_lower!r}, {previous_upper!r}] -> "
            f"[{lower!r}, {upper!r}] at node {node!r}, "
            f"query {_describe_query(query)!r}",
            invariant="monotone-tightening",
            bound=bound,
            node=node,
            query=_describe_query(query),
        )


def check_kernel_values(values: object, *, kernel: str) -> None:
    """Validate kernel evaluations: finite and non-negative everywhere."""
    import numpy as np

    array = np.asarray(values, dtype=np.float64)
    if array.size and (not bool(np.isfinite(array).all()) or float(array.min()) < 0.0):
        offender = float(array.min()) if bool(np.isfinite(array).all()) else math.nan
        raise InvariantViolation(
            f"kernel {kernel!r} produced invalid values (min {offender!r}); "
            "profiles must be finite and >= 0",
            invariant="kernel-nonnegative",
            bound=kernel,
        )


def check_eps_agreement(
    returned: float,
    exact: float,
    eps: float,
    atol: float,
    *,
    method: str,
    query: PointLike | None = None,
) -> None:
    """Validate the εKDV contract of a deterministic method's answer.

    The returned density must lie within ``(1 ± eps)`` of the exact
    value, up to the caller's absolute floor ``atol`` plus rounding
    slack.
    """
    slack = atol + _REL_TOL * max(abs(exact), 1.0)
    if abs(returned - exact) > eps * exact + slack:
        raise InvariantViolation(
            f"method {method!r} returned {returned!r} for exact density "
            f"{exact!r}; violates the (1 ± {eps}) relative-error contract "
            f"(atol={atol}) at query {_describe_query(query)!r}",
            invariant="eps-agreement",
            bound=method,
            query=_describe_query(query),
        )
