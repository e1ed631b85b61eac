"""The compute-backend interface: the swappable unit of bound evaluation.

A :class:`ComputeBackend` owns the *batched* numerical kernels of the
refinement loop — per-node bound evaluation (``node_bounds_batch``) and
exact leaf sums (``leaf_exact_batch``) — for a given
:class:`~repro.core.bounds.base.BoundProvider`. The refinement engines
route every batched evaluation through the active backend instead of
calling the provider directly, which carves out exactly the surface a
compiled implementation (numba, a future C extension, ...) must cover:
the closed-form Σd²/Σd⁴ aggregate bounds of the paper's Lemma 3 and the
Gaussian leaf kernels.

Design constraints, in priority order:

* **Correctness is non-negotiable**: whatever a backend computes must
  keep ``LB <= F <= UB`` per node — the contracts layer
  (``REPRO_CHECK_INVARIANTS=1``) validates backends exactly as it
  validates providers, via the ``checked_*`` variants below.
* The :class:`~repro.core.backends.numpy_backend.NumpyBackend` reference
  delegates straight to the provider methods and is therefore
  **bit-identical** to the historical engine behaviour.
* Alternative backends may differ from numpy in floating-point rounding
  (different summation orders), but never beyond what the engines
  already absorb: ε answers stay inside the ``(1 ± eps)`` envelope, and
  τ masks stay bit-identical because boundary-tight decisions are
  re-canonicalised through the scalar provider path
  (:func:`~repro.core.engine.exhausted_exact`), which no backend
  replaces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro._types import FloatArray
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTreeNode

__all__ = ["ComputeBackend"]


class ComputeBackend(ABC):
    """Batched bound/leaf evaluation strategy for a bound provider.

    Backends are stateless flyweights: one instance serves every engine
    and every provider, and all per-dataset state stays on the provider
    and the tree nodes. ``releases_gil`` advertises whether the hot
    loops run outside the CPython GIL (compiled backends), which the
    renderer uses to decide whether thread workers can scale.
    """

    #: Registry name (``"numpy"``, ``"numba"``, ...).
    name: str = "abstract"
    #: Whether the batched kernels run without holding the GIL.
    releases_gil: bool = False

    @classmethod
    @abstractmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment."""

    @abstractmethod
    def node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """``(LB[m], UB[m])`` for one node over an ``(m, d)`` query batch.

        Must satisfy the same soundness contract as
        :meth:`~repro.core.bounds.base.BoundProvider.node_bounds_batch`:
        each returned pair encloses the node's true weighted kernel sum.
        """

    @abstractmethod
    def leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        """Exact weighted kernel sums of a leaf for an ``(m, d)`` batch."""

    # -- checked variants ---------------------------------------------------
    #
    # Mirrors the provider's checked/unchecked split: the engine selects
    # the checked entry points once per batch when invariant checking is
    # enabled, so the unchecked hot path pays no flag test. The default
    # implementations validate this backend's own output through the
    # contracts helpers, so a compiled backend is held to the identical
    # soundness bar as the reference.

    def checked_node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_batch` with every pair contract-validated."""
        from repro.contracts.runtime import check_bound_pairs

        lowers, uppers = self.node_bounds_batch(provider, node, queries, queries_sq)
        bound = f"{type(provider).__name__}[{self.name}]"
        check_bound_pairs(lowers, uppers, bound=bound, node=node.node_id, queries=queries)
        return lowers, uppers

    def checked_leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        """:meth:`leaf_exact_batch` with the kernel-value contract validated."""
        from repro.contracts.runtime import check_kernel_values

        values = self.leaf_exact_batch(provider, node, queries, queries_sq)
        check_kernel_values(values, kernel=provider.kernel.name)
        return values

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
