"""Index selection: L-DEIM and the policy shared by every decomposition.

L-DEIM with budget khat = k is DEIM, so one pivot loop serves both
selectors and the budget khat is the only selection knob: ``khat=None``
means DEIM, read as khat = k by :func:`leading_columns`.

All selectors return distinct zero-based row indices of the input basis
matrix.  Every argmax breaks ties by lowest index, so results are fully
deterministic.  CUR, GCUR and RSVD-CUR all select through
:func:`select_indices`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RankDeficiencyError, as_matrix

__all__ = [
    "SelectionResult",
    "deim_select",
    "ldeim_select",
    "default_khat",
    "check_rank",
    "leading_columns",
    "select_indices",
    "deim_growth_bound",
]


@dataclass(frozen=True)
class SelectionResult:
    indices: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.indices, dtype=np.intp)
        if len(np.unique(ind)) != len(ind):
            raise ValueError(f"selected indices are not distinct: {ind}")
        object.__setattr__(self, "indices", ind)


def _pivot_floor(v):
    """Per column, the largest |pivot| that is roundoff: max(m, k) eps ||v_j||.

    A pivot at or below it means the column lies in the span of the earlier
    ones to working precision, and its interpolation amplification is
    unbounded.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", v, v))
    big = np.isinf(norms)
    if big.any():
        # the squares overflowed: rescale those columns by their largest entry
        top = np.abs(v[:, big]).max(axis=0)
        norms[big] = top * np.linalg.norm(v[:, big] / top, axis=0)
    return max(v.shape) * np.finfo(float).eps * norms


def _ldeim(v, k):
    """The selection loop on a validated m-by-khat basis ``v``, overwritten."""
    m, khat = v.shape
    if khat > k:
        raise ValueError(f"basis has {khat} columns but target rank is {k}")
    if k > m:
        raise ValueError(f"cannot select {k} indices from {m} rows")
    floor = _pivot_floor(v)
    p = np.empty(khat, dtype=np.intp)
    for j in range(khat):
        p[j] = int(np.argmax(np.abs(v[:, j])))
        if abs(v[p[j], j]) <= floor[j]:
            raise RankDeficiencyError(f"zero pivot at L-DEIM step {j}")
        if j + 1 < khat:
            c = np.linalg.solve(v[p[: j + 1]][:, : j + 1], v[p[: j + 1], j + 1])
            v[:, j + 1] -= v[:, : j + 1] @ c
    if k > khat:
        scores = np.einsum("ij,ij->i", v, v)
        scores[p] = -np.inf
        # stable sort on (-score, index) keeps ties at the lowest index
        order = np.argsort(-scores, kind="stable")
        p = np.concatenate([p, order[: k - khat]])
    return SelectionResult(p)


def ldeim_select(v, k):
    """Hybrid L-DEIM selection of ``k`` indices from an m-by-khat basis.

    The first khat indices come from DEIM with in-place deflation of the
    next column only; the remaining k - khat are the largest squared row
    norms of the deflated basis, excluding already-chosen rows.  A pivot at
    roundoff level relative to its undeflated column (``_pivot_floor``) is
    refused as rank deficient.
    """
    return _ldeim(as_matrix(v, "basis").copy(), k)


def deim_select(v):
    """DEIM over the columns of ``v`` (m-by-k, k <= m): L-DEIM at khat = k."""
    v = as_matrix(v, "basis").copy()
    return _ldeim(v, v.shape[1])


def default_khat(k):
    """L-DEIM basis budget used when none is given: ceil(k/2), at least 1."""
    return max(1, -(-k // 2))


def check_rank(k, khat=None):
    """Refuse a target rank k < 1, or an L-DEIM budget khat outside 1..k."""
    if k < 1:
        raise ValueError(f"target rank k must be >= 1, got {k}")
    if khat is not None and not 1 <= khat <= k:
        raise ValueError(f"L-DEIM budget must satisfy 1 <= khat <= k={k}, "
                         f"got {khat}")


def leading_columns(k, khat=None):
    """Basis columns a rank-k selection reads: khat, or k when None (DEIM)."""
    return k if khat is None else khat


def select_indices(basis, k, khat=None):
    """``k`` row indices of ``basis`` by L-DEIM on its ``leading_columns``.

    Raises ValueError for a k or khat that ``check_rank`` refuses, and when
    the basis has fewer columns than the selection reads, instead of
    silently selecting from a narrower basis.
    """
    check_rank(k, khat)
    width = leading_columns(k, khat)
    if width > basis.shape[1]:
        raise ValueError(
            f"selection needs {width} basis columns for rank {k}, "
            f"but the basis has {basis.shape[1]}"
        )
    return ldeim_select(basis[:, :width], k).indices


def deim_growth_bound(m, k):
    """Diagnostic growth bound sqrt(m*k/3) * 2**k on the pivoted-block inverse."""
    return np.sqrt(m * k / 3.0) * 2.0**k
