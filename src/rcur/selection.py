"""Index selection: L-DEIM and the policy shared by every decomposition.

L-DEIM with budget khat = k is DEIM, so one pivot loop serves both
selectors and the budget khat is the only selection knob: ``khat=None``
means DEIM, read as khat = k by :func:`leading_columns`.

The loop deflates each next column against the chosen pivots.  The pivot
block of the deflated columns is lower triangular, since column j is zero
on the first j pivots (the partial-pivoting LU structure of DEIM, Sorensen
& Embree, SIAM J. Sci. Comput. 38, 2016).  So the loop grows that block's
inverse by one row per step instead of factoring the block again.  Step j
costs one m-by-j gemv plus O(j^2) for the inverse; there is no
factorization.  The working copy is column-major and is first scaled by a
power of two so that its largest entry lies in [0.5, 1).  That scaling is
exact, so the indices do not depend on the basis scale, and it keeps
1/pivot finite on tiny-scaled bases.

All selectors return an ``intp`` array of distinct zero-based row indices
of the input basis matrix: a pivot that lands on a row already chosen is
refused as rank deficient, like a roundoff-level one.  Every argmax breaks
ties by lowest index, so results are fully deterministic.  CUR, GCUR and
RSVD-CUR all select through :func:`select_indices`.
"""
from __future__ import annotations

import numpy as np

from .linalg import DimensionError, RankDeficiencyError

__all__ = [
    "deim_select",
    "ldeim_select",
    "default_khat",
    "check_rank",
    "leading_columns",
    "select_indices",
    "deim_growth_bound",
]


def _pivot_floor(v):
    """Per column, the largest |pivot| that is roundoff: max(m, k) eps ||v_j||.

    A pivot at or below it means the column lies in the span of the earlier
    ones to working precision, and its interpolation amplification is
    unbounded.
    """
    return max(v.shape) * np.finfo(float).eps * np.sqrt(
        np.einsum("ij,ij->j", v, v))


def ldeim_select(v, k):
    """Hybrid L-DEIM selection of ``k`` indices from an m-by-khat basis.

    The first khat indices come from DEIM with in-place deflation of the
    next column only; the remaining k - khat are the largest squared row
    norms of the deflated basis, excluding already-chosen rows.  A pivot at
    roundoff level relative to its undeflated column (``_pivot_floor``), or
    on a row already chosen, is refused as rank deficient: in exact
    arithmetic the deflated column is zero on the chosen rows.

    ``v`` must be real and 2-d.  Its one F-ordered copy is scaled by the
    power of two that puts its largest entry in [0.5, 1); that entry is NaN
    or inf exactly when the copy is not finite, so it is also the
    finiteness check.  ``t_inv`` holds the inverse of the lower-triangular
    pivot block ``v[p[:j+1], :j+1]`` of the deflated columns and gains one
    row per step.

    The DEIM indices have the prefix property: for any j <= khat, the
    first j of ``ldeim_select(v, k)`` are ``deim_select(v[:, :j])``,
    bitwise, since step i reads only columns <= i + 1.  So one selection at
    the widest budget gives every narrower DEIM selection.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        raise ValueError(f"basis must be real, got dtype {v.dtype}")
    if v.ndim != 2:
        raise DimensionError(f"basis must be 2-dimensional, got shape {v.shape}")
    v = np.array(v, dtype=np.float64, order="F")
    m, khat = v.shape
    if not 1 <= khat <= k:
        raise ValueError(f"basis has {khat} columns, L-DEIM needs 1 to k={k}")
    check_rank(k)
    if k > m:
        raise ValueError(f"cannot select {k} indices from {m} rows")
    top = np.abs(v).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("basis contains non-finite entries")
    np.ldexp(v, -np.frexp(top)[1], out=v)
    floor = _pivot_floor(v)
    p = np.empty(khat, dtype=np.intp)
    chosen = np.zeros(m, dtype=bool)
    t_inv = np.zeros((khat, khat))
    for j in range(khat):
        col = v[:, j]
        p[j] = np.abs(col).argmax()
        piv = col[p[j]]
        if abs(piv) <= floor[j] or chosen[p[j]]:
            raise RankDeficiencyError(f"zero pivot at L-DEIM step {j}")
        chosen[p[j]] = True
        if j + 1 < khat:
            np.divide(v[p[j], :j] @ t_inv[:j, :j], -piv, out=t_inv[j, :j])
            t_inv[j, j] = 1.0 / piv
            nxt = v[:, j + 1]
            nxt -= v[:, : j + 1] @ (t_inv[: j + 1, : j + 1] @ nxt[p[: j + 1]])
    if k > khat:
        scores = np.einsum("ij,ij->i", v, v)
        scores[p] = -np.inf
        # stable sort on (-score, index) keeps ties at the lowest index
        order = np.argsort(-scores, kind="stable")
        p = np.concatenate([p, order[: k - khat]])
    return p


def deim_select(v):
    """DEIM over the columns of ``v`` (m-by-k, k <= m): L-DEIM at khat = k."""
    v = np.asarray(v)
    # ldeim_select refuses a v that is not 2-d before it reads k
    return ldeim_select(v, v.shape[-1] if v.ndim else 0)


def default_khat(k):
    """L-DEIM basis budget used when none is given: ceil(k/2), at least 1."""
    return max(1, -(-k // 2))


def check_rank(k, khat=None):
    """Refuse a target rank k that is not an integer >= 1, or an L-DEIM
    budget khat that is not an integer in 1..k; a bool is no integer here.
    """
    if not np.issubdtype(type(k), np.integer) or k < 1:
        raise ValueError(f"target rank k must be an integer >= 1, got {k!r}")
    if khat is not None and not (np.issubdtype(type(khat), np.integer)
                                 and 1 <= khat <= k):
        raise ValueError(f"L-DEIM budget must be an integer with "
                         f"1 <= khat <= k={k}, got {khat!r}")


def leading_columns(k, khat=None):
    """Basis columns a rank-k selection reads: khat, or k when None (DEIM)."""
    return k if khat is None else khat


def select_indices(basis, k, khat=None):
    """``k`` row indices of ``basis`` by L-DEIM on its ``leading_columns``.

    The one selection policy: CUR, GCUR and RSVD-CUR all call it.  Raises
    ValueError for a k or khat that ``check_rank`` refuses, and when the
    basis has fewer columns than the selection reads, instead of silently
    selecting from a narrower basis.  ``ldeim_select`` checks the columns
    read as it copies them; columns past them are never read, so a basis
    that is not a 2-d array (a list would be copied whole) is refused.
    """
    if not isinstance(basis, np.ndarray) or basis.ndim != 2:
        raise DimensionError(f"basis must be a 2-d array, got {type(basis).__name__}"
                             f" of shape {getattr(basis, 'shape', None)}")
    check_rank(k, khat)
    width = leading_columns(k, khat)
    if width > basis.shape[1]:
        raise ValueError(
            f"selection needs {width} basis columns for rank {k}, "
            f"but the basis has {basis.shape[1]}"
        )
    return ldeim_select(basis[:, :width], k)


def deim_growth_bound(m, k):
    """Diagnostic growth bound sqrt(m*k/3) * 2**k on the pivoted-block inverse."""
    return np.sqrt(m * k / 3.0) * 2.0**k
