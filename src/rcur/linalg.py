"""Dense linear-algebra kernels shared by every decomposition routine.

All matrices are real, dense, row-major ``numpy`` arrays of float64.  The
functions here are deterministic and pure; randomness only enters through
the sketching layer.

A matrix is validated once, by ``as_matrix``, where it enters the library:
each public entry point calls it once per input matrix.  It then passes
the array to private twins of the public stages (``gsvd._gsvd``,
``gsvd._randomized_gsvd``, ``rsvd._rsvd``, ``sketch._range_finder``,
``gcur._middle_matrix``), which do not scan it again; the public stages
keep their checks for outside callers.  ``selection.ldeim_select`` checks
only the basis columns it copies, from the scaling it computes anyway.
The kernels ``qr_thin``, ``qr_stack``, ``stack_rank_deficient``,
``cholesky_qr2``, ``two_norm`` and ``complete_orthonormal`` take only
arrays their callers validated or computed, so they check shapes but do
not scan the entries again.

``qr_stack`` is the one place that picks how a row stack of blocks is
QR-factored; the exact GSVD's A (the RSVD's G) and its stack [B; R_A], the
middle matrices' C and R^T and every sketch basis of
``sketch.range_finder`` go through it.  It runs CholeskyQR2
(``cholesky_qr2``), all BLAS-3
(Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44, 2015); its two
triangular factors are inverted by 2-by-2 recursive blocking, whose
off-diagonal blocks are gemms (Du Croz & Higham, IMA J. Numer. Anal. 12,
1992), not by a pivoted LU of the whole factor.  Where that declines (a
failed Cholesky, kappa beyond about 1e7 with the columns scaled to unit
norm, an overflowing Gram matrix, a singular stack) it runs one
Householder QR of the stack with an explicit Q.  On a 2-core OpenBLAS
host a Householder QR (geqrf) of a 20000-by-200 block runs at about 10
GFLOP/s; the gemms CholeskyQR2 is built from run at about 57 GFLOP/s.  On skinny blocks a Householder QR
even runs slower at 2 OpenBLAS threads than at 1: 10.6 against 5.3 ms at
1000-by-90 on the same host.

Each CholeskyQR2 pass is one ``_gram_cholesky``: R = chol(sum X_i^T X_i)^T
and R^{-1}, or None where the Cholesky fails or R is not finite.  The
randomized GSVD calls it on B alone, which reduces B to its n-by-n
triangle without a QR of its d rows (``gsvd``'s docstring gives the rule
that checks the result).

``qr_thin`` (a Householder QR) is left to ``qr_stack``'s fallback and to
the complement ``gsvd`` fills in for small betas; ``complete_orthonormal``
runs its own complete Householder QR.

Every kernel calls NumPy's LAPACK and BLAS, never SciPy's: the two packages
may each bundle their own OpenBLAS build, and when both are loaded their
thread pools contend for the same cores and slow each other down.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "RankDeficiencyError",
    "as_matrix",
    "as_index_list",
    "qr_thin",
    "CHOLQR_ORTH_TOL",
    "CholeskyQ",
    "cholesky_qr2",
    "qr_stack",
    "stack_rank_deficient",
    "two_norm",
    "relative_error",
    "select_columns",
    "select_rows",
    "complete_orthonormal",
]


# CholeskyQR2's first pass loses about kappa^2 * eps of orthogonality, kappa
# that of the stack with unit-norm columns; past this loss (kappa beyond
# about 1e7) it declines and ``qr_stack`` runs Householder QR
CHOLQR_ORTH_TOL = 1e-2

# ``_inv_upper`` hands blocks of at most this order to ``np.linalg.inv``, so
# an inverse of order <= _INV_LEAF is bitwise the LU-based one
_INV_LEAF = 128


class DimensionError(ValueError):
    """Raised when matrix shapes are incompatible with an operation."""


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when an operation requires full rank and the input lacks it."""


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-d float64 array with finite entries;
    a complex ``a`` is refused, since a cast would drop its imaginary part."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError(f"{name} must be real, got dtype {m.dtype}")
    m = m.astype(np.float64, copy=False)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_index_list(idx, dim, name="indices"):
    """Validate an ordered list of distinct zero-based indices below ``dim``;
    a float or bool array is refused, not cast."""
    ind = np.asarray(idx)
    if ind.size and ind.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {ind.dtype}")
    ind = ind.astype(np.intp, copy=False).ravel()
    if ind.size and (ind.min() < 0 or ind.max() >= dim):
        raise IndexError(f"{name} out of range for dimension {dim}: {ind}")
    if len(np.unique(ind)) != len(ind):
        raise ValueError(f"{name} contains duplicates: {ind}")
    return ind


def qr_thin(a):
    """Thin QR factorization A = QR with Q m-by-n orthonormal, R upper triangular.

    Requires rows >= cols.
    """
    m, n = a.shape
    if m < n:
        raise DimensionError(f"qr_thin needs rows >= cols, got {m}x{n}")
    q, r = np.linalg.qr(a, mode="reduced")
    return q, r


@dataclass(frozen=True)
class CholeskyQ:
    """Q factor of a stacked QR, Q = Q1 R2^{-1}, kept as Q1 and R2^{-1}.

    A row block of Q, or its product with an n-column matrix, costs one
    gemm against the matching rows of Q1; on the CholeskyQR2 route Q itself
    is never formed.  The Householder route has Q = Q1 and no right factor
    (``r2_inv`` None).
    """

    q1: np.ndarray
    r2_inv: np.ndarray | None = None

    def rows(self, lo, hi, z=None):
        """Q[lo:hi], or Q[lo:hi] @ z when ``z`` (n rows) is given."""
        if self.r2_inv is not None:
            z = self.r2_inv if z is None else self.r2_inv @ z
        return self.q1[lo:hi] if z is None else self.q1[lo:hi] @ z


def _inv_upper(r):
    """Inverse of the nonsingular upper-triangular ``r``, itself upper triangular.

    2-by-2 recursive blocking, inv([[A, B], [0, D]]) =
    [[A^-1, -A^-1 B D^-1], [0, D^-1]]: every flop outside the diagonal
    leaves is a gemm, about 2n^3/3 of them, where ``np.linalg.inv`` runs a
    pivoted LU and two triangular solves of the whole matrix (8n^3/3).
    Leaves of order at most ``_INV_LEAF`` go to ``np.linalg.inv``.
    """
    n = r.shape[0]
    if n <= _INV_LEAF:
        return np.linalg.inv(r)
    h = n // 2
    x = np.zeros((n, n))
    x[:h, :h] = a_inv = _inv_upper(r[:h, :h])
    x[h:, h:] = d_inv = _inv_upper(r[h:, h:])
    x[:h, h:] = -(a_inv @ r[:h, h:]) @ d_inv
    return x


def _gram_cholesky(blocks):
    """One Cholesky QR pass over the row stack of ``blocks``: (R, R^{-1})
    with R = chol(sum X_i^T X_i)^T upper triangular, or None.

    X^T X is summed block by block, so the stack is never copied.  R^{-1}
    is ``_inv_upper``'s blocked inverse, bitwise ``np.linalg.inv`` up to
    order 128.  Declines (None) where the Cholesky fails or R or R^{-1} is
    not finite: an overflowing Gram matrix leaves infs or NaNs, which are
    declined quietly.  The shared first pass of ``cholesky_qr2`` and of
    the randomized GSVD's factor of B (``gsvd._gram_route``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r = np.linalg.cholesky(sum(x.T @ x for x in blocks)).T
            r_inv = _inv_upper(r)
        except np.linalg.LinAlgError:
            return None
    if not (np.isfinite(r).all() and np.isfinite(r_inv).all()):
        return None
    return r, r_inv


def cholesky_qr2(blocks):
    """CholeskyQR2 of the row stack of ``blocks``, or None where it cannot be trusted.

    R1 = chol(X^T X), Q1 = X R1^{-1}; R2 = chol(Q1^T Q1), R = R2 R1 and
    Q = Q1 R2^{-1}.  Both passes are ``_gram_cholesky``'s, and each block
    of Q1 is written in place, so the stack X is never copied.  Returns
    (q, r): ``q`` a :class:`CholeskyQ` and ``r`` the n-by-n
    upper-triangular factor.  Declines (None) when the stack has fewer
    rows than columns, either pass declines, or ||Q1^T Q1 - I||_F, read
    as ||R2^T R2 - I||_F, exceeds ``CHOLQR_ORTH_TOL``.
    """
    m, n = sum(x.shape[0] for x in blocks), blocks[0].shape[1]
    if m < n:
        return None
    first = _gram_cholesky(blocks)
    if first is None:
        return None
    r1, r1_inv = first
    q1 = np.empty((m, n))
    lo = 0
    for x in blocks:
        np.matmul(x, r1_inv, out=q1[lo:lo + x.shape[0]])
        lo += x.shape[0]
    second = _gram_cholesky([q1])
    if second is None:
        return None
    r2, r2_inv = second
    if not np.linalg.norm(r2.T @ r2 - np.eye(n)) <= CHOLQR_ORTH_TOL:
        return None
    return CholeskyQ(q1=q1, r2_inv=r2_inv), r2 @ r1


def qr_stack(blocks):
    """Thin QR of the row stack of ``blocks``: (q, r) with q a :class:`CholeskyQ`.

    The only place that picks the QR route.  CholeskyQR2 where it accepts
    the stack; otherwise one Householder QR (``qr_thin``) of the stack with
    Q formed explicitly, r then bitwise equal to ``np.linalg.qr``'s.
    ``stack_rank_deficient`` tells whether the stack was numerically
    singular.  Requires rows >= cols.
    """
    qr = cholesky_qr2(blocks)
    if qr is not None:
        return qr
    q, r = qr_thin(np.vstack(blocks))
    return CholeskyQ(q1=q), r


def stack_rank_deficient(q, r):
    """Whether the stack ``qr_stack`` factored into (q, r) is numerically
    singular: the singular values of r with each column divided by its
    largest entry, the smallest at most n * eps times the largest.

    r D is the R of the stack times a diagonal D, so rank, and this test,
    ignore column scale, as CholeskyQR2 does: it declines past a scaled
    kappa of about 1e7, so a CholeskyQR2 r (``q.r2_inv`` set) is never
    singular.  Unscaled, a block far larger in some columns (the RSVD's
    second stage, for an ill-conditioned G) would decide; r's diagonal
    alone can stay 100x above its singular values.  Each entry counts as
    accurate relative to its column, so a column of roundoff passes.
    """
    if q.r2_inv is not None:
        return False
    top = np.abs(r).max(axis=0)
    sv = np.linalg.svd(r / np.where(top > 0.0, top, 1.0), compute_uv=False)
    return bool(sv[-1] <= r.shape[1] * np.finfo(float).eps * sv[0])


def two_norm(a):
    """Spectral norm (largest singular value), s * sqrt(lambda_max(x^T x)).

    x = a / s with s = max|a_ij|, so the Gram matrix, taken on the smaller
    side, can neither overflow nor underflow.  sigma_max is well conditioned,
    so squaring costs it no relative accuracy, and at 2000-by-300 this runs
    about 3x faster than an SVD on a 2-core OpenBLAS host.
    """
    s = np.abs(a).max(initial=0.0)
    if s == 0.0:
        return 0.0
    x = a / s
    gram = x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T
    return float(s * np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def relative_error(a, ahat):
    """Spectral-norm relative error ||A - Ahat|| / ||A||."""
    a = as_matrix(a, "A")
    ahat = as_matrix(ahat, "Ahat")
    if a.shape != ahat.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {ahat.shape}")
    denom = two_norm(a)
    if denom == 0.0:
        raise ValueError("reference matrix has zero norm")
    return two_norm(a - ahat) / denom


def select_columns(a, idx):
    """Copy of the columns of ``a`` addressed by ``idx``, in ``idx`` order."""
    a = as_matrix(a)
    return a[:, as_index_list(idx, a.shape[1], "column indices")]


def select_rows(a, idx):
    """Copy of the rows of ``a`` addressed by ``idx``, in ``idx`` order."""
    a = as_matrix(a)
    return a[as_index_list(idx, a.shape[0], "row indices")]


def complete_orthonormal(q):
    """Extend an m-by-n orthonormal-column matrix to a full m-by-m orthogonal one.

    The first n columns of the result equal ``q`` exactly; the remaining
    columns are a deterministic orthonormal basis of the complement.  A
    ``q`` whose columns are orthonormal only roughly (the RSVD's B-side
    factor when G is ill-conditioned) is kept as given, so a product it
    carries survives the completion.
    """
    m, n = q.shape
    if m == n:
        return q
    full = np.linalg.qr(q, mode="complete")[0]
    full[:, :n] = q
    return full
