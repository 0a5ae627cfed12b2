"""Dense linear-algebra kernels shared by every decomposition routine.

All matrices are real, dense, row-major ``numpy`` arrays of float64.  The
functions here are deterministic and pure; randomness only enters through
the sketching layer.

A matrix is validated once, by ``as_matrix``, where it enters the library:
in the public function that receives it from the caller.  The kernels
``qr_thin``, ``qr_stacked``, ``cholesky_qr2``, ``svd_thin``, ``two_norm``
and ``complete_orthonormal`` take only arrays their callers validated or
computed, so they check shapes but do not scan the entries again.

Two QR kernels factor a row stack of blocks without forming Q in full, and
both return a Q whose ``rows(lo, hi, z=None)`` forms a row block of it or
that block's product with an n-column matrix.  ``cholesky_qr2`` is the fast
route, all BLAS-3 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44,
2015); it declines (returns None) where it cannot be trusted, and the
caller then runs the Householder route ``qr_stacked``.  On a 2-core
OpenBLAS host a Householder QR (geqrf) of a 20000-by-200 block runs at
about 10 GFLOP/s; the gemms CholeskyQR2 is built from run at about
57 GFLOP/s.

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
    "ImplicitQ",
    "qr_stacked",
    "CHOLQR_ORTH_TOL",
    "CholeskyQ",
    "cholesky_qr2",
    "svd_thin",
    "two_norm",
    "relative_error",
    "select_columns",
    "select_rows",
    "complete_orthonormal",
]


# CholeskyQR2's first pass loses about kappa^2 * eps of orthogonality; past
# this loss (kappa beyond about 1e7) it declines and Householder QR runs
CHOLQR_ORTH_TOL = 1e-2


class DimensionError(ValueError):
    """Raised when matrix shapes are incompatible with an operation."""


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when an operation requires full rank and the input lacks it."""


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_index_list(idx, dim, name="indices"):
    """Validate an ordered list of distinct zero-based indices below ``dim``."""
    ind = np.asarray(idx, dtype=np.intp).ravel()
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
class ImplicitQ:
    """Q factor of a Householder QR, kept in compact-WY form.

    Q = I - V T V^T (Schreiber & Van Loan, 1989), with V the m-by-n unit
    lower-trapezoidal reflectors and T the n-by-n upper-triangular factor;
    the thin factor is Q[:, :n].  ``w`` holds T V[:n]^T, so a row block of
    the thin factor, or its product with an n-column matrix, costs one gemm
    against the matching rows of V.
    """

    v: np.ndarray
    t: np.ndarray
    w: np.ndarray

    def rows(self, lo, hi, z=None):
        """Q[lo:hi], or Q[lo:hi] @ z when ``z`` (n rows) is given."""
        n = self.v.shape[1]
        top = min(hi, n)  # rows of the identity block I[:, :n] in range
        if z is None:
            out = -(self.v[lo:hi] @ self.w)
            k = np.arange(lo, top)
            out[k - lo, k] += 1.0
        else:
            out = -(self.v[lo:hi] @ (self.w @ z))
            out[: max(top - lo, 0)] += z[lo:top]
        return out

    def complement(self, c):
        """Q[:, n:n+c]: ``c`` orthonormal columns orthogonal to the thin factor."""
        n = self.v.shape[1]
        out = -(self.v @ (self.t @ self.v[n:n + c].T))
        out[n:n + c] += np.eye(c)
        return out


def qr_stacked(blocks):
    """Householder QR of the row stack of ``blocks``, with Q left implicit.

    Returns (q, r): ``q`` an :class:`ImplicitQ` and ``r`` the n-by-n upper
    triangular factor, bitwise equal to ``np.linalg.qr``'s (both run the
    same geqrf).  The stack is freed once factored, and the reflectors are
    turned into V in the factored buffer itself.  T comes from V^T V by the
    column-by-column recursion of LAPACK's dlarft, which also covers
    tau = 0 (a reflector that is the identity).  Requires rows >= cols.
    """
    x = np.vstack(blocks)
    m, n = x.shape
    if m < n:
        raise DimensionError(f"qr_stacked needs rows >= cols, got {m}x{n}")
    h, tau = np.linalg.qr(x, mode="raw")
    del x
    v = h.T  # m-by-n view of the factored buffer
    r = np.triu(v[:n])
    v[:n] = np.tril(v[:n], -1)
    v[:n].flat[:: n + 1] = 1.0
    g = v.T @ v
    t = np.zeros((n, n))
    for i in range(n):
        t[i, i] = tau[i]
        t[:i, i] = -tau[i] * (t[:i, :i] @ g[:i, i])
    return ImplicitQ(v=v, t=t, w=t @ v[:n].T), r


@dataclass(frozen=True)
class CholeskyQ:
    """Q factor of a CholeskyQR2, Q = Q1 R2^{-1}, kept as Q1 and R2^{-1}.

    A row block of Q, or its product with an n-column matrix, costs one
    gemm against the matching rows of Q1; Q itself is never formed.
    """

    q1: np.ndarray
    r2_inv: np.ndarray

    def rows(self, lo, hi, z=None):
        """Q[lo:hi], or Q[lo:hi] @ z when ``z`` (n rows) is given."""
        right = self.r2_inv if z is None else self.r2_inv @ z
        return self.q1[lo:hi] @ right


def cholesky_qr2(blocks):
    """CholeskyQR2 of the row stack of ``blocks``, or None where it cannot be trusted.

    R1 = chol(X^T X), Q1 = X R1^{-1}; R2 = chol(Q1^T Q1), R = R2 R1 and
    Q = Q1 R2^{-1}.  X^T X is summed block by block and each block of Q1
    is written in place, so the stack X is never copied.  Returns (q, r):
    ``q`` a :class:`CholeskyQ` and ``r`` the n-by-n upper-triangular
    factor.  Declines (None) when the stack has fewer rows than columns, a
    Cholesky fails, the Gram matrix overflows, or ||Q1^T Q1 - I||_F
    exceeds ``CHOLQR_ORTH_TOL``.  Where it accepts, min|R_ii| / max|R_ii|
    >= 1/kappa, so a rank test on R decides as it would on the Householder
    R.  The inverses are of triangular factors, whose LU needs no pivoting.
    """
    m, n = sum(x.shape[0] for x in blocks), blocks[0].shape[1]
    if m < n:
        return None
    # an overflowed Gram matrix leaves NaNs, which "not <=" declines quietly
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r1 = np.linalg.cholesky(sum(x.T @ x for x in blocks)).T
            r1_inv = np.linalg.inv(r1)
            q1 = np.empty((m, n))
            lo = 0
            for x in blocks:
                np.matmul(x, r1_inv, out=q1[lo:lo + x.shape[0]])
                lo += x.shape[0]
            g = q1.T @ q1
            if not np.linalg.norm(g - np.eye(n)) <= CHOLQR_ORTH_TOL:
                return None
            r2 = np.linalg.cholesky(g).T
        except np.linalg.LinAlgError:
            return None
    return CholeskyQ(q1=q1, r2_inv=np.linalg.inv(r2)), r2 @ r1


def svd_thin(a):
    """Thin SVD: returns (U, s, V) with A = U @ diag(s) @ V.T, s non-increasing."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def two_norm(a):
    """Spectral norm (largest singular value)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
    columns are a deterministic orthonormal basis of the complement.
    """
    m, n = q.shape
    if m == n:
        return q
    full, r = np.linalg.qr(q, mode="complete")
    # qr may flip column signs relative to q; undo so the leading block is q.
    signs = np.sign(np.diag(r[:n, :n]))
    signs[signs == 0] = 1.0
    full[:, :n] *= signs
    return full
