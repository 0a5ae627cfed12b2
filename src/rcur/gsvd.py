"""Generalized SVD of a matrix pair (Van Loan form) and its randomized variant.

The pair (A, B) with A m-by-n, B d-by-n is factored as

    A = U diag(gamma) Y^T,    B = V diag(beta) Y^T,

with U, V orthonormal columns, Y n-by-n nonsingular, gamma_i^2 + beta_i^2 = 1
and gamma_i / beta_i non-increasing.  The exact GSVD reduces A to its
triangle first (Chan, ACM TOMS 8, 1982): A = Q_A R_A by ``linalg.qr_stack``,
the one place that picks a QR route.  The CS step (Paige & Saunders, SIAM
J. Numer. Anal. 18, 1981) QR-factors the stack [B; R_A] = QR and takes the
SVD W diag(gamma) Z^T of Q's n-by-n A-block; U = Q_A W.  The whole costs
O((m+d) n^2), and only the A-block, the B-side product Q_B Z and U are
formed, one gemm each.  The public functions form every column; the GCUR
constructors ask for the leading r columns their selection reads, and U,
V and Y are then formed for those r columns only.

The randomized GSVD factors B on its own first, R_B = chol(B^T B)^T from
one Gram matrix, and runs the CS step on the (w + n)-by-n stack
[R_B; Q^T A]; V = B R_B^{-1} V' is one d-by-c gemm for the c columns
formed.  So it QR-factors no block with B's d rows.  The Gram matrix
loses kappa(B)^2 eps, so the lift must add at most the orthogonality loss
V' already has, or roundoff; where it would add more, or the Cholesky
fails, the CS step runs on the stack [B; Q^T A] itself.

Sign convention: for each pair i the largest-magnitude entry of Y[:, i] is
positive.  U[:, i] (where it exists) flips with it, and so does V[:, i] for
each pair B carries, so both reconstructions hold; V's columns for the pairs
B lacks (beta below BETA_ZERO_TOL) complete those and take no sign.  So
neither the factors nor a sketch drawn against them (the second RSVD stage
sketches B^T U_1) depend on the column signs a QR route or LAPACK gives.
Only the beta = 0 block is canonicalized: inside any other cluster of equal
values LAPACK picks the basis, so the U, V and Y columns of the gamma = 0
pairs of a tall A of rank below n follow the QR route.  DEIM indices and
middle matrices do not depend on column signs at all.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DimensionError,
    RankDeficiencyError,
    _gram_cholesky,
    as_matrix,
    qr_stack,
    qr_thin,
    stack_rank_deficient,
)
from .sketch import SketchConfig, _range_finder

__all__ = ["GsvdFactors", "gsvd", "randomized_gsvd", "BETA_ZERO_TOL"]

# below this, a beta is flagged: the pair direction lies (numerically) outside
# the column space of B and diagonal solves against Sigma must be refused
BETA_ZERO_TOL = 1e-13


@dataclass(frozen=True)
class GsvdFactors:
    """GSVD factors of a pair.

    ``u`` has r <= n columns (r < n only on the sketched path, where the
    trailing gammas are exactly zero and carry no A-side directions).
    A beta below ``BETA_ZERO_TOL`` marks a pair outside B's column space.

    ``gsvd`` and ``randomized_gsvd`` return every column.  Only the GCUR
    constructors work on truncated factors, which they never return: there
    U, V and Y hold the leading columns the selection reads, and gamma and
    beta as many entries.
    """

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    @property
    def ratio(self):
        """Generalized values gamma / beta, with beta floored at 1e-300."""
        return self.gamma / np.maximum(self.beta, 1e-300)

    def reconstruct_a(self):
        r = self.u.shape[1]
        return self.u @ (self.gamma[:r, None] * self.y[:, :r].T)

    def reconstruct_b(self):
        return self.v @ (self.beta[:, None] * self.y.T)


def _cs_gsvd(a, b, cols=None):
    """Shared kernel: factor (a, b), n columns each, a with at most n rows.

    Returns factors where the a-side values (gamma) are non-increasing and
    the columns follow the module's sign convention.  The a-side orthonormal
    factor has rows(a) columns; both inputs are reproduced exactly up to
    roundoff.

    ``cols`` = r returns only the leading min(r, n) columns of U, V and Y
    (and as many gammas and betas): Q_B Z and R^T Z are formed for those
    columns only.  U and gamma are slices of the full call's; V and Y equal
    its columns up to the rounding of the narrower gemm.  A small beta
    among them makes the kernel form every column, since the beta = 0 block
    is rotated as a whole, and return the leading ones.

    Route: [B; A] = QR by ``qr_stack``; the SVD Q_A = W diag(gamma) Z^T of
    the formed A-block gives U = W and Y = R^T Z.  A has at most n rows, so
    that block is at most n-by-n: a tall A reaches the kernel as its
    triangle (``_gsvd``) or its sketch Q^T A.  The formed product
    Q_B Z = V diag(beta) gives beta (its column norms) and V, scaled in
    place in that product's buffer.  Every stack is rank-tested
    (``linalg.stack_rank_deficient``): a numerically singular one raises
    ``RankDeficiencyError``.

    Both inputs must be 2-d float arrays with finite entries and one column
    count: every caller has validated or computed them, so they are not
    checked again here.
    """
    (ra, n), d = a.shape, b.shape[0]
    q, r = qr_stack([b, a])
    if stack_rank_deficient(q, r):
        raise RankDeficiencyError("stacked pair [B; A] is rank deficient")
    # ra <= n rows: the full factors are the thin ones on a square block,
    # and Z stays n-by-n on a wide one
    w, s, zt = np.linalg.svd(q.rows(d, d + ra))
    z = zt.T
    gamma = np.zeros(n)
    gamma[:ra] = np.clip(s, 0.0, 1.0)

    keep = n if cols is None else min(cols, n)
    # the beta = 0 block is rotated as a whole below, so a small beta among
    # the leading columns makes the kernel form all n and keep the leading
    for c in (keep, n):
        v = q.rows(0, d, z[:, :c])
        beta = np.sqrt(np.einsum("ij,ij->j", v, v))
        small = beta < BETA_ZERO_TOL
        if c == n or not small.any():
            break
    y = r.T @ z[:, :c]
    w = w[:, :c]
    if small.any():
        # beta = 0 pairs all share the saturated a-side value 1, so the SVD
        # leaves their basis arbitrary within the block.  Canonicalize by
        # rotating the block to the SVD basis of its Y columns, which orders
        # the degenerate pairs by their actual a-side magnitude (the limit
        # of the generalized-value ordering).  Each has a U column: beta ~ 0
        # needs gamma ~ 1, and gamma is 0 past the A-block's rows.
        blk = np.flatnonzero(small)
        pb, sb, qbt = np.linalg.svd(y[:, blk], full_matrices=False)
        y[:, blk] = pb * sb
        w[:, blk] = w[:, blk] @ qbt.T
    # the module's sign convention, set by Y alone
    sign = np.where(y[np.abs(y).argmax(axis=0), np.arange(c)] < 0.0, -1.0, 1.0)
    y *= sign
    w *= sign[: w.shape[1]]
    # V is a fresh product, so it is scaled and signed in place; small-beta
    # columns are divided by +-1 and overwritten below
    v /= np.where(small, 1.0, beta) * sign
    if small.any():
        # directions absent from B: fill V there with columns orthonormal to
        # the good ones.  Zero columns appended to the good ones give tau = 0
        # in a Householder QR, so its trailing columns are the complement
        # (d-by-n at most, never the d-by-d completion); beta stays
        # (numerically) zero there.  The complement does not depend on the
        # good columns' signs, so it is the same on every QR route and takes
        # no sign from Y.  When B has fewer rows than columns it runs out;
        # the leftover columns are zeroed (they never enter a reconstruction).
        good = ~small
        v[:, small] = 0.0
        fill = np.flatnonzero(small)[: max(d - int(good.sum()), 0)]
        if fill.size:
            padded = np.hstack([v[:, good], np.zeros((d, fill.size))])
            v[:, fill] = qr_thin(padded)[0][:, -fill.size:]
    return GsvdFactors(u=w[:, :keep], v=v[:, :keep], y=y[:, :keep],
                       gamma=gamma[:keep], beta=beta[:keep])


def gsvd(a, b):
    """Deterministic GSVD of (A, B) with A m-by-n, B d-by-n, m >= n, d >= n."""
    return _gsvd(as_matrix(a, "A"), as_matrix(b, "B"))


def _check_columns(a, b):
    if b.shape[1] != a.shape[1]:
        raise DimensionError(
            f"pair must share a column count, got {a.shape} and {b.shape}")


def _gsvd(a, b, cols=None):
    """``gsvd`` on validated inputs, forming the leading ``cols`` columns of
    each factor (``_cs_gsvd``), or all of them when None."""
    _check_columns(a, b)
    m, n = a.shape
    if m < n or b.shape[0] < n:
        raise DimensionError(f"gsvd needs both matrices to have at least {n} "
                             f"rows, got {a.shape} and {b.shape}")
    q, r = qr_stack([a])
    f = _cs_gsvd(r, b, cols=cols)
    return replace(f, u=q.rows(0, m, f.u))


def randomized_gsvd(a, b, cfg: SketchConfig):
    """Randomized GSVD: exact GSVD of (Q Q^T A, B) on a sketched range of A.

    Q is the m-by-w range basis of A from ``range_finder``, w =
    ``cfg.width()`` = khat + p capped at min(m, n).  The U factor has w
    orthonormal columns spanning range(Q); B is factored exactly, A only
    through its projection U U^T A, which at the cap is A itself.  B needs
    at least n rows, as in ``gsvd``; A may have fewer (U stays orthonormal).

    B is factored first: R_B = chol(B^T B)^T, the CS step runs on
    [R_B; Q^T A] and V = B R_B^{-1} V' lifts its n-row V'.  The lift is
    kept only if ||V^T V - V'^T V'||_F <= max(||V'^T V' - I||_F, c n eps),
    c the columns of V: it may at most double the orthogonality loss V'
    has, or stay at roundoff.  Otherwise, and where the Cholesky fails
    (B^T B numerically singular, as for a B of deficient rank, or a Gram
    matrix that under- or overflows), the factors are those of the stack
    [B; Q^T A], bitwise, small-beta fill included.
    """
    return _randomized_gsvd(as_matrix(a, "A"), as_matrix(b, "B"), cfg)


def _randomized_gsvd(a, b, cfg: SketchConfig, cols=None):
    """``randomized_gsvd`` on validated inputs, forming the leading ``cols``
    columns of each factor (``_cs_gsvd``), or all of them when None."""
    _check_columns(a, b)
    if b.shape[0] < a.shape[1]:
        raise DimensionError(f"randomized gsvd needs B to have at least "
                             f"{a.shape[1]} rows, got {b.shape}")
    q = _range_finder(a, cfg.width(), cfg.seed)
    qta = q.T @ a
    factors = _gram_route(qta, b, cols)
    if factors is None:
        factors = _cs_gsvd(qta, b, cols=cols)
    return replace(factors, u=q @ factors.u)


def _gram_route(qta, b, cols):
    """``randomized_gsvd``'s factors through B's triangle, or None where
    that docstring's rule declines them.

    R_B and R_B^{-1} come from ``linalg._gram_cholesky``; Q_B = B R_B^{-1}
    is never formed, V is B (R_B^{-1} V'), a d-by-c gemm.  A stack
    [R_B; Q^T A] judged rank deficient declines too, so the rank is
    decided on B itself.
    """
    first = _gram_cholesky([b])
    if first is None:
        return None
    r_b, r_b_inv = first
    try:
        factors = _cs_gsvd(qta, r_b, cols=cols)
    except RankDeficiencyError:
        return None
    v = b @ (r_b_inv @ factors.v)
    gram = factors.v.T @ factors.v
    c = gram.shape[0]
    loss = max(np.linalg.norm(gram - np.eye(c)),
               c * b.shape[1] * np.finfo(float).eps)
    if not np.linalg.norm(v.T @ v - gram) <= loss:
        return None
    return replace(factors, v=v)
