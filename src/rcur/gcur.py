"""Generalized CUR of a matrix pair: deterministic and randomized constructors.

A rank-k GCUR approximates both matrices of a pair through a shared column
index vector p and per-matrix row index vectors:

    A ~= A(:, p) M_A A(s_A, :),    B ~= B(:, p) M_B B(s_B, :).

Indices come from L-DEIM (DEIM when khat is None) applied to the (possibly
sketched) GSVD factors; middle matrices come from thin QRs of C and R^T and
two k-by-k solves, never an explicit pseudoinverse.  The randomized entry
points have the GSVD kernel form only the factor columns the selection
reads.

Each public entry point validates each input matrix once and hands it to
private twins (``_gsvd``, ``_randomized_gsvd``, ``_middle_matrix``) that do
not scan it again; ``select_indices`` checks only the basis columns it
copies.

Those thin QRs go by ``linalg.qr_stack``, the kernel the GSVD's stacked QR
also runs and the one place that picks the QR route.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import warnings

import numpy as np

from .linalg import (
    DimensionError,
    RankDeficiencyError,
    as_index_list,
    as_matrix,
    qr_stack,
    relative_error,
    select_columns,
    select_rows,
    stack_rank_deficient,
    two_norm,
)
from .gsvd import GsvdFactors, _gsvd, _randomized_gsvd
from .selection import (check_rank, deim_growth_bound, leading_columns,
                        select_indices)
from .sketch import SketchConfig

__all__ = [
    "GcurFactors",
    "GcurBound",
    "middle_matrix",
    "gcur_from_factors",
    "gcur_deterministic",
    "r_deim_gcur",
    "r_ldeim_gcur",
    "gcur_error",
    "gcur_bound",
]

# generalized values with gamma/beta below this are warned about: the target
# rank exceeds the numerical rank of A against B and errors will plateau
RATIO_WARN_TOL = 1e-12


@dataclass(frozen=True)
class GcurFactors:
    """Selected indices and middle matrices of a rank-k GCUR."""

    p: np.ndarray
    s_a: np.ndarray
    m_a: np.ndarray
    k: int
    s_b: np.ndarray
    m_b: np.ndarray

    def reconstruct_a(self, a):
        return select_columns(a, self.p) @ self.m_a @ select_rows(a, self.s_a)

    def reconstruct_b(self, b):
        return select_columns(b, self.p) @ self.m_b @ select_rows(b, self.s_b)


@dataclass(frozen=True)
class GcurBound:
    """Evaluated right-hand sides of the probabilistic GCUR error bounds."""

    theta_k: float
    eta_k: float
    bound_a: float
    bound_b: float


def _full_rank_qr(x, what):
    """Thin QR of ``x`` by ``qr_stack``, refused unless its k columns are
    numerically independent (``linalg.stack_rank_deficient``)."""
    rows, k = x.shape
    if rows < k:
        raise RankDeficiencyError(f"{k} selected {what} have only {rows} entries")
    q, r = qr_stack([x])
    if stack_rank_deficient(q, r):
        raise RankDeficiencyError(
            f"selected {what} are numerically rank deficient at k={k}")
    return q.rows(0, rows), r


def middle_matrix(m, p, s):
    """Middle factor C^+ M R^+ for C = M(:, p), R = M(s, :).

    With C = Q_C R_C and R^T = Q_R R_R this is R_C^{-1} (Q_C^T M Q_R) R_R^{-T}:
    two thin QRs (``_full_rank_qr``), one product with M and two k-by-k
    solves.
    """
    m = as_matrix(m)
    return _middle_matrix(m, as_index_list(p, m.shape[1], "column indices"),
                          as_index_list(s, m.shape[0], "row indices"))


def _middle_matrix(m, p, s):
    """``middle_matrix`` on a validated ``m`` and index arrays the library
    selected."""
    q_c, r_c = _full_rank_qr(m[:, p], "columns")
    q_r, r_r = _full_rank_qr(m[s].T, "rows")
    core = (q_c.T @ m) @ q_r
    return np.linalg.solve(r_r, np.linalg.solve(r_c, core).T).T


def gcur_from_factors(a, b, factors: GsvdFactors, k, khat=None):
    """Build GCUR indices and middle matrices from precomputed GSVD factors.

    Warns when a generalized-value ratio gamma/beta among the pairs the
    selection reads falls below ``RATIO_WARN_TOL``.  A, B and the factor
    columns the selection reads are validated, and factors of another pair
    (U with other than m rows, V other than d, Y other than n, or B other
    than n columns) raise ``DimensionError``.
    """
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    u, v, y = factors.u, factors.v, factors.y
    (m, n), d = a.shape, b.shape[0]
    if (u.shape[0], v.shape[0], y.shape[0], b.shape[1]) != (m, d, n, n):
        raise DimensionError(
            f"GSVD factors U {u.shape}, V {v.shape}, Y {y.shape} do not fit "
            f"A {a.shape} and B {b.shape}")
    return _gcur_from_factors(a, b, factors, k, khat)


def _gcur_from_factors(a, b, factors, k, khat=None):
    """``gcur_from_factors`` on validated A and B."""
    p = select_indices(factors.y, k, khat)
    s_a = select_indices(factors.u, k, khat)
    s_b = select_indices(factors.v, k, khat)
    fac = GcurFactors(p=p, s_a=s_a, m_a=_middle_matrix(a, p, s_a), k=k,
                      s_b=s_b, m_b=_middle_matrix(b, p, s_b))
    if np.any(factors.ratio[:leading_columns(k, khat)] < RATIO_WARN_TOL):
        warnings.warn(
            "trailing generalized-value ratios fall below 1e-12; "
            "the rank-k error will plateau",
            stacklevel=3,
        )
    return fac


def gcur_deterministic(a, b, k, khat=None):
    """Rank-k GCUR from the full GSVD of (A, B)."""
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    return _gcur_from_factors(a, b, _gsvd(a, b), k, khat)


def r_deim_gcur(a, b, cfg: SketchConfig):
    """Randomized DEIM-GCUR: ``r_ldeim_gcur`` with the budget set to k."""
    return r_ldeim_gcur(a, b, replace(cfg, ldeim_budget=cfg.target_rank))


def r_ldeim_gcur(a, b, cfg: SketchConfig):
    """Randomized L-DEIM GCUR: a khat + p wide sketch, of which L-DEIM reads
    ``cfg.columns_read()`` = min(k, khat + p) columns and extends to k
    indices.  The GSVD forms only those columns of U, V and Y.  Y's column
    scales follow B's, so the column indices past those read (the row-norm
    extension) depend on the scale of B; the row indices do not."""
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    read = cfg.columns_read()
    factors = _randomized_gsvd(a, b, cfg, cols=read)
    return _gcur_from_factors(a, b, factors, cfg.target_rank, read)


def gcur_error(a, factors: GcurFactors):
    """Relative spectral-norm error of the A-side reconstruction."""
    return relative_error(a, factors.reconstruct_a(a))


def sketch_tail_bound(singular_values, k, p):
    """Range-finder tail bound (1 + 6 sqrt((k+p) p log p)) s_{k+1} + 3 sqrt(k+p) ||tail||."""
    s = np.asarray(singular_values, dtype=float)
    tail = s[k:] if k < len(s) else np.array([0.0])
    logp = np.log(p) if p >= 1 else 0.0
    lead = (1.0 + 6.0 * np.sqrt((k + p) * p * logp)) * tail[0]
    return lead + 3.0 * np.sqrt(k + p) * np.sqrt(np.sum(tail**2))


def gcur_bound(a, b, k, p):
    """Evaluate the probabilistic error bounds for a randomized rank-k GCUR.

    bound_a is the full right-hand side including the stacked-pseudoinverse
    and generalized-singular-value terms; bound_b is the sketch-free B-side
    bound.  Offline diagnostic: costs a full SVD of A and a GSVD of (A, B).
    """
    check_rank(k)
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    (m, n), d = a.shape, b.shape[0]
    if k >= n:
        raise ValueError("bound needs k < n so the (k+1)th pair value exists")
    sa = np.linalg.svd(a, compute_uv=False)
    theta = sketch_tail_bound(sa, k, p)
    eta = deim_growth_bound(n, k) + deim_growth_bound(m, k)
    factors = _gsvd(a, b)
    gam, bet = factors.gamma[k], factors.beta[k]
    # Y = R^T Z with Z orthogonal and R the R factor of [B; A], so Y has the
    # singular values of the stack
    pinv_norm = 1.0 / np.linalg.svd(factors.y, compute_uv=False)[-1]
    norm_sum = sa[0] + two_norm(b)
    bound_a = eta * (theta + norm_sum * (gam / bet + theta / bet * pinv_norm))
    eta_b = deim_growth_bound(n, k) + deim_growth_bound(d, k)
    bound_b = eta_b * norm_sum
    return GcurBound(theta_k=float(theta), eta_k=float(eta),
                     bound_a=float(bound_a), bound_b=float(bound_b))
