"""Coordinated CUR of a matrix triplet, driven by restricted-SVD factors.

Shared indexing: columns p are common to A and G, rows s are common to A
and B, so the three approximations stay coordinated:

    A ~= A(:, p)   M_A A(s, :),
    B ~= B(:, p_B) M_B B(s, :),
    G ~= G(:, p)   M_G G(s_G, :).

Each public entry point validates each input matrix once; the private
twins it calls do not scan it again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, select_columns, select_rows, two_norm
from .gcur import _middle_matrix, sketch_tail_bound
from .rsvd import RsvdFactors, _check_triplet, _rsvd
from .selection import (check_oversampling, check_rank, deim_growth_bound,
                        select_indices)
from .sketch import SketchConfig

__all__ = [
    "RsvdCurFactors",
    "RsvdCurBound",
    "rsvd_cur",
    "rsvd_cur_from_factors",
    "r_ldeim_rsvd_cur",
    "rsvdcur_bound",
]


@dataclass(frozen=True)
class RsvdCurFactors:
    p: np.ndarray
    p_b: np.ndarray
    s: np.ndarray
    s_g: np.ndarray
    m_a: np.ndarray
    m_b: np.ndarray
    m_g: np.ndarray
    k: int

    def reconstruct_a(self, a):
        return select_columns(a, self.p) @ self.m_a @ select_rows(a, self.s)

    def reconstruct_b(self, b):
        return select_columns(b, self.p_b) @ self.m_b @ select_rows(b, self.s)

    def reconstruct_g(self, g):
        return select_columns(g, self.p) @ self.m_g @ select_rows(g, self.s_g)


@dataclass(frozen=True)
class RsvdCurBound:
    """Right-hand sides of the three probabilistic RSVD-CUR error bounds."""

    bound_a: float
    bound_b: float
    bound_g: float
    eta_b: float
    eta_g: float
    t_hat_w: float
    t_hat_z: float


def _carrying_columns(u):
    """Drop structurally zero columns (pairs the sketched factor cannot carry).

    On the randomized path the B-side factor spans only the sketch width;
    pairs outside it have a zero diagonal entry and an all-zero column.  The
    surviving columns are orthonormal and stay in dominance order.  A
    non-finite column is kept, for the selection to refuse.
    """
    norms = np.linalg.norm(u, axis=0)
    return u[:, ~(norms <= 0.5)]


def _check_fit(a, b, g, factors):
    """``_check_triplet``, then refuse factors of another triplet: Z needs m
    rows, U l, V d and W n."""
    a, b, g = _check_triplet(a, b, g)
    z, u, v, w = factors.z, factors.u, factors.v, factors.w
    rows = (a.shape[0], b.shape[1], g.shape[0], a.shape[1])
    if tuple(f.shape[0] for f in (z, u, v, w)) != rows:
        raise DimensionError(
            f"RSVD factors Z {z.shape}, U {u.shape}, V {v.shape}, W {w.shape} "
            f"do not fit A {a.shape}, B {b.shape} and G {g.shape}")
    return a, b, g


def rsvd_cur_from_factors(a, b, g, factors: RsvdFactors, k, khat=None):
    """Select indices from RSVD factors (W -> p, Z -> s, U -> p_B, V -> s_G).

    A, B, G and the factor columns the selection reads are validated, and
    factors of another triplet raise ``DimensionError`` (``_check_fit``).
    """
    return _rsvd_cur_from_factors(*_check_fit(a, b, g, factors), factors, k,
                                  khat)


def _rsvd_cur_from_factors(a, b, g, factors, k, khat=None):
    """``rsvd_cur_from_factors`` on a validated triplet."""
    p = select_indices(factors.w, k, khat)
    s = select_indices(factors.z, k, khat)
    # U's first m columns, the thin B-side factor, hold every column read
    p_b = select_indices(_carrying_columns(factors.u[:, :a.shape[0]]), k, khat)
    s_g = select_indices(factors.v, k, khat)
    return RsvdCurFactors(
        p=p, p_b=p_b, s=s, s_g=s_g,
        m_a=_middle_matrix(a, p, s),
        m_b=_middle_matrix(b, p_b, s),
        m_g=_middle_matrix(g, p, s_g),
        k=k,
    )


def rsvd_cur(a, b, g, k, khat=None):
    """Rank-k RSVD-CUR from the deterministic (full-factor) RSVD."""
    a, b, g = _check_triplet(a, b, g)
    return _rsvd_cur_from_factors(a, b, g, _rsvd(a, b, g), k, khat)


def r_ldeim_rsvd_cur(a, b, g, cfg: SketchConfig):
    """Randomized L-DEIM RSVD-CUR: a khat + p wide sketch of B^T U_1, of which
    L-DEIM reads ``cfg.columns_read()`` = min(k, khat + p) columns; k
    indices."""
    a, b, g = _check_triplet(a, b, g)
    return _rsvd_cur_from_factors(a, b, g, _rsvd(a, b, g, cfg),
                                  cfg.target_rank, cfg.columns_read())


def _tail_block_norm(mat, khat):
    """||T_hat|| from the QR factor of ``mat``: columns past khat of R."""
    r = np.linalg.qr(mat, mode="r")
    return two_norm(r[:, khat:]) if khat < r.shape[1] else 0.0


def rsvdcur_bound(a, b, g, factors: RsvdFactors, k, khat, p):
    """Evaluate the probabilistic error bounds of a randomized RSVD-CUR run.

    Uses the QR partitions of the RSVD factors W and Z and the spectral
    tails of B and G.  Diagnostic only; costs full SVDs of B and G.  The
    factors must fit the triplet (``_check_fit``).
    """
    check_rank(k, khat)
    check_oversampling(p)
    a, b, g = _check_fit(a, b, g, factors)
    (m, n), ell, d = a.shape, b.shape[1], g.shape[0]

    t_hat_w = _tail_block_norm(factors.w, khat)
    t_hat_z = _tail_block_norm(factors.z, khat)

    sg = np.linalg.svd(g, compute_uv=False)
    sb = np.linalg.svd(b, compute_uv=False)
    # no sketch of G exists; e_g keeps the full-width bound (oversampling
    # n - khat), which criterion 7 holds 100/100 against
    e_g = sketch_tail_bound(sg, khat, max(n - khat, 1))
    e_b = sketch_tail_bound(sb, khat, p)

    eta_g = deim_growth_bound(n, khat) + deim_growth_bound(d, khat)
    eta_b = deim_growth_bound(ell, khat) + deim_growth_bound(m, khat)
    eta_a = deim_growth_bound(n, khat) + deim_growth_bound(m, khat)

    alpha_next = float(factors.alpha[k]) if k < len(factors.alpha) else 0.0
    return RsvdCurBound(
        bound_a=float(alpha_next * eta_a * t_hat_w * t_hat_z),
        bound_b=float(eta_b * (e_b + t_hat_z)),
        bound_g=float(eta_g * (e_g + t_hat_w)),
        eta_b=float(eta_b),
        eta_g=float(eta_g),
        t_hat_w=float(t_hat_w),
        t_hat_z=float(t_hat_z),
    )
