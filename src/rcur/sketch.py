"""Gaussian sketching and the randomized range finder."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, qr_stack
from .selection import check_rank, default_khat

__all__ = ["SketchConfig", "gaussian_matrix", "range_finder", "split_seed"]


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of a randomized run.

    target_rank:  rank k of the final decomposition.
    oversampling: extra sketch columns p (see :meth:`width`).
    ldeim_budget: L-DEIM budget khat <= k (default ceil(k/2)); it sets the
                  sketch width khat + p, of which a randomized selection
                  reads :meth:`columns_read`.
    seed:         64-bit seed; fixing it makes every run reproducible.
    """

    target_rank: int
    oversampling: int = 5
    ldeim_budget: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_rank(self.target_rank, self.ldeim_budget)
        if (not np.issubdtype(type(self.oversampling), np.integer)
                or self.oversampling < 0):
            raise ValueError(f"oversampling must be an integer >= 0, "
                             f"got {self.oversampling!r}")
        if self.ldeim_budget is None:
            object.__setattr__(self, "ldeim_budget",
                               default_khat(self.target_rank))

    def width(self):
        """Sketch width khat + p, which ``range_finder`` caps at
        min(rows, cols) of what it sketches; khat = k makes it DEIM's."""
        return self.ldeim_budget + self.oversampling

    def columns_read(self):
        """Basis columns a randomized selection reads: min(k, khat + p).

        Every column the khat + p wide sketch paid for, up to k, so the
        L-DEIM budget extends into the oversampling.  This departs from
        Gidisu & Hochstenbach (2022), whose L-DEIM reads only khat; p = 0
        keeps their rule, and khat = k (DEIM) reads k either way.
        """
        return min(self.target_rank, self.width())


def split_seed(seed, n):
    """Derive ``n`` independent child seeds from ``seed`` (SeedSequence spawn)."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def gaussian_matrix(rows, cols, seed):
    """i.i.d. standard normal rows-by-cols matrix from a counter-based RNG."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix needs rows, cols >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((rows, cols))


def range_finder(a, width, seed):
    """Orthonormal basis Q of the sketched range of ``a`` (one-pass, no power iterations).

    Q is the Q factor of A @ Omega, with Omega an n-by-min(width, m, n)
    Gaussian sketch: past that cap a sketch compresses nothing, as Q already
    spans the range of a full-rank ``a``.  The only place a Gaussian sketch
    is drawn (HMT, arXiv:0909.4061, Alg. 4.1).

    The QR is ``linalg.qr_stack``'s: CholeskyQR2 on a well-conditioned
    sketch, one Householder QR on a rank-deficient or ill-conditioned one.
    The two routes give Q different column signs; the library feeds every
    Q to the GSVD kernel, whose sign convention makes the factors, and so
    the realization of a seeded run, independent of them.
    """
    return _range_finder(as_matrix(a), width, seed)


def _range_finder(a, width, seed):
    """``range_finder`` on a validated or library-computed ``a``, unscanned."""
    omega = gaussian_matrix(a.shape[1], min(width, *a.shape), seed)
    q, _ = qr_stack([a @ omega])
    return q.rows(0, a.shape[0])
