"""Plain DEIM-based CUR of a single matrix, used as the baseline method."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, select_columns, select_rows
from .gcur import _middle_matrix
from .selection import select_indices

__all__ = ["CurFactors", "deim_cur"]


@dataclass(frozen=True)
class CurFactors:
    p: np.ndarray
    s: np.ndarray
    m: np.ndarray
    k: int

    def reconstruct_a(self, a):
        return select_columns(a, self.p) @ self.m @ select_rows(a, self.s)


def deim_cur(a, k, khat=None):
    """Rank-k CUR with indices from DEIM (L-DEIM given a budget ``khat``) on
    the singular vectors."""
    a = as_matrix(a)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    p = select_indices(vt.T, k, khat)
    s = select_indices(u, k, khat)
    return CurFactors(p=p, s=s, m=_middle_matrix(a, p, s), k=k)
