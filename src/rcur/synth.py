"""Seeded generators for the synthetic benchmark matrices.

All generators are pure functions of their parameters and the seed
(counter-based Philox streams), so every experiment is reproducible.
"""
from __future__ import annotations

import numpy as np

from .linalg import DimensionError, as_matrix, two_norm
from .sketch import split_seed

__all__ = [
    "example_weights",
    "sparse_lowrank",
    "toeplitz_noise",
    "bfg_perturb",
    "subgroup_data",
]


def example_weights(terms=50):
    """Outer-product weights 2/j for j <= 10, then 1/j up to ``terms``."""
    j = np.arange(1, terms + 1, dtype=float)
    return np.where(j <= 10, 2.0 / j, 1.0 / j)


def _sparse_nonneg(rng, size, density):
    """Sparse vector with uniform(0, 1) values at ~density random positions."""
    mask = rng.random(size) < density
    return np.where(mask, rng.random(size), 0.0)


def sparse_lowrank(m, n, weights=None, density=0.025, seed=0):
    """Sum of weighted outer products of sparse nonnegative random vectors.

    Default weights give the 50-term rank profile; pass
    ``example_weights(100)`` for the rank-100 variant.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    w = example_weights() if weights is None else np.asarray(weights, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.column_stack([_sparse_nonneg(rng, m, density) for _ in w])
    y = np.column_stack([_sparse_nonneg(rng, n, density) for _ in w])
    return (x * w) @ y.T


def _check_epsilon(epsilon):
    """Refuse a noise level that is negative, NaN or infinite."""
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")


def toeplitz_noise(signal, epsilon, seed=0):
    """Correlated Gaussian noise with a 0.99-geometric Toeplitz column covariance.

    F = randn(m, n) @ chol(T) with T = toeplitz(0.99^0, ..., 0.99^{n-1}) for
    the m-by-n ``signal``; F is rescaled to spectral norm epsilon * ||signal||.
    """
    _check_epsilon(epsilon)
    signal = as_matrix(signal, "signal")
    if epsilon == 0.0:
        return np.zeros(signal.shape)
    i = np.arange(signal.shape[1])
    t = 0.99 ** np.abs(np.subtract.outer(i, i))
    chol_upper = np.linalg.cholesky(t).T
    rng = np.random.Generator(np.random.Philox(seed))
    f = rng.standard_normal(signal.shape) @ chol_upper
    return epsilon * (two_norm(signal) / two_norm(f)) * f


def bfg_perturb(a, ell, d, epsilon, seed=0):
    """Structured perturbation A_E = A + eps * (||A|| / ||BFG||) * BFG.

    B (m-by-ell), F (ell-by-d) and G (d-by-n) are standard normal; B and G
    are returned for the triplet algorithms.
    """
    a = as_matrix(a, "A")
    m, n = a.shape
    if not (ell >= d >= m >= n):
        raise DimensionError(
            f"dimensions must satisfy ell >= d >= m >= n, got ({ell},{d},{m},{n})"
        )
    _check_epsilon(epsilon)
    s1, s2, s3 = split_seed(seed, 3)
    b = np.random.Generator(np.random.Philox(s1)).standard_normal((m, ell))
    f = np.random.Generator(np.random.Philox(s2)).standard_normal((ell, d))
    g = np.random.Generator(np.random.Philox(s3)).standard_normal((d, n))
    noise = b @ f @ g
    a_e = a + epsilon * (two_norm(a) / two_norm(noise)) * noise
    return a_e, b, g


# per-(subgroup, column-block) normal parameters of the four-subgroup target,
# transcribed from the reference figure
SUBGROUP_MEANS = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 3.0, 0.0], [0.0, 3.0, 3.0]]
)
SUBGROUP_VARIANCES = np.array([[100.0, 1.0, 1.0]] * 4)
BACKGROUND_VARIANCES = np.array([100.0, 9.0, 1.0])


def subgroup_data(m, d, seed=0):
    """Four-subgroup target matrix (4m-by-3d) and zero-mean background (m-by-3d).

    The target stacks four m-row subgroups; each has its own per-column-block
    normal mean/variance (``SUBGROUP_MEANS``, ``SUBGROUP_VARIANCES``).
    Background block variances are (100, 9, 1) with zero means.
    """
    if m < 1 or d < 1:
        raise ValueError("m, d must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    blocks = []
    for grp in range(4):
        row = [
            SUBGROUP_MEANS[grp, j]
            + np.sqrt(SUBGROUP_VARIANCES[grp, j]) * rng.standard_normal((m, d))
            for j in range(3)
        ]
        blocks.append(np.hstack(row))
    target = np.vstack(blocks)
    background = np.hstack(
        [np.sqrt(v) * rng.standard_normal((m, d)) for v in BACKGROUND_VARIANCES]
    )
    return target, background
