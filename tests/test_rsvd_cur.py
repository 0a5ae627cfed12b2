import numpy as np
import pytest

import rcur.rsvd
from rcur.bench import exp4_instance
from rcur.linalg import RankDeficiencyError
from rcur.rsvd import rsvd_deterministic
from rcur.rsvd_cur import (
    r_ldeim_rsvd_cur,
    rsvd_cur,
    rsvd_cur_from_factors,
    rsvdcur_bound,
)
from rcur.sketch import SketchConfig


def noisy_lowrank_triplet(seed, m=40, k_true=6, d=60, ell=80, eps=0.05):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k_true)) @ rng.standard_normal((k_true, m))
    b = rng.standard_normal((m, ell))
    g = rng.standard_normal((d, m))
    noise = b[:, :d] @ rng.standard_normal((d, d)) @ g[:, :m]
    a_e = a + eps * np.linalg.norm(a, 2) / np.linalg.norm(noise, 2) * noise
    return a, a_e, b, g


def test_index_lengths_and_sharing():
    a, a_e, b, g = noisy_lowrank_triplet(0)
    k = 6
    fac = rsvd_cur(a_e, b, g, k)
    for idx in (fac.p, fac.p_b, fac.s, fac.s_g):
        assert len(idx) == k
        assert len(set(idx.tolist())) == k
    # shared indexing: A and G share columns p; A and B share rows s
    assert fac.reconstruct_a(a_e).shape == a_e.shape
    assert fac.reconstruct_b(b).shape == b.shape
    assert fac.reconstruct_g(g).shape == g.shape


def test_recovers_low_rank_signal():
    a, a_e, b, g = noisy_lowrank_triplet(1)
    fac = rsvd_cur(a_e, b, g, 6)
    err = np.linalg.norm(a - fac.reconstruct_a(a_e), 2) / np.linalg.norm(a, 2)
    assert err < 0.2


def exact_rank_triplet(k=4, m=20):
    """A square m-by-m A of exact rank k, with random B and G."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((m, k)) @ rng.standard_normal((k, m))
    return a, rng.standard_normal((m, 40)), rng.standard_normal((30, m))


def test_exact_rank_inputs_reconstruct_exactly():
    a, b, g = exact_rank_triplet()
    fac = rsvd_cur(a, b, g, 4)
    assert np.allclose(fac.reconstruct_a(a), a, atol=1e-7 * np.linalg.norm(a))


def test_randomized_on_exact_rank_a_returns_k_indices():
    # A lacks 16 of its 20 directions, so the second sketch is raised from
    # khat + p = 4 to 17 columns; at m - n + 1 = 1 the stack was singular
    a, b, g = exact_rank_triplet()
    fac = r_ldeim_rsvd_cur(a, b, g, SketchConfig(4, 2))
    for idx in (fac.p, fac.s, fac.p_b, fac.s_g):
        assert len(idx) == len(set(idx)) == 4
    assert np.allclose(fac.reconstruct_a(a), a, atol=1e-7 * np.linalg.norm(a))


def test_ldeim_variant_and_reproducibility():
    a, a_e, b, g = noisy_lowrank_triplet(3)
    cfg = SketchConfig(6, 10, ldeim_budget=3, seed=5)
    f1 = r_ldeim_rsvd_cur(a_e, b, g, cfg)
    f2 = r_ldeim_rsvd_cur(a_e, b, g, cfg)
    assert np.array_equal(f1.p, f2.p)
    assert np.array_equal(f1.s, f2.s)
    assert len(f1.p) == 6


def test_from_factors_matches_full_run():
    a, a_e, b, g = noisy_lowrank_triplet(4)
    factors = rsvd_deterministic(a_e, b, g)
    f1 = rsvd_cur_from_factors(a_e, b, g, factors, 5)
    f2 = rsvd_cur(a_e, b, g, 5)
    assert np.array_equal(f1.p, f2.p)
    assert np.array_equal(f1.s, f2.s)
    assert np.allclose(f1.m_a, f2.m_a)


def test_duplicate_row_matrix_raises():
    # all rows equal: the selected rows cannot have full rank for k >= 2
    a = np.ones((10, 10))
    b = np.ones((10, 20)) + np.eye(10, 20)
    g = np.eye(12, 10)
    with pytest.raises((RankDeficiencyError, np.linalg.LinAlgError)):
        rsvd_cur(a, b, g, 2)


def test_bound_evaluator_dominates_errors():
    a, a_e, b, g = noisy_lowrank_triplet(5)
    k = khat = 5
    cfg = SketchConfig(k, 5, ldeim_budget=khat, seed=1)
    from rcur.rsvd import randomized_rsvd

    factors = randomized_rsvd(a_e, b, g, cfg)
    fac = r_ldeim_rsvd_cur(a_e, b, g, cfg)
    bound = rsvdcur_bound(a_e, b, g, factors, k, khat, 5)
    assert bound.bound_a >= 0
    err_b = np.linalg.norm(b - fac.reconstruct_b(b), 2)
    err_g = np.linalg.norm(g - fac.reconstruct_g(g), 2)
    assert err_b <= bound.bound_b
    assert err_g <= bound.bound_g
    assert bound.eta_b > 0 and bound.eta_g > 0


def _tall_triplet(seed, m=20, n=12):
    # with m > n the second stage's gamma = 0 pairs, the m - n directions A
    # lacks, form a cluster whose basis LAPACK picks
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, n)), rng.standard_normal((m, 40)),
            rng.standard_normal((30, n)))


def _same_indices(fac, ref, names=("p", "p_b", "s", "s_g")):
    return all(np.array_equal(getattr(fac, x), getattr(ref, x)) for x in names)


def test_indices_outside_the_gamma_zero_cluster_ignore_the_qr_route(
        on_both_routes):
    # measured on seeds 0-29: the randomized p, s and s_G, every index of
    # rsvd_cur and every index of a square (m = n) triplet agree
    for seed in range(5):
        cfg = SketchConfig(4, 3, seed=seed)
        tall, square = _tall_triplet(seed), _tall_triplet(seed, m=15, n=15)
        fac, ref = on_both_routes(lambda: r_ldeim_rsvd_cur(*tall, cfg))
        assert _same_indices(fac, ref, ("p", "s", "s_g")), seed
        for args in (tall, square):
            assert _same_indices(*on_both_routes(lambda: rsvd_cur(*args, 4)))
        assert _same_indices(*on_both_routes(
            lambda: r_ldeim_rsvd_cur(*square, cfg)))


@pytest.mark.xfail(strict=True, reason=(
    "p_B reads the randomized second stage's gamma = 0 cluster, whose basis "
    "follows the QR route (ROADMAP item 7)"))
def test_randomized_p_b_ignores_the_qr_route(on_both_routes):
    # _carrying_columns drops the zero columns in front of the cluster, so
    # L-DEIM reads into it: p_B differed on 30 of 30 seeds
    for seed in range(3):
        tall = _tall_triplet(seed)
        fac, ref = on_both_routes(
            lambda: r_ldeim_rsvd_cur(*tall, SketchConfig(4, 3, seed=seed)))
        assert np.array_equal(fac.p_b, ref.p_b), seed


@pytest.mark.parametrize("seed", range(3))
def test_randomized_indices_do_not_depend_on_sketch_column_signs(seed,
                                                                 monkeypatch):
    # Householder QR and CholeskyQR2 give a sketch basis different column
    # signs.  The sketch of B^T U_1 is drawn against U_1, so only the
    # GSVD's sign convention keeps its realization, and the indices,
    # independent of them: flip every other column of the sketch basis
    _, a_e, b, g = exp4_instance(1000, 500, 100, 0.1, seed)
    cfg = SketchConfig(10, 80, ldeim_budget=5, seed=seed)
    ref = r_ldeim_rsvd_cur(a_e, b, g, cfg)
    find = rcur.rsvd._range_finder

    def flipped(a, width, seed):
        q = find(a, width, seed)
        return q * np.where(np.arange(q.shape[1]) % 2, -1.0, 1.0)

    monkeypatch.setattr(rcur.rsvd, "_range_finder", flipped)
    fac = r_ldeim_rsvd_cur(a_e, b, g, cfg)
    for name in ("p", "p_b", "s", "s_g"):
        assert np.array_equal(getattr(fac, name), getattr(ref, name)), name
