from dataclasses import replace
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcur
from rcur.bench import exp1_instance
from rcur.cur import deim_cur
from rcur.gcur import (
    gcur_bound,
    gcur_deterministic,
    gcur_error,
    gcur_from_factors,
    middle_matrix,
    r_deim_gcur,
    r_ldeim_gcur,
    sketch_tail_bound,
)
from rcur.gsvd import gsvd, randomized_gsvd
from rcur.linalg import RankDeficiencyError
from rcur.sketch import SketchConfig


def lowrank(seed, m, n, k):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)) @ rng.standard_normal((k, n))


def test_middle_matrix_reproduces_exact_rank():
    a = lowrank(0, 20, 12, 4)
    p = np.array([0, 3, 7, 11])
    s = np.array([1, 4, 9, 15])
    m = middle_matrix(a, p, s)
    assert np.allclose(a[:, p] @ m @ a[s, :], a, atol=1e-10)


def test_middle_matrix_rank_deficient_columns():
    a = np.zeros((6, 4))
    a[:, 0] = 1.0
    with pytest.raises(RankDeficiencyError,
                       match="selected columns are numerically rank deficient at k=2"):
        middle_matrix(a, [0, 1], [0, 1])


def test_middle_matrix_rank_deficient_rows():
    a = lowrank(3, 8, 6, 3)
    a[5] = 2.0 * a[1]
    with pytest.raises(RankDeficiencyError,
                       match="selected rows are numerically rank deficient at k=2"):
        middle_matrix(a, [0, 1], [1, 5])
    # 7 rows of a 6-column matrix can never be independent
    with pytest.raises(RankDeficiencyError):
        middle_matrix(a, [0, 1], np.arange(7))


def _combined_column_selection(seed, spread):
    """A 60x30 Gaussian matrix and 9 selected columns, one of them a
    combination of 1-7 of the others; ``spread`` draws the coefficients'
    magnitudes from 1e-4..1e4 instead of the standard normal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((60, 30))
    p = rng.choice(30, 9, replace=False)
    s = rng.choice(60, 9, replace=False)
    j = int(rng.integers(9))
    n = int(rng.integers(1, 8))
    others = rng.choice(np.delete(p, j), n, replace=False)
    coef = rng.standard_normal(n)
    if spread:
        coef = np.sign(coef) * 10.0 ** rng.uniform(-4, 4, n)
    a[:, p[j]] = a[:, others] @ coef
    return a, p, s


@pytest.mark.parametrize("spread", [False, True], ids=["normal", "spread"])
def test_middle_matrix_refuses_every_combined_column(spread):
    # the unpivoted R's diagonal (lstsq's rule) let 4 and 113 of these 300
    # singular selections through; the column-scaled singular values of R
    # refuse them all
    for seed in range(300):
        a, p, s = _combined_column_selection(seed, spread)
        with pytest.raises(RankDeficiencyError, match="selected columns"):
            middle_matrix(a, p, s)


def middle_matrix_input(k, kappa=None):
    """2000x300 Gaussian M with random p, s; C = M(:, p) gets cond ``kappa``."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((2000, 300))
    p = rng.choice(300, k, replace=False)
    s = rng.choice(2000, k, replace=False)
    if kappa is not None:
        u, _ = np.linalg.qr(rng.standard_normal((2000, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        a[:, p] = (u * np.geomspace(40.0, 40.0 / kappa, k)) @ v.T
    return a, p, s


# kappa 1e6 takes the CholeskyQR2 route and kappa 1e10 the Householder one.
# pinv starts from the same Householder QR as the latter, so against it the
# CholeskyQR2 route is held to the forward-error scale kappa * eps; against
# an 80-bit reference both routes err by about 1e-11 at kappa 1e6.
@pytest.mark.parametrize("k, kappa, tol", [
    pytest.param(10, None, 1e-12, id="10"),
    pytest.param(100, None, 1e-12, id="100"),
    pytest.param(50, 1e6, 1e6 * np.finfo(float).eps, id="kappa1e6"),
    pytest.param(50, 1e10, 1e-12, id="kappa1e10"),
])
def test_middle_matrix_matches_pinv_oracle(k, kappa, tol):
    a, p, s = middle_matrix_input(k, kappa)
    if kappa is not None:
        assert np.linalg.cond(a[:, p]) == pytest.approx(kappa, rel=0.01)
    oracle = np.linalg.pinv(a[:, p]) @ a @ np.linalg.pinv(a[s, :])
    m = middle_matrix(a, p, s)
    assert np.linalg.norm(m - oracle) <= tol * np.linalg.norm(oracle)


def test_middle_matrix_householder_only_when_ill_conditioned(householder_shapes):
    well, ill = middle_matrix_input(50), middle_matrix_input(50, 1e10)
    middle_matrix(*well)
    assert householder_shapes == []
    middle_matrix(*ill)
    assert householder_shapes == [(2000, 50)]  # only C; R^T stays well conditioned


def test_rank_one_closed_form():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(15)
    y = rng.standard_normal(10)
    a = np.outer(x, y)
    b = rng.standard_normal((12, 10))
    fac = gcur_deterministic(a, b, 1)
    # C M R for a rank-1 matrix is x y^T * (x_s y_p M) and must equal A
    assert np.allclose(fac.reconstruct_a(a), a, atol=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_exact_recovery_of_rank_k(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    a = lowrank(seed, 30, 18, k)
    b = rng.standard_normal((20, 18))
    fac = gcur_deterministic(a, b, k)
    assert gcur_error(a, fac) < 1e-8


def test_identity_b_degenerates_to_deim_cur():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((25, 10))
    fac_g = gcur_deterministic(a, np.eye(10), 4)
    fac_c = deim_cur(a, 4)
    assert np.array_equal(fac_g.p, fac_c.p)
    assert np.array_equal(fac_g.s_a, fac_c.s)


def test_b_side_reconstruction_tracks_rank():
    rng = np.random.default_rng(3)
    k = 3
    a = lowrank(3, 24, 12, 8)
    # numerically rank-k B, perturbed so the stacked pair stays full rank
    b = lowrank(4, 16, 12, k) + 1e-10 * rng.standard_normal((16, 12))
    fac = gcur_deterministic(a, b, k)
    assert np.linalg.norm(b - fac.reconstruct_b(b)) < 1e-6 * np.linalg.norm(b)


def test_rank_above_basis_width_is_rejected():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 40))
    # the SVD basis of a 300x40 matrix has only 40 columns
    with pytest.raises(ValueError, match="basis has 40"):
        deim_cur(a, 50)
    b = rng.standard_normal((15, 10))
    with pytest.raises(ValueError, match="basis has 10"):
        gcur_deterministic(a[:20, :10], b, 11)
    # a sketch past n stops at n columns, which cannot carry k = 11 either
    with pytest.raises(ValueError, match="basis has 10"):
        r_deim_gcur(a[:20, :10], b, SketchConfig(11, 5))


def test_gcur_error_rejects_zero_a():
    a = np.zeros((20, 10))
    fac = gcur_deterministic(np.random.default_rng(10).standard_normal((20, 10)),
                             np.eye(10), 3)
    with pytest.raises(ValueError, match="zero norm"):
        gcur_error(a, fac)


def test_randomized_runs_reproducible():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((60, 25))
    b = rng.standard_normal((30, 25))
    cfg = SketchConfig(5, 5, seed=42)
    f1 = r_deim_gcur(a, b, cfg)
    f2 = r_deim_gcur(a, b, cfg)
    assert np.array_equal(f1.p, f2.p)
    assert np.array_equal(f1.s_a, f2.s_a)
    f3 = r_ldeim_gcur(a, b, cfg)
    f4 = r_ldeim_gcur(a, b, cfg)
    assert np.array_equal(f3.p, f4.p)
    assert len(f3.p) == 5


def test_ldeim_sketch_is_budget_plus_oversampling_wide():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 12))
    b = rng.standard_normal((20, 12))
    # khat + p = 3 + 5 = 8 <= 12 columns, so this must run even though
    # k + p = 11 would also fit; budget governs the sketch
    fac = r_ldeim_gcur(a, b, SketchConfig(6, 5, ldeim_budget=3, seed=0))
    assert len(fac.p) == 6


@pytest.mark.parametrize("seed", range(10))
def test_sketch_past_n_selects_the_deterministic_indices(seed):
    # k + p = 13 and khat + p = 11 exceed n = 8: the sketch stops at n
    # columns, spans all of range(A), and selects what the full GSVD selects
    # at the count the randomized selection reads, min(k, khat + p)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, 8))
    b = rng.standard_normal((20, 8))
    cfg = SketchConfig(5, 8, seed=seed)
    khat, p = cfg.ldeim_budget, cfg.oversampling
    for read, rand in ((None, r_deim_gcur), (min(5, khat + p), r_ldeim_gcur)):
        ref = gcur_deterministic(a, b, 5, read)
        fac = rand(a, b, cfg)
        for name in ("p", "s_a", "s_b"):
            assert np.array_equal(getattr(fac, name), getattr(ref, name))


def _exp1_pair(seed):
    _, e, a_e = exp1_instance(400, 40, 0.2, seed)
    return a_e, e


def _narrow_pair(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((40, 8)), rng.standard_normal((20, 8))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("pair,cfg", [
    # reads khat + p = 5 < k columns: L-DEIM extends them to 10 indices
    (_exp1_pair, dict(target_rank=10, oversampling=3, ldeim_budget=2)),
    # khat = k: DEIM on k columns of a k + p wide sketch
    (_exp1_pair, dict(target_rank=8, oversampling=5, ldeim_budget=8)),
    # khat + p = 11 > n = 8: the sketch stops at n
    (_narrow_pair, dict(target_rank=5, oversampling=8)),
], ids=["read-all", "deim", "capped"])
def test_randomized_gcur_equals_the_full_factor_route(seed, pair, cfg):
    # the entry points form only the factor columns the selection reads;
    # indices and middle matrices must be those of the full factors, bitwise
    a, b = pair(seed)
    cfg = SketchConfig(**cfg, seed=seed)
    for rand in (r_ldeim_gcur, r_deim_gcur):
        run = cfg if rand is r_ldeim_gcur else replace(
            cfg, ldeim_budget=cfg.target_rank)
        ref = gcur_from_factors(a, b, randomized_gsvd(a, b, run),
                                run.target_rank, run.columns_read())
        fac = rand(a, b, cfg)
        for name in ("p", "s_a", "s_b", "m_a", "m_b"):
            assert np.array_equal(getattr(fac, name), getattr(ref, name)), \
                (rand.__name__, name)


@pytest.mark.parametrize("seed", range(5))
def test_ldeim_without_oversampling_keeps_the_papers_budget(seed):
    # p = 0 reads khat columns, as Gidisu & Hochstenbach's L-DEIM does.  A
    # is rank khat up to 1e-9, so a khat-wide sketch spans its range and
    # the randomized factors agree with the full GSVD's leading khat columns
    rng = np.random.default_rng(seed)
    k, khat = 6, 3
    a = lowrank(seed, 40, 12, khat) + 1e-9 * rng.standard_normal((40, 12))
    b = rng.standard_normal((20, 12))
    cfg = SketchConfig(k, 0, ldeim_budget=khat, seed=seed)
    assert cfg.columns_read() == khat
    ref = gcur_deterministic(a, b, k, khat)
    fac = r_ldeim_gcur(a, b, cfg)
    for name in ("p", "s_a", "s_b"):
        assert np.array_equal(getattr(fac, name), getattr(ref, name))


# the runs whose indices must not depend on a power-of-two scale of B, and
# the index vectors checked.  L-DEIM's row-norm extension weighs Y's columns,
# whose scales follow B's through gamma^2 + beta^2 = 1, so r_ldeim_gcur's p
# may move past the columns read (exp1 seed 1, c = 2^6, k = 20, from
# position 17 on); its row indices are invariant
_SCALE_FREE = {
    "det": (lambda a, b, k, seed: gcur_deterministic(a, b, k),
            ("p", "s_a", "s_b")),
    "r_deim": (lambda a, b, k, seed: r_deim_gcur(
        a, b, SketchConfig(k, 5, seed=seed)), ("p", "s_a", "s_b")),
    "r_ldeim": (lambda a, b, k, seed: r_ldeim_gcur(
        a, b, SketchConfig(k, 5, seed=seed)), ("s_a", "s_b")),
}


@pytest.mark.parametrize("method", list(_SCALE_FREE))
@pytest.mark.parametrize("seed", range(5))
def test_indices_ignore_a_power_of_two_scale_of_b(seed, method):
    decompose, names = _SCALE_FREE[method]
    _, e, a_e = exp1_instance(600, 80, 0.05, seed)
    for k in (5, 10, 20):
        ref = decompose(a_e, e, k, seed)
        for c in (2.0**-6, 2.0**6):
            fac = decompose(a_e, c * e, k, seed)
            for name in names:
                assert np.array_equal(getattr(fac, name), getattr(ref, name)), \
                    (k, c, name)


# the stacked 2000x300 pair takes the blocked triangular inverse (n > 128) on
# both paths; k <= 50 stays below the pair's numerical rank, past which
# gamma/beta = 1 clusters let roundoff choose the basis.  The exp4 triplet
# (seed 8) pins the RSVD's sketch of B^T U_1, drawn against U_1: without the
# GSVD sign convention its realization followed the column signs LAPACK
# gave U_1, which differ between thread counts there
_THREAD_SWEEP = """
import json
from rcur.bench import exp1_instance, exp4_instance
from rcur.gcur import gcur_deterministic, r_ldeim_gcur
from rcur.rsvd_cur import r_ldeim_rsvd_cur
from rcur.sketch import SketchConfig
out = []
for seed in (0, 1):
    _, e, a_e = exp1_instance(2000, 300, 0.05, seed)
    for k in (10, 30, 50):
        for f in (gcur_deterministic(a_e, e, k),
                  r_ldeim_gcur(a_e, e, SketchConfig(k, 5, seed=seed))):
            out.append([f.p.tolist(), f.s_a.tolist(), f.s_b.tolist()])
_, a_e, b, g = exp4_instance(1000, 500, 100, 0.1, 8)
for khat in (10, 5):
    f = r_ldeim_rsvd_cur(a_e, b, g,
                         SketchConfig(10, 80, ldeim_budget=khat, seed=8))
    out.append([f.p.tolist(), f.p_b.tolist(), f.s.tolist(), f.s_g.tolist()])
print(json.dumps(out))
"""


def _under_thread_counts(script, *args):
    """The JSON output of ``script`` under OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(Path(rcur.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              env=env, check=True, capture_output=True,
                              text=True)
        runs.append(json.loads(done.stdout))
    return runs


def test_indices_identical_across_blas_thread_counts():
    runs = _under_thread_counts(_THREAD_SWEEP)
    assert len(runs[0]) == 14
    assert runs[0] == runs[1]


# selection alone on fixed bases, read from a file so that both thread
# counts see the same bits, at every rank of the k-sweep (k up to 100)
_SELECT_SWEEP = """
import json, sys
import numpy as np
from rcur.selection import default_khat, select_indices
out = []
with np.load(sys.argv[1]) as bases:
    for name in sorted(bases.files):
        for k in range(10, 101, 10):
            for khat in (k, default_khat(k)):
                out.append(select_indices(bases[name], k, khat).tolist())
print(json.dumps(out))
"""


def test_selection_identical_across_blas_thread_counts(tmp_path):
    bases = {}
    for seed in range(3):
        _, e, a_e = exp1_instance(2000, 300, 0.05, seed)
        f = gsvd(a_e, e)
        bases.update({f"{seed}_y": f.y, f"{seed}_u": f.u, f"{seed}_v": f.v})
    path = tmp_path / "bases.npz"
    np.savez(path, **bases)
    runs = _under_thread_counts(_SELECT_SWEEP, path)
    assert len(runs[0]) == 180
    assert runs[0] == runs[1]


def test_sketch_tail_bound_zero_tail():
    s = np.array([3.0, 2.0, 0.0, 0.0])
    assert sketch_tail_bound(s, 2, 5) == 0.0
    assert sketch_tail_bound(s, 1, 5) > 0.0


def test_gcur_bound_positive_and_dominates_typical_error():
    rng = np.random.default_rng(8)
    a = lowrank(8, 40, 20, 6) + 0.01 * rng.standard_normal((40, 20))
    b = rng.standard_normal((25, 20))
    bound = gcur_bound(a, b, 5, 5)
    assert bound.theta_k > 0 and bound.eta_k > 0
    fac = r_deim_gcur(a, b, SketchConfig(5, 5, seed=1))
    err = np.linalg.norm(a - fac.reconstruct_a(a), 2)
    assert err <= bound.bound_a
    err_b = np.linalg.norm(b - fac.reconstruct_b(b), 2)
    assert err_b <= bound.bound_b


def test_gcur_bound_requires_k_below_n():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 5))
    b = rng.standard_normal((8, 5))
    with pytest.raises(ValueError):
        gcur_bound(a, b, 5, 2)


def test_deim_cur_exact_on_low_rank():
    a = lowrank(10, 30, 14, 4)
    fac = deim_cur(a, 4)
    assert np.allclose(fac.reconstruct_a(a), a, atol=1e-8)


def test_deim_cur_ldeim_variant():
    a = lowrank(11, 30, 14, 6)
    fac = deim_cur(a, 6, khat=3)
    assert len(fac.p) == 6
    assert np.allclose(fac.reconstruct_a(a), a, atol=1e-7)


@pytest.mark.parametrize("seed", range(5))
def test_randomized_indices_do_not_depend_on_the_route(seed, on_both_routes):
    # the Gram route and CholeskyQR2 against the stacked Householder route
    _, e, a_e = exp1_instance(600, 80, 0.05, seed)
    cfg = SketchConfig(20, 5, seed=seed)
    for rand in (r_deim_gcur, r_ldeim_gcur):
        fac, ref = on_both_routes(lambda: rand(a_e, e, cfg))
        for name in ("p", "s_a", "s_b"):
            assert np.array_equal(getattr(fac, name), getattr(ref, name)), \
                (rand.__name__, name)
