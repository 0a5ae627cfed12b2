import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rcur.gsvd
import rcur.linalg
from rcur.bench import exp1_instance
from rcur.linalg import (
    DimensionError,
    RankDeficiencyError,
    cholesky_qr2,
    qr_stack,
)
from rcur.gcur import gcur_deterministic, r_deim_gcur, r_ldeim_gcur
from rcur.gsvd import BETA_ZERO_TOL, _cs_gsvd, gsvd, randomized_gsvd
from rcur.sketch import SketchConfig, _range_finder


def random_pair(seed, m=40, d=30, n=15):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal((d, n))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_reconstruction_and_normalization(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    m = int(rng.integers(n, 50))
    d = int(rng.integers(n, 40))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((d, n))
    f = gsvd(a, b)
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-9 * np.linalg.norm(a)
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-9 * np.linalg.norm(b)
    assert np.allclose(f.gamma**2 + f.beta**2, 1.0, atol=1e-10)


def _max_entries_of_y(f):
    return f.y[np.abs(f.y).argmax(axis=0), np.arange(f.y.shape[1])]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_y_columns_are_sign_canonical(seed):
    # the largest-magnitude entry of every Y column is positive, with U and
    # V flipped alongside, so both reconstructions still hold; the sketch
    # (k + p < n) leaves U narrower than Y
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    a = rng.standard_normal((int(rng.integers(n, 50)), n))
    b = rng.standard_normal((int(rng.integers(n, 40)), n))
    rand = randomized_gsvd(a, b, SketchConfig(2, 1, ldeim_budget=2, seed=seed))
    assert rand.u.shape[1] == 3 < n
    for f, a_seen in ((gsvd(a, b), a), (rand, rand.u @ (rand.u.T @ a))):
        assert np.all(_max_entries_of_y(f) > 0.0)
        assert np.linalg.norm(f.reconstruct_a() - a_seen) <= (
            1e-9 * np.linalg.norm(a))
        assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-9 * np.linalg.norm(b)


def test_orthonormal_factors():
    a, b = random_pair(0)
    f = gsvd(a, b)
    assert np.allclose(f.u.T @ f.u, np.eye(f.u.shape[1]), atol=1e-12)
    assert np.allclose(f.v.T @ f.v, np.eye(f.v.shape[1]), atol=1e-12)


def test_ratio_nonincreasing():
    a, b = random_pair(1)
    f = gsvd(a, b)
    ratio = f.gamma / f.beta
    assert np.all(np.diff(ratio) <= 1e-10 * (1 + ratio[:-1]))


def test_pair_values_match_generalized_eigenvalue_oracle():
    # (gamma/beta)^2 are the eigenvalues of A^T A x = lambda B^T B x
    a, b = random_pair(2, m=35, d=25, n=12)
    f = gsvd(a, b)
    lam = scipy.linalg.eigh(a.T @ a, b.T @ b, eigvals_only=True)[::-1]
    assert np.allclose((f.gamma / f.beta) ** 2, lam, rtol=1e-7, atol=1e-7)


def test_y_nonsingular():
    a, b = random_pair(3)
    f = gsvd(a, b)
    assert np.linalg.matrix_rank(f.y) == f.y.shape[0]


def test_rejects_wide_inputs():
    rng = np.random.default_rng(4)
    with pytest.raises(DimensionError):
        gsvd(rng.standard_normal((3, 5)), rng.standard_normal((6, 5)))
    with pytest.raises(DimensionError):
        gsvd(rng.standard_normal((6, 5)), rng.standard_normal((3, 5)))


def test_randomized_gsvd_refuses_a_b_with_fewer_rows_than_columns():
    # unchecked, V had 5 zero columns at d = 45, n = 50, and both randomized
    # GCURs failed with "zero pivot at L-DEIM step 0"
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((100, 50)), rng.standard_normal((45, 50))
    cfg = SketchConfig(10, 5, seed=0)
    for decompose in (randomized_gsvd, r_deim_gcur, r_ldeim_gcur):
        with pytest.raises(DimensionError, match="at least 50 rows"):
            decompose(a, b, cfg)
    # a short A stays accepted: U spans the sketch and is orthonormal
    f = randomized_gsvd(b, a, cfg)
    assert np.linalg.norm(f.u.T @ f.u - np.eye(f.u.shape[1])) <= 1e-12
    assert np.linalg.norm(f.v.T @ f.v - np.eye(50)) <= 1e-12


def test_rejects_mismatched_columns():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionError):
        gsvd(rng.standard_normal((6, 4)), rng.standard_normal((6, 5)))


def test_rejects_rank_deficient_stack():
    a = np.zeros((6, 3))
    b = np.zeros((5, 3))
    with pytest.raises(RankDeficiencyError):
        gsvd(a, b)


def test_randomized_factors_b_exactly():
    a, b = random_pair(6, m=80, d=40, n=30)
    factors = randomized_gsvd(a, b, SketchConfig(5, 5, ldeim_budget=5, seed=1))
    assert np.linalg.norm(factors.reconstruct_b() - b) <= 1e-9 * np.linalg.norm(b)
    assert factors.u.shape == (80, 10)


def test_randomized_error_bounded_by_projection():
    # the A-side error of the sketched factorization equals the range-finder
    # projection error
    a, b = random_pair(7, m=60, d=35, n=25)
    factors = randomized_gsvd(a, b, SketchConfig(6, 4, ldeim_budget=6, seed=2))
    u = factors.u
    proj_err = np.linalg.norm(a - u @ (u.T @ a), 2)
    recon = factors.reconstruct_a()
    assert np.linalg.norm(a - recon, 2) <= proj_err + 1e-8


def test_randomized_full_width_matches_deterministic_values():
    a, b = random_pair(8, m=50, d=30, n=20)
    det = gsvd(a, b)
    rand = randomized_gsvd(a, b, SketchConfig(15, 5, ldeim_budget=15, seed=3))
    assert np.allclose(np.sort(rand.gamma), np.sort(det.gamma), atol=1e-9)
    assert np.linalg.norm(rand.reconstruct_a() - a) <= 1e-8 * np.linalg.norm(a)


def test_randomized_clamps_excess_width():
    # k + p = 19 > n = 15: the basis stops at n columns and A is exact
    a, b = random_pair(9)
    factors = randomized_gsvd(a, b, SketchConfig(14, 5, ldeim_budget=14, seed=0))
    assert factors.u.shape == (40, 15)
    assert np.allclose(factors.u.T @ factors.u, np.eye(15), atol=1e-12)
    err = np.linalg.norm(factors.reconstruct_a() - a)
    assert err <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("scale", [1e-308, 1e-16, 1e30, 1e160])
def test_rank_decision_ignores_scale(scale, householder_shapes):
    # a well-conditioned pair is full rank at any scale; the GSVD values and
    # the GCUR indices do not depend on it.  At 1e160 the Gram matrix of the
    # stack overflows, at 1e-308 it underflows, and its QR falls back to
    # Householder without a warning; at 1e-308 the selection reads
    # subnormal bases
    a, b = random_pair(12, m=60, d=40, n=20)
    det = gsvd(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = gsvd(scale * a, scale * b)
        assert householder_shapes == ([] if 1e-150 < scale < 1e150
                                      else [(100, 20)])
        ref = gcur_deterministic(a, b, 10)
        fac = gcur_deterministic(scale * a, scale * b, 10)
    assert np.allclose(scaled.gamma, det.gamma, atol=1e-12)
    for name in ("p", "s_a", "s_b"):
        assert np.array_equal(getattr(fac, name), getattr(ref, name))


def test_low_rank_a_flags_small_betas_only_when_b_deficient():
    # B full rank: all betas comfortably positive
    a, b = random_pair(10)
    f = gsvd(a, b)
    assert not (f.beta < BETA_ZERO_TOL).any()


def _check_filled_columns(f, b):
    small = f.beta < BETA_ZERO_TOL
    good = ~small
    assert small.any()
    d = b.shape[0]
    filled = np.flatnonzero(small)[: d - good.sum()]
    vf, vg = f.v[:, filled], f.v[:, good]
    assert np.allclose(vf.T @ vf, np.eye(len(filled)), atol=1e-12)
    assert np.abs(vg.T @ vf).max(initial=0.0) <= 1e-12
    leftover = np.setdiff1d(np.flatnonzero(small), filled)
    assert not f.v[:, leftover].any()
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_small_beta_completion_never_forms_the_square_factor(monkeypatch):
    # a zero column of a tall B puts one pair outside B's column space; its
    # V column must come without a d-by-d orthogonal matrix (3.2 GB here)
    qr = np.linalg.qr

    def guarded_qr(x, mode="reduced"):
        if mode == "complete" and x.shape[0] > 1000:
            raise AssertionError(f"complete QR of a {x.shape} matrix")
        return qr(x, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", guarded_qr)
    rng = np.random.default_rng(21)
    a = rng.standard_normal((400, 30))
    b = rng.standard_normal((20000, 30))
    b[:, 7] = 0.0
    f = gsvd(a, b)
    assert (f.beta < BETA_ZERO_TOL).sum() == 1
    _check_filled_columns(f, b)


def test_small_beta_completion_when_b_is_zero():
    # no good columns at all: V's columns come from the identity's
    a = np.random.default_rng(22).standard_normal((30, 6))
    b = np.zeros((10, 6))
    f = gsvd(a, b)
    assert (f.beta < BETA_ZERO_TOL).all()
    _check_filled_columns(f, b)


def test_small_beta_completion_runs_out_when_b_is_short():
    # B of rank 3 (a zero column, a repeated row) leaves 3 small betas, but
    # its 4 rows have room for one more orthonormal column: two stay zero
    rng = np.random.default_rng(23)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((4, 6))
    b[:, 2] = 0.0
    b[3] = b[0]
    f = _cs_gsvd(a, b)
    assert (f.beta < BETA_ZERO_TOL).sum() == 3
    _check_filled_columns(f, b)


def test_filled_v_columns_do_not_depend_on_the_qr_route(on_both_routes):
    # B lacks 3 of the 12 directions, so 3 pairs have beta = 0 and V's
    # columns there are the complement of the others.  Y's sign flip follows
    # the QR route: signed by it, 52 of the 120 filled columns of seeds 0-39
    # differ between the routes; unsigned, all agree to 1.4e-13
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((60, 12)), rng.standard_normal((50, 12))
        b[:, :3] = 0.0
        assert cholesky_qr2([b, a]) is not None
        f, ref = on_both_routes(lambda: gsvd(a, b))
        fill = np.flatnonzero(f.beta < BETA_ZERO_TOL)
        assert fill.size == 3
        assert np.abs(f.v[:, fill] - ref.v[:, fill]).max() <= 1e-11, seed


def _short_deficient_b_pair():
    # as above: B of rank 3 leaves 3 small betas, all among the leading pairs
    rng = np.random.default_rng(23)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((4, 6))
    b[:, 2] = 0.0
    b[3] = b[0]
    return a, b


@pytest.mark.parametrize("pair", [
    _short_deficient_b_pair,
    lambda: random_pair(24),
    lambda: random_pair(25, m=5, d=30, n=15),
    lambda: random_pair(26, m=400, d=400, n=40),
], ids=["deficient-b", "full-rank", "short-a", "square-blocks"])
def test_leading_columns_equal_the_full_kernel(pair):
    # the CUR path forms only the columns its selection reads, and a count
    # past n stops at n.  U, gamma and the small-beta flags are slices of
    # the full call's.  V and Y are products with fewer columns, which BLAS
    # may round differently (a gemv for one column), so they match the full
    # call's to a few ulps of each column's norm; with a small beta among
    # the leading columns the kernel forms them all, so they match bitwise
    a, b = pair()
    full = _cs_gsvd(a, b)
    n = a.shape[1]
    for r in range(1, n + 3):
        part = _cs_gsvd(a, b, cols=r)
        c = min(r, n)
        assert np.array_equal(part.u, full.u[:, :c]), r
        assert np.array_equal(part.gamma, full.gamma[:c])
        assert np.array_equal(part.beta < BETA_ZERO_TOL,
                              full.beta[:c] < BETA_ZERO_TOL)
        exact = (full.beta[:c] < BETA_ZERO_TOL).any()
        for name in ("v", "y"):
            got, ref = getattr(part, name), getattr(full, name)[:, :c]
            assert got.shape == ref.shape, (name, r)
            scale = np.linalg.norm(ref, axis=0)
            tol = 0.0 if exact else 16 * np.finfo(float).eps * scale
            assert np.all(np.abs(got - ref) <= tol), (name, r)
        tol = 0.0 if exact else 16 * np.finfo(float).eps
        assert np.all(np.abs(part.beta - full.beta[:c]) <= tol), r


def _pair_with_values(seed, m, d, gamma):
    """A = U diag(gamma) X^T, B = V diag(beta) X^T with orthonormal U, V and
    a random X: the pair's gamma are the given ones."""
    rng = np.random.default_rng(seed)
    n = len(gamma)
    x = rng.standard_normal((n, n))
    u = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v = np.linalg.qr(rng.standard_normal((d, n)))[0]
    beta = np.sqrt(1.0 - gamma**2)
    return u @ (gamma[:, None] * x.T), v @ (beta[:, None] * x.T)


def _check_against_tall_svd(a, b):
    """The kernel against the explicit thin SVD of the formed A-block."""
    q, _ = qr_stack([b, a])
    oracle = np.linalg.svd(q.rows(b.shape[0], b.shape[0] + a.shape[0]),
                           compute_uv=False)
    f = _cs_gsvd(a, b)
    r = f.u.shape[1]
    assert np.abs(f.gamma[:r] - oracle).max() <= 1e-13
    assert np.linalg.norm(f.u.T @ f.u - np.eye(r)) <= 1e-12
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-13 * np.linalg.norm(b)


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of every matrix the library passes to ``np.linalg.svd``."""
    shapes = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("rcur."):
            shapes.append(x.shape)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


@pytest.mark.parametrize("smallest, householder", [(0.5, False), (1e-9, True)])
def test_tall_a_block_goes_through_qr_stack(smallest, householder,
                                            householder_shapes, svd_shapes):
    # a tall A-block is QR-factored and only its n-by-n R meets an SVD.
    # With gamma down to 1e-9 the block has kappa ~ 1e9, CholeskyQR2
    # declines and qr_stack runs Householder on the block alone
    m, d, n = 600, 400, 40
    a, b = _pair_with_values(30, m, d, np.geomspace(0.9, smallest, n))
    _check_against_tall_svd(a, b)
    # the oracle's stack QR and tall SVD are called from test code: unseen
    assert householder_shapes == ([(m, n)] if householder else [])
    assert svd_shapes == [(n, n)]


@pytest.mark.parametrize("m", [40, 41], ids=["square", "one-row-taller"])
def test_a_block_at_the_tall_boundary_matches_the_tall_svd(m, svd_shapes):
    # m = n keeps the SVD of the block itself; m = n + 1 is the smallest
    # block that takes the QR route
    a, b = random_pair(31, m=m, d=60, n=40)
    _check_against_tall_svd(a, b)
    assert svd_shapes == [(40, 40)]


@pytest.fixture
def stack_shapes(monkeypatch):
    """Block shapes of every stack the library hands ``cholesky_qr2``, in
    call order."""
    stacks = []
    qr2 = rcur.linalg.cholesky_qr2

    def spy(blocks):
        stacks.append([x.shape for x in blocks])
        return qr2(blocks)

    monkeypatch.setattr(rcur.linalg, "cholesky_qr2", spy)
    return stacks


def _has_block(stacks, shape):
    return any(shape in blocks for blocks in stacks)


def test_randomized_gsvd_factors_no_block_with_the_rows_of_b(
        stack_shapes, householder_shapes, monkeypatch):
    # B is reduced to its n-by-n triangle by one Gram matrix and one
    # Cholesky, so the CS step factors [R_B; Q^T A]; the d-by-k QR of
    # B(:, p) behind the middle matrix stays.  With the Gram factor
    # declining, the same call factors the d-by-n B inside the stack
    rng = np.random.default_rng(30)
    a, b = rng.standard_normal((300, 40)), rng.standard_normal((5000, 40))
    cfg = SketchConfig(10, 5, seed=3)
    r_ldeim_gcur(a, b, cfg)
    assert [(40, 40), (10, 40)] in stack_shapes
    assert [(5000, 10)] in stack_shapes
    assert not _has_block(stack_shapes, (5000, 40))
    assert householder_shapes == []
    stack_shapes.clear()
    monkeypatch.setattr(rcur.gsvd, "_gram_cholesky", lambda blocks: None)
    r_ldeim_gcur(a, b, cfg)
    assert [(5000, 40), (10, 40)] in stack_shapes


@pytest.mark.parametrize("seed", range(5))
def test_gram_route_kept_on_the_exp1_pair(seed, stack_shapes):
    _, e, a_e = exp1_instance(600, 80, 0.05, seed)
    for rand in (r_deim_gcur, r_ldeim_gcur):
        rand(a_e, e, SketchConfig(20, 5, seed=seed))
    assert sum(blocks[0] == (80, 80) for blocks in stack_shapes) == 2
    assert not _has_block(stack_shapes, (600, 80))


def _assert_stacked_route(f, a, b, cfg):
    """``f`` is bitwise the GSVD of the stack [B; Q^T A], lifted by Q."""
    q = _range_finder(a, cfg.width(), cfg.seed)
    ref = _cs_gsvd(q.T @ a, b)
    assert np.array_equal(f.u, q @ ref.u)
    for name in ("v", "y", "gamma", "beta"):
        assert np.array_equal(getattr(f, name), getattr(ref, name)), name


def test_gram_route_declines_where_the_lift_loses_orthogonality():
    # A is weak along B's weak directions (kappa(B) = 1e5), so every beta
    # is moderate and V' is orthonormal to 2e-12, while B R_B^{-1} adds
    # about kappa^2 eps (3.8e-7): the rule declines, and V keeps the
    # stacked route's orthogonality (2.2e-12)
    rng = np.random.default_rng(0)
    d, n = 5000, 200
    s = np.logspace(0, -5, n)
    w = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = (np.linalg.qr(rng.standard_normal((d, n)))[0] * s) @ w.T
    a = (rng.standard_normal((300, n)) * s) @ w.T
    cfg = SketchConfig(20, 5, seed=0)
    f = randomized_gsvd(a, b, cfg)
    _assert_stacked_route(f, a, b, cfg)
    assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 1e-10


def test_gram_route_declines_a_b_with_a_zero_column():
    # B^T B is singular, so its Cholesky fails: the small-beta fill is the
    # stacked route's, orthonormal complement and all
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal((300, 30)), rng.standard_normal((2000, 30))
    b[:, 7] = 0.0
    cfg = SketchConfig(10, 5, seed=1)
    f = randomized_gsvd(a, b, cfg)
    _assert_stacked_route(f, a, b, cfg)
    assert (f.beta < BETA_ZERO_TOL).sum() == 1
    _check_filled_columns(f, b)
    assert np.linalg.norm(f.v.T @ f.v - np.eye(30)) <= 1e-13


def test_gram_route_declines_a_triangle_the_rank_test_refuses(monkeypatch):
    # a stack [R_B; Q^T A] judged singular sends the pair down the stacked
    # route, which decides the rank on B itself
    a, b = random_pair(32, m=60, d=50, n=20)
    cfg = SketchConfig(5, 3, seed=2)
    monkeypatch.setattr(rcur.gsvd, "_gram_cholesky",
                        lambda blocks: (np.zeros((20, 20)), np.eye(20)))
    _assert_stacked_route(randomized_gsvd(a, b, cfg), a, b, cfg)


@pytest.mark.parametrize("scale", [1e-308, 1e-160, 1e-16, 1e30, 1e160])
def test_randomized_indices_ignore_a_common_scale(scale, stack_shapes):
    # at 1e-308 and 1e-160 the Gram matrix of B underflows and at 1e160 it
    # overflows; the Gram route then declines without a warning
    _, e, a_e = exp1_instance(600, 80, 0.05, 1)
    cfg = SketchConfig(20, 5, seed=1)
    ref = r_deim_gcur(a_e, e, cfg)
    stack_shapes.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = r_deim_gcur(scale * a_e, scale * e, cfg)
    assert _has_block(stack_shapes, (600, 80)) == (
        not 1e-150 < scale < 1e150)
    for name in ("p", "s_a", "s_b"):
        assert np.array_equal(getattr(fac, name), getattr(ref, name)), name
