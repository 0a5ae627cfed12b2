import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcur.bench import exp4_instance
from rcur.linalg import DimensionError, RankDeficiencyError
from rcur.rsvd import randomized_rsvd, rsvd_deterministic
from rcur.rsvd_cur import r_ldeim_rsvd_cur, rsvd_cur
from rcur.sketch import SketchConfig


def random_triplet(seed, m=20, n=12, d=30, ell=40):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((m, ell))
    g = rng.standard_normal((d, n))
    return a, b, g


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_deterministic_factors_all_three_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = int(rng.integers(n, 20))
    d = int(rng.integers(m, 28))
    ell = int(rng.integers(d, 36))
    a, b, g = random_triplet(seed, m, n, d, ell)
    f = rsvd_deterministic(a, b, g)
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-8 * max(np.linalg.norm(a), 1)
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-8 * np.linalg.norm(b)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)


def test_factor_shapes_and_orthogonality():
    a, b, g = random_triplet(0)
    f = rsvd_deterministic(a, b, g)
    m, n = a.shape
    ell, d = b.shape[1], g.shape[0]
    assert f.z.shape == (m, m)
    assert f.w.shape == (n, n)
    assert f.u.shape == (ell, ell)
    assert f.v.shape == (d, d)
    assert np.allclose(f.u.T @ f.u, np.eye(ell), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(d), atol=1e-10)
    assert np.linalg.matrix_rank(f.z) == m
    assert np.linalg.matrix_rank(f.w) == n


def test_normalization_identity():
    a, b, g = random_triplet(1)
    f = rsvd_deterministic(a, b, g)
    assert np.allclose(f.alpha**2 + f.beta**2 + f.gamma**2, 1.0, atol=1e-10)


def test_b_diag_trailing_entries_are_one():
    a, b, g = random_triplet(2)
    f = rsvd_deterministic(a, b, g)
    n = a.shape[1]
    assert np.allclose(f.b_diag[n:], 1.0, atol=1e-10)
    assert np.allclose(f.b_diag[:n], f.beta)


@pytest.mark.xfail(strict=True, reason="U_1 = complete_orthonormal(f1.v) is "
                   "orthonormal only to about eps / beta_1,min^2 (2.2e-5 here), "
                   "and B is reconstructed through it to 2.1e-6")
def test_b_reconstructed_to_roundoff_on_the_exp4_triplet():
    a, a_e, b, g = exp4_instance(1000, 500, 100, 0.1, 2)
    f = rsvd_deterministic(a_e, b, g)
    assert np.linalg.norm(f.reconstruct_a() - a_e) <= 1e-12 * np.linalg.norm(a_e)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-12 * np.linalg.norm(g)
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-12 * np.linalg.norm(b)


def test_identity_couplings_recover_singular_values():
    # with B and G identity paddings the restricted values alpha/(beta*gamma)
    # reduce to the ordinary singular values of A
    rng = np.random.default_rng(3)
    m, n, d, ell = 12, 8, 20, 30
    a = rng.standard_normal((m, n))
    b = np.hstack([np.eye(m), np.zeros((m, ell - m))])
    g = np.vstack([np.eye(n), np.zeros((d - n, n))])
    f = rsvd_deterministic(a, b, g)
    ratio = np.sort(f.alpha / (f.beta[:n] * f.gamma))[::-1]
    assert np.allclose(ratio, np.linalg.svd(a, compute_uv=False), atol=1e-8)


def test_zero_a_keeps_b_and_g_exact():
    _, b, g = random_triplet(4)
    a = np.zeros((20, 12))
    f = rsvd_deterministic(a, b, g)
    assert np.linalg.norm(f.reconstruct_a()) <= 1e-10
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-8 * np.linalg.norm(b)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)
    assert np.allclose(f.alpha, 0.0, atol=1e-12)


def test_randomized_a_exact_b_g_approximate():
    a, b, g = random_triplet(5, m=30, n=20, d=40, ell=50)
    f = randomized_rsvd(a, b, g, SketchConfig(5, 5, seed=7))
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-8 * np.linalg.norm(a)
    # G is factored through its QR, never sketched: exact up to roundoff
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)
    # B goes through a narrow sketch: approximate but bounded
    err_b = np.linalg.norm(f.reconstruct_b() - b, 2)
    assert err_b <= np.linalg.norm(b, 2)


def _graded_g(rng, d, n, kappa):
    """d-by-n G with singular values logspace(0, -log10(kappa), n)."""
    q_left, _ = np.linalg.qr(rng.standard_normal((d, n)))
    q_right, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q_left * np.logspace(0, -np.log10(kappa), n)) @ q_right.T


@pytest.mark.parametrize("randomized", [False, True], ids=["det", "rand"])
def test_ill_conditioned_g_takes_the_householder_route(randomized,
                                                       householder_shapes):
    # kappa(G) = 1e9 is past CholeskyQR2's reach (about 1e7), so the first
    # stage factors G by one Householder QR, the first QR the RSVD runs;
    # a well-conditioned G takes CholeskyQR2.  Both paths still reproduce
    # A and G, and the deterministic one B too: its second-stage V is far
    # from orthonormal here, so completing U must keep V's columns as is
    m, n, d, ell = 20, 12, 30, 40
    a, b, _ = random_triplet(10, m, n, d, ell)
    rng = np.random.default_rng(10)

    def factor(g):
        if randomized:
            return randomized_rsvd(a, b, g, SketchConfig(5, 5, seed=0))
        return rsvd_deterministic(a, b, g)

    factor(_graded_g(rng, d, n, 10.0))
    assert householder_shapes[0] != (d, n)
    householder_shapes.clear()
    g = _graded_g(rng, d, n, 1e9)
    f = factor(g)
    assert householder_shapes[0] == (d, n)
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-8 * np.linalg.norm(a)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)
    if not randomized:
        assert (np.linalg.norm(f.reconstruct_b() - b)
                <= 1e-8 * np.linalg.norm(b))


@pytest.mark.parametrize("scale", [1.0, 1e-4])
@pytest.mark.parametrize("randomized", [False, True], ids=["det", "rand"])
def test_stack_rank_test_ignores_the_scale_of_b(randomized, scale,
                                                householder_shapes):
    # kappa(G) = 1e10 puts entries near 1e10 into the second-stage stack's
    # diagonal block Sigma_1^{-1} Gamma_1^T; a B of full row rank whose
    # smallest singular value is 1e-8 of its largest, along a direction
    # outside range(A), sends that stack to Householder QR.  Unscaled, its
    # singular values lie 1e-18 to 1e-23 apart and the triplet was refused;
    # with its columns scaled they lie about 1e-9 apart, whatever B's scale
    m, n, d, ell = 20, 12, 30, 40
    a, b, _ = random_triplet(11, m, n, d, ell)
    g = _graded_g(np.random.default_rng(11), d, n, 1e10)
    q, _ = np.linalg.qr(np.hstack([a, np.ones((m, 1))]))
    u = q[:, n]
    b = scale * (b - (1.0 - 1e-8) * np.outer(u, u @ b))
    if randomized:
        # khat + p = 8 columns, raised to m - n + 1
        f = randomized_rsvd(a, b, g, SketchConfig(5, 5, seed=0))
        stack_rows = m - n + 1 + n
    else:
        f = rsvd_deterministic(a, b, g)
        stack_rows = ell + n
    assert (stack_rows, m) in householder_shapes
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-6 * np.linalg.norm(a)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)


@pytest.mark.parametrize("rank", [0, 6])
def test_randomized_second_sketch_covers_the_directions_a_lacks(rank,
                                                                widths):
    # each direction A lacks zeroes a row of Sigma_1^{-1} Gamma_1^T, so the
    # second sketch is raised from khat + p = 8 to m - rank(A) + 1 columns
    # (capped at m); at m - n + 1 = 9 the stack was singular
    m, n, d, ell = 20, 12, 30, 40
    _, b, g = random_triplet(4, m, n, d, ell)
    rng = np.random.default_rng(rank)
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    f = randomized_rsvd(a, b, g, SketchConfig(5, 5, seed=0))
    assert widths[-1] == min(m - rank + 1, m)
    assert np.linalg.norm(f.reconstruct_a() - a) <= 1e-8 * max(
        np.linalg.norm(a), 1.0)
    assert np.linalg.norm(f.reconstruct_g() - g) <= 1e-8 * np.linalg.norm(g)
    assert np.linalg.cond(f.z) < 1e8


def test_randomized_reproducible():
    a, b, g = random_triplet(6, m=24, n=16, d=30, ell=36)
    cfg = SketchConfig(4, 5, seed=11)
    f1 = randomized_rsvd(a, b, g, cfg)
    f2 = randomized_rsvd(a, b, g, cfg)
    assert np.array_equal(f1.z, f2.z)
    assert np.array_equal(f1.u, f2.u)


def test_wide_second_sketch_matches_deterministic_b():
    # sketch width covering all of B's row space factors B exactly too
    a, b, g = random_triplet(7, m=15, n=10, d=20, ell=25)
    f = randomized_rsvd(a, b, g, SketchConfig(5, 20, seed=0))
    assert np.linalg.norm(f.reconstruct_b() - b) <= 1e-8 * np.linalg.norm(b)


def test_rejects_bad_dimension_ordering():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((10, 12))  # m < n
    b = rng.standard_normal((10, 40))
    g = rng.standard_normal((20, 12))
    with pytest.raises(DimensionError):
        rsvd_deterministic(a, b, g)


def test_rejects_incompatible_shapes():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((11, 30))  # row mismatch with A
    g = rng.standard_normal((20, 8))
    with pytest.raises(DimensionError):
        rsvd_deterministic(a, b, g)


def test_rank_deficient_g_raises():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((12, 30))
    g = np.zeros((20, 8))
    g[:, 0] = 1.0
    with pytest.raises((RankDeficiencyError, np.linalg.LinAlgError)):
        rsvd_deterministic(a, b, g)


def b_deficient_outside_range_a(seed, m=6, n=4, d=8, ell=10):
    """A triplet whose B loses rank along a unit direction u orthogonal to
    range(A): u^T B = 0, with A, G and the rest of B random."""
    a, b, g = random_triplet(seed, m, n, d, ell)
    q, _ = np.linalg.qr(np.hstack([a, np.ones((m, 1))]))
    u = q[:, n]
    return a, b - np.outer(u, u @ b), g


@pytest.mark.parametrize("seed", range(20))
def test_b_deficient_outside_range_a_raises(seed):
    # the second-stage stack [B^T U_1; Sigma_1^{-1} Gamma_1^T] is singular
    # along U_1^T u, which neither block sees; factoring it anyway gave a Z
    # of condition number 1e15 or more
    a, b, g = b_deficient_outside_range_a(seed)
    cfg = SketchConfig(2, 1, seed=seed)
    for factor in (lambda: rsvd_deterministic(a, b, g),
                   lambda: randomized_rsvd(a, b, g, cfg),
                   lambda: rsvd_cur(a, b, g, 2),
                   lambda: r_ldeim_rsvd_cur(a, b, g, cfg)):
        with pytest.raises(RankDeficiencyError):
            factor()
