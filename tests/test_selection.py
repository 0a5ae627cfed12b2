from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcur.bench import exp1_instance, exp4_instance
from rcur.cur import deim_cur
from rcur.gcur import (
    gcur_deterministic,
    gcur_from_factors,
    r_deim_gcur,
    r_ldeim_gcur,
)
from rcur.gsvd import gsvd, randomized_gsvd
from rcur.linalg import DimensionError, RankDeficiencyError
from rcur.rsvd import randomized_rsvd, rsvd_deterministic
from rcur.rsvd_cur import r_ldeim_rsvd_cur, rsvd_cur, rsvd_cur_from_factors
from rcur.selection import (
    default_khat,
    deim_growth_bound,
    deim_select,
    ldeim_select,
    select_indices,
)
from rcur.sketch import SketchConfig


def deim_oracle(v):
    """Literal transcription of the greedy interpolatory pivoting loop."""
    v = np.asarray(v, dtype=float)
    m, k = v.shape
    p = [int(np.argmax(np.abs(v[:, 0])))]
    for j in range(1, k):
        c = np.linalg.solve(v[np.ix_(p, range(j))], v[p, j])
        r = v[:, j] - v[:, :j] @ c
        p.append(int(np.argmax(np.abs(r))))
    return np.array(p)


def ldeim_oracle(v, k):
    """Literal transcription of the hybrid selection with in-place deflation."""
    v = np.asarray(v, dtype=float).copy()
    m, khat = v.shape
    p = []
    for j in range(khat):
        p.append(int(np.argmax(np.abs(v[:, j]))))
        if j + 1 < khat:
            c = np.linalg.solve(v[np.ix_(p, range(j + 1))], v[p, j + 1])
            v[:, j + 1] = v[:, j + 1] - v[:, : j + 1] @ c
    scores = np.sum(v * v, axis=1)
    scores[p] = 0.0
    extra = np.argsort(-scores, kind="stable")[: k - khat]
    return np.array(p + list(extra))


def random_basis(seed, m, k):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_deim_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 50))
    k = int(rng.integers(1, min(m, 8) + 1))
    v = random_basis(seed, m, k)
    assert np.array_equal(deim_select(v), deim_oracle(v))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_ldeim_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 301))
    k = int(rng.integers(2, min(m, 29) + 1))
    khat = int(rng.integers(1, k + 1))
    v = random_basis(seed, m, khat)
    assert np.array_equal(ldeim_select(v, k), ldeim_oracle(v, k))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ldeim_with_full_budget_degenerates_to_deim(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 40))
    k = int(rng.integers(1, min(m, 7) + 1))
    v = random_basis(seed, m, k)
    assert np.array_equal(ldeim_select(v, k), deim_select(v))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_indices_distinct_and_in_range(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 60))
    k = int(rng.integers(2, 9))
    khat = max(1, k // 2)
    v = random_basis(seed, m, khat)
    idx = ldeim_select(v, k)
    assert len(idx) == k
    assert len(set(idx.tolist())) == k
    assert idx.min() >= 0 and idx.max() < m


@pytest.fixture(scope="module")
def ksweep_bases():
    """Y, U and V of the deterministic GSVD of the 2000x300 exp1 pairs
    (eps = 0.05, seeds 0-2) that the k-sweep benchmark selects from."""
    out = {}
    for seed in range(3):
        _, e, a_e = exp1_instance(2000, 300, 0.05, seed)
        f = gsvd(a_e, e)
        out[seed] = (f.y, f.u, f.v)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_selection_matches_oracles_on_ksweep_bases(ksweep_bases, seed):
    # the selection shapes the benchmark times: DEIM at k = 10..100 and
    # L-DEIM at khat = ceil(k/2), against the literal loops, bitwise
    for basis in ksweep_bases[seed]:
        for k in range(10, 101, 10):
            khat = default_khat(k)
            assert np.array_equal(select_indices(basis, k),
                                  deim_oracle(basis[:, :k])), k
            assert np.array_equal(select_indices(basis, k, khat),
                                  ldeim_oracle(basis[:, :khat], k)), k


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_deim_indices_are_a_prefix_property(seed):
    # step j reads only columns <= j + 1, so a narrower selection is the
    # prefix of a wider one, bitwise
    rng = np.random.default_rng(seed)
    m = int(rng.integers(30, 200))
    width = int(rng.integers(2, 31))
    k = int(rng.integers(1, width + 1))
    v = random_basis(seed, m, width)
    full = deim_select(v)
    assert np.array_equal(deim_select(v[:, :k]), full[:k])
    khat = default_khat(k)
    assert np.array_equal(ldeim_select(v[:, :khat], k)[:khat],
                          full[:khat])


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_indices_ignore_column_signs_and_follow_row_permutations(seed):
    # Gaussian bases have no near-ties, so the argmax never flips on
    # roundoff
    rng = np.random.default_rng(seed)
    m = int(rng.integers(20, 200))
    khat = int(rng.integers(1, 21))
    k = int(rng.integers(khat, min(m, 2 * khat) + 1))
    v = random_basis(seed, m, khat)
    ref = ldeim_select(v, k)
    signs = rng.choice([-1.0, 1.0], size=khat)
    assert np.array_equal(ldeim_select(v * signs, k), ref)
    perm = rng.permutation(m)
    assert np.array_equal(perm[ldeim_select(v[perm], k)], ref)


@pytest.mark.parametrize("scale", [1e-310, 2.0**-1000, 2.0**1000],
                         ids=["subnormal", "2^-1000", "2^1000"])
def test_deim_ignores_basis_scale(scale):
    # the working copy is scaled by a power of two, exactly; unscaled,
    # 1/pivot overflows on the subnormal basis and the squared row norms
    # overflow or underflow at 2^+-1000
    v = random_basis(0, 400, 40)
    ref = deim_select(v)
    assert np.array_equal(deim_select(scale * v), ref)
    assert np.array_equal(ldeim_select(scale * v[:, :20], 40),
                          ldeim_select(v[:, :20], 40))


def test_interpolation_identity():
    # the oblique projector through the selected rows reproduces any vector
    # on those rows exactly
    rng = np.random.default_rng(7)
    v = random_basis(11, 30, 6)
    p = deim_select(v)
    x = rng.standard_normal(30)
    proj = v @ np.linalg.solve(v[p, :], x[p])
    assert np.allclose(proj[p], x[p], atol=1e-10)


def test_deim_first_index_is_largest_entry():
    v = np.zeros((6, 1))
    v[4, 0] = -3.0
    v[2, 0] = 2.0
    assert deim_select(v)[0] == 4


def test_deim_tie_breaks_to_lowest_index():
    v = np.array([[0.5], [0.5], [0.5]])
    assert deim_select(v)[0] == 0


def test_deim_rejects_zero_column():
    with pytest.raises(RankDeficiencyError):
        deim_select(np.zeros((4, 1)))


# sigma_min / sigma_max = 3e-18: columns 1-3 agree to 1e-8 and column 4 is
# about 47 times them, so in roundoff the step-3 pivot lands on row 4, the
# row step 1 chose
REPEATED_PIVOT_BASIS = np.array([
    [-0.022262447959729297, -0.0222624497958129, -0.02226244924848476,
     -1.04936246475185],
    [0.8403107799785863, 0.8403107812644095, 0.8403107798134118,
     39.608895470209376],
    [1.1447684162925553, 1.1447684109914198, 1.144768413397962,
     53.95981666588372],
    [0.3576472049006299, 0.3576472066741008, 0.35764720730122523,
     16.85806238679922],
    [1.033561592951927, 1.0335616005912553, 1.0335616029210197,
     48.71797038085002],
])


@pytest.mark.parametrize("select", [
    deim_select, lambda v: ldeim_select(v, 5), lambda v: select_indices(v, 4),
], ids=["deim", "ldeim", "select_indices"])
def test_a_repeated_pivot_is_a_rank_refusal(select):
    with pytest.raises(RankDeficiencyError, match="zero pivot at L-DEIM step 3"):
        select(REPEATED_PIVOT_BASIS)


def near_dependent_basis(seed, m, kinds):
    """Columns of three kinds: "near" is the previous column plus
    10^U(-12,-2) noise, "combo" a combination of the earlier columns with
    coefficients up to 1e8 plus 10^U(-14,-4) noise, "fresh" Gaussian."""
    rng = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind == "near" and cols:
            col = cols[-1] + 10.0 ** rng.uniform(-12, -2) * rng.standard_normal(m)
        elif kind == "combo" and cols:
            col = (np.column_stack(cols) @ rng.uniform(-1e8, 1e8, len(cols))
                   + 10.0 ** rng.uniform(-14, -4) * rng.standard_normal(m))
        else:
            col = rng.standard_normal(m)
        cols.append(col)
    return np.column_stack(cols)


@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["near", "combo", "fresh"]),
                      min_size=1, max_size=10),
       extra=st.integers(0, 8), extend=st.integers(0, 8))
# a basis on which the pivot loop lands on a chosen row in roundoff
@example(seed=3492185092, kinds=["near", "near", "combo"], extra=3, extend=1)
@settings(max_examples=200, deadline=None)
def test_ldeim_on_near_dependent_bases_never_repeats_an_index(seed, kinds,
                                                              extra, extend):
    khat = len(kinds)
    k = khat + min(extend, extra)
    v = near_dependent_basis(seed, khat + extra, kinds)
    try:
        idx = ldeim_select(v, k)
    except RankDeficiencyError:
        return
    assert idx.dtype == np.intp
    assert len(set(idx.tolist())) == k


@pytest.mark.parametrize("select, message", [
    (deim_select, "zero pivot at L-DEIM step 3"),
    (lambda v: ldeim_select(v, 4), "zero pivot at L-DEIM step 3"),
], ids=["deim", "ldeim"])
def test_pivot_at_roundoff_level_is_rank_deficient(select, message):
    # the last column is a combination of the others up to 1e-18 noise, so
    # its pivot residual is roundoff, not zero
    rng = np.random.default_rng(0)
    v = rng.standard_normal((40, 4))
    v[:, 3] = v[:, :3] @ [1.0, -2.0, 0.5] + 1e-18 * rng.standard_normal(40)
    with pytest.raises(RankDeficiencyError, match=message):
        select(v)


def test_deim_rejects_wide_basis():
    with pytest.raises(ValueError):
        deim_select(np.ones((2, 3)))


def test_ldeim_rejects_bad_ranks():
    v = random_basis(0, 10, 4)
    with pytest.raises(ValueError):
        ldeim_select(v, 3)  # k below the column count
    with pytest.raises(ValueError):
        ldeim_select(v, 11)  # more indices than rows


def test_select_indices_reads_leading_columns():
    v = random_basis(8, 20, 6)
    assert np.array_equal(select_indices(v, 4), deim_select(v[:, :4]))
    assert np.array_equal(select_indices(v, 6, khat=3),
                          ldeim_select(v[:, :3], 6))
    assert np.array_equal(select_indices(v, 8, khat=5),
                          ldeim_select(v[:, :5], 8))


def test_select_indices_rejects_rank_above_basis_width():
    v = random_basis(9, 20, 4)
    with pytest.raises(ValueError, match="basis has 4"):
        select_indices(v, 5)
    with pytest.raises(ValueError, match="basis has 4"):
        select_indices(v, 10, khat=5)
    # L-DEIM reads only khat columns, so k may exceed the basis width
    assert len(select_indices(v, 10, khat=4)) == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_indices_refuses_non_finite_columns_it_reads(bad):
    v = random_basis(10, 20, 6)
    v[7, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        select_indices(v, 4)
    with pytest.raises(ValueError, match="non-finite"):
        select_indices(v, 6, khat=3)
    # L-DEIM at khat = 2 reads columns 0 and 1 only
    assert np.array_equal(select_indices(v, 6, khat=2),
                          ldeim_select(v[:, :2], 6))


@pytest.mark.parametrize("basis", [[[1, 0], [0, 1], [0.5, 0.5]], np.ones(3)],
                         ids=["list", "1-d"])
def test_select_indices_refuses_a_basis_that_is_not_a_2d_array(basis):
    # it read basis.shape[1] first: AttributeError on a list, IndexError on
    # a 1-d array
    with pytest.raises(DimensionError, match="2-d array"):
        select_indices(basis, 1)


@pytest.mark.parametrize("select", [deim_select, lambda v: ldeim_select(v, 2)],
                         ids=["deim", "ldeim"])
def test_a_basis_without_columns_is_refused(select):
    # unchecked, DEIM returns no index and L-DEIM rows 0 and 1 from the
    # row norms of nothing
    with pytest.raises(ValueError, match="basis has 0 columns"):
        select(np.ones((5, 0)))


def test_ldeim_refuses_complex_basis():
    v = random_basis(12, 10, 3) * (1 + 1j)
    with pytest.raises(ValueError, match="must be real"):
        ldeim_select(v, 4)
    with pytest.raises(ValueError, match="must be real"):
        deim_select(v)


RNG = np.random.default_rng(30)
# A (50x20) alone and in the pair (A, B 20x20); a triplet (A 10x8, B 10x30,
# G 20x8) with l >= d >= m >= n
A, B = RNG.standard_normal((50, 20)), RNG.standard_normal((20, 20))
TA, TB, TG = (RNG.standard_normal(s) for s in ((10, 8), (10, 30), (20, 8)))


@pytest.mark.parametrize("k,khat", [
    (0, None), (-2, None), (3, 0), (True, None), (3.0, None), (2.5, None),
    (3, 1.5), (3, True),
], ids=["k=0", "k=-2", "khat=0", "k=True", "k=3.0", "k=2.5", "khat=1.5",
        "khat=True"])
@pytest.mark.parametrize("call", [
    lambda *rank: deim_cur(A, *rank),
    lambda *rank: gcur_deterministic(A, B, *rank),
    lambda *rank: rsvd_cur(TA, TB, TG, *rank),
    lambda *rank: select_indices(A, *rank),
], ids=["deim_cur", "gcur_deterministic", "rsvd_cur", "select_indices"])
def test_bad_rank_or_budget_is_refused(call, k, khat):
    # unchecked, k = -2 selects 18 indices, k = 0 fails with an IndexError,
    # khat = 0 returns rows 0, 1, 2 whatever the data, k = True gives a
    # rank-1 CUR and a float k fails with an untyped TypeError
    with pytest.raises(ValueError,
                       match=r"k must be an integer >= 1|1 <= khat <= k"):
        call(k, khat)


def _assert_same_factors(f1, f2, names):
    for name in names:
        assert np.array_equal(getattr(f1, name), getattr(f2, name)), name


@pytest.mark.parametrize("seed", range(3))
def test_randomized_deim_is_ldeim_at_full_budget_on_exp1(seed):
    # exp1 pair at 2000x200, k = 20, p = 5: a DEIM run and an L-DEIM run at
    # khat = k give the same sketch, indices and middle matrices, and the
    # indices are the literal DEIM loop's on the sketched factors
    _, e, a_e = exp1_instance(2000, 200, 0.2, seed)
    cfg = SketchConfig(20, 5, seed=seed)
    full = SketchConfig(20, 5, ldeim_budget=20, seed=seed)
    _assert_same_factors(r_deim_gcur(a_e, e, cfg), r_ldeim_gcur(a_e, e, full),
                         ("p", "s_a", "s_b", "m_a", "m_b"))
    factors = randomized_gsvd(a_e, e, full)
    for basis in (factors.y, factors.u, factors.v):
        assert np.array_equal(select_indices(basis, 20),
                              deim_oracle(basis[:, :20]))


@pytest.mark.parametrize("seed", range(3))
def test_randomized_deim_is_ldeim_at_full_budget_on_exp4(seed):
    # exp4 triplet (1000, 500, 100), k = 10, p = 80: r_ldeim_rsvd_cur at
    # khat = k against DEIM selection on a (k+p)-wide randomized RSVD
    _, a_e, b, g = exp4_instance(1000, 500, 100, 0.1, seed)
    cfg = SketchConfig(10, 80, ldeim_budget=10, seed=seed)
    factors = randomized_rsvd(a_e, b, g, cfg)
    deim = rsvd_cur_from_factors(a_e, b, g, factors, 10)
    _assert_same_factors(r_ldeim_rsvd_cur(a_e, b, g, cfg), deim,
                         ("p", "p_b", "s", "s_g", "m_a", "m_b", "m_g"))
    for basis, idx in ((factors.w, deim.p), (factors.z, deim.s),
                       (factors.v, deim.s_g)):
        assert np.array_equal(idx, deim_oracle(basis[:, :10]))


def test_growth_bound_value():
    assert np.isclose(deim_growth_bound(12, 2), np.sqrt(8.0) * 4.0)


def _poisoned(factors, name):
    """``factors`` with a NaN in the first column of factor ``name``, which
    every selection reads."""
    x = getattr(factors, name).copy()
    x[-1, 0] = np.nan
    return replace(factors, **{name: x})


@pytest.mark.parametrize("name", ["y", "u", "v"])
def test_gcur_from_factors_refuses_a_nan_in_a_factor(name):
    with pytest.raises(ValueError, match="non-finite"):
        gcur_from_factors(A, B, _poisoned(gsvd(A, B), name), 3)


@pytest.mark.parametrize("name", ["w", "z", "u", "v"])
def test_rsvd_cur_from_factors_refuses_a_nan_in_a_factor(name):
    factors = _poisoned(rsvd_deterministic(TA, TB, TG), name)
    with pytest.raises(ValueError, match="non-finite"):
        rsvd_cur_from_factors(TA, TB, TG, factors, 2)
