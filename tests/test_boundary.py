"""The two policies owned by one place each.

Every public entry point validates the matrices it receives (a NaN is a
``ValueError``), each of them once, and ``SketchConfig.width`` alone sets
every sketch width, which ``range_finder`` caps at min(rows, cols) of the
matrix it sketches.  The ``widths`` fixture (conftest) records every
Gaussian draw and the ``scans`` fixture every ``as_matrix`` call.  Shapes
that do not fit together, factors of another pair or triplet among them,
raise ``DimensionError`` before any work.
"""
import numpy as np
import pytest

from rcur.cur import CurFactors, deim_cur
from rcur.gcur import (
    GcurFactors,
    gcur_bound,
    gcur_deterministic,
    gcur_from_factors,
    middle_matrix,
    r_deim_gcur,
    r_ldeim_gcur,
)
from rcur.gsvd import gsvd, randomized_gsvd
from rcur.linalg import DimensionError, relative_error
from rcur.rsvd import randomized_rsvd, rsvd_deterministic
from rcur.rsvd_cur import (
    RsvdCurFactors,
    r_ldeim_rsvd_cur,
    rsvd_cur,
    rsvd_cur_from_factors,
    rsvdcur_bound,
)
from rcur.selection import deim_select, ldeim_select
from rcur.sketch import SketchConfig, gaussian_matrix, range_finder
from rcur.synth import subgroup_data, toeplitz_noise

RNG = np.random.default_rng(0)
# pair (A 40x12, B 20x12); triplet (A 10x8, B 10x30, G 20x8): l >= d >= m >= n
A, B = RNG.standard_normal((40, 12)), RNG.standard_normal((20, 12))
TA, TB, TG = (RNG.standard_normal(s) for s in ((10, 8), (10, 30), (20, 8)))
IDX = np.array([0, 1])
CFG = SketchConfig(4, 2, ldeim_budget=2, seed=0)

CUR = CurFactors(p=IDX, s=IDX, m=np.eye(2), k=2)
GCUR = GcurFactors(p=IDX, s_a=IDX, m_a=np.eye(2), k=2, s_b=IDX, m_b=np.eye(2))
RCUR = RsvdCurFactors(p=IDX, p_b=IDX, s=IDX, s_g=IDX, m_a=np.eye(2),
                      m_b=np.eye(2), m_g=np.eye(2), k=2)

# entry point -> (function, its arguments); every matrix argument is poisoned
# in turn, at an entry the selected indices do not read
ENTRY_POINTS = {
    "gsvd": (gsvd, (A, B)),
    "randomized_gsvd": (randomized_gsvd, (A, B, CFG)),
    "rsvd_deterministic": (rsvd_deterministic, (TA, TB, TG)),
    "randomized_rsvd": (randomized_rsvd, (TA, TB, TG, CFG)),
    "deim_cur": (deim_cur, (A, 3)),
    "gcur_deterministic": (gcur_deterministic, (A, B, 3)),
    "gcur_from_factors": (gcur_from_factors, (A, B, gsvd(A, B), 3)),
    "r_deim_gcur": (r_deim_gcur, (A, B, CFG)),
    "r_ldeim_gcur": (r_ldeim_gcur, (A, B, CFG)),
    "rsvd_cur": (rsvd_cur, (TA, TB, TG, 2)),
    "rsvd_cur_from_factors": (rsvd_cur_from_factors,
                              (TA, TB, TG, rsvd_deterministic(TA, TB, TG), 2)),
    "r_ldeim_rsvd_cur": (r_ldeim_rsvd_cur, (TA, TB, TG, CFG)),
    "middle_matrix": (middle_matrix, (A, IDX, IDX)),
    "range_finder": (range_finder, (A, 5, 0)),
    "deim_select": (deim_select, (A[:, :3],)),
    "ldeim_select": (ldeim_select, (A[:, :3], 4)),
    "relative_error": (relative_error, (A, A + 1.0)),
    "CurFactors.reconstruct_a": (CUR.reconstruct_a, (A,)),
    "GcurFactors.reconstruct_a": (GCUR.reconstruct_a, (A,)),
    "GcurFactors.reconstruct_b": (GCUR.reconstruct_b, (B,)),
    "RsvdCurFactors.reconstruct_a": (RCUR.reconstruct_a, (TA,)),
    "RsvdCurFactors.reconstruct_b": (RCUR.reconstruct_b, (TB,)),
    "RsvdCurFactors.reconstruct_g": (RCUR.reconstruct_g, (TG,)),
}
CASES = [
    pytest.param(fn, args, pos, id=f"{name}-arg{pos}")
    for name, (fn, args) in ENTRY_POINTS.items()
    for pos, x in enumerate(args)
    if isinstance(x, np.ndarray) and x.ndim == 2
]


@pytest.mark.parametrize("fn,args,pos", CASES)
def test_public_entry_points_reject_nan(fn, args, pos):
    fn(*args)  # the clean call runs
    bad = args[pos].copy()
    bad[-1, -1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fn(*args[:pos], bad, *args[pos + 1:])


@pytest.mark.parametrize("call,inputs", [
    (lambda: r_ldeim_gcur(A, B, CFG), [("gcur", A), ("gcur", B)]),
    (lambda: r_deim_gcur(A, B, CFG), [("gcur", A), ("gcur", B)]),
    (lambda: gcur_deterministic(A, B, 3), [("gcur", A), ("gcur", B)]),
    (lambda: deim_cur(A, 3), [("cur", A)]),
    (lambda: rsvd_cur(TA, TB, TG, 2), [("rsvd", TA), ("rsvd", TB), ("rsvd", TG)]),
    (lambda: r_ldeim_rsvd_cur(TA, TB, TG, CFG),
     [("rsvd", TA), ("rsvd", TB), ("rsvd", TG)]),
], ids=["r_ldeim_gcur", "r_deim_gcur", "gcur_deterministic", "deim_cur",
        "rsvd_cur", "r_ldeim_rsvd_cur"])
def test_each_input_is_scanned_once(scans, call, inputs):
    # the entry point validates its inputs; factors, bases and sketches the
    # library computes from them are not scanned again
    call()
    assert [(mod, id(x)) for mod, x in scans] == [
        (mod, id(x)) for mod, x in inputs]


K_P, KHAT_P = 4 + 2, 2 + 2
DEIM_CFG = SketchConfig(4, 2, ldeim_budget=4, seed=0)


@pytest.mark.parametrize("call,expected", [
    (lambda: randomized_gsvd(A, B, DEIM_CFG), K_P),
    (lambda: randomized_gsvd(A, B, CFG), KHAT_P),
    (lambda: r_deim_gcur(A, B, CFG), K_P),
    (lambda: r_ldeim_gcur(A, B, CFG), KHAT_P),
], ids=["gsvd-deim", "gsvd-ldeim", "r_deim_gcur", "r_ldeim_gcur"])
def test_gsvd_sketch_is_as_wide_as_config_says(widths, call, expected):
    call()
    assert widths == [expected]


@pytest.mark.parametrize("call,expected", [
    (lambda: randomized_rsvd(TA, TB, TG, DEIM_CFG), K_P),
    (lambda: randomized_rsvd(TA, TB, TG, CFG), KHAT_P),
    (lambda: r_ldeim_rsvd_cur(TA, TB, TG, CFG), KHAT_P),
], ids=["rsvd-deim", "rsvd-ldeim", "r_ldeim_rsvd_cur"])
def test_rsvd_second_sketch_is_as_wide_as_config_says(widths, call, expected):
    # G is factored through its QR, not sketched; the one sketch is the
    # config's width, above the m - n + 1 = 3 floor and below l = 30
    call()
    assert widths == [expected]


def test_no_sketch_is_wider_than_the_matrix_it_compresses(widths):
    # k + p = 24 asks for more columns than A (n = 12) and than the l-by-m
    # product B^T U_1 (m = 10) have; each draw stops at that matrix's width
    wide = SketchConfig(4, 20, ldeim_budget=4, seed=0)
    randomized_gsvd(A, B, wide)
    assert widths == [A.shape[1]]
    widths.clear()
    randomized_rsvd(TA, TB, TG, wide)
    assert widths == [TA.shape[0]]


def test_gcur_from_factors_refuses_factors_of_another_pair():
    # unchecked, a foreign GSVD yields indices of its own pair at k = 3 and
    # an IndexError at k = 8
    rng = np.random.default_rng(1)
    other = gsvd(rng.standard_normal((50, 15)), rng.standard_normal((30, 15)))
    for k in (3, 8):
        with pytest.raises(DimensionError,
                           match=r"U \(50, 15\).*A \(40, 12\)"):
            gcur_from_factors(A, B, other, k)
    with pytest.raises(DimensionError, match=r"B \(20, 13\)"):
        gcur_from_factors(A, np.ones((20, 13)), gsvd(A, B), 3)


@pytest.mark.parametrize("call", [
    lambda b, factors: rsvd_cur_from_factors(TA, b, TG, factors, 2),
    lambda b, factors: rsvdcur_bound(TA, b, TG, factors, 2, 2, 2),
], ids=["rsvd_cur_from_factors", "rsvdcur_bound"])
def test_triplet_entry_points_refuse_factors_of_another_triplet(call):
    rng = np.random.default_rng(1)
    other = rsvd_deterministic(*(rng.standard_normal(s)
                                 for s in ((12, 9), (12, 30), (20, 9))))
    with pytest.raises(DimensionError, match=r"Z \(12, 12\).*A \(10, 8\)"):
        call(TB, other)
    # a B with fewer rows than A is no triplet, whatever the factors
    with pytest.raises(DimensionError, match="triplet shapes incompatible"):
        call(TB[:9], rsvd_deterministic(TA, TB, TG))


def test_randomized_pair_refuses_a_column_mismatch_before_sketching(widths):
    for fn in (randomized_gsvd, r_deim_gcur, r_ldeim_gcur):
        with pytest.raises(DimensionError, match=r"\(40, 12\) and \(20, 13\)"):
            fn(A, np.ones((20, 13)), CFG)
    assert widths == []


BAD_OVERSAMPLING = [-3, -20, 2.5, True]


@pytest.mark.parametrize("call,match", [
    (lambda: ldeim_select(np.ones(5), 2), "2-dimensional"),
    (lambda: gaussian_matrix(0, 3, 0), "rows, cols >= 1"),
    (lambda: gaussian_matrix(3, 0, 0), "rows, cols >= 1"),
    (lambda: toeplitz_noise(A, -0.1), "epsilon must be >= 0"),
    (lambda: subgroup_data(0, 5), "m, d must be >= 1"),
    (lambda: subgroup_data(5, 0), "m, d must be >= 1"),
    # unchecked, p = -3 gave a finite bound and p = -20 NaN
    *((lambda p=p: gcur_bound(A, B, 5, p), "oversampling must be")
      for p in BAD_OVERSAMPLING),
    *((lambda p=p: rsvdcur_bound(TA, TB, TG, rsvd_deterministic(TA, TB, TG),
                                 4, 2, p), "oversampling must be")
      for p in BAD_OVERSAMPLING),
], ids=["ldeim_select-1d", "gaussian_matrix-rows", "gaussian_matrix-cols",
        "toeplitz_noise-eps", "subgroup_data-m", "subgroup_data-d",
        *(f"gcur_bound-p{p}" for p in BAD_OVERSAMPLING),
        *(f"rsvdcur_bound-p{p}" for p in BAD_OVERSAMPLING)])
def test_arguments_out_of_range_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# probes of the rank rule: an orthonormal 20x3 basis, a pair (40x20, 25x20)
# and a triplet (30x30, 30x50, 40x30) with its randomized RSVD factors
RANK_RNG = np.random.default_rng(1)
BASIS = np.linalg.qr(RANK_RNG.standard_normal((20, 3)))[0]
PA, PB = RANK_RNG.standard_normal((40, 20)), RANK_RNG.standard_normal((25, 20))
RA, RB, RG = (RANK_RNG.standard_normal(s) for s in ((30, 30), (30, 50), (40, 30)))
RFAC = randomized_rsvd(RA, RB, RG, SketchConfig(5, 5, ldeim_budget=5, seed=0))
BOUND_RANKS = [(0, 0), (5, 0), (5, 7), (-2, 5), (5, 2.5), (2.5, 5)]


@pytest.mark.parametrize("call", [
    lambda: ldeim_select(BASIS[:, :2], 2.5),
    lambda: ldeim_select(BASIS[:, :1], True),
    *(lambda k=k: gcur_bound(PA, PB, k, 5) for k in (0, -2, True, 2.5)),
    *(lambda k=k, khat=khat: rsvdcur_bound(RA, RB, RG, RFAC, k, khat, 5)
      for k, khat in BOUND_RANKS),
], ids=["ldeim_select-2.5", "ldeim_select-True",
        *(f"gcur_bound-{k}" for k in (0, -2, True, 2.5)),
        *(f"rsvdcur_bound-{k}-{khat}" for k, khat in BOUND_RANKS)])
def test_every_function_that_takes_a_rank_checks_it(call):
    # unchecked, these returned indices, zero or NaN bounds, or raised an
    # untyped TypeError or IndexError
    with pytest.raises(ValueError, match="must be an integer"):
        call()
