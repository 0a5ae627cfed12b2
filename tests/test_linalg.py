import ast
import importlib
import json
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rcur
import rcur.linalg
from rcur.gcur import middle_matrix
from rcur.gsvd import BETA_ZERO_TOL, _cs_gsvd, gsvd
from rcur.linalg import (
    _INV_LEAF,
    DimensionError,
    RankDeficiencyError,
    _inv_upper,
    as_index_list,
    as_matrix,
    cholesky_qr2,
    complete_orthonormal,
    qr_stack,
    qr_thin,
    select_columns,
    select_rows,
    stack_rank_deficient,
    two_norm,
)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


def test_as_matrix_casts_to_float64():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_refuses_complex_input():
    # a cast would drop the imaginary part with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ([[1.0 + 2.0j, 0.0]], np.zeros((2, 2), dtype=np.complex64),
                  np.eye(2) + 0j):
            with pytest.raises(ValueError, match="B must be real"):
                as_matrix(a, "B")


def test_as_index_list_validation():
    assert list(as_index_list([2, 0, 1], 3)) == [2, 0, 1]
    assert list(as_index_list(np.array([2, 0], dtype=np.uint8), 3)) == [2, 0]
    # an empty list is float64 under np.asarray, and stays accepted
    assert as_index_list([], 3).size == 0
    with pytest.raises(IndexError):
        as_index_list([0, 3], 3)
    with pytest.raises(ValueError):
        as_index_list([1, 1], 3)


@pytest.mark.parametrize("idx", [
    [0.9, 2.2], np.array([True, False]), np.array([1.0, 0.0]),
], ids=["float-list", "bool-mask", "integral-floats"])
def test_non_integer_indices_are_refused_not_cast(idx):
    # a cast would select columns 0 and 2 for [0.9, 2.2], and 1 and 0 for
    # the mask [True, False]
    a = np.arange(12.0).reshape(3, 4)
    with pytest.raises(ValueError, match="column indices must be integers"):
        select_columns(a, idx)
    with pytest.raises(ValueError, match="row indices must be integers"):
        select_rows(a, idx)
    with pytest.raises(ValueError, match="column indices must be integers"):
        middle_matrix(a, idx, [0, 1])


def test_qr_thin_reconstructs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 5))
    q, r = qr_thin(a)
    assert np.allclose(q @ r, a)
    assert np.allclose(q.T @ q, np.eye(5), atol=1e-12)
    with pytest.raises(DimensionError):
        qr_thin(a.T)


def conditioned(rng, m, n, cond):
    """m-by-n matrix with singular values spaced geometrically from 1 to 1/cond."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T


@pytest.fixture
def householder_route(monkeypatch):
    """``qr_stack`` with CholeskyQR2 declining, so its Householder route runs."""
    monkeypatch.setattr(rcur.linalg, "cholesky_qr2", lambda blocks: None)


# the rounding in W^T W - I grows with the rows of the stack; on 40- and
# 150-row B over a 3000-row A (rng seeds 0-19) both routes measured up to
# 2 * rows * eps, so the bound ORTH_CONST * rows * eps leaves a margin of 5
ORTH_CONST = 10


def assert_orthonormal(w, rows):
    err = np.abs(w.T @ w - np.eye(w.shape[1])).max()
    assert err <= ORTH_CONST * rows * np.finfo(float).eps


def check_against_explicit_q(b, a):
    """qr_stack's Householder route against np.linalg.qr of the stack [B; A]."""
    d, n = b.shape
    rows = d + a.shape[0]
    q_ref, r_ref = np.linalg.qr(np.vstack([b, a]))
    q, r = qr_stack([b, a])
    assert np.array_equal(r, r_ref)
    # the two products the GSVD kernel forms: the A-block and Q_B Z
    qa = q.rows(d, rows)
    assert np.array_equal(qa, q_ref[d:])
    _, _, zt = np.linalg.svd(qa, full_matrices=a.shape[0] < n)
    assert np.abs(q.rows(0, d, zt.T) - q_ref[:d] @ zt.T).max() <= 1e-13
    # and the GSVD factors built on this route stay orthonormal; a tall A
    # enters the kernel as its triangle, as ``gsvd`` passes it
    if a.shape[0] > n:
        a = np.linalg.qr(a, mode="r")
    f = _cs_gsvd(a, b)
    assert_orthonormal(f.u, d + a.shape[0])
    assert_orthonormal(f.v[:, f.beta >= BETA_ZERO_TOL], d + a.shape[0])


@pytest.mark.parametrize("cond", [1e4, 1e8, 1e11])
def test_qr_stack_householder_matches_explicit_q(cond, householder_route):
    rng = np.random.default_rng(5)
    x = conditioned(rng, 5500, 120, cond)
    check_against_explicit_q(x[:2500], x[2500:])


def test_qr_stack_householder_short_top_block_and_sketched_a(
        householder_route):
    rng = np.random.default_rng(6)
    # B with fewer rows than columns
    check_against_explicit_q(rng.standard_normal((40, 120)),
                             rng.standard_normal((3000, 120)))
    # a sketched A (Q^T A) has fewer rows than columns
    check_against_explicit_q(rng.standard_normal((3000, 120)),
                             rng.standard_normal((25, 120)))


def test_qr_stack_householder_identity_reflector(householder_route):
    # a column already in R form gives tau = 0, a reflector that is I
    x = np.vstack([np.eye(3), np.ones((4, 3))])
    x[:, 0] = 0.0
    x[0, 0] = 2.0
    _, tau = np.linalg.qr(x, mode="raw")
    assert tau[0] == 0.0
    q_ref, r_ref = np.linalg.qr(x)
    q, r = qr_stack([x[:2], x[2:]])
    assert np.array_equal(r, r_ref)
    assert np.array_equal(q.rows(0, 7), q_ref)
    with pytest.raises(DimensionError):
        qr_stack([np.ones((1, 3)), np.ones((1, 3))])


def test_cholesky_qr2_factors_a_row_stack():
    rng = np.random.default_rng(7)
    x = conditioned(rng, 3000, 80, 1e5)
    q, r = cholesky_qr2([x[:1200], x[1200:]])
    assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) > 0)
    qx = q.rows(0, 3000)
    assert np.abs(qx.T @ qx - np.eye(80)).max() <= 1e-14
    assert np.linalg.norm(qx @ r - x) <= 1e-14 * np.linalg.norm(x)
    # a row range across the block boundary, alone and times z
    z = rng.standard_normal((80, 80))
    assert np.abs(q.rows(1000, 1500) - qx[1000:1500]).max() <= 1e-15
    assert np.abs(q.rows(1000, 1500, z) - qx[1000:1500] @ z).max() <= 1e-13


def residual(x, r):
    return np.linalg.norm(x @ r - np.eye(r.shape[0]))


@pytest.mark.parametrize("n", [1, 2, 77, _INV_LEAF])
def test_inv_upper_up_to_leaf_is_numpy_inverse(n):
    r = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[1]
    assert np.array_equal(_inv_upper(r), np.linalg.inv(r))


@pytest.mark.parametrize("n", [_INV_LEAF + 1, 200, 300, 517])
def test_inv_upper_blocked_is_triangular_and_accurate(n):
    rng = np.random.default_rng(n)
    x = conditioned(rng, 2 * n, n, 1e6)
    for r in (np.linalg.qr(rng.standard_normal((n, n)))[1],
              qr_stack([x[: n // 2], x[n // 2:]])[1]):
        inv = _inv_upper(r)
        assert np.all(np.tril(inv, -1) == 0.0)
        # measured at 0.3-0.9 of the LU inverse's residual
        assert residual(inv, r) <= 2 * residual(np.linalg.inv(r), r)


# at kappa 1e8 both Cholesky factorizations succeed and only the
# orthogonality test declines; at 1e10 the first Cholesky fails
@pytest.mark.parametrize("case", ["kappa1e8", "kappa1e10", "overflow", "zero",
                                  "wide"])
def test_cholesky_qr2_declines_quietly(case):
    rng = np.random.default_rng(8)
    x = {
        "kappa1e8": conditioned(rng, 500, 40, 1e8),
        "kappa1e10": conditioned(rng, 500, 40, 1e10),
        "overflow": 1e160 * rng.standard_normal((500, 40)),
        "zero": np.zeros((500, 40)),
        "wide": rng.standard_normal((30, 40)),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cholesky_qr2([x[:200], x[200:]]) is None


def test_gsvd_stack_takes_no_householder_qr_when_well_conditioned(
        householder_shapes):
    rng = np.random.default_rng(9)
    gsvd(rng.standard_normal((2000, 300)), rng.standard_normal((2000, 300)))
    assert householder_shapes == []


def test_gsvd_stack_falls_back_to_one_householder_qr(householder_shapes):
    rng = np.random.default_rng(10)
    x = conditioned(rng, 5500, 120, 1e10)
    gsvd(x[2500:], x[:2500])
    # A alone, then the stack [B; R_A]: each declines CholeskyQR2
    assert householder_shapes == [(3000, 120), (2620, 120)]
    # a full-rank pair takes CholeskyQR2
    householder_shapes.clear()
    x = rng.standard_normal((5500, 120))
    gsvd(x[2500:], x[:2500])
    assert householder_shapes == []
    # a singular stack makes CholeskyQR2 decline quietly; the one
    # Householder QR still reproduces the stack, but gsvd refuses the pair
    x[:, 7] = 0.0
    b, a = x[:2500], x[2500:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, r = qr_stack([b, a])
    assert householder_shapes == [(5500, 120)]
    assert np.linalg.norm(q.rows(0, 5500) @ r - x) <= 1e-13 * np.linalg.norm(x)
    with pytest.raises(RankDeficiencyError):
        gsvd(a, b)


def test_stack_rank_test_ignores_column_scale(monkeypatch):
    # columns scaled over 20 orders of magnitude leave the rank, and the
    # test, unchanged on both QR routes; unscaled, the singular values of
    # the Householder r are 1e-20 apart.  A dependent column is singular
    # at any scale.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 20))
    scale = np.logspace(-10, 10, 20)
    dependent = x.copy()
    dependent[:, 5] = x[:, :5] @ rng.standard_normal(5)
    q, r = qr_stack([x[:100] * scale, x[100:] * scale])
    assert q.r2_inv is not None
    assert not stack_rank_deficient(q, r)
    with monkeypatch.context() as m:
        m.setattr(rcur.linalg, "cholesky_qr2", lambda blocks: None)
        for y, singular in ((x, False), (x * scale, False),
                            (dependent, True), (dependent * scale, True)):
            q, r = qr_stack([y[:100], y[100:]])
            assert q.r2_inv is None
            assert stack_rank_deficient(q, r) == singular
        sv = np.linalg.svd(qr_stack([x * scale])[1], compute_uv=False)
        assert sv[-1] / sv[0] < 1e-19


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
def test_gsvd_cholesky_route_matches_householder_route(cond, monkeypatch):
    # gamma and beta are perturbed at the forward-error scale kappa * eps
    # (measured up to 5e-13 at kappa 1e6); residuals and orthonormality stay
    # at roundoff on both routes
    eps = np.finfo(float).eps
    for seed in range(3):
        x = conditioned(np.random.default_rng(seed), 5500, 120, cond)
        b, a = x[:2500], x[2500:]
        assert cholesky_qr2([b, a]) is not None
        f = gsvd(a, b)
        with monkeypatch.context() as m:
            m.setattr(rcur.linalg, "cholesky_qr2", lambda blocks: None)
            ref = gsvd(a, b)
        assert np.abs(f.gamma - ref.gamma).max() <= 10 * cond * eps
        assert np.abs(f.beta - ref.beta).max() <= 10 * cond * eps
        for got, want in ((f.reconstruct_a(), a), (f.reconstruct_b(), b)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        for w in (f.u, f.v):
            assert np.abs(w.T @ w - np.eye(120)).max() <= 1e-13


def test_two_norm_matches_numpy():
    # the squares of 1e160 overflow and of 1e-200 underflow unless the
    # Gram matrix is formed on a / max|a_ij|.  Against the SVD's value the
    # relative gap measured up to 11 eps (rng seeds 0-19, shapes up to
    # 10000-by-200 and 300-by-2000, all three scales); the bound is 32 eps
    rng = np.random.default_rng(3)
    for shape in ((7, 5), (2000, 300), (5, 40)):  # small, tall, wide
        x = rng.standard_normal(shape)
        for scale in (1.0, 1e160, 1e-200):
            want = np.linalg.norm(scale * x, 2)
            got = two_norm(scale * x)
            assert abs(got - want) <= 32 * np.finfo(float).eps * want
    assert two_norm(np.zeros((4, 6))) == 0.0
    assert two_norm(np.zeros((0, 3))) == 0.0


def test_select_columns_and_rows_preserve_order():
    a = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(select_columns(a, [3, 0]), a[:, [3, 0]])
    assert np.array_equal(select_rows(a, [2, 1]), a[[2, 1], :])


def test_selects_return_copies():
    a = np.arange(6.0).reshape(2, 3)
    c = select_columns(a, [0])
    c[0, 0] = 99.0
    assert a[0, 0] == 0.0


def test_complete_orthonormal_keeps_leading_block():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    full = complete_orthonormal(q)
    assert full.shape == (9, 9)
    assert np.array_equal(full[:, :4], q)
    assert np.allclose(full.T @ full, np.eye(9), atol=1e-12)


KERNELS = ["linalg", "gsvd", "gcur", "cur", "selection", "sketch", "rsvd",
           "rsvd_cur", "synth"]


@pytest.mark.parametrize("module", KERNELS)
def test_kernel_modules_import_no_scipy(module):
    # NumPy and SciPy may each bundle their own OpenBLAS; a kernel that calls
    # into SciPy's makes the two thread pools contend for the same cores.
    # Only io (Matrix Market files) may import SciPy.
    tree = ast.parse((Path(rcur.__file__).parent / f"{module}.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def _fresh_interpreter(code):
    """JSON printed by ``code`` in a new interpreter importing this rcur."""
    src = str(Path(rcur.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_package_import_loads_no_scipy():
    # only rcur.io needs SciPy: the kernel modules, loaded together, import
    # none of it
    imports = "; ".join(f"import rcur.{name}" for name in KERNELS)
    assert _fresh_interpreter(
        f"import json, sys; {imports}; print(json.dumps("
        "[m for m in sys.modules if m.split('.')[0] == 'scipy']))") == []


def test_package_import_binds_nothing():
    # every public name has one import path, the module that defines it
    assert _fresh_interpreter(
        "import json, sys, rcur; print(json.dumps("
        "[[n for n in vars(rcur) if not n.startswith('__')], "
        "[m for m in sys.modules if m.startswith('rcur.')]]))") == [[], []]


@pytest.mark.parametrize("name", ["gsvd", "rsvd_cur"])
def test_submodule_import_binds_the_module(name):
    # "import rcur.gsvd as m" binds the package attribute rcur.gsvd, which a
    # package-level function of the same name would shadow
    module = importlib.import_module(f"rcur.{name}")
    assert getattr(rcur, name) is module
    assert callable(getattr(module, name))
