import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcur.sketch import SketchConfig, gaussian_matrix, range_finder, split_seed


def test_config_defaults_ldeim_budget_to_half_rank():
    assert SketchConfig(10).ldeim_budget == 5
    assert SketchConfig(9).ldeim_budget == 5
    assert SketchConfig(1).ldeim_budget == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(0)
    with pytest.raises(ValueError):
        SketchConfig(5, oversampling=-1)
    with pytest.raises(ValueError):
        SketchConfig(5, ldeim_budget=6)
    with pytest.raises(ValueError):
        SketchConfig(5, ldeim_budget=0)
    # a rank, budget or oversampling that is not an integer, bool included
    for args in ((4.5, 2), (4, 2, 1.5), (4, 2.5), (True, 2), (4, True),
                 (4, 2, True)):
        with pytest.raises(ValueError, match="integer"):
            SketchConfig(*args)
    assert SketchConfig(np.int64(4), np.int64(2), np.int64(3)).width() == 5
    # the width is the config's own budget plus p: ceil(k/2) + p by default
    for khat in (0, 6):
        with pytest.raises(ValueError, match="1 <= khat <= k"):
            SketchConfig(5, 2, ldeim_budget=khat)
    assert (SketchConfig(5, 2, ldeim_budget=5).width(),
            SketchConfig(5, 2).width()) == (7, 5)


def test_gaussian_matrix_reproducible_and_distinct():
    a = gaussian_matrix(50, 20, seed=123)
    b = gaussian_matrix(50, 20, seed=123)
    c = gaussian_matrix(50, 20, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_matrix_moments():
    g = gaussian_matrix(400, 250, seed=0)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_split_seed_children_differ():
    seeds = split_seed(7, 4)
    assert len(seeds) == 4
    assert len(set(seeds)) == 4
    assert seeds == split_seed(7, 4)


def test_range_finder_orthonormal():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((60, 30))
    q = range_finder(a, 10, seed=5)
    assert q.shape == (60, 10)
    assert np.allclose(q.T @ q, np.eye(10), atol=1e-12)


def test_range_finder_captures_low_rank_exactly():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((80, 6)) @ rng.standard_normal((6, 40))
    q = range_finder(a, 10, seed=0)
    assert np.linalg.norm(a - q @ (q.T @ a)) < 1e-10 * np.linalg.norm(a)


def test_range_finder_clamps_excess_width():
    # past min(m, n) a sketch compresses nothing: the basis has min(m, n)
    # orthonormal columns and spans the whole range
    rng = np.random.default_rng(4)
    for shape in ((5, 5), (12, 7), (7, 12)):
        a = rng.standard_normal(shape)
        q = range_finder(a, 20, seed=0)
        r = min(shape)
        assert q.shape == (shape[0], r)
        assert np.allclose(q.T @ q, np.eye(r), atol=1e-12)
        assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-12 * np.linalg.norm(a)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_range_finder_residual_monotone_in_width(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, 20)) * np.logspace(0, -6, 20)
    res = []
    for width in (2, 6, 12):
        q = range_finder(a, width, seed=seed)
        res.append(np.linalg.norm(a - q @ (q.T @ a), 2))
    assert res[0] >= res[1] >= res[2] - 1e-12


def test_range_finder_tail_bound_monte_carlo():
    # empirical check of the projection-error magnitude: the sketched range
    # should capture a sharply decaying spectrum to near the (k+1)th value
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((50, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    s = np.logspace(0, -8, 30)
    a = u @ np.diag(s) @ v.T
    k, p = 5, 5
    errs = [
        np.linalg.norm(a - (q := range_finder(a, k + p, seed=t)) @ (q.T @ a), 2)
        for t in range(20)
    ]
    assert np.median(errs) < 100 * s[k]
