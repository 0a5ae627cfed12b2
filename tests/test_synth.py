import numpy as np
import pytest

from rcur.linalg import DimensionError, relative_error
from rcur.synth import (
    bfg_perturb,
    example_weights,
    sparse_lowrank,
    subgroup_data,
    toeplitz_noise,
)


def test_example_weights_profile():
    w = example_weights()
    assert len(w) == 50
    assert np.isclose(w[0], 2.0)
    assert np.isclose(w[9], 0.2)
    assert np.isclose(w[10], 1.0 / 11.0)
    assert len(example_weights(100)) == 100


def test_sparse_lowrank_shape_rank_and_sign():
    a = sparse_lowrank(300, 120, seed=0)
    assert a.shape == (300, 120)
    assert np.all(a >= 0.0)
    assert np.linalg.matrix_rank(a) <= 50


def test_sparse_lowrank_density():
    # expected fill of each factor vector is 2.5%; the product is sparse
    a = sparse_lowrank(500, 400, seed=1)
    fill = np.count_nonzero(a) / a.size
    assert fill < 0.25


def test_sparse_lowrank_reproducible():
    assert np.array_equal(sparse_lowrank(50, 30, seed=3), sparse_lowrank(50, 30, seed=3))
    assert not np.array_equal(sparse_lowrank(50, 30, seed=3), sparse_lowrank(50, 30, seed=4))


def test_sparse_lowrank_validation():
    with pytest.raises(ValueError):
        sparse_lowrank(10, 10, density=0.0)
    with pytest.raises(ValueError):
        sparse_lowrank(0, 10)


def test_toeplitz_noise_norm_scaling():
    rng = np.random.default_rng(0)
    signal = rng.standard_normal((200, 50))
    e = toeplitz_noise(signal, 0.3, seed=1)
    assert np.isclose(np.linalg.norm(e, 2), 0.3 * np.linalg.norm(signal, 2))


def test_toeplitz_noise_column_correlation():
    # adjacent columns correlate near 0.99 by construction
    signal = np.eye(2000, 40)
    e = toeplitz_noise(signal, 1.0, seed=2)
    c = np.corrcoef(e[:, 0], e[:, 1])[0, 1]
    assert 0.95 < c < 1.0


def test_toeplitz_noise_zero_epsilon():
    # no product with a zero scale, which would leave signed zeros
    e = toeplitz_noise(np.eye(20, 10), 0.0, seed=0)
    assert e.shape == (20, 10) and not e.any()
    assert not np.signbit(e).any()


@pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
def test_noise_generators_refuse_a_bad_epsilon(eps, monkeypatch):
    # refused before any draw: a Philox stream would raise here
    def no_draw(seed):
        raise AssertionError("drew noise")

    monkeypatch.setattr(np.random, "Philox", no_draw)
    a = np.eye(30)
    with pytest.raises(ValueError, match="epsilon must be >= 0 and finite"):
        toeplitz_noise(a, eps)
    with pytest.raises(ValueError, match="epsilon must be >= 0 and finite"):
        bfg_perturb(a, 60, 40, eps)


def test_bfg_perturb_scaling_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 30))
    a_e, b, g = bfg_perturb(a, 60, 40, 0.2, seed=5)
    assert b.shape == (30, 60)
    assert g.shape == (40, 30)
    assert np.isclose(np.linalg.norm(a_e - a, 2), 0.2 * np.linalg.norm(a, 2))


def test_bfg_perturb_at_zero_epsilon_returns_a():
    # the general formula, no special case: B and G are eps's draws too
    a = sparse_lowrank(30, 30, seed=2)
    a_e, b, g = bfg_perturb(a, 60, 40, 0.0, seed=5)
    _, b_eps, g_eps = bfg_perturb(a, 60, 40, 0.2, seed=5)
    assert np.array_equal(a_e, a)
    assert np.array_equal(b, b_eps) and np.array_equal(g, g_eps)


def test_bfg_perturb_dimension_guard():
    a = np.zeros((10, 10))
    with pytest.raises(DimensionError):
        bfg_perturb(a, 8, 12, 0.1)  # ell < d


def test_subgroup_data_shapes_and_moments():
    target, background = subgroup_data(800, 6, seed=0)
    assert target.shape == (3200, 18)
    assert background.shape == (800, 18)
    # block variances: first d columns ~100, background mid-block ~9
    assert abs(np.var(target[:, :6]) - 100.0) < 10.0
    assert abs(np.var(background[:, 6:12]) - 9.0) < 1.0
    assert abs(np.mean(background)) < 0.5
    # subgroups 3 and 4 have mean 3 in the middle block
    assert np.mean(target[1600:, 6:12]) > 2.0


def test_relative_error_basic():
    a = np.eye(4)
    assert relative_error(a, a) == 0.0
    assert np.isclose(relative_error(a, np.zeros((4, 4))), 1.0)
    with pytest.raises(DimensionError):
        relative_error(a, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.zeros((2, 2)))
