import numpy as np
import pytest

import rcur.bench
from rcur.bench import exp1_instance, exp1_sweep, exp4_instance, exp4_run


def test_exp1_instance_scaling_and_reuse():
    a, e, a_e = exp1_instance(200, 40, 0.2, seed=0)
    assert a.shape == e.shape == a_e.shape == (200, 40)
    assert np.allclose(a + e, a_e)
    assert np.isclose(np.linalg.norm(e, 2), 0.2 * np.linalg.norm(a, 2))
    again = exp1_instance(200, 40, 0.2, seed=0)
    assert np.array_equal(a_e, again[2])


def test_exp1_sweep_row_schema_and_determinism():
    rows = exp1_sweep(150, 40, 0.1, ks=[3, 5], seeds=[0, 1])
    methods = {"cur", "gcur", "r-deim-gcur", "r-ldeim-gcur"}
    assert len(rows) == 2 * 2 * len(methods)
    for row in rows:
        assert set(row) == {
            "experiment",
            "m",
            "n",
            "eps",
            "k",
            "method",
            "seed",
            "err",
            "wall_ms",
        }
        assert row["method"] in methods
        assert 0.0 <= row["err"] <= 2.0
        assert row["wall_ms"] >= 0.0
    errs = {(r["method"], r["k"], r["seed"]): r["err"] for r in rows}
    rows2 = exp1_sweep(150, 40, 0.1, ks=[3, 5], seeds=[0, 1])
    for r in rows2:
        assert errs[(r["method"], r["k"], r["seed"])] == r["err"]


def test_exp1_gcur_reuses_shared_factorization():
    # the deterministic GSVD is computed once per seed; its cost shows up in
    # every gcur row for that seed, so gcur rows carry at least that cost
    rows = exp1_sweep(120, 30, 0.1, ks=[2, 4], seeds=[0], methods=("gcur",))
    assert len(rows) == 2
    assert all(r["wall_ms"] > 0 for r in rows)


@pytest.mark.parametrize("ks,seeds", [([2], [0]), ([], [0]), ([2], [])],
                         ids=["sweep", "no-ks", "no-seeds"])
def test_exp1_sweep_refuses_an_unknown_method_before_any_work(monkeypatch,
                                                               ks, seeds):
    # refused even where the sweep would run nothing, before any instance
    def no_instance(*args):
        raise AssertionError("exp1_instance ran")

    monkeypatch.setattr(rcur.bench, "exp1_instance", no_instance)
    with pytest.raises(ValueError, match="unknown method 'typo'"):
        exp1_sweep(50, 10, 0.1, ks, seeds, methods=("cur", "typo"))


def test_exp4_instance_shapes():
    a, a_e, b, g = exp4_instance(120, 60, 40, 0.1, seed=1)
    assert a.shape == a_e.shape == (40, 40)
    assert b.shape == (40, 120)
    assert g.shape == (60, 40)
    assert np.isclose(
        np.linalg.norm(a_e - a, 2), 0.1 * np.linalg.norm(a, 2)
    )


def test_exp4_run_rows():
    rows = exp4_run(120, 60, 40, 5, 0.1, oversampling=10, seeds=[0, 1])
    # one deterministic row plus two budget variants per seed
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {
            "experiment",
            "l",
            "d",
            "m",
            "eps",
            "k",
            "khat",
            "p",
            "method",
            "seed",
            "err",
            "wall_ms",
        }
        assert row["method"] in {"deim-rsvd-cur", "r-ldeim-rsvd-cur"}
        assert row["err"] < 1.5
    khats = sorted(r["khat"] for r in rows if r["method"] == "r-ldeim-rsvd-cur")
    assert khats == [3, 3, 5, 5]
