"""Benchmark harness: matrix-recovery experiments with seeded generators.

Experiment 1: recover a sparse low-rank A from A_E = A + E with correlated
Toeplitz noise E, comparing DEIM-CUR against deterministic and randomized
GCUR of the pair (A_E, E).

Experiment 4: recover A from the structured perturbation A_E = A + c*BFG,
comparing deterministic RSVD-CUR of the triplet (A_E, B, G) against the
randomized L-DEIM variant.

Timing covers the factorization call only; error metrics are computed
outside the clock.
"""
from __future__ import annotations

import time

from .cur import deim_cur
from .gcur import gcur_from_factors, r_deim_gcur, r_ldeim_gcur
from .gsvd import gsvd
from .linalg import two_norm
from .rsvd_cur import r_ldeim_rsvd_cur, rsvd_cur
from .selection import default_khat
from .sketch import SketchConfig, split_seed
from .synth import bfg_perturb, example_weights, sparse_lowrank, toeplitz_noise

__all__ = ["exp1_instance", "exp1_sweep", "exp4_instance", "exp4_run"]


def exp1_instance(m, n, epsilon, seed):
    """Sparse low-rank signal A, Toeplitz noise E and the observed A_E."""
    gen_seed, noise_seed = split_seed(seed, 2)
    a = sparse_lowrank(m, n, seed=gen_seed)
    e = toeplitz_noise(m, n, epsilon, a, seed=noise_seed)
    return a, e, a + e


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def exp1_sweep(m, n, epsilon, ks, seeds, oversampling=5,
               methods=("cur", "gcur", "r-deim-gcur", "r-ldeim-gcur")):
    """Error/timing rows for each (k, method, seed) on the exp1 generator.

    The deterministic GSVD is computed once per seed and shared across the
    k sweep; randomized runs re-sketch per k since the width depends on it.
    """
    rows = []
    for seed in seeds:
        a, e, a_e = exp1_instance(m, n, epsilon, seed)
        norm_a = two_norm(a)
        factors = None
        gsvd_ms = 0.0
        if "gcur" in methods:
            factors, gsvd_ms = _timed(gsvd, a_e, e)
        for k in ks:
            for method in methods:
                if method == "cur":
                    fac, ms = _timed(deim_cur, a_e, k)
                elif method == "gcur":
                    fac, ms = _timed(gcur_from_factors, a_e, e, factors, k)
                    ms += gsvd_ms
                elif method == "r-deim-gcur":
                    cfg = SketchConfig(k, oversampling, seed=seed)
                    fac, ms = _timed(r_deim_gcur, a_e, e, cfg)
                elif method == "r-ldeim-gcur":
                    cfg = SketchConfig(k, oversampling, seed=seed)
                    fac, ms = _timed(r_ldeim_gcur, a_e, e, cfg)
                else:
                    raise ValueError(f"unknown method {method!r}")
                if method == "cur":
                    approx = fac.reconstruct(a_e)
                else:
                    approx = fac.reconstruct_a(a_e)
                err = two_norm(a - approx) / norm_a
                rows.append({
                    "experiment": "exp1", "m": m, "n": n, "eps": epsilon,
                    "k": k, "method": method, "seed": seed,
                    "err": err, "wall_ms": ms,
                })
    return rows


def exp4_instance(ell, d, m, epsilon, seed):
    """Square signal A of 100 sparse terms plus structured noise; returns
    (A, A_E, B, G)."""
    gen_seed, noise_seed = split_seed(seed, 2)
    a = sparse_lowrank(m, m, weights=example_weights(100), seed=gen_seed)
    a_e, b, g = bfg_perturb(a, ell, d, epsilon, seed=noise_seed)
    return a, a_e, b, g


def exp4_run(ell, d, m, k, epsilon, oversampling, seeds, khats=None):
    """Error/timing rows comparing deterministic and randomized RSVD-CUR."""
    if khats is None:
        khats = [k, default_khat(k)]
    rows = []
    for seed in seeds:
        a, a_e, b, g = exp4_instance(ell, d, m, epsilon, seed)
        norm_a = two_norm(a)
        runs = [("deim-rsvd-cur", k, 0, rsvd_cur, k)] + [
            ("r-ldeim-rsvd-cur", khat, oversampling, r_ldeim_rsvd_cur,
             SketchConfig(k, oversampling, ldeim_budget=khat, seed=seed))
            for khat in khats]
        for method, khat, p, decompose, rank_or_cfg in runs:
            fac, ms = _timed(decompose, a_e, b, g, rank_or_cfg)
            err = two_norm(a - fac.reconstruct_a(a_e)) / norm_a
            rows.append({
                "experiment": "exp4", "l": ell, "d": d, "m": m, "eps": epsilon,
                "k": k, "khat": khat, "p": p, "method": method,
                "seed": seed, "err": err, "wall_ms": ms,
            })
    return rows
