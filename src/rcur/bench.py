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

import functools
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
    e = toeplitz_noise(a, epsilon, seed=noise_seed)
    return a, e, a + e


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def _gcur(a_e, e, k, oversampling, seed, shared_gsvd):
    factors, gsvd_ms = shared_gsvd()
    fac, ms = _timed(gcur_from_factors, a_e, e, factors, k)
    return fac, ms + gsvd_ms


def _sketched(decompose):
    """A randomized method, its ``SketchConfig`` built before the clock starts."""
    return lambda a_e, e, k, oversampling, seed, shared_gsvd: _timed(
        decompose, a_e, e, SketchConfig(k, oversampling, seed=seed))


# exp1_sweep's methods, in their default order: each maps the seed's A_E and
# E, k, p, the seed and the seed's shared GSVD to a row's factors and time
EXP1_METHODS = {
    "cur": lambda a_e, e, k, oversampling, seed, shared_gsvd: _timed(
        deim_cur, a_e, k),
    "gcur": _gcur,
    "r-deim-gcur": _sketched(r_deim_gcur),
    "r-ldeim-gcur": _sketched(r_ldeim_gcur),
}


def exp1_sweep(m, n, epsilon, ks, seeds, oversampling=5,
               methods=tuple(EXP1_METHODS)):
    """Error/timing rows for each (k, method, seed) on the exp1 generator.

    The deterministic GSVD is computed once per seed and charged to each of
    its gcur rows; randomized runs re-sketch per k since the width depends
    on it.  An unknown method is refused before any work."""
    for method in methods:
        if method not in EXP1_METHODS:
            raise ValueError(f"unknown method {method!r}")
    rows = []
    for seed in seeds:
        a, e, a_e = exp1_instance(m, n, epsilon, seed)
        norm_a = two_norm(a)
        shared_gsvd = functools.cache(functools.partial(_timed, gsvd, a_e, e))
        for k in ks:
            for method in methods:
                fac, ms = EXP1_METHODS[method](a_e, e, k, oversampling, seed,
                                               shared_gsvd)
                err = two_norm(a - fac.reconstruct_a(a_e)) / norm_a
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
