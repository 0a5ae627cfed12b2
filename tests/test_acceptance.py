"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also enforces its wall-clock budget.
"""
import statistics
import time

import numpy as np
import scipy.linalg

from rcur.bench import exp1_sweep, exp4_run
from rcur.gcur import gcur_bound, r_deim_gcur
from rcur.gsvd import gsvd
from rcur.rsvd import randomized_rsvd, rsvd_deterministic
from rcur.rsvd_cur import r_ldeim_rsvd_cur, rsvdcur_bound
from rcur.selection import deim_select, ldeim_select
from rcur.sketch import SketchConfig


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _median(rows, method, field="err", **match):
    vals = [r[field] for r in rows
            if r["method"] == method
            and all(r[key] == val for key, val in match.items())]
    return statistics.median(vals)


def test_criterion_1_gsvd_correctness():
    t0 = time.perf_counter()
    worst_rec, worst_norm, worst_oracle = 0.0, 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        m = int(rng.integers(n, 61))
        d = int(rng.integers(n, 51))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((d, n))
        f = gsvd(a, b)
        rec = max(
            np.linalg.norm(f.reconstruct_a() - a) / np.linalg.norm(a),
            np.linalg.norm(f.reconstruct_b() - b) / np.linalg.norm(b),
        )
        norm_dev = float(np.max(np.abs(f.gamma**2 + f.beta**2 - 1.0)))
        lam = scipy.linalg.eigh(a.T @ a, b.T @ b, eigvals_only=True)[::-1]
        ratios = (f.gamma / f.beta) ** 2
        oracle_dev = float(np.max(np.abs(ratios - lam) / (1.0 + np.abs(lam))))
        worst_rec = max(worst_rec, rec)
        worst_norm = max(worst_norm, norm_dev)
        worst_oracle = max(worst_oracle, oracle_dev)
    elapsed = time.perf_counter() - t0
    ok = (worst_rec <= 1e-9 and worst_norm <= 1e-10
          and worst_oracle <= 1e-7 and elapsed < 10.0)
    _report(1, "GSVD correctness on 50 pairs", ok,
            f"max residual {worst_rec:.2e}, max |g^2+b^2-1| {worst_norm:.2e}, "
            f"max oracle dev {worst_oracle:.2e}, {elapsed:.1f}s")


def test_criterion_2_rsvd_exact_a():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 21))
        m = int(rng.integers(n, 41))
        d = int(rng.integers(m, 61))
        ell = int(rng.integers(d, 81))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, ell))
        g = rng.standard_normal((d, n))
        norm_a = np.linalg.norm(a)
        det = rsvd_deterministic(a, b, g)
        rand = randomized_rsvd(a, b, g, SketchConfig(max(1, n // 2), 3,
                                                     seed=seed))
        worst = max(
            worst,
            np.linalg.norm(det.reconstruct_a() - a) / norm_a,
            np.linalg.norm(rand.reconstruct_a() - a) / norm_a,
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(2, "RSVD exact-A on 20 triplets", ok,
            f"max relative residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_pair_benchmark_full_scale():
    t0 = time.perf_counter()
    rows = exp1_sweep(10000, 200, 0.2, ks=[20], seeds=range(5),
                      oversampling=5,
                      methods=("gcur", "r-deim-gcur", "r-ldeim-gcur"))
    elapsed = time.perf_counter() - t0
    meds = {m: _median(rows, m) for m in ("gcur", "r-deim-gcur",
                                          "r-ldeim-gcur")}
    wall_det = _median(rows, "gcur", field="wall_ms")
    wall_rand = _median(rows, "r-ldeim-gcur", field="wall_ms")
    ok = (all(0.10 <= v <= 0.22 for v in meds.values())
          and wall_rand <= 0.5 * wall_det and elapsed < 120.0)
    _report(3, "pair benchmark medians at (10000, 200, 20)", ok,
            f"median err {meds}, wall {wall_rand:.0f}ms vs {wall_det:.0f}ms "
            f"deterministic, {elapsed:.1f}s")


def test_criterion_4_error_decreases_with_rank():
    t0 = time.perf_counter()
    details = []
    ok = True
    for eps in (0.05, 0.2):
        rows = exp1_sweep(2000, 300, eps, ks=[5, 40], seeds=range(5),
                          methods=("gcur",))
        e5 = _median(rows, "gcur", k=5)
        e40 = _median(rows, "gcur", k=40)
        details.append(f"eps={eps}: {e5:.3f} -> {e40:.3f}")
        if eps == 0.05:
            ok = ok and e40 <= 0.7 * e5
        else:
            # higher noise saturates early; require a plateau within seed noise
            ok = ok and e40 <= e5 * 1.15
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    _report(4, "error decreases with rank k=5 to 40", ok,
            f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_5_triplet_benchmark():
    t0 = time.perf_counter()
    rows = exp4_run(1000, 500, 100, 10, 0.1, oversampling=80,
                    seeds=range(5), khats=[10, 5])
    elapsed = time.perf_counter() - t0
    med_det = _median(rows, "deim-rsvd-cur")
    med_k10 = _median(rows, "r-ldeim-rsvd-cur", khat=10)
    med_k5 = _median(rows, "r-ldeim-rsvd-cur", khat=5)
    wall_det = _median(rows, "deim-rsvd-cur", field="wall_ms")
    wall_rand = _median(rows, "r-ldeim-rsvd-cur", field="wall_ms", khat=10)
    ok = (all(0.07 <= v <= 0.14 for v in (med_det, med_k10, med_k5))
          and wall_rand <= 0.5 * wall_det and elapsed < 60.0)
    _report(5, "triplet benchmark medians at (1000, 500, 100, 10)", ok,
            f"median err det {med_det:.4f}, khat=10 {med_k10:.4f}, "
            f"khat=5 {med_k5:.4f}, wall {wall_rand:.0f}ms vs "
            f"{wall_det:.0f}ms, {elapsed:.1f}s")


def test_criterion_6_triplet_speedup_at_scale():
    t0 = time.perf_counter()
    rows = exp4_run(5000, 1000, 200, 20, 0.15, oversampling=500,
                    seeds=range(3), khats=[20])
    elapsed = time.perf_counter() - t0
    med_det = _median(rows, "deim-rsvd-cur")
    med_rand = _median(rows, "r-ldeim-rsvd-cur")
    wall_det = _median(rows, "deim-rsvd-cur", field="wall_ms")
    wall_rand = _median(rows, "r-ldeim-rsvd-cur", field="wall_ms")
    ratio = wall_rand / wall_det
    ok = (ratio <= 0.2 and abs(med_rand - med_det) <= 0.03
          and elapsed < 120.0)
    _report(6, "speedup at (5000, 1000, 200, 20)", ok,
            f"wall ratio {ratio:.3f}, err {med_rand:.4f} vs {med_det:.4f} "
            f"deterministic, {elapsed:.1f}s")


def _geometric_spectrum(rng, m, n, rate=0.5):
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rate ** np.arange(n)
    return (u * s) @ v.T


def test_criterion_7_probabilistic_bounds():
    t0 = time.perf_counter()
    k = p = 5
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        good = True

        a = _geometric_spectrum(rng, 40, 20)
        b = rng.standard_normal((25, 20))
        bound = gcur_bound(a, b, k, p)
        fac = r_deim_gcur(a, b, SketchConfig(k, p, seed=seed))
        good &= np.linalg.norm(a - fac.reconstruct_a(a), 2) <= bound.bound_a
        good &= np.linalg.norm(b - fac.reconstruct_b(b), 2) <= bound.bound_b

        a3 = _geometric_spectrum(rng, 30, 30)
        b3 = rng.standard_normal((30, 50))
        g3 = rng.standard_normal((40, 30))
        cfg = SketchConfig(k, p, ldeim_budget=k, seed=seed)
        factors = randomized_rsvd(a3, b3, g3, cfg)
        rb = rsvdcur_bound(a3, b3, g3, factors, k, k, p)
        fac3 = r_ldeim_rsvd_cur(a3, b3, g3, cfg)
        good &= np.linalg.norm(b3 - fac3.reconstruct_b(b3), 2) <= rb.bound_b
        good &= np.linalg.norm(g3 - fac3.reconstruct_g(g3), 2) <= rb.bound_g

        hits += bool(good)
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 120.0
    _report(7, "probabilistic bounds hold", ok,
            f"{hits}/{trials} trials within bounds, {elapsed:.1f}s")


def _deim_oracle(v):
    v = np.array(v, dtype=float)
    m, k = v.shape
    p = np.empty(k, dtype=int)
    p[0] = np.argmax(np.abs(v[:, 0]))
    for j in range(1, k):
        c = np.linalg.solve(v[p[:j], :j], v[p[:j], j])
        r = v[:, j] - v[:, :j] @ c
        p[j] = np.argmax(np.abs(r))
    return p


def _ldeim_oracle(v, k):
    v = np.array(v, dtype=float)
    m, khat = v.shape
    p = []
    for j in range(khat):
        p.append(int(np.argmax(np.abs(v[:, j]))))
        if j + 1 < khat:
            c = np.linalg.solve(v[np.array(p), : j + 1], v[np.array(p), j + 1])
            v[:, j + 1] = v[:, j + 1] - v[:, : j + 1] @ c
    # remaining indices ranked by row energy of the deflated basis
    scores = np.sum(v**2, axis=1)
    scores[p] = 0.0
    extra = np.argsort(-scores, kind="stable")[: k - khat]
    return np.concatenate([np.array(p, dtype=int), extra])


def test_criterion_8_selector_oracle_equivalence():
    t0 = time.perf_counter()
    all_match = True
    worst_interp = 0.0
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        k = int(rng.integers(1, 9))
        m = int(rng.integers(k + 1, 51))
        v, _ = np.linalg.qr(rng.standard_normal((m, k)))
        all_match &= np.array_equal(deim_select(v), _deim_oracle(v))
        khat = int(rng.integers(1, k + 1))
        all_match &= np.array_equal(
            ldeim_select(v[:, :khat], k),
            _ldeim_oracle(v[:, :khat], k),
        )
        # interpolation identity: the projection agrees with x on the rows p
        p = deim_select(v)
        x = rng.standard_normal(m)
        proj = v @ np.linalg.solve(v[p, :], x[p])
        worst_interp = max(worst_interp, float(np.max(np.abs(proj[p] - x[p]))))
    elapsed = time.perf_counter() - t0
    ok = all_match and worst_interp <= 1e-10 and elapsed < 5.0
    _report(8, "selector oracle equivalence on 200 inputs", ok,
            f"oracles match: {all_match}, interpolation residual "
            f"{worst_interp:.2e}, {elapsed:.1f}s")
