"""Command-line surface for the decompositions, generators and benchmarks.

Exit codes: 0 on success, 1 on numerical failure (rank deficiency,
non-finite input, incompatible shapes, a rank the factors cannot carry),
2 on usage errors.

The BLAS/LAPACK thread pools are set by the usual environment variables,
``OPENBLAS_NUM_THREADS`` (OpenBLAS) or ``OMP_NUM_THREADS`` (OpenMP builds),
read when numpy loads.  All reports are CSV; identical command lines
(including ``--seed``) produce byte-identical reports apart from the
``wall_ms`` column, whatever the thread count.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import bench
from .cur import deim_cur
from .gcur import gcur_deterministic, gcur_error, r_ldeim_gcur
from .gsvd import gsvd, randomized_gsvd
from .io import read_csv, read_matrix, write_matrix
from .linalg import relative_error
from .rsvd import randomized_rsvd, rsvd_deterministic
from .rsvd_cur import r_ldeim_rsvd_cur, rsvd_cur
from .selection import default_khat
from .sketch import SketchConfig
from .synth import sparse_lowrank, subgroup_data

__all__ = ["main", "run"]


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_report(path, rows, fieldnames):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _join_indices(idx):
    return ";".join(str(int(i)) for i in idx)


def _read(path):
    if str(path).endswith(".csv"):
        return read_csv(path)
    return read_matrix(path)


def _khat(args):
    """L-DEIM budget: k for ``--method deim``, else ``--khat`` (default
    ceil(k/2)).  A deterministic selection reads that many basis columns."""
    if args.method == "deim":
        return args.k
    return default_khat(args.k) if args.khat is None else args.khat


def _config(args):
    """Sketch parameters of a randomized run, its budget from ``_khat``."""
    return SketchConfig(args.k, args.oversampling, ldeim_budget=_khat(args),
                        seed=args.seed)


def _selection(args):
    """(cfg, khat): the randomized run's config (None when deterministic)
    and the basis columns the selection reads, which every report's khat
    column gives: min(k, khat + p) on a randomized run."""
    if not args.randomized:
        return None, _khat(args)
    cfg = _config(args)
    return cfg, cfg.columns_read()


def _cmd_gsvd(args):
    a, b = _read(args.a), _read(args.b)
    if args.randomized:
        factors = randomized_gsvd(a, b, _config(args))
    else:
        factors = gsvd(a, b)
    write_matrix(f"{args.out_prefix}_U.mtx", factors.u)
    write_matrix(f"{args.out_prefix}_V.mtx", factors.v)
    write_matrix(f"{args.out_prefix}_Y.mtx", factors.y)
    ratio = factors.gamma / np.maximum(factors.beta, 1e-300)
    rows = [
        {"gamma": float(g), "beta": float(be), "ratio": float(r)}
        for g, be, r in zip(factors.gamma, factors.beta, ratio)
    ]
    _write_report(f"{args.out_prefix}_vals.csv", rows, ["gamma", "beta", "ratio"])
    return 0


def _cmd_rsvd(args):
    a, b, g = _read(args.a), _read(args.b), _read(args.g)
    if args.randomized:
        factors = randomized_rsvd(a, b, g, _config(args))
    else:
        factors = rsvd_deterministic(a, b, g)
    write_matrix(f"{args.out_prefix}_Z.mtx", factors.z)
    write_matrix(f"{args.out_prefix}_W.mtx", factors.w)
    write_matrix(f"{args.out_prefix}_U.mtx", factors.u)
    write_matrix(f"{args.out_prefix}_V.mtx", factors.v)
    rows = [
        {"alpha": float(al), "beta": float(be), "gamma": float(ga)}
        for al, be, ga in zip(factors.alpha, factors.beta, factors.gamma)
    ]
    _write_report(f"{args.out_prefix}_vals.csv", rows, ["alpha", "beta", "gamma"])
    return 0


def _cmd_cur(args):
    a = _read(args.a)
    khat = _khat(args)
    t0 = time.perf_counter()
    fac = deim_cur(a, args.k, khat)
    wall_ms = (time.perf_counter() - t0) * 1e3
    err = relative_error(a, fac.reconstruct(a))
    rows = [{
        "method": args.method, "k": args.k, "khat": khat, "p": "", "seed": "",
        "err_a": err, "err_b": "", "wall_ms": wall_ms,
        "indices_p": _join_indices(fac.p), "indices_s": _join_indices(fac.s),
    }]
    _write_report(args.report, rows, list(rows[0]))
    return 0


def _cmd_gcur(args):
    a, b = _read(args.a), _read(args.b)
    cfg, khat = _selection(args)
    t0 = time.perf_counter()
    if cfg is not None:
        fac = r_ldeim_gcur(a, b, cfg)
    else:
        fac = gcur_deterministic(a, b, args.k, khat)
    wall_ms = (time.perf_counter() - t0) * 1e3
    rows = [{
        "method": args.method, "k": args.k, "khat": khat,
        "p": args.oversampling if args.randomized else "",
        "seed": args.seed if args.randomized else "",
        "err_a": gcur_error(a, fac),
        "err_b": relative_error(b, fac.reconstruct_b(b)),
        "wall_ms": wall_ms,
        "indices_p": _join_indices(fac.p),
        "indices_s_a": _join_indices(fac.s_a),
        "indices_s_b": _join_indices(fac.s_b),
    }]
    _write_report(args.report, rows, list(rows[0]))
    return 0


def _cmd_rsvd_cur(args):
    a, b, g = _read(args.a), _read(args.b), _read(args.g)
    cfg, khat = _selection(args)
    t0 = time.perf_counter()
    if cfg is not None:
        fac = r_ldeim_rsvd_cur(a, b, g, cfg)
    else:
        fac = rsvd_cur(a, b, g, args.k, khat)
    wall_ms = (time.perf_counter() - t0) * 1e3
    rows = [{
        "method": args.method, "k": args.k, "khat": khat,
        "p": args.oversampling if args.randomized else "",
        "seed": args.seed if args.randomized else "",
        "err_a": relative_error(a, fac.reconstruct_a(a)),
        "err_b": relative_error(b, fac.reconstruct_b(b)),
        "err_g": relative_error(g, fac.reconstruct_g(g)),
        "wall_ms": wall_ms,
        "indices_p": _join_indices(fac.p),
        "indices_p_b": _join_indices(fac.p_b),
        "indices_s": _join_indices(fac.s),
        "indices_s_g": _join_indices(fac.s_g),
    }]
    _write_report(args.report, rows, list(rows[0]))
    return 0


def _cmd_synth(args):
    if args.kind == "sparse-lowrank":
        a = sparse_lowrank(args.m, args.n, density=args.density, seed=args.seed)
        write_matrix(f"{args.out_prefix}_A.mtx", a)
    elif args.kind == "toeplitz-pair":
        a, e, a_e = bench.exp1_instance(args.m, args.n, args.eps, args.seed)
        write_matrix(f"{args.out_prefix}_A.mtx", a)
        write_matrix(f"{args.out_prefix}_E.mtx", e)
        write_matrix(f"{args.out_prefix}_AE.mtx", a_e)
    elif args.kind == "bfg-triplet":
        a, a_e, b, g = bench.exp4_instance(args.l, args.d, args.m, args.eps,
                                           args.seed)
        write_matrix(f"{args.out_prefix}_A.mtx", a)
        write_matrix(f"{args.out_prefix}_AE.mtx", a_e)
        write_matrix(f"{args.out_prefix}_B.mtx", b)
        write_matrix(f"{args.out_prefix}_G.mtx", g)
    else:  # subgroup
        target, background = subgroup_data(args.m, args.d, seed=args.seed)
        write_matrix(f"{args.out_prefix}_target.mtx", target)
        write_matrix(f"{args.out_prefix}_background.mtx", background)
    return 0


_BENCH_FIELDS_EXP1 = ["experiment", "m", "n", "eps", "k", "method", "seed",
                      "err", "wall_ms"]
_BENCH_FIELDS_EXP4 = ["experiment", "l", "d", "m", "eps", "k", "khat", "p",
                      "method", "seed", "err", "wall_ms"]


def _cmd_bench(args):
    if args.experiment == "exp1":
        ks = list(range(args.kstep, args.kmax + 1, args.kstep))
        rows = bench.exp1_sweep(args.m, args.n, args.eps, ks,
                                seeds=list(range(args.seeds)),
                                oversampling=args.oversampling)
        fields = _BENCH_FIELDS_EXP1
    else:
        rows = bench.exp4_run(args.l, args.d, args.m, args.k, args.eps,
                              args.oversampling,
                              seeds=list(range(args.seeds)))
        fields = _BENCH_FIELDS_EXP4
    _write_report(args.out, rows, fields)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rcur",
        description="Randomized CUR-family decompositions of matrix pairs "
                    "and triplets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rank_flags(p, k_required=False):
        p.add_argument("-k", type=int, required=k_required, default=None,
                       help="target rank")
        p.add_argument("--khat", type=int, default=None,
                       help="L-DEIM basis budget, with --method ldeim "
                            "(default ceil(k/2))")
        p.add_argument("--method", choices=["deim", "ldeim"], default="deim")

    def add_rand_flags(p, k_required=False):
        add_rank_flags(p, k_required)
        p.add_argument("-p", "--oversampling", type=int, default=5,
                       dest="oversampling", help="sketch oversampling")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--randomized", action="store_true",
                       help="use the sketched variant")

    p = sub.add_parser("gsvd", help="generalized SVD of a pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out-prefix", required=True)
    add_rand_flags(p)
    p.set_defaults(func=_cmd_gsvd, needs_k_if_randomized=True)

    p = sub.add_parser("rsvd", help="restricted SVD of a triplet")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--out-prefix", required=True)
    add_rand_flags(p)
    p.set_defaults(func=_cmd_rsvd, needs_k_if_randomized=True)

    p = sub.add_parser("cur", help="DEIM-type CUR of a single matrix")
    p.add_argument("--a", required=True)
    p.add_argument("--report", required=True)
    add_rank_flags(p, k_required=True)
    p.set_defaults(func=_cmd_cur)

    p = sub.add_parser("gcur", help="generalized CUR of a pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--report", required=True)
    add_rand_flags(p, k_required=True)
    p.set_defaults(func=_cmd_gcur)

    p = sub.add_parser("rsvd-cur", help="RSVD-CUR of a triplet")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--report", required=True)
    add_rand_flags(p, k_required=True)
    p.set_defaults(func=_cmd_rsvd_cur)

    p = sub.add_parser("synth", help="write synthetic benchmark matrices")
    p.add_argument("--kind", required=True,
                   choices=["sparse-lowrank", "toeplitz-pair", "bfg-triplet",
                            "subgroup"])
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--density", type=float, default=0.025)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="seeded benchmark sweeps, CSV output")
    bsub = p.add_subparsers(dest="experiment", required=True)

    p1 = bsub.add_parser("exp1", help="pair recovery under Toeplitz noise")
    p1.add_argument("--m", type=int, required=True)
    p1.add_argument("--n", type=int, required=True)
    p1.add_argument("--eps", type=float, required=True)
    p1.add_argument("--kmax", type=int, required=True)
    p1.add_argument("--kstep", type=int, default=5)
    p1.add_argument("--seeds", type=int, default=1)
    p1.add_argument("-p", "--oversampling", type=int, default=5,
                    dest="oversampling")
    p1.add_argument("--out", required=True)
    p1.set_defaults(func=_cmd_bench)

    p4 = bsub.add_parser("exp4", help="triplet recovery under BFG noise")
    p4.add_argument("--l", type=int, required=True)
    p4.add_argument("--d", type=int, required=True)
    p4.add_argument("--m", type=int, required=True)
    p4.add_argument("-k", type=int, required=True)
    p4.add_argument("--eps", type=float, required=True)
    p4.add_argument("--seeds", type=int, default=1)
    p4.add_argument("-p", "--oversampling", type=int, required=True,
                    dest="oversampling")
    p4.add_argument("--out", required=True)
    p4.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None):
    """Parse ``argv`` and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_k_if_randomized", False):
        if args.randomized and args.k is None:
            parser.error(f"{args.command}: --randomized requires -k")
    if getattr(args, "khat", None) is not None and args.method != "ldeim":
        parser.error(f"{args.command}: --khat requires --method ldeim")
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
