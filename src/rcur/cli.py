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
from .gcur import gcur_deterministic, r_ldeim_gcur
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


def _write_report(path, rows):
    """CSV of ``rows``, its columns the keys of the first; refused when empty."""
    if not rows:
        raise ValueError(f"no rows to write to {path}")
    fieldnames = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _selection(args):
    """(cfg, khat): the randomized run's sketch config (None when
    deterministic) and the basis columns the selection reads, which every
    report's khat column gives.  khat is k for ``--method deim``, else
    ``--khat`` (default ceil(k/2)); a randomized run reads min(k, khat + p)."""
    if args.method == "deim":
        khat = args.k
    else:
        khat = default_khat(args.k) if args.khat is None else args.khat
    if not args.randomized:
        return None, khat
    cfg = SketchConfig(args.k, args.oversampling, ldeim_budget=khat,
                       seed=args.seed)
    return cfg, cfg.columns_read()


def _read_inputs(args):
    """The input matrices, from ``.csv`` or Matrix Market files."""
    return [read_csv(x) if x.endswith(".csv") else read_matrix(x)
            for x in (getattr(args, name) for name in args.inputs)]


def _write_matrices(prefix, named):
    """One ``{prefix}_{name}.mtx`` per entry of the dict ``named``."""
    for name, mat in named.items():
        write_matrix(f"{prefix}_{name}.mtx", mat)


def _factor_files(args):
    """``gsvd``/``rsvd``: factor the inputs, write one ``.mtx`` per factor
    in ``args.files`` and the per-index values as ``_vals.csv``."""
    mats = _read_inputs(args)
    factors = (args.rand(*mats, _selection(args)[0]) if args.randomized
               else args.det(*mats))
    _write_matrices(args.out_prefix, {name: getattr(factors, name.lower())
                                      for name in args.files})
    vals = args.vals(factors)
    rows = [{col: float(x) for col, x in zip(vals, xs)}
            for xs in zip(*vals.values())]
    _write_report(f"{args.out_prefix}_vals.csv", rows)


def _report_row(args):
    """``cur``/``gcur``/``rsvd-cur``: decompose the inputs, timing only the
    library call, and write the one-row report.  Each input x has the error
    column ``err_x``, its relative error against ``fac.reconstruct_x``;
    ``cur`` factors A alone, so its ``err_b`` stays empty."""
    mats = _read_inputs(args)
    cfg, khat = _selection(args)
    t0 = time.perf_counter()
    fac = (args.det(*mats, args.k, khat) if cfg is None
           else args.rand(*mats, cfg))
    wall_ms = (time.perf_counter() - t0) * 1e3
    row = {
        "method": args.method, "k": args.k, "khat": khat,
        "p": "" if cfg is None else args.oversampling,
        "seed": "" if cfg is None else args.seed, "err_a": "", "err_b": "",
    }
    for name, x in zip(args.inputs, mats):
        row[f"err_{name}"] = relative_error(
            x, getattr(fac, f"reconstruct_{name}")(x))
    row["wall_ms"] = wall_ms
    for name in args.indices:
        row[f"indices_{name}"] = ";".join(map(str, getattr(fac, name)))
    _write_report(args.report, [row])


# rcur synth's kinds: each maps the parsed flags to the named matrices
# the command writes, one ``{prefix}_{name}.mtx`` each
SYNTH_KINDS = {
    "sparse-lowrank": lambda a: {
        "A": sparse_lowrank(a.m, a.n, density=a.density, seed=a.seed)},
    "toeplitz-pair": lambda a: dict(zip(
        ("A", "E", "AE"), bench.exp1_instance(a.m, a.n, a.eps, a.seed))),
    "bfg-triplet": lambda a: dict(zip(
        ("A", "AE", "B", "G"),
        bench.exp4_instance(a.l, a.d, a.m, a.eps, a.seed))),
    "subgroup": lambda a: dict(zip(
        ("target", "background"), subgroup_data(a.m, a.d, seed=a.seed))),
}


def _cmd_synth(args):
    _write_matrices(args.out_prefix, SYNTH_KINDS[args.kind](args))


def _cmd_bench(args):
    _write_report(args.out, args.rows(args))


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

    def add_command(name, help, inputs, out):
        # one path flag per input matrix, in the entry points' order
        p = sub.add_parser(name, help=help)
        for x in inputs:
            p.add_argument(f"--{x}", required=True)
        p.add_argument(out, required=True)
        p.set_defaults(inputs=inputs)
        return p

    # factor commands: entry points, factor files and value columns
    p = add_command("gsvd", "generalized SVD of a pair", ("a", "b"),
                    "--out-prefix")
    add_rand_flags(p)
    p.set_defaults(func=_factor_files, det=gsvd, rand=randomized_gsvd,
                   files=("U", "V", "Y"),
                   vals=lambda f: {"gamma": f.gamma, "beta": f.beta,
                                   "ratio": f.ratio})

    p = add_command("rsvd", "restricted SVD of a triplet", ("a", "b", "g"),
                    "--out-prefix")
    add_rand_flags(p)
    p.set_defaults(func=_factor_files, det=rsvd_deterministic,
                   rand=randomized_rsvd, files=("Z", "W", "U", "V"),
                   vals=lambda f: {"alpha": f.alpha, "beta": f.beta,
                                   "gamma": f.gamma})

    # report commands: entry points and index fields.
    # deim_cur never sketches, so cur takes no sketch flags and its p, seed
    # and err_b columns stay empty
    p = add_command("cur", "DEIM-type CUR of a single matrix", ("a",),
                    "--report")
    add_rank_flags(p, k_required=True)
    p.set_defaults(func=_report_row, randomized=False, det=deim_cur,
                   indices=("p", "s"))

    p = add_command("gcur", "generalized CUR of a pair", ("a", "b"),
                    "--report")
    add_rand_flags(p, k_required=True)
    p.set_defaults(func=_report_row, det=gcur_deterministic, rand=r_ldeim_gcur,
                   indices=("p", "s_a", "s_b"))

    p = add_command("rsvd-cur", "RSVD-CUR of a triplet", ("a", "b", "g"),
                    "--report")
    add_rand_flags(p, k_required=True)
    p.set_defaults(func=_report_row, det=rsvd_cur, rand=r_ldeim_rsvd_cur,
                   indices=("p", "p_b", "s", "s_g"))

    p = sub.add_parser("synth", help="write synthetic benchmark matrices")
    p.add_argument("--kind", required=True, choices=list(SYNTH_KINDS))
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
    p1.set_defaults(func=_cmd_bench, rows=lambda a: bench.exp1_sweep(
        a.m, a.n, a.eps, list(range(a.kstep, a.kmax + 1, a.kstep)),
        seeds=list(range(a.seeds)), oversampling=a.oversampling))

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
    p4.set_defaults(func=_cmd_bench, rows=lambda a: bench.exp4_run(
        a.l, a.d, a.m, a.k, a.eps, a.oversampling, seeds=list(range(a.seeds))))

    return parser


def run(argv=None):
    """Parse ``argv`` and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "randomized", False) and args.k is None:
        parser.error(f"{args.command}: --randomized requires -k")
    if getattr(args, "khat", None) is not None and args.method != "ldeim":
        parser.error(f"{args.command}: --khat requires --method ldeim")
    try:
        args.func(args)
    except (np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
