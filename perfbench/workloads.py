"""The benchmark's four workloads: seeded inputs, the timed operations, output
checks and recovery errors.

Every operation is called through its ``rcur`` module object at call time, so
the spans that :mod:`tracer` installs around the library's public functions
see it.  Errors are evaluated here with plain NumPy, independently of the
library under test.
"""
from __future__ import annotations

import csv
import importlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LAYERS = ("linalg", "io", "selection", "sketch", "gsvd", "gcur", "rsvd",
          "rsvd_cur", "cli")

# ``rcur.gsvd`` and ``rcur.rsvd_cur`` are shadowed by functions of the same
# name in the package namespace, so modules are looked up by full name.
M = {name: importlib.import_module(f"rcur.{name}")
     for name in LAYERS + ("bench",)}


class OpFailed(Exception):
    """An operation returned, but its output is not acceptable."""


@dataclass(frozen=True)
class Op:
    name: str
    kind: str                                   # "det" or "rand"
    run: Callable[[Any], Any]                   # timed: (inst) -> raw output
    collect: Callable[[Any, Any], Any] = lambda inst, raw: raw  # untimed


@dataclass
class Workload:
    name: str
    n_inputs: int                               # inputs in the error medians
    n_timed: int                                # the first ones, held and timed
    make: Callable[[int, str], Any]             # (seed, workdir) -> inst
    ops: tuple[Op, ...]
    indices: Callable[[Any, Any], list]         # -> [(label, idx, dim, k)]
    error: Callable[[Any, Any], float]
    band: tuple[float, float] | None = None     # acceptance band of medians
    notes: dict = field(default_factory=dict)

    def schedule(self):
        """One round: the det op before each rand op, so both kinds get
        the same number of samples."""
        det = [op for op in self.ops if op.kind == "det"]
        rand = [op for op in self.ops if op.kind == "rand"]
        return [op for r in rand for op in (*det, r)]


def spectral_norm(x):
    """||x||_2 as the square root of the largest eigenvalue of x^T x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < x.shape[1]:
        x = x.T
    return float(np.sqrt(max(np.linalg.eigvalsh(x.T @ x)[-1], 0.0)))


def _cur_error(a, a_e, p, mid, s):
    """||A - A_E(:, p) M A_E(s, :)|| / ||A|| against the clean signal A."""
    return spectral_norm(a - a_e[:, p] @ mid @ a_e[s, :]) / spectral_norm(a)


# --------------------------------------------------------------- pair-exp1

@dataclass
class PairInst:
    e: np.ndarray
    a_e: np.ndarray
    cfgs: dict

    @property
    def a(self):
        """The clean signal, A_E - E (kept implicit to halve input memory)."""
        return self.a_e - self.e


def _gcur_indices(inst, fac, k):
    m, n = inst.a_e.shape
    return [("p", fac.p, n, k), ("s_a", fac.s_a, m, k),
            ("s_b", fac.s_b, inst.e.shape[0], k)]


def pair_exp1(tiny=False):
    m, n, eps, k, p = (400, 40, 0.2, 5, 2) if tiny else (10000, 200, 0.2, 20, 5)
    sketch = M["sketch"]

    def make(seed, workdir):
        _, e, a_e = M["bench"].exp1_instance(m, n, eps, seed)
        return PairInst(e, a_e, {"cfg": sketch.SketchConfig(k, p, seed=seed)})

    def det(i):
        return M["gcur"].gcur_from_factors(i.a_e, i.e, M["gsvd"].gsvd(i.a_e, i.e), k)

    return Workload(
        name="pair-exp1",
        n_inputs=3 if tiny else 8,
        n_timed=2 if tiny else 5,
        make=make,
        ops=(
            Op("gsvd+gcur_from_factors", "det", det),
            Op("r_deim_gcur", "rand",
               lambda i: M["gcur"].r_deim_gcur(i.a_e, i.e, i.cfgs["cfg"])),
            Op("r_ldeim_gcur", "rand",
               lambda i: M["gcur"].r_ldeim_gcur(i.a_e, i.e, i.cfgs["cfg"])),
        ),
        indices=lambda i, fac: _gcur_indices(i, fac, k),
        error=lambda i, fac: _cur_error(i.a, i.a_e, fac.p, fac.m_a, fac.s_a),
        band=None if tiny else (0.10, 0.22),
        notes={"shape": [m, n], "eps": eps, "k": k, "p": p},
    )


# ------------------------------------------------------------- pair-ksweep

def pair_ksweep(tiny=False):
    if tiny:
        m, n, eps, ks, p = 200, 60, 0.05, (2, 4, 6), 5
    else:
        m, n, eps, ks, p = 2000, 300, 0.05, tuple(range(10, 101, 10)), 5
    sketch = M["sketch"]

    def make(seed, workdir):
        _, e, a_e = M["bench"].exp1_instance(m, n, eps, seed)
        cfgs = {k: sketch.SketchConfig(k, p, seed=seed) for k in ks}
        return PairInst(e, a_e, cfgs)

    def det(i):
        factors = M["gsvd"].gsvd(i.a_e, i.e)
        return [M["gcur"].gcur_from_factors(i.a_e, i.e, factors, k) for k in ks]

    def rand(i):
        return [M["gcur"].r_ldeim_gcur(i.a_e, i.e, i.cfgs[k]) for k in ks]

    def indices(i, facs):
        if [f.k for f in facs] != list(ks):
            raise OpFailed(f"sweep returned ranks {[f.k for f in facs]}")
        return [(f"k={f.k}:{label}", idx, dim, k)
                for f in facs for label, idx, dim, k in _gcur_indices(i, f, f.k)]

    return Workload(
        name="pair-ksweep",
        n_inputs=3 if tiny else 6,
        n_timed=2 if tiny else 6,
        make=make,
        ops=(Op("gsvd+gcur_from_factors sweep", "det", det),
             Op("r_ldeim_gcur sweep", "rand", rand)),
        indices=indices,
        error=lambda i, facs: min(
            _cur_error(i.a, i.a_e, f.p, f.m_a, f.s_a) for f in facs),
        notes={"shape": [m, n], "eps": eps, "ks": list(ks), "p": p},
    )


# ------------------------------------------------------------ triplet-exp4

@dataclass
class TripletInst:
    a: np.ndarray
    a_e: np.ndarray
    b: np.ndarray
    g: np.ndarray
    cfgs: dict


def triplet_exp4(tiny=False):
    if tiny:
        ell, d, m, k, eps, p, khats = 120, 60, 30, 4, 0.1, 10, (4, 2)
    else:
        ell, d, m, k, eps, p, khats = 1000, 500, 100, 10, 0.1, 80, (10, 5)
    sketch = M["sketch"]

    def make(seed, workdir):
        a, a_e, b, g = M["bench"].exp4_instance(ell, d, m, eps, seed)
        cfgs = {kh: sketch.SketchConfig(k, p, ldeim_budget=kh, seed=seed)
                for kh in khats}
        return TripletInst(a, a_e, b, g, cfgs)

    def rand_op(khat):
        return Op(f"r_ldeim_rsvd_cur khat={khat}", "rand",
                  lambda i: M["rsvd_cur"].r_ldeim_rsvd_cur(i.a_e, i.b, i.g,
                                                            i.cfgs[khat]))

    def indices(i, fac):
        return [("p", fac.p, m, k), ("p_b", fac.p_b, ell, k),
                ("s", fac.s, m, k), ("s_g", fac.s_g, d, k)]

    return Workload(
        name="triplet-exp4",
        n_inputs=4 if tiny else 60,
        n_timed=3 if tiny else 60,
        make=make,
        ops=(Op("rsvd_cur", "det",
                lambda i: M["rsvd_cur"].rsvd_cur(i.a_e, i.b, i.g, k)),
             *(rand_op(kh) for kh in khats)),
        indices=indices,
        error=lambda i, fac: _cur_error(i.a, i.a_e, fac.p, fac.m_a, fac.s),
        band=None if tiny else (0.07, 0.14),
        notes={"l_d_m": [ell, d, m], "k": k, "eps": eps, "p": p,
               "khats": list(khats)},
    )


# --------------------------------------------------------------- cli-files

@dataclass
class FileInst:
    a_path: str
    e_path: str
    seed: int


def _report(path):
    """The single data row of a ``rcur gcur`` report."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise OpFailed(f"report {path} has {len(rows)} rows")
    return rows[0]


def cli_files(tiny=False):
    m, n, eps, k = (200, 30, 0.1, 5) if tiny else (2000, 300, 0.1, 20)

    def make(seed, workdir):
        _, e, a_e = M["bench"].exp1_instance(m, n, eps, seed)
        stem = os.path.join(workdir, f"pair-{seed}")
        M["io"].write_matrix(f"{stem}_AE.mtx", a_e)
        M["io"].write_csv(f"{stem}_E.csv", e)
        return FileInst(f"{stem}_AE.mtx", f"{stem}_E.csv", seed)

    def cli_op(name, kind, extra):
        def report_path(i):
            return os.path.join(os.path.dirname(i.a_path), f"report-{kind}.csv")

        def run(i):
            return M["cli"].run(["gcur", "--a", i.a_path, "--b", i.e_path,
                                 "-k", str(k), *extra(i),
                                 "--report", report_path(i)])

        def collect(i, code):
            if code != 0:
                raise OpFailed(f"rcur exited with code {code}")
            row = _report(report_path(i))
            os.remove(report_path(i))
            return row

        return Op(name, kind, run, collect)

    def indices(i, row):
        out = []
        for label, dim in (("p", n), ("s_a", m), ("s_b", m)):
            text = row[f"indices_{label}"]
            idx = np.array([int(t) for t in text.split(";")] if text else [],
                           dtype=np.intp)
            out.append((label, idx, dim, k))
        return out

    return Workload(
        name="cli-files",
        n_inputs=3 if tiny else 8,
        n_timed=2 if tiny else 3,
        make=make,
        ops=(cli_op(f"rcur gcur -k {k}", "det", lambda i: []),
             cli_op(f"rcur gcur -k {k} --method ldeim --randomized", "rand",
                    lambda i: ["--method", "ldeim", "--randomized",
                               "--seed", str(i.seed)])),
        indices=indices,
        error=lambda i, row: float(row["err_a"]),
        notes={"shape": [m, n], "eps": eps, "k": k},
    )


WORKLOADS = {
    "pair-exp1": pair_exp1,
    "pair-ksweep": pair_ksweep,
    "triplet-exp4": triplet_exp4,
    "cli-files": cli_files,
}
