"""Set-up, the timed closed loop, output checks and the result line.

Imported by ``run.py`` after the BLAS thread count is pinned and ``rcur`` is
on the path.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import COMPUTED, Tracer
from workloads import OpFailed

SETUP_REPEATS = 3
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile


def _openblas_threads():
    """Thread count reported by NumPy's bundled OpenBLAS, or None."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads_set": threads,
        "blas_threads_runtime": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
    }


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, but never below the median, so with fewer than
    2 * TAIL_BEYOND samples it is the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _index_problem(label, idx, dim, k):
    idx = np.asarray(idx)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        return f"{label}: not a 1-d integer vector"
    if len(idx) != k:
        return f"{label}: {len(idx)} indices, expected k={k}"
    if len(idx) and (idx.min() < 0 or idx.max() >= dim):
        return f"{label}: index out of range [0, {dim})"
    if len(np.unique(idx)) != len(idx):
        return f"{label}: duplicate indices"
    return None


class Runner:
    """Runs the ops of one workload, checks their outputs, keeps the samples."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first = {}        # (op name, input no) -> (output, index vectors)
        self.ops = []          # one record per op run inside the timed loop

    def fail(self, why):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def attempt(self, op, inst_no, inst, round_no=None, traced=False):
        """Run one op and check it; ``round_no`` None means outside the loop."""
        self.attempted += 1
        self.tracer.op = len(self.ops)
        raised = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                raw = op.run(inst)
            except (Exception, SystemExit) as exc:  # counted, not fatal
                raised = exc
            wall = time.perf_counter() - t0
        if round_no is not None:
            self.ops.append({
                "op": op.name, "kind": op.kind, "input": inst_no,
                "round": round_no, "traced": traced, "wall_s": wall,
                "raised": raised is not None, "warnings": len(caught),
                "user_warnings": sum(issubclass(w.category, UserWarning)
                                     for w in caught),
            })
        if raised is not None:
            self.fail(f"{op.name} on input {inst_no}: {raised!r}")
            return
        try:
            out = op.collect(inst, raw)
            index_sets = self.wl.indices(inst, out)
        except (OpFailed, KeyError, ValueError, OSError) as exc:
            self.fail(f"{op.name} on input {inst_no}: {exc!r}")
            return
        for label, idx, dim, k in index_sets:
            problem = _index_problem(label, idx, dim, k)
            if problem:
                self.fail(f"{op.name} on input {inst_no}: {problem}")
                return
        vectors = [np.array(s[1]) for s in index_sets]
        key = (op.name, inst_no)
        if key not in self.first:
            self.first[key] = (out, vectors)
        elif not all(np.array_equal(a, b)
                     for a, b in zip(self.first[key][1], vectors)):
            self.fail(f"{op.name} on input {inst_no}: indices differ from "
                      "its first pass")

    def times_ms(self, kind, traced=False):
        return [o["wall_s"] * 1e3 for o in self.ops if o["kind"] == kind
                and o["traced"] == traced and not o["raised"]]


def setup(wl, seeds, workdir):
    """Generate every input and call each op once; returns the inputs."""
    instances = [wl.make(s, workdir) for s in seeds]
    for op in wl.ops:
        try:  # a failing op is counted by the timed loop, on the same input
            op.collect(instances[0], op.run(instances[0]))
        except (Exception, SystemExit):
            pass
    return instances


def measure(args, wl, runner, workdir):
    """Set-up, timed loop, coverage pass and errors.  Returns set-up seconds,
    the wall seconds of each round and the errors per op kind and per op."""
    seeds = [int(s) for s in
             np.random.SeedSequence(args.seed).generate_state(wl.n_inputs)]
    setup_s = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(SETUP_REPEATS):
            instances = None  # free the previous inputs first
            t0 = time.perf_counter()
            instances = setup(wl, seeds[:wl.n_timed], workdir)
            setup_s.append(time.perf_counter() - t0)

    schedule = wl.schedule()
    round_no = 0
    round_s = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        # traced runs pair each traced round with an untraced one on one input
        traced = bool(args.trace) and round_no % 2 == 0
        inst_no = (round_no // (1 + args.trace)) % len(instances)
        if traced:
            runner.tracer.install()
        try:
            for op in schedule:
                runner.attempt(op, inst_no, instances[inst_no], round_no, traced)
        finally:
            runner.tracer.uninstall()
        round_no += 1
        t_now = time.perf_counter()
        round_s.append(t_now - t_round)
        if t_now - t_start >= args.seconds:
            break

    # Every (op, input) pair enters the error medians once.  Inputs past the
    # timed ones, and pairs the loop did not reach, run here, off the clock.
    kind_of = {op.name: op.kind for op in wl.ops}
    errors = {"det": [], "rand": []}
    per_op = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for inst_no, seed in enumerate(seeds):
            inst = (instances[inst_no] if inst_no < len(instances)
                    else wl.make(seed, workdir))
            for op in wl.ops:
                if (op.name, inst_no) not in runner.first:
                    runner.attempt(op, inst_no, inst)
                if (op.name, inst_no) not in runner.first:
                    continue  # failed, and counted
                err = wl.error(inst, runner.first.pop((op.name, inst_no))[0])
                if not np.isfinite(err):
                    runner.fail(f"{op.name} on input {inst_no}: error is {err}")
                    continue
                errors[kind_of[op.name]].append(err)
                per_op.setdefault(op.name, []).append(err)
    if wl.band is not None:
        lo, hi = wl.band
        for kind, errs in errors.items():
            med = statistics.median(errs) if errs else float("nan")
            if not lo <= med <= hi:
                runner.fail(f"{kind} median error {med:.4f} outside [{lo}, {hi}]")
    return statistics.median(setup_s), round_s, errors, per_op


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(runner, errors, setup_s, round_s, ops_per_round):
    """Every end-to-end metric, name -> value, with notes for the report."""
    m, notes = {}, []
    for kind in ("det", "rand"):
        xs = runner.times_ms(kind)
        m[f"{kind}_ms_p50"] = _median(xs)
        m[f"{kind}_ms_tail"], pct = tail(xs) if xs else (float("nan"), 0.0)
        notes.append(f"{kind}_ms_tail is p{pct:.1f} of {len(xs)} samples")
    # per-round rates, so that a burst of load on the host moves the median
    # round rather than the whole figure
    m["ops_per_s"] = statistics.median(ops_per_round / t for t in round_s)
    m["det_err_median"] = _median(errors["det"])
    m["rand_err_median"] = _median(errors["rand"])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["setup_s"] = setup_s
    m["ops_failed_frac"] = runner.failed / runner.attempted
    return m, notes


def per_layer(runner):
    """Every per-layer metric of the traced rounds, name -> value."""
    tracer = runner.tracer
    traced = {i for i, o in enumerate(runner.ops) if o["traced"]}
    rounds = sorted({runner.ops[i]["round"] for i in traced})
    round_of_op = {i: o["round"] for i, o in enumerate(runner.ops)}
    m = tracer.medians(round_of_op, rounds)

    cli_ops = {s[2] for s in tracer.spans if s[3] == "cli.run"}
    for metric, key, ops in (("cli.warnings", "warnings", cli_ops),
                             ("ops.user_warnings", "user_warnings", traced)):
        per_round = dict.fromkeys(rounds, 0)
        for i in traced:
            if i in ops:
                per_round[runner.ops[i]["round"]] += runner.ops[i][key]
        m[metric] = float(statistics.median(per_round.values()))
    for kind in ("det", "rand"):
        m[f"trace.overhead_{kind}_ms"] = (_median(runner.times_ms(kind, True))
                                          - _median(runner.times_ms(kind, False)))
    self_s = tracer.op_self_seconds()
    ratio = max((self_s.get(i, 0.0) / runner.ops[i]["wall_s"] for i in traced),
                default=0.0)
    if ratio > 1.0 + 1e-9:
        runner.fail("wrapped self times of an op sum to more than its wall time")
    return m, [f"trace: the wrapped self times of one op sum to at most "
               f"{ratio:.4f} of its wall time"]


def main(args, threads, root):
    env = environment(args, threads)
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    runner = Runner(wl, Tracer([workloads.M[n] for n in workloads.LAYERS]))
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, round_s, errors, per_op = measure(args, wl, runner,
                                                   str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs {wl.n_inputs}, the first {wl.n_timed} timed: "
          f"{json.dumps(wl.notes)}")
    for name, errs in per_op.items():
        print(f"error_median[{name}] {_median(errs):.6g} over {len(errs)} inputs")
    units = {e["name"]: e["unit"] for e in listed}
    record = {"env": env, "inputs": wl.notes, "errors": per_op,
              "ops": runner.ops}
    if args.trace:
        values, notes = per_layer(runner)
        record.update(computed_metrics=sorted(COMPUTED),
                      spans=runner.tracer.span_records())
    else:
        values, notes = end_to_end(runner, errors, setup_s, round_s,
                                   len(wl.schedule()))
        units["ops_failed_frac"] = "1"
    for note in notes:
        print(note)
    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {values[name]:.6g} {unit}{label}")
    for why in runner.failures:
        print(f"failure: {why}")
    with open(out_dir / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh)

    finite = all(np.isfinite(values[e["name"]]) for e in listed)
    metrics = {e["name"]: {"value": float(values[e["name"]])
                           if np.isfinite(values[e["name"]]) else None,
                           "unit": e["unit"]}
               for e in listed}
    ok = runner.failed == 0 and finite
    print(json.dumps({"correct": ok, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0
