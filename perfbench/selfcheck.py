"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at tiny shapes on a held-out seed, untraced and traced,
and checks that each run succeeds and emits every end-to-end name (including
``ops_failed_frac``) and every per-layer name with its unit.  Then runs the
benchmark in a directory holding only ``BENCHMARK.json`` and this directory,
where it must fail without printing a result.  Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES, parse_args

HELD_OUT_SEED = 7
END_TO_END = {"det_ms_p50": "ms", "det_ms_tail": "ms", "rand_ms_p50": "ms",
              "rand_ms_tail": "ms", "ops_per_s": "1/s", "det_err_median": "1",
              "rand_err_median": "1", "peak_rss_mb": "MB", "setup_s": "s",
              "ops_failed_frac": "1"}
PER_LAYER = (
    "gsvd.gsvd.self_ms", "linalg.qr_thin.self_ms", "linalg.qr_thin.flops",
    "gsvd.randomized_gsvd.self_ms", "sketch.range_finder.self_ms",
    "sketch.gaussian_matrix.self_ms", "gcur.middle_matrix.self_ms",
    "gcur.middle_matrix.calls", "gcur.gcur_from_factors.self_ms",
    "selection.deim_select.self_ms", "selection.deim_select.calls",
    "selection.ldeim_select.self_ms", "linalg.complete_orthonormal.self_ms",
    "linalg.complete_orthonormal.bytes_out", "rsvd.rsvd_deterministic.self_ms",
    "rsvd.randomized_rsvd.self_ms", "rsvd_cur.rsvd_cur_from_factors.self_ms",
    "sketch.width_ratio_max", "linalg.as_matrix.calls", "linalg.as_matrix.elems",
    "linalg.select.bytes_copied", "linalg.two_norm.self_ms",
    "io.read_matrix.self_ms", "io.read_csv.self_ms", "io.bytes_read",
    "cli.run.self_ms", "cli.warnings", "ops.user_warnings",
    "trace.overhead_det_ms", "trace.overhead_rand_ms",
)
ENV_KEYS = ("numpy", "scipy", "blas_version", "blas_threads_set",
            "blas_threads_runtime", "nproc", "cpu_model", "seed")


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_run(proc, spec, trace):
    """List of problems with one run's output."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"not correct: {result['failed']} failed; "
                        f"{[x for x in lines if x.startswith('failure')]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']}")
    listed = {e["name"]: e["unit"]
              for e in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != listed:
        problems.append(f"metrics differ from BENCHMARK.json: {got}")
    wanted = dict.fromkeys(PER_LAYER, None) if trace else END_TO_END
    for name, unit in wanted.items():
        unit = unit or listed.get(name, "?")
        pattern = rf"^{re.escape(name)} \S+ {re.escape(unit)}\b"
        if not any(re.match(pattern, x) for x in lines):
            problems.append(f"{name} [{unit}] not printed")
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    missing = [k for k in ENV_KEYS if env.get(k) in (None, "")]
    if missing or env["seed"] != HELD_OUT_SEED:
        problems.append(f"environment stamp lacks {missing} or the seed")
    return problems


def main():
    if parse_args(["--workload", WORKLOAD_NAMES[0]]).seed == HELD_OUT_SEED:
        print("the held-out seed equals the default seed")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems = check_run(bench(ROOT, workload, trace), spec, trace)
            failed += bool(problems)
            print(f"{workload} trace={trace}: "
                  f"{'; '.join(problems) if problems else 'ok'}")

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failed += not bare_ok
    print(f"without sources: exit code {proc.returncode}, "
          f"{'ok' if bare_ok else 'printed a result or exited 0'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
