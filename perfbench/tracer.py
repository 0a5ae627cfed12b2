"""Spans around the public functions of the ``rcur`` modules, installed from
outside the library.

Modules import with ``from .linalg import qr_thin``, so a function is wrapped
wherever a module of the package binds it, not only where it is defined.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its wrapped children cover.

Some counts are computed from argument shapes or file sizes rather than
measured; they repeat exactly and are listed in ``COMPUTED``.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from statistics import median


def _qr_flops(a):
    """Householder thin QR plus forming the explicit m-by-n Q."""
    m, n = a.shape
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _bytes_out(q):
    """Bytes of the m-by-m completion; a square input is returned as is."""
    m, n = q.shape
    return 8.0 * m * m if m > n else 0.0


# per wrapped function: (call arguments) -> {counter: value}
_COUNTERS = {
    "linalg.qr_thin": lambda a, **_: {"flops": _qr_flops(a)},
    "linalg.as_matrix": lambda a, *_, **__: {"elems": float(a.size)},
    "linalg.complete_orthonormal": lambda q, **_: {"bytes_out": _bytes_out(q)},
    "linalg.select_columns":
        lambda a, idx, **_: {"bytes_copied": 8.0 * a.shape[0] * len(idx)},
    "linalg.select_rows":
        lambda a, idx, **_: {"bytes_copied": 8.0 * len(idx) * a.shape[1]},
    "sketch.gaussian_matrix":
        lambda rows, cols, *_, **__: {"width_ratio": cols / rows},
    "io.read_matrix": lambda path, **_: {"bytes_read": float(os.path.getsize(path))},
    "io.read_csv": lambda path, **_: {"bytes_read": float(os.path.getsize(path))},
}

# per-layer metrics that are counts computed from shapes or file sizes:
# metric -> (functions, counter, how the per-round value is formed)
COMPUTED = {
    "linalg.qr_thin.flops": (("linalg.qr_thin",), "flops", sum),
    "linalg.as_matrix.elems": (("linalg.as_matrix",), "elems", sum),
    "linalg.complete_orthonormal.bytes_out":
        (("linalg.complete_orthonormal",), "bytes_out", sum),
    "linalg.select.bytes_copied":
        (("linalg.select_columns", "linalg.select_rows"), "bytes_copied", sum),
    "sketch.width_ratio_max": (("sketch.gaussian_matrix",), "width_ratio",
                               lambda xs: max(xs, default=0.0)),
    "io.bytes_read": (("io.read_matrix", "io.read_csv"), "bytes_read", sum),
}


class Tracer:
    """Wraps every public function of ``modules`` and records one span per call."""

    def __init__(self, modules):
        self.functions = {}              # "module.function" -> original
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self.functions[f"{short}.{name}"] = fn
        self._wrappers = {id(fn): (fn, self._wrap(q, fn))
                          for q, fn in self.functions.items()}
        self._patched = []
        self._stack = []                 # [span id, child seconds] per open span
        self._next_id = 0
        self.op = None                   # id of the op whose calls are recorded
        self.spans = []                  # (id, parent, op, name, t0, t1, self_s, counts)

    def _wrap(self, qualname, fn):
        counter = _COUNTERS.get(qualname)

        def wrapper(*args, **kwargs):
            counts = None
            if counter is not None:
                try:
                    counts = counter(*args, **kwargs)
                except (AttributeError, OSError, TypeError, ValueError):
                    counts = None  # the call itself will report bad arguments
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans.append((span_id, parent, self.op, qualname, t0, t1,
                                   t1 - t0 - frame[1], counts))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Rebind every original in every loaded ``rcur`` module to its wrapper."""
        for name, mod in list(sys.modules.items()):
            if name != "rcur" and not name.startswith("rcur."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def op_self_seconds(self):
        """Sum of span self times per op id."""
        out = defaultdict(float)
        for _, _, op, _, _, _, self_s, _ in self.spans:
            out[op] += self_s
        return out

    def per_round(self, round_of_op):
        """Per-round sums: ``<fn>.calls``, ``<fn>.self_ms`` and the computed counts."""
        rounds = defaultdict(lambda: defaultdict(float))
        counted = defaultdict(lambda: defaultdict(list))
        for _, _, op, name, _, _, self_s, counts in self.spans:
            r = round_of_op[op]
            rounds[r][f"{name}.calls"] += 1
            rounds[r][f"{name}.self_ms"] += self_s * 1e3
            for key, val in (counts or {}).items():
                counted[r][(name, key)].append(val)
        for r, per in rounds.items():
            for metric, (names, key, agg) in COMPUTED.items():
                per[metric] = agg([v for n in names for v in counted[r][(n, key)]])
        return rounds

    def medians(self, round_of_op, rounds):
        """Median over ``rounds`` of every per-round value (0 where absent)."""
        per = self.per_round(round_of_op)
        names = set(COMPUTED)
        for q in self.functions:
            names.update((f"{q}.calls", f"{q}.self_ms"))
        return {n: float(median(per[r].get(n, 0.0) for r in rounds))
                for n in sorted(names)}

    def span_records(self):
        """All spans as dicts, times in ms relative to the first span."""
        t_base = min((s[4] for s in self.spans), default=0.0)
        return [{"id": i, "parent": p, "op": op, "name": name,
                 "start_ms": (t0 - t_base) * 1e3, "end_ms": (t1 - t_base) * 1e3,
                 "self_ms": self_s * 1e3, "computed": counts}
                for i, p, op, name, t0, t1, self_s, counts in self.spans]
