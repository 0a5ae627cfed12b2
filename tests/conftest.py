import importlib
import pkgutil
import sys

import numpy as np
import pytest

import rcur
import rcur.gsvd
import rcur.linalg
import rcur.sketch


@pytest.fixture
def widths(monkeypatch):
    """Column counts of every Gaussian draw, in call order."""
    drawn = []
    draw = rcur.sketch.gaussian_matrix

    def spy(rows, cols, seed):
        drawn.append(cols)
        return draw(rows, cols, seed)

    monkeypatch.setattr(rcur.sketch, "gaussian_matrix", spy)
    return drawn


@pytest.fixture
def scans(monkeypatch):
    """(module, argument) of every ``as_matrix`` call, in call order.

    Every ``rcur`` module that binds ``as_matrix`` gets its own spy, so a
    call is recorded under the short name of the module that made it.
    """
    calls = []
    for info in pkgutil.iter_modules(rcur.__path__):
        mod = importlib.import_module(f"rcur.{info.name}")
        check = getattr(mod, "as_matrix", None)
        if check is None:
            continue

        def spy(a, *args, _name=info.name, _check=check, **kwargs):
            calls.append((_name, a))
            return _check(a, *args, **kwargs)

        monkeypatch.setattr(mod, "as_matrix", spy)
    return calls


@pytest.fixture
def householder_shapes(monkeypatch):
    """Shapes of every matrix the library passes to ``np.linalg.qr``, in order.

    Calls from test code (building inputs) are not recorded.
    """
    shapes = []
    qr = np.linalg.qr

    def spy(x, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("rcur."):
            shapes.append(x.shape)
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return shapes


@pytest.fixture
def on_both_routes(monkeypatch):
    """``run(fn)`` calls ``fn()`` as is, then with every Cholesky route
    declining, and returns both results.  In the second call CholeskyQR2
    declines, so ``qr_stack`` takes its Householder route, and the
    randomized GSVD's Gram factor of B declines, so it QR-factors the
    stack [B; Q^T A] as ``gsvd`` does."""
    def run(fn):
        first = fn()
        with monkeypatch.context() as m:
            m.setattr(rcur.linalg, "cholesky_qr2", lambda blocks: None)
            m.setattr(rcur.gsvd, "_gram_cholesky", lambda blocks: None)
            return first, fn()

    return run
