import sys

import numpy as np
import pytest

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
