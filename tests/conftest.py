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
