import numpy as np
import pytest

from mcflab import shapes
from mcflab.grid import GridSpec, Immersion


def stencil_symbols(grid: GridSpec):
    """Closed-form action of the difference stencils on the lowest mode."""
    h = grid.spacing
    if grid.derivative_order == 2:
        s1 = np.sin(h) / h
        s2 = (np.sin(h / 2) / (h / 2)) ** 2
    else:
        s1 = (8 * np.sin(h) - np.sin(2 * h)) / (6 * h)
        s2 = (30 - 32 * np.cos(h) + 2 * np.cos(2 * h)) / (12 * h**2)
    return s1, s2


@pytest.fixture
def circle_grid():
    return GridSpec(1, 64)


@pytest.fixture
def torus_grid():
    return GridSpec(2, 32)


@pytest.fixture
def unit_circle(circle_grid):
    return shapes.circle(circle_grid, 1.0)


@pytest.fixture
def flat_torus(torus_grid):
    return shapes.product_torus(torus_grid, 1.0, 1.0)


def space_curve(grid):
    (t,) = grid.coordinates()
    pos = np.stack([1.5 * np.cos(t), np.sin(t), 0.3 * np.sin(3 * t)], axis=-1)
    return Immersion(grid, pos)


def torus_of_revolution(grid):
    u, v = grid.coordinates()
    ring = 1.0 + 0.4 * np.cos(v)
    pos = np.stack([ring * np.cos(u), ring * np.sin(u), 0.4 * np.sin(v)], axis=-1)
    return Immersion(grid, pos)


# one immersion per dimension and codimension, at derivative order o, for
# the tests that compare component arithmetic with an einsum reference
REFERENCE_MAKERS = {
    "m1-codim1": lambda o: shapes.ellipse(GridSpec(1, 32, o), 1.5, 1.0),
    "m1-codim2": lambda o: space_curve(GridSpec(1, 32, o)),
    "m2-codim1": lambda o: torus_of_revolution(GridSpec(2, 16, o)),
    "m2-codim2": lambda o: shapes.perturbed_torus(GridSpec(2, 16, o), 1.0, 0.6, 0.2),
}
