import tracemalloc

import numpy as np
import pytest

from mcflab import shapes
from mcflab.differences import PairedWindow
from mcflab.flow import FlowTrajectory, ProtocolError, fixed_dt_stream, require_pair
from mcflab.geometry import (
    GeometryPack,
    geometry_kernel,
    geometry_packs,
    stacked_kernel,
    tensor_norm_sq,
)
from mcflab.grid import GridSpec, Immersion, SymmetryAction
from mcflab.identities import SampleWindow


def assert_same_bytes(got, want):
    """Equal shape, dtype and bytes of the C-order copies.

    Stricter than np.array_equal, which takes -0.0 for 0.0: a layout that
    changed the order of an operation shows up here as a flipped sign of
    zero or a last-bit difference.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its tracemalloc peak in bytes above what was
    traced when it was called).  A caller that traces already keeps tracing
    (its peak is reset); otherwise tracing stops again."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


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


def identity_symmetry(grid: GridSpec, ambient_dim: int) -> SymmetryAction:
    return SymmetryAction(
        np.eye(ambient_dim),
        np.zeros(ambient_dim),
        np.arange(grid.num_nodes).reshape(grid.shape),
    )


def permute_field(field_arr: np.ndarray, grid: GridSpec, source_index) -> np.ndarray:
    """Pull back a grid field through the same node permutation."""
    trailing = field_arr.shape[grid.m :]
    flat = field_arr.reshape(grid.num_nodes, -1)
    out = flat[np.asarray(source_index).ravel()]
    return out.reshape(grid.shape + trailing)


def measured_radius(imm: Immersion) -> float:
    """Mean distance of the nodes from their centroid."""
    c = imm.positions.reshape(-1, imm.ambient_dim).mean(axis=0)
    d = np.linalg.norm(imm.positions - c, axis=-1)
    return float(d.mean())


def measured_torus_radii(imm: Immersion) -> tuple:
    """Mean factor radii of an R^4 product-torus-like immersion."""
    if imm.ambient_dim != 4:
        raise ValueError("torus radii need ambient dimension 4")
    p = imm.positions
    r1 = float(np.linalg.norm(p[..., 0:2], axis=-1).mean())
    r2 = float(np.linalg.norm(p[..., 2:4], axis=-1).mean())
    return r1, r2


def trace_identity_residual(geom: GeometryPack) -> float:
    """Max deviation of sum_a |grad X^a|^2_g from m (exact discretely)."""
    val = tensor_norm_sq(geom.first_derivs, geom, "l")
    return float(np.abs(val - geom.grid.m).max())


def expression_rk4_positions(grid: GridSpec, X, dt: float, k1) -> np.ndarray:
    """The expression form of `flow._rk4_positions`, kept as the bitwise
    reference: one fresh array per operation, in the classical order."""
    k2 = geometry_kernel(grid, X + 0.5 * dt * k1).mean_curv
    k3 = geometry_kernel(grid, X + 0.5 * dt * k2).mean_curv
    k4 = geometry_kernel(grid, X + dt * k3).mean_curv
    return X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def run_paired_fixed_dt(initA, initB, dt, n_steps, store_every=1) -> list:
    """[trajectory A, trajectory B] of a pair, collected from one
    `fixed_dt_stream`: the stored form of what `diff-system` reads as it
    goes, with 4 kernel calls per step."""
    trajs = [FlowTrajectory([], [dt] * n_steps, store_every * dt) for _ in "AB"]
    for states, kern in fixed_dt_stream([initA, initB], dt, n_steps, store_every):
        del kern  # not kept alive through the next steps
        for traj, state in zip(trajs, states):
            traj.states.append(state)
    return trajs


def _stored_stream(*trajs) -> tuple:
    """The window stream, number of states and step of stored fixed-step
    trajectories of equal length whose states pair up, at the first one's
    sample_step; the stream evaluates each state's kernel as it is read."""
    first = trajs[0]
    if first.sample_step is None:
        raise ProtocolError("no sample step: not a fixed-step run")
    if len({len(t.states) for t in trajs}) > 1:
        raise ProtocolError("paired trajectories have different lengths")
    for states in zip(*(t.states for t in trajs)):
        for other in states[1:]:
            require_pair(states[0], other)
    stream = (
        (list(states), stacked_kernel(list(states)))
        for states in zip(*(t.states for t in trajs))
    )
    return stream, len(first.states), first.sample_step


class TrajectoryWindow(SampleWindow):
    """One flow with any number of centers; item k is the GeometryPack of
    state k."""

    def _make(self, states: list, kern) -> GeometryPack:
        (geom,) = geometry_packs(states, kern)
        return geom

    def geometry(self, k: int) -> GeometryPack:
        return self.item(k)


def trajectory_window(traj: FlowTrajectory) -> TrajectoryWindow:
    """A window over a stored fixed-step trajectory, each pack from a kernel
    call of its own."""
    return TrajectoryWindow(*_stored_stream(traj))


def paired_window(trajA: FlowTrajectory, trajB: FlowTrajectory) -> PairedWindow:
    """A window over the stored fixed-step trajectories of a pair."""
    return PairedWindow(*_stored_stream(trajA, trajB))


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
