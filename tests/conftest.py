import itertools
import tracemalloc

import numpy as np
import pytest

from mcflab import shapes
from mcflab.differences import build_difference, five_point_derivative
from mcflab.flow import FlowTrajectory, ProtocolError, fixed_dt_stream, require_pair
from mcflab.geometry import (
    GeometryPack,
    KernelResult,
    _check_det,
    components_first,
    components_last,
    compute_geometry,
    covariant_derivative,
    geometry_kernel,
    stacked_kernel,
    sum_of_products,
    tensor_norm_sq,
)
from mcflab.grid import (
    GridSpec,
    Immersion,
    SymmetryAction,
    partial,
    partial_and_second,
)


# every GeometryPack field but the immersion, in pack order
PACK_FIELDS = (
    "first_derivs",
    "metric",
    "inverse_metric",
    "det_metric",
    "christoffels",
    "second_form",
    "mean_curv",
)


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


def reference_curve_kernel(grid: GridSpec, X) -> KernelResult:
    """The m=1 `geometry_kernel` built from the `grid` stencils, kept as the
    bitwise reference of the kernel's written-out stencils: one halo copy
    of X gives d_0X and d_00X (`partial_and_second`), and a second one of
    g_00 gives c_000 = d_0 g_00 (`partial`)."""
    dX0, dd = partial_and_second(grid, X, 0)
    p = dX0 * dX0
    det = p[..., 0] + p[..., 1]
    for a in range(2, p.shape[-1]):
        det += p[..., a]
    del p
    _check_det(X, det, 1)
    ginv = 1.0 / det
    gamma = partial(grid, det, 0)  # c_000 = d_0 g_00
    gamma *= ginv
    gamma *= 0.5
    dd -= gamma[..., None] * dX0
    H = ginv[..., None] * dd
    return KernelResult(H, det[..., None, None], det, [dX0], [ginv], [gamma], [dd])


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


def rowwise_checkpoint_text(imm: Immersion) -> str:
    """The text of `grid.write_immersion` formatted one row per node, axis 0
    fastest, kept as the bytewise reference of the slab writer."""
    g = imm.grid
    row = " ".join(["%d"] * g.m + ["%.17g"] * imm.ambient_dim) + "\n"
    flat = imm.positions.reshape(-1, imm.ambient_dim, order="F")
    nodes = (mi[::-1] for mi in itertools.product(range(g.resolution), repeat=g.m))
    header = f"{g.m} {imm.codimension} {g.resolution} {imm.time!r}\n"
    return header + "".join(
        row % (*mi, *coords) for mi, coords in zip(nodes, flat.tolist())
    )


def full_trace_divergence(field_arr, geom: GeometryPack, index_spec: str):
    """`geometry.divergence` as the trace of the whole covariant derivative,
    (p, q) in row-major order, kept as the bitwise reference of the one-slab
    trace."""
    dd = covariant_derivative(field_arr, geom, index_spec)
    n_comp = dd.ndim - geom.grid.m
    d = components_first(dd, n_comp)
    ginv = components_first(geom.inverse_metric, 2)
    lead = (slice(None),) * (n_comp - len(index_spec) - 1)
    R = range(geom.grid.m)
    out = sum_of_products((ginv[p, q], d[lead + (p, q)]) for p in R for q in R)
    return components_last(out, n_comp - 2)


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


def paired_stream(trajA: FlowTrajectory, trajB: FlowTrajectory) -> tuple:
    """The leading arguments of `differences.verify_inequalities`, (stream,
    n_states, sample_step), on the stored fixed-step trajectories of a
    pair, of equal length, whose states pair up, at the first one's
    sample_step; the stream evaluates each state's kernel as it is read."""
    if trajA.sample_step is None:
        raise ProtocolError("no sample step: not a fixed-step run")
    if len(trajA.states) != len(trajB.states):
        raise ProtocolError("paired trajectories have different lengths")
    for states in zip(trajA.states, trajB.states):
        require_pair(*states)
    stream = (
        (list(states), stacked_kernel(list(states)))
        for states in zip(trajA.states, trajB.states)
    )
    return stream, len(trajA.states), trajA.sample_step


def paired_center(trajA: FlowTrajectory, trajB: FlowTrajectory, c: int = 2):
    """What the paired pass hands its checks at the stored state c of a
    pair's fixed-step trajectories: the DifferencePack of state c, and
    rate(name), the five-point d/dt of the field name over the packs of
    states c - 2 .. c + 2, each from a kernel call of its own."""
    pairs = zip(*(t.states[c - 2 : c + 3] for t in (trajA, trajB)))
    packs = [build_difference(a, b) for a, b in pairs]

    def rate(name):
        return five_point_derivative([getattr(p, name) for p in packs], trajA.sample_step)

    return packs[2], rate


# the pack field whose d/dt each single-flow evolution check reads
CHECKED_FIELDS = {
    "check_dX": "first_derivs",
    "check_dg": "metric",
    "check_dGamma": "christoffels",
    "check_dh": "second_form",
}


def check_at(check, traj: FlowTrajectory, c: int = 2):
    """A single-flow evolution check at the stored state c of a fixed-step
    trajectory: the pack of state c, and the five-point d/dt of the packs
    of states c - 2 .. c + 2, each from a kernel call of its own."""
    packs = [compute_geometry(s) for s in traj.states[c - 2 : c + 3]]
    field = CHECKED_FIELDS[check.__name__]
    rate = five_point_derivative([getattr(p, field) for p in packs], traj.sample_step)
    return check(packs[2], rate, traj.sample_step)


# headers whose grid the checkpoint reader cannot allocate: numpy refuses
# the first shape before it allocates; a test of the second takes the
# `refused_allocation` fixture, so that nothing that large is allocated
UNALLOCATABLE_HEADERS = {
    "too-big-to-index": "2 1 10000000000 0.0\n",
    "out-of-memory": "2 1 1000000 0.0\n",
}


@pytest.fixture
def refused_allocation(monkeypatch):
    """np.empty failing with MemoryError, as numpy does, for any request
    above 1 GiB; nothing that large is allocated."""
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) * 8 > 2**30:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)


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
