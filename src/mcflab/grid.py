"""Periodic grids, discretized immersions, and finite-difference calculus.

The parameter domain is the flat torus [0, 2pi)^m sampled on a uniform grid
of N nodes per axis.  Every field is a numpy array whose leading m axes are
the grid axes; trailing axes carry tensor/ambient indices.  All derivative
operators wrap periodically via np.roll, so there are no boundary cases.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Minimum admissible det(g) before an immersion counts as degenerate.
EPS_IMMERSION = 1e-10


class InvalidAxisError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class DegenerateImmersionError(ValueError):
    """det(g) dropped below the immersion floor at some node."""

    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(
            f"degenerate immersion: det(g) = {value:.3e} at node {node}"
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 2pi)^m with N nodes per axis."""

    m: int
    resolution: int
    derivative_order: int = 2

    def __post_init__(self):
        if self.m not in (1, 2):
            raise ValueError(f"intrinsic dimension must be 1 or 2, got {self.m}")
        if self.resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {self.resolution}")
        if self.derivative_order not in (2, 4):
            raise ValueError(
                f"derivative order must be 2 or 4, got {self.derivative_order}"
            )

    @property
    def spacing(self) -> float:
        return TWO_PI / self.resolution

    @property
    def shape(self) -> tuple:
        return (self.resolution,) * self.m

    @property
    def num_nodes(self) -> int:
        return self.resolution**self.m

    def coordinates(self) -> list:
        """Per-axis coordinate arrays broadcast to the full grid shape."""
        theta = np.arange(self.resolution) * self.spacing
        grids = np.meshgrid(*([theta] * self.m), indexing="ij")
        return grids

    def node_multi_indices(self):
        """Iterate multi-indices with axis 0 varying fastest."""
        rev = [range(self.resolution)] * self.m
        out = np.stack(
            np.meshgrid(*rev, indexing="ij"), axis=-1
        ).reshape(-1, self.m, order="F")
        return out


def _check_axis(grid: GridSpec, axis: int):
    if not 0 <= axis < grid.m:
        raise InvalidAxisError(f"axis {axis} out of range for m={grid.m}")


def partial(grid: GridSpec, field_arr: np.ndarray, axis: int) -> np.ndarray:
    """Central-difference d/dx^axis with periodic wraparound."""
    _check_axis(grid, axis)
    h = grid.spacing
    f = np.asarray(field_arr)
    if grid.derivative_order == 2:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)
    return (
        -np.roll(f, -2, axis=axis)
        + 8 * np.roll(f, -1, axis=axis)
        - 8 * np.roll(f, 1, axis=axis)
        + np.roll(f, 2, axis=axis)
    ) / (12 * h)


def second_partial(
    grid: GridSpec, field_arr: np.ndarray, axis_i: int, axis_j: int
) -> np.ndarray:
    """Second partial derivative; compact stencil on the diagonal."""
    _check_axis(grid, axis_i)
    _check_axis(grid, axis_j)
    f = np.asarray(field_arr)
    h = grid.spacing
    if axis_i != axis_j:
        return partial(grid, partial(grid, f, axis_i), axis_j)
    if grid.derivative_order == 2:
        return (
            np.roll(f, -1, axis=axis_i) - 2 * f + np.roll(f, 1, axis=axis_i)
        ) / h**2
    return (
        -np.roll(f, -2, axis=axis_i)
        + 16 * np.roll(f, -1, axis=axis_i)
        - 30 * f
        + 16 * np.roll(f, 1, axis=axis_i)
        - np.roll(f, 2, axis=axis_i)
    ) / (12 * h**2)


@dataclass(frozen=True)
class Immersion:
    """Discretized closed immersion X: T^m -> R^(m+n) at one instant."""

    grid: GridSpec
    positions: np.ndarray  # shape grid.shape + (ambient_dim,)
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        expected_lead = self.grid.shape
        if pos.shape[: self.grid.m] != expected_lead or pos.ndim != self.grid.m + 1:
            raise ShapeError(
                f"positions shape {pos.shape} does not match grid {expected_lead}"
            )
        if pos.shape[-1] < self.grid.m + 1:
            raise ShapeError(
                f"ambient dimension {pos.shape[-1]} must exceed m={self.grid.m}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite coordinate in immersion")
        object.__setattr__(self, "positions", pos)

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def codimension(self) -> int:
        return self.ambient_dim - self.grid.m

    def with_positions(self, positions: np.ndarray, time=None) -> "Immersion":
        return Immersion(
            self.grid, positions, self.time if time is None else float(time)
        )

    def centroid(self) -> np.ndarray:
        return self.positions.reshape(-1, self.ambient_dim).mean(axis=0)


@dataclass(frozen=True)
class SymmetryAction:
    """Ambient isometry (Q, b) paired with a grid-node permutation.

    source_index maps each node to its preimage under the intrinsic
    isometry: output(node) = Q @ X(source_index[node]) + b.
    """

    matrix: np.ndarray  # (A, A) orthogonal
    translation: np.ndarray  # (A,)
    source_index: np.ndarray  # grid.shape -> flat node index of the preimage

    def __post_init__(self):
        Q = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.translation, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ShapeError("symmetry matrix must be square")
        if b.shape != (Q.shape[0],):
            raise ShapeError("translation length must match matrix size")
        if not np.allclose(Q.T @ Q, np.eye(Q.shape[0]), atol=1e-12):
            raise ValueError("symmetry matrix is not orthogonal to 1e-12")
        src = np.asarray(self.source_index)
        if np.sort(src.ravel()).tolist() != list(range(src.size)):
            raise ValueError("source_index is not a permutation of the nodes")
        object.__setattr__(self, "matrix", Q)
        object.__setattr__(self, "translation", b)
        object.__setattr__(self, "source_index", src)


def shift_permutation(grid: GridSpec, offsets) -> np.ndarray:
    """Permutation for the grid translation node -> node + offsets."""
    offsets = np.atleast_1d(offsets)
    if offsets.shape != (grid.m,):
        raise ShapeError(f"need {grid.m} offsets, got {offsets.shape}")
    flat = np.arange(grid.num_nodes).reshape(grid.shape)
    # preimage of node k under a shift by +o is node k - o
    for ax, off in enumerate(offsets):
        flat = np.roll(flat, int(off), axis=ax)
    return flat


def reflection_permutation(grid: GridSpec, axes) -> np.ndarray:
    """Permutation for the reflection x -> -x along the given axes."""
    flat = np.arange(grid.num_nodes).reshape(grid.shape)
    for ax in np.atleast_1d(axes):
        _check_axis(grid, int(ax))
        idx = (-np.arange(grid.resolution)) % grid.resolution
        flat = np.take(flat, idx, axis=int(ax))
    return flat


def identity_symmetry(grid: GridSpec, ambient_dim: int) -> SymmetryAction:
    return SymmetryAction(
        np.eye(ambient_dim),
        np.zeros(ambient_dim),
        np.arange(grid.num_nodes).reshape(grid.shape),
    )


def apply_symmetry(imm: Immersion, action: SymmetryAction) -> Immersion:
    """Node-wise Q @ X(pi^-1(node)) + b with unchanged grid and time."""
    if action.matrix.shape[0] != imm.ambient_dim:
        raise ShapeError(
            f"symmetry acts on R^{action.matrix.shape[0]}, "
            f"immersion lives in R^{imm.ambient_dim}"
        )
    if action.source_index.shape != imm.grid.shape:
        raise ShapeError("permutation shape does not match grid")
    flat_pos = imm.positions.reshape(-1, imm.ambient_dim)
    picked = flat_pos[action.source_index.ravel()].reshape(imm.positions.shape)
    new_pos = picked @ action.matrix.T + action.translation
    return imm.with_positions(new_pos)


def permute_field(field_arr: np.ndarray, grid: GridSpec, source_index) -> np.ndarray:
    """Pull back a grid field through the same node permutation."""
    trailing = field_arr.shape[grid.m :]
    flat = field_arr.reshape(grid.num_nodes, -1)
    out = flat[np.asarray(source_index).ravel()]
    return out.reshape(grid.shape + trailing)


# --- columnar text serialization -------------------------------------------


def write_immersion(imm: Immersion, path_or_stream) -> None:
    """Columnar text: header `m n N t`, then multi-index + coordinates."""
    own = isinstance(path_or_stream, (str, bytes))
    stream = open(path_or_stream, "w") if own else path_or_stream
    try:
        g = imm.grid
        stream.write(f"{g.m} {imm.codimension} {g.resolution} {imm.time!r}\n")
        flat = imm.positions.reshape(-1, imm.ambient_dim, order="F")
        row = " ".join(["%d"] * g.m + ["%.17g"] * imm.ambient_dim) + "\n"
        stream.write(
            "".join(
                row % (*mi, *coords)
                for mi, coords in zip(g.node_multi_indices().tolist(), flat.tolist())
            )
        )
    finally:
        if own:
            stream.close()


def read_immersion(path_or_stream, derivative_order: int = 2) -> Immersion:
    own = isinstance(path_or_stream, (str, bytes))
    stream = open(path_or_stream) if own else path_or_stream
    try:
        header = stream.readline().split()
        m, n, N = int(header[0]), int(header[1]), int(header[2])
        t = float(header[3])
        grid = GridSpec(m, N, derivative_order)
        pos = np.empty(grid.shape + (m + n,))
        for line in stream:
            parts = line.split()
            if not parts:
                continue
            mi = tuple(int(p) for p in parts[:m])
            pos[mi] = [float(p) for p in parts[m:]]
        return Immersion(grid, pos, t)
    finally:
        if own:
            stream.close()


def immersion_to_text(imm: Immersion) -> str:
    buf = io.StringIO()
    write_immersion(imm, buf)
    return buf.getvalue()
