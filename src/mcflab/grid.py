"""Periodic grids, discretized immersions, and finite-difference calculus.

The parameter domain is the flat torus [0, 2pi)^m sampled on a uniform grid
of N nodes per axis.  Every field is a numpy array whose leading m axes are
the grid axes; trailing axes carry tensor/ambient indices.  The derivative
stencils wrap periodically, so there are no boundary cases: each call makes
one halo copy of the field along the axis (its last r slices, the field,
its first r slices; r = order / 2), reads every stencil tap as a slice view
of that copy and writes one output array per derivative (a fresh one, or
in `partial` the caller's `out`); no other buffer outlives a call.  The
slices that cut the halo and its taps are made once per (axis, r, N) and
cached: plain slices on axis 0, where the m=1 fields are differentiated,
so a small call costs little beyond its arithmetic.
One halo copy serves both stencils in `partial_and_second`, which returns
d_i f and the compact d_ii f together, bit for bit equal to `partial` and
the diagonal `second_partial`; the m=2 geometry kernel differentiates X
with it.  The m=1 kernel runs the same stencils on the tap windows
`_curve_taps` caches, so they are written here alone; a test ties its
every field bit for bit to a reference kernel built from
`partial_and_second` and `partial`.  None rolls the field with np.roll,
which the tests keep as the reference of these three.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# Minimum admissible det(g) before an immersion counts as degenerate.
EPS_IMMERSION = 1e-10


class CheckpointError(ValueError):
    """A checkpoint file does not hold exactly one immersion on its grid."""


class InvalidAxisError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class DegenerateImmersionError(ValueError):
    """det(g) dropped below its floor at some node."""

    def __init__(self, node, value):
        self.node = tuple(int(i) for i in node)  # (3,), not (np.int64(3),)
        self.value = value
        super().__init__(
            f"degenerate immersion: det(g) = {value:.3e} at node {self.node}"
        )


class NonFiniteImmersionError(ValueError):
    """A position is NaN or infinite at the grid node `first_nonfinite_node`
    names."""

    def __init__(self, node):
        self.node = node
        super().__init__(f"non-finite position at node {node}")


def first_nonfinite_node(positions: np.ndarray, m: int):
    """Grid node (the first m indices) of the first NaN or infinite entry
    of positions in C order, as plain ints, or None if all are finite."""
    bad = np.argwhere(~np.isfinite(positions))
    return tuple(int(i) for i in bad[0][:m]) if len(bad) else None


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


def _check_axis(grid: GridSpec, axis: int):
    if not 0 <= axis < grid.m:
        raise InvalidAxisError(f"axis {axis} out of range for m={grid.m}")


@lru_cache(maxsize=None)
def _halo_slices(axis: int, r: int, n: int) -> tuple:
    """(tail, head, taps) for a stencil of radius r along an axis of n nodes:
    the indices of the last r and the first r slices of a field, and those
    of the 2r + 1 tap windows of its halo copy, window k holding f[i + k - r]
    at node i.  Plain slices on axis 0; on a later axis, tuples that take
    the leading axes whole."""
    lead = (slice(None),) * axis

    def at(s):
        return lead + (s,) if axis else s

    taps = tuple(at(slice(k, k + n)) for k in range(2 * r + 1))
    return at(slice(-r, None)), at(slice(None, r)), taps


@lru_cache(maxsize=None)
def _curve_taps(r: int, n: int) -> tuple:
    """(tail, head, wide, middle, inner) of the m=1 geometry kernel's halo
    copy of an n-node f, 2r deep (f[tail], f, f[head]): window k of wide
    holds f[i + k - 2r] at its position i, of middle f[i + k - r]; inner
    holds the `_halo_slices` taps that read an r-deep halo copy."""
    _, _, inner = _halo_slices(0, r, n)
    _, _, wide = _halo_slices(0, r, n + 2 * r)
    middle = tuple(slice(s.start + r, s.stop + r) for s in inner)
    return slice(-2 * r, None), slice(None, 2 * r), wide, middle, inner


def _periodic_taps(f: np.ndarray, axis: int, r: int) -> tuple:
    """(pad, taps): the periodic halo copy of f along axis (its last r
    slices, f, its first r slices) and the `_halo_slices` indices of its tap
    windows, so that pad[taps[k]][i] = f[i + k - r]."""
    tail, head, taps = _halo_slices(axis, r, f.shape[axis])
    return np.concatenate((f[tail], f, f[head]), axis=axis), taps


def _first_from_taps(pad: np.ndarray, taps: tuple, h: float, out=None) -> np.ndarray:
    """`partial`'s stencil on the halo copy of `_periodic_taps` (3 or 5 taps),
    into out if given, else into a fresh array.

    Its weights are float literals: an int costs a conversion per call and
    gives the same bits."""
    if len(taps) == 3:
        m1, _, p1 = taps
        out = np.subtract(pad[p1], pad[m1], out=out)
        out /= 2 * h
        return out
    m2, m1, _, p1, p2 = taps
    out = np.multiply(pad[p1], 8.0, out=out)
    out -= pad[p2]
    scratch = np.multiply(pad[m1], 8.0)
    out -= scratch
    out += pad[m2]
    out /= 12 * h
    return out


def _second_from_taps(
    pad: np.ndarray, taps: tuple, f: np.ndarray, h: float
) -> np.ndarray:
    """`second_partial`'s diagonal stencil on the halo copy of f; 2f is
    formed as f + f, which is exact."""
    if len(taps) == 3:
        m1, _, p1 = taps
        out = np.add(f, f)
        np.subtract(pad[p1], out, out=out)
        out += pad[m1]
        out /= h**2
        return out
    m2, m1, _, p1, p2 = taps
    out = np.multiply(pad[p1], 16.0)
    out -= pad[p2]
    scratch = np.multiply(f, 30.0)
    out -= scratch
    np.multiply(pad[m1], 16.0, out=scratch)
    out += scratch
    out -= pad[m2]
    out /= 12 * h**2
    return out


def partial(
    grid: GridSpec, field_arr: np.ndarray, axis: int, out=None
) -> np.ndarray:
    """Central-difference d/dx^axis with periodic wraparound.

    Order 2: (f[i+1] - f[i-1]) / (2h); order 4:
    (((-f[i+2] + 8 f[i+1]) - 8 f[i-1]) + f[i-2]) / (12h), summed in that
    order into out, an array of the field's shape, or into one fresh output
    (b - a is exactly -a + b in IEEE).
    """
    _check_axis(grid, axis)
    f = np.asarray(field_arr, dtype=float)
    pad, taps = _periodic_taps(f, axis, grid.derivative_order // 2)
    return _first_from_taps(pad, taps, grid.spacing, out)


def second_partial(
    grid: GridSpec, field_arr: np.ndarray, axis_i: int, axis_j: int
) -> np.ndarray:
    """Second partial derivative; compact stencil on the diagonal.

    Order 2: ((f[i+1] - 2f) + f[i-1]) / h^2; order 4:
    ((((-f[i+2] + 16 f[i+1]) - 30f) + 16 f[i-1]) - f[i-2]) / (12h^2).
    Off the diagonal it is `partial` applied twice.
    """
    _check_axis(grid, axis_i)
    _check_axis(grid, axis_j)
    f = np.asarray(field_arr, dtype=float)
    if axis_i != axis_j:
        return partial(grid, partial(grid, f, axis_i), axis_j)
    pad, taps = _periodic_taps(f, axis_i, grid.derivative_order // 2)
    return _second_from_taps(pad, taps, f, grid.spacing)


def partial_and_second(grid: GridSpec, field_arr: np.ndarray, axis: int) -> tuple:
    """(`partial`, diagonal `second_partial`) along axis from one halo copy.

    Both stencils read their taps from the same periodic halo copy of the
    field, so each result is bit for bit the one its own function returns.
    """
    _check_axis(grid, axis)
    f = np.asarray(field_arr, dtype=float)
    pad, taps = _periodic_taps(f, axis, grid.derivative_order // 2)
    h = grid.spacing
    return _first_from_taps(pad, taps, h), _second_from_taps(pad, taps, f, h)


@dataclass(frozen=True)
class Immersion:
    """Discretized closed immersion X: T^m -> R^(m+n) at one finite time."""

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
            raise NonFiniteImmersionError(first_nonfinite_node(pos, self.grid.m))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "time", _finite_time(self.time))

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def codimension(self) -> int:
        return self.ambient_dim - self.grid.m

    def with_positions(self, positions: np.ndarray, time=None) -> "Immersion":
        return Immersion(self.grid, positions, self.time if time is None else time)


def _finite_time(time) -> float:
    """time as a Python float (as a header spells it); finite, or ValueError."""
    t = float(time)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    return t


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


# --- columnar text serialization -------------------------------------------

# Lines of a checkpoint that read_immersion parses per np.loadtxt call.
READ_BLOCK_ROWS = 512


def write_immersion(imm: Immersion, path_or_stream) -> None:
    """Columnar text: header `m n N t`, then one row per node, axis 0
    fastest: its multi-index (`%d`) and its coordinates (`%.17g`).

    path_or_stream is a path (str, bytes or os.PathLike) or an open text
    stream.  The rows go out one grid slab at a time, each with one `%`
    call and one write: at m=2 the N rows that share their axis-1 index,
    at m=1 the whole curve.  The format of a slab, with its axis-0 indices
    written out, is built once per call, so besides it the writer holds
    one slab's numbers and text at a time, never the file's."""
    own = isinstance(path_or_stream, (str, bytes, os.PathLike))
    stream = open(path_or_stream, "w") if own else path_or_stream
    try:
        g, X = imm.grid, imm.positions
        stream.write(f"{g.m} {imm.codimension} {g.resolution} {imm.time!r}\n")
        row = " %d" * (g.m - 1) + " %.17g" * imm.ambient_dim
        fmt = "\n".join(f"{i}{row}" for i in range(g.resolution)) + "\n"
        if g.m == 1:
            stream.write(fmt % tuple(X.ravel().tolist()))
            return
        # column 0 holds the axis-1 index, exact as a float for `%d`
        slab = np.empty((g.resolution, 1 + imm.ambient_dim))
        for j in range(g.resolution):
            slab[:, 0] = j
            slab[:, 1:] = X[:, j]
            stream.write(fmt % tuple(slab.ravel().tolist()))
    finally:
        if own:
            stream.close()


def read_immersion(path_or_stream, derivative_order: int = 2) -> Immersion:
    """Read the `write_immersion` format strictly; rows may come in any order.

    Raises CheckpointError for text that is not UTF-8, an unparsable
    header, a NaN or infinite time or a grid too large to allocate among
    them, rows of the wrong width, a row count other than N^m, and
    multi-indices that are out of range or repeated, so every node is read
    from exactly one row.  The
    rows are parsed READ_BLOCK_ROWS lines at a time and scattered into the
    positions as they come, so besides the positions the reader holds one
    block's text and numbers and a count per node, never the file's.
    """
    own = isinstance(path_or_stream, (str, bytes, os.PathLike))
    stream = open(path_or_stream) if own else path_or_stream
    try:
        (header_line,) = _read_lines(stream, 1, "header") or [""]
        header = header_line.split()
        try:
            if len(header) != 4:
                raise ValueError("expected 4 fields")
            m, n, N = int(header[0]), int(header[1]), int(header[2])
            t = _finite_time(header[3])
            if n < 1:
                raise ValueError(f"codimension must be >= 1, got {n}")
            grid = GridSpec(m, N, derivative_order)
            pos = np.empty(grid.shape + (m + n,))  # too big to index: ValueError
        except (ValueError, MemoryError) as exc:
            raise CheckpointError(
                f"checkpoint header {header_line.strip()!r} is not `m n N t` "
                f"of a grid that can be allocated: {exc}"
            ) from exc
        _read_rows(stream, grid, pos.reshape(-1, m + n))
    finally:
        if own:
            stream.close()
    return Immersion(grid, pos, t)


def _read_rows(stream, grid: GridSpec, flat_pos: np.ndarray) -> None:
    """Scatter the rows of stream into flat_pos, one row per node in C
    order.  Text that is not UTF-8, a parse error or a block of the wrong
    width is raised at once; once every row is read, the row count, then the
    first out-of-range multi-index in file order, then the first node in C
    order that two rows name."""
    m, N = grid.m, grid.resolution
    width = m + flat_pos.shape[1]
    counts = np.zeros(grid.num_nodes, dtype=np.intp)
    n_rows, bad = 0, None  # rows read; the first out-of-range multi-index
    while block := _read_lines(stream, READ_BLOCK_ROWS, f"block after {n_rows} rows"):
        if not any(map(str.strip, block)):  # blank lines only: loadtxt warns
            continue
        try:
            # one C-level pass; %.17g text parses back to the same doubles
            rows = np.loadtxt(block, ndmin=2)
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint rows: {exc} (in a block of {len(block)} lines "
                f"after {n_rows} rows)"
            ) from exc
        if rows.shape[1] != width:
            raise CheckpointError(
                f"checkpoint rows have {rows.shape[1]} columns, expected {width} "
                f"({m} indices and {width - m} coordinates)"
            )
        n_rows += rows.shape[0]
        index = rows[:, :m]
        out = ((index < 0) | (index >= N) | (index != np.floor(index))).any(axis=1)
        if out.any():
            bad = bad or _index_text(index[np.argmax(out)])
            rows = rows[~out]
        flat = np.ravel_multi_index(rows[:, :m].astype(np.intp).T, grid.shape)
        np.add.at(counts, flat, 1)
        flat_pos[flat] = rows[:, m:]
    if n_rows != grid.num_nodes:
        raise CheckpointError(
            f"checkpoint has {n_rows} rows, expected {grid.num_nodes} "
            f"(N^m for m={m}, N={N})"
        )
    if bad is not None:
        raise CheckpointError(f"checkpoint multi-index {bad} out of range for N={N}")
    if counts.max() > 1:
        node = np.unravel_index(int(np.argmax(counts > 1)), grid.shape)
        raise CheckpointError(
            f"checkpoint has duplicate multi-index {_index_text(node)}"
        )


def _read_lines(stream, n: int, what: str) -> list:
    """The next n lines of stream, a CheckpointError naming `what` if they
    are not UTF-8 (a text stream decodes a chunk ahead of its lines)."""
    try:
        return list(itertools.islice(stream, n))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {what} is not UTF-8: {exc}") from exc


def _index_text(index) -> str:
    return "(" + ", ".join(f"{float(i):g}" for i in index) + ")"
