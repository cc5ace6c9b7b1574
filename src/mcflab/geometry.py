"""Induced geometry of a discretized immersion.

Everything is decomposed per ambient coordinate: positions X^a are scalar
fields on the parameter torus, the second fundamental form is the family
h^a_ij, and the mean curvature vector is H^a = g^ij h^a_ij.  Per-ambient
families are stored with the ambient axis first among the trailing axes
and are differentiated component-by-component as tensors on the torus.

Index conventions for stored arrays (grid axes omitted):
    first_derivs  [a, i]      = d_i X^a
    metric        [i, j]
    christoffels  [k, i, j]   = Gamma^k_ij
    second_form   [a, i, j]   = h^a_ij
    mean_curv     [a]         = H^a
    riemann       [i, j, k, l]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    EPS_IMMERSION,
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    ShapeError,
    partial,
    second_partial,
)


@dataclass(frozen=True)
class GeometryPack:
    """All pointwise geometric quantities of one immersion."""

    immersion: Immersion
    first_derivs: np.ndarray  # grid + (A, m)
    metric: np.ndarray  # grid + (m, m)
    inverse_metric: np.ndarray  # grid + (m, m)
    det_metric: np.ndarray  # grid
    christoffels: np.ndarray  # grid + (m, m, m)
    second_form: np.ndarray  # grid + (A, m, m)
    mean_curv: np.ndarray  # grid + (A,)

    @property
    def grid(self) -> GridSpec:
        return self.immersion.grid

    @property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det_metric)

    @property
    def cell_weight(self) -> np.ndarray:
        """Midpoint quadrature weight sqrt(det g) h^m of each node's cell."""
        return self.sqrt_det * self.grid.spacing**self.grid.m

    def volume(self) -> float:
        """Total induced length/area by midpoint quadrature."""
        return float(np.sum(self.sqrt_det)) * self.grid.spacing**self.grid.m


def _check_nondegenerate(det: np.ndarray, m: int):
    """Raise where det < EPS_IMMERSION, at the smallest det over all nodes
    and batch members; the node keeps its first m (grid) indices only."""
    if np.any(det < EPS_IMMERSION):
        idx = np.unravel_index(np.argmin(det), det.shape)
        raise DegenerateImmersionError(idx[:m], float(det[idx]))


class KernelResult(NamedTuple):
    """One kernel evaluation: H, g and det g, plus the other pack fields as
    lists of grid-first components in pack index order (``dX[i]`` = d_i X,
    ``ginv`` over (i, j), ``gamma`` over (k, i, j), ``h`` over (i, j));
    index-symmetric entries share one array.
    """

    mean_curv: np.ndarray  # grid + batch + (A,)
    metric: np.ndarray  # grid + batch + (m, m)
    det: np.ndarray  # grid + batch
    dX: list  # m x grid + batch + (A,)
    ginv: list  # m*m x grid + batch
    gamma: list  # m*m*m x grid + batch
    h: list  # m*m x grid + batch + (A,)


def geometry_kernel(grid: GridSpec, X: np.ndarray) -> KernelResult:
    """Mean curvature vector and metric of the positions X (grid + batch + (A,)).

    g_ij = sum_a d_iX^a d_jX^a;  Gamma^k_ij = g^kl c_lij / 2 with
    c_lij = d_i g_jl + d_j g_il - d_l g_ij from the discrete partials of g;
    h^a_ij = d_i d_jX^a - Gamma^k_ij d_kX^a with the compact second
    stencils;  H^a = g^ij h^a_ij.  The index loops are written out as
    arithmetic on whole grid arrays.  Sums over a, l and k run in index
    order and the four m=2 terms of H add pairwise, which are the orders
    of the einsum contractions in tests/test_geometry.py: for m=2, and for
    m=1 with A=2, the two agree to the last bit (numpy 2.4) except for the
    sign of exact zeros.  Temporaries are released as soon as they are used
    up, which keeps the peak memory below that of the einsum formulation.

    Axes between the grid axes and the ambient axis (``batch``, possibly
    none) hold independent immersions on the same grid, such as the two
    flows of a pair.  Every operation is elementwise per member, so each
    member's fields are bit-identical to a kernel call on it alone.  A
    degenerate member raises DegenerateImmersionError at the grid node of
    the smallest det g over all members, without the batch index.
    """
    m = grid.m
    R = range(m)
    pairs = [(i, j) for i in R for j in range(i, m)]
    dX = [partial(grid, X, i) for i in R]
    g = {}
    for i, j in pairs:
        p = dX[i] * dX[j]
        s = p[..., 0] + p[..., 1]
        for a in range(2, p.shape[-1]):
            s += p[..., a]
        g[i, j] = g[j, i] = s
    del p

    if m == 1:
        det = g[0, 0]
        _check_nondegenerate(det, m)
        ginv = {(0, 0): 1.0 / det}
        metric = det[..., None, None]
    else:
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
        _check_nondegenerate(det, m)
        off = -g[0, 1] / det
        ginv = {(0, 0): g[1, 1] / det, (1, 1): g[0, 0] / det, (0, 1): off, (1, 0): off}
        metric = np.stack([g[0, 0], g[0, 1], g[0, 1], g[1, 1]], axis=-1)
        metric = metric.reshape(det.shape + (2, 2))

    # one stencil call per axis over the stacked distinct components of g
    dG = [partial(grid, np.stack([g[ij] for ij in pairs], axis=-1), l) for l in R]
    dg = {}
    for l in R:
        for c, (i, j) in enumerate(pairs):
            dg[l, i, j] = dg[l, j, i] = dG[l][..., c]
    gamma = {}
    for i, j in pairs:
        c = [dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for l in R]
        for k in R:
            s = ginv[k, 0] * c[0]
            for l in range(1, m):
                s += ginv[k, l] * c[l]
            s *= 0.5
            gamma[k, i, j] = gamma[k, j, i] = s
    del dG, dg, c

    h = {}
    for i, j in pairs:
        # the mixed second stencil is the first stencil applied twice
        dd = second_partial(grid, X, i, i) if i == j else partial(grid, dX[i], j)
        corr = gamma[0, i, j][..., None] * dX[0]
        for k in range(1, m):
            corr += gamma[k, i, j][..., None] * dX[k]
        dd -= corr
        h[i, j] = h[j, i] = dd
    del corr

    H = ginv[0, 0][..., None] * h[0, 0]
    if m == 2:
        t = ginv[0, 1][..., None] * h[0, 1]
        H += t
        t += ginv[1, 1][..., None] * h[1, 1]
        H += t
    ij = [(i, j) for i in R for j in R]
    return KernelResult(
        H,
        metric,
        det,
        dX,
        [ginv[p] for p in ij],
        [gamma[(k,) + p] for k in R for p in ij],
        [h[p] for p in ij],
    )


def _pack(parts: list, shape: tuple) -> np.ndarray:
    """Stack components into `shape` and drop them from the list.

    Dropping each field's components once copied keeps compute_geometry's
    peak memory near one pack plus one field.
    """
    arr = np.stack(parts, axis=-1).reshape(shape)
    parts.clear()
    return arr


def compute_geometry(imm: Immersion) -> GeometryPack:
    grid, m, A = imm.grid, imm.grid.m, imm.ambient_dim
    k = geometry_kernel(grid, imm.positions)
    h = _pack(k.h, grid.shape + (A, m, m))
    first = _pack(k.dX, grid.shape + (A, m))
    gamma = _pack(k.gamma, grid.shape + (m, m, m))
    ginv = _pack(k.ginv, grid.shape + (m, m))
    return GeometryPack(imm, first, k.metric, ginv, k.det, gamma, h, k.mean_curv)


# --- covariant calculus -----------------------------------------------------


def covariant_derivative(
    field_arr: np.ndarray, geom: GeometryPack, index_spec: str
) -> np.ndarray:
    """Levi-Civita covariant derivative of a tensor field.

    index_spec marks the trailing axes of the field as lower ('l') or
    upper ('u') tensor indices; any axes between the grid axes and those
    are passive labels (the per-ambient family index).  The new lower
    derivative index is inserted immediately before the declared indices,
    so the result has spec 'l' + index_spec.
    """
    grid = geom.grid
    m = grid.m
    n_idx = len(index_spec)
    if field_arr.ndim < grid.m + n_idx:
        raise ShapeError(
            f"field of rank {field_arr.ndim} cannot carry spec {index_spec!r}"
        )
    for pos in range(n_idx):
        if field_arr.shape[field_arr.ndim - n_idx + pos] != m:
            raise ShapeError("declared tensor axes must have length m")
    gamma = geom.christoffels
    pieces = []
    for d in range(m):
        val = partial(grid, field_arr, d)
        Gd = gamma[..., :, d, :]  # [k, p] = Gamma^k_dp
        Gd_T = np.swapaxes(Gd, -1, -2)  # [p, k] = Gamma^k_dp
        # val is fresh from the stencil, so each term goes into it in place
        for pos, kind in enumerate(index_spec):
            axis = field_arr.ndim - n_idx + pos
            if kind == "l":
                val -= contract_with_metric(field_arr, Gd_T, axis)
            elif kind == "u":
                val += contract_with_metric(field_arr, Gd, axis)
            else:
                raise ValueError(f"bad index spec character {kind!r}")
        pieces.append(val)
    return np.stack(pieces, axis=field_arr.ndim - n_idx)


def contract_with_metric(
    field_arr: np.ndarray, M: np.ndarray, axis: int
) -> np.ndarray:
    """Contract one tensor axis of a field with a per-node matrix field.

    out[..., a] = sum_b M[..., a, b] f[..., b] along `axis`, with M
    broadcast over the axes between the grid and the contracted one.  The
    sum over b runs in index order into an output laid out like the field;
    the einsum "...ab,...b->...a" kept as the reference in
    tests/test_geometry.py gives the same bits except for the sign of exact
    zeros.
    """
    nd = field_arr.ndim
    axis %= nd
    n_after = nd - axis - 1
    # Entries sharing one index along `axis` come in contiguous runs only as
    # long as the axes after it.  Those axes go first and the ufuncs iterate
    # in C order, so the inner loops run over the grid and passive axes.
    perm = list(range(axis + 1, nd)) + list(range(axis + 1))
    f = field_arr.transpose(perm)
    n_mid = nd - M.ndim + 1 - n_after
    Mr = M.reshape((1,) * n_after + M.shape[:-2] + (1,) * n_mid + M.shape[-2:])
    out = np.empty_like(field_arr, dtype=np.result_type(M, field_arr))
    out_t = out.transpose(perm)
    m = M.shape[-1]
    for a in range(m):
        o = out_t[..., a]
        np.multiply(Mr[..., a, 0], f[..., 0], out=o, order="C")
        for b in range(1, m):
            term = np.multiply(Mr[..., a, b], f[..., b], order="C")
            np.add(o, term, out=o, order="C")
    return out


def tensor_norm_sq(
    field_arr: np.ndarray, geom: GeometryPack, index_spec: str
) -> np.ndarray:
    """Pointwise squared g-norm; passive (ambient) axes add in Frobenius."""
    n_idx = len(index_spec)
    grid = geom.grid
    raised = field_arr
    for pos, kind in enumerate(index_spec):
        axis = field_arr.ndim - n_idx + pos
        M = geom.inverse_metric if kind == "l" else geom.metric
        raised = contract_with_metric(raised, M, axis)
    if raised is field_arr:
        prod = field_arr * field_arr
    else:
        prod = np.multiply(field_arr, raised, out=raised)
    sum_axes = tuple(range(grid.m, field_arr.ndim))
    return prod.sum(axis=sum_axes) if sum_axes else prod


def tensor_norm_sup(field_arr, geom, index_spec) -> float:
    """sup over nodes of the pointwise g-norm of a field."""
    return float(np.sqrt(tensor_norm_sq(field_arr, geom, index_spec).max()))


def laplacian(field_arr: np.ndarray, geom: GeometryPack, index_spec: str):
    """Rough Laplacian g^pq grad_p grad_q, componentwise on passive axes.

    The trace sums over (p, q) in row-major order.  That is the order of
    the einsum "...pq,...pq->..." kept as the reference in
    tests/test_geometry.py whenever the field carries tensor indices; for
    an index-free field at m=2 einsum adds the terms in two SIMD lanes, so
    the last bit can differ there.
    """
    dd = covariant_derivative(
        covariant_derivative(field_arr, geom, index_spec), geom, "l" + index_spec
    )
    n_idx = len(index_spec)
    p_axis = dd.ndim - n_idx - 2
    moved = np.moveaxis(dd, (p_axis, p_axis + 1), (-2, -1))
    ginv = geom.inverse_metric
    extra = moved.ndim - ginv.ndim
    gr = ginv.reshape(ginv.shape[:-2] + (1,) * extra + ginv.shape[-2:])
    R = range(ginv.shape[-1])
    return sum_of_products((gr[..., p, q], moved[..., p, q]) for p in R for q in R)


def sum_of_products(pairs) -> np.ndarray:
    """sum_k x_k * y_k over an iterable of (x_k, y_k) array pairs.

    Each pair broadcasts to the output's shape.  The products are added in
    the order given into one fresh output, and every product after the
    first goes through one shared scratch array, so a sum of any length
    allocates two arrays.
    """
    pairs = iter(pairs)
    x, y = next(pairs)
    out = x * y
    scratch = None
    for x, y in pairs:
        if scratch is None:
            scratch = np.empty_like(out)
        np.multiply(x, y, out=scratch)
        out += scratch
    return out


def components_first(arr: np.ndarray, n: int) -> np.ndarray:
    """Contiguous copy of a field with its last n axes moved in front of the
    grid axes.  Each component arr[i, j, ...] is then one contiguous grid
    array, and a per-node scalar field broadcasts against it from the right,
    so sums of products run as long contiguous loops."""
    return np.ascontiguousarray(np.moveaxis(arr, range(-n, 0), range(n)))


def components_last(arr: np.ndarray, n: int) -> np.ndarray:
    """The grid-first view of a components-first array: the first n axes go
    behind the grid and the memory stays as it is, so components_first of
    the view is the original array again, with no copy."""
    return np.moveaxis(arr, range(n), range(-n, 0))


# --- curvature --------------------------------------------------------------
#
# The curvature layer is component arithmetic in index order on
# components_first copies: each contraction loops over its summed indices in
# index order and broadcasts over the free ones and the grid.


@dataclass(frozen=True)
class CurvaturePack:
    """Fully lowered Riemann tensor and Ricci tensor; both are
    components_last views of components-first arrays."""

    riemann: np.ndarray  # grid + (m, m, m, m)
    ricci: np.ndarray  # grid + (m, m)


def _curvature_pack(R: np.ndarray, geom: GeometryPack) -> CurvaturePack:
    """Pack a components-first Riemann tensor with its Ricci trace
    R_ij = g^kl R_ikjl, summed over (k, l) in row-major order."""
    ginv = components_first(geom.inverse_metric, 2)
    M = range(len(ginv))
    ricci = sum_of_products((ginv[k, l], R[:, k, :, l]) for k in M for l in M)
    return CurvaturePack(components_last(R, 4), components_last(ricci, 2))


def curvature_intrinsic(geom: GeometryPack) -> CurvaturePack:
    """Riemann tensor from the Christoffel symbols of the induced metric.

    Rup^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_ip G^p_jk - G^l_jp G^p_ik,
    added in that order, with sums over p in index order; the lowered
    R_ijkl = g_in Rup^n_klj sums over n in index order.  Sign and index
    order are fixed so that the quadratic-in-h formula of curvature_gauss
    agrees in the continuum limit; the agreement is a shipped audit test,
    not an assumption.  At m = 1 every term cancels its own swap, so the
    tensors are exact zeros.
    """
    grid = geom.grid
    M = range(grid.m)
    dgamma = components_first(
        np.stack([partial(grid, geom.christoffels, d) for d in M], axis=-3), 4
    )  # [l, i, j, k] = d_i Gamma^l_jk
    gamma = components_first(geom.christoffels, 3)  # [l, i, j] = Gamma^l_ij
    quad = sum_of_products(
        (gamma[:, :, p, None, None], gamma[None, None, p]) for p in M
    )  # [l, i, j, k] = Gamma^l_ip Gamma^p_jk
    Rup = dgamma - np.swapaxes(dgamma, 1, 2)
    Rup += quad
    Rup -= np.swapaxes(quad, 1, 2)
    del dgamma, quad
    # lower and reorder so antisymmetric pairs sit at (12) and (34) with the
    # same convention as the quadratic-in-h evaluation
    Rn = np.moveaxis(Rup, 3, 1)  # [n, j, k, l] = Rup^n_klj
    g = components_first(geom.metric, 2)
    Rlow = sum_of_products((g[:, n, None, None, None], Rn[None, n]) for n in M)
    del Rup, Rn
    return _curvature_pack(Rlow, geom)


def curvature_gauss(geom: GeometryPack) -> CurvaturePack:
    """Pointwise quadratic expression of Riemann in the second form.

    R_ijkl = P_ijkl - P_ijlk with P_ijkl = sum_a h^a_ik h^a_jl summed over a
    in index order, so R is antisymmetric in (k, l) to the bit and zero at
    m = 1.
    """
    h = components_first(geom.second_form, 3)  # [a, i, j] = h^a_ij
    P = sum_of_products((ha[:, None, :, None], ha[None, :, None, :]) for ha in h)
    R = P - np.swapaxes(P, 2, 3)
    del P
    return _curvature_pack(R, geom)


def trace_identity_residual(geom: GeometryPack) -> float:
    """Max deviation of sum_a |grad X^a|^2_g from m (exact discretely)."""
    val = tensor_norm_sq(geom.first_derivs, geom, "l")
    return float(np.abs(val - geom.grid.m).max())
