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

Layout: a pack field is handed out grid first, as above, but its memory is
components first (`components_first`): the tensor and ambient axes lead and
the grid axes come last, so each component is one contiguous grid array.
The m=2 kernel works in that order, too: it puts the ambient axis of X first
in memory (free if X is laid out so, as the flow keeps its m=2 state), and
the stencils, which keep their input's layout, return d_iX and d_i d_jX the
same way, so every ambient product runs over whole contiguous grid arrays.
Only the m=1 kernel works on X as it comes, grid first.  Neither kernel
writes a stencil out: both run the `grid` ones, the m=1 kernel on the tap
windows of its one halo copy of X, which `grid` caches.  The covariant
layer (`covariant_derivative`, `tensor_norm_sq`, `divergence`, `laplacian`)
takes and returns grid-first fields and works components first inside; its
one contraction, `contract_with_metric`, forms sum_b M[a, b] f[b] from whole
grid arrays with the one loop of `sum_of_products`.  A grid-first view of a
components-first array converts back without a copy, so chained calls copy
nothing; any other input is copied once on entry.  No function of the
package calls einsum: the einsum formulations are the bitwise references in
tests/test_geometry.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (
    EPS_IMMERSION,
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    NonFiniteImmersionError,
    ShapeError,
    _curve_taps,
    _first_from_taps,
    _second_from_taps,
    first_nonfinite_node,
    partial,
    partial_and_second,
)


@dataclass(frozen=True)
class GeometryPack:
    """All pointwise geometric quantities of one immersion; each field with
    component axes is the components_last view of a components-first
    array."""

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


def induced_volume(det: np.ndarray, grid: GridSpec) -> float:
    """Total induced length/area by midpoint quadrature, from det g (a
    C-order grid array: the pairwise sum follows the memory layout)."""
    return float(np.sum(np.sqrt(det))) * grid.spacing**grid.m


def _check_det(X: np.ndarray, det: np.ndarray, m: int):
    """Raise if X is not finite or det g falls below EPS_IMMERSION.

    One screen clears a healthy det in two ufunc reductions over all
    entries, np.minimum.reduce(det) >= EPS_IMMERSION and
    np.maximum.reduce(det) < inf (the ndarray methods add a Python layer per
    call), which is false if any det is NaN.  A
    NaN or infinite entry of X always fails it: the entry enters d_iX at
    its neighbours along axis i with a nonzero stencil weight, and NaN or
    inf survives the sum of squares that forms g_ii there and the products
    that form det.  Only when the screen fails are the checks run, in
    order: a non-finite X raises NonFiniteImmersionError at its first such
    entry in C order; then det < EPS_IMMERSION anywhere raises
    DegenerateImmersionError at the smallest det over all nodes and batch
    members, and the node keeps its first m (grid) indices only.  A finite
    X whose det overflows passes both, and the kernel carries on.
    """
    if (
        np.minimum.reduce(det, axis=None) >= EPS_IMMERSION
        and np.maximum.reduce(det, axis=None) < np.inf
    ):
        return
    node = first_nonfinite_node(X, m)
    if node is not None:
        raise NonFiniteImmersionError(node)
    if np.any(det < EPS_IMMERSION):
        idx = np.unravel_index(np.argmin(det), det.shape)
        raise DegenerateImmersionError(idx[:m], float(det[idx]))


class KernelResult(NamedTuple):
    """One kernel evaluation: H, g and det g, plus the other pack fields as
    lists of grid-first components in pack index order (``dX[i]`` = d_i X,
    ``ginv`` over (i, j), ``gamma`` over (k, i, j), ``h`` over (i, j));
    index-symmetric entries share one array; `geometry_packs` alone reads them.

    At m=2 every field with component axes (``mean_curv``, ``metric`` and
    the entries of ``dX`` and ``h``) is the components_last view of a
    contiguous components-first array, and the per-node fields are C-order
    grid (+ batch) arrays.  At m=1 the fields keep the layout of the
    arithmetic on X as given, C order for a C-order X, and ``dX[0]`` and
    ``det`` are the middle N rows of the kernel's arrays on N + 2r nodes.
    """

    mean_curv: np.ndarray  # grid + batch + (A,)
    metric: np.ndarray  # grid + batch + (m, m)
    det: np.ndarray  # grid + batch
    dX: list  # m x grid + batch + (A,)
    ginv: list  # m*m x grid + batch
    gamma: list  # m*m*m x grid + batch
    h: list  # m*m x grid + batch + (A,)


def kernel_layout(X: np.ndarray, m: int) -> np.ndarray:
    """Positions X (grid + batch + (A,)) in the memory order geometry_kernel
    works in at dimension m: at m=2 the ambient axis first (no copy if X is
    in that order already), at m=1 X as it is."""
    return components_last(components_first(X, 1), 1) if m == 2 else X


def geometry_kernel(grid: GridSpec, X: np.ndarray) -> KernelResult:
    """Mean curvature vector and metric of the positions X (grid + batch + (A,)).

    g_ij = sum_a d_iX^a d_jX^a;  Gamma^k_ij = g^kl c_lij / 2 with
    c_lij = d_i g_jl + d_j g_il - d_l g_ij from the discrete partials of g;
    h^a_ij = d_i d_jX^a - Gamma^k_ij d_kX^a with the compact second
    stencils;  H^a = g^ij h^a_ij.  The index loops are written out as
    arithmetic on whole grid arrays.  At m=2 they run components first:
    X is converted once to ambient-first memory (no copy if it is in that
    order already), the three distinct g_ij are stacked on a leading axis
    for one stencil call per axis, and the products go through two reused
    X-sized buffers.  Every operation is elementwise, so the bits do not
    depend on the layout of X.  Sums over a, l and k run in index order and
    the four m=2 terms of H add pairwise, which are the orders of the einsum
    contractions in tests/test_geometry.py: for m=2, and for m=1 with A=2,
    the two agree to the last bit (numpy 2.4) except for the sign of exact
    zeros.  Temporaries are released as soon as they are used up, which
    keeps the peak memory below that of the einsum formulation.

    The fixed cost per call is kept low for the many small calls of a
    paired m=1 flow.  At m=2 one halo copy of X per axis gives d_iX and
    d_iiX (`partial_and_second`).  At m=1 the index loops are written out
    as straight-line arithmetic on the one component of each field, and
    the `grid` stencils run on one periodic halo copy of X, 2r deep
    (r = order / 2), through the tap windows `grid` caches per (r, N): the
    first stencil gives d_0X, and so g_00, on the N + 2r nodes
    -r .. N + r - 1, the compact second one d_00X on the N nodes, and
    c_000 = d_0 g_00 is the first stencil again over g_00's own r-deep
    halo, so no second copy is made.  Each halo value is the same
    arithmetic on the same numbers as at its periodic image, so the bits
    are those of `partial` and `partial_and_second`.  The loops' operations
    run in their order, so the bits are those of the loops, but for c_000,
    which the loops form as (d_0 g_00 + d_0 g_00) - d_0 g_00: that
    overflows to inf where |d_0 g_00| > DBL_MAX / 2, and is d_0 g_00 to
    the bit elsewhere.

    Axes between the grid axes and the ambient axis (``batch``, possibly
    none) hold independent immersions on the same grid, such as the two
    flows of a pair.  Every operation is elementwise per member, so each
    member's fields are bit-identical to a kernel call on it alone.  One
    screen of det g over all members (`_check_det`) guards the inverse: a
    non-finite X raises NonFiniteImmersionError at its first such entry in
    C order, and a degenerate member raises DegenerateImmersionError at
    the grid node of the smallest det g over all members, without the
    batch index.
    """
    if grid.m == 1:
        # the index loops below at m=1, and the grid stencils, on one halo
        # copy of X: pad[i + 2r] = X[i]; d and g hold nodes -r .. N + r - 1
        n, h, r = len(X), grid.spacing, grid.derivative_order // 2
        tail, head, wide, middle, inner = _curve_taps(r, n)
        pad = np.concatenate((X[tail], X, X[head]))
        d = _first_from_taps(pad, wide, h)
        dd = _second_from_taps(pad, middle, X, h)
        del pad
        p = d * d
        g = p[..., 0] + p[..., 1]
        for a in range(2, p.shape[-1]):
            g += p[..., a]
        del p
        det, dX0 = g[r : r + n], d[r : r + n]
        _check_det(X, det, 1)
        ginv = np.reciprocal(det)  # 1.0 / det to the bit, without a scalar
        gamma = _first_from_taps(g, inner, h)  # c_000 = d_0 g_00
        gamma *= ginv
        gamma *= 0.5
        dd -= gamma[..., None] * dX0
        H = ginv[..., None] * dd
        return KernelResult(H, det[..., None, None], det, [dX0], [ginv], [gamma], [dd])

    m = 2
    R = range(m)
    pairs = [(0, 0), (0, 1), (1, 1)]  # the distinct (i, j), in stacked order
    ij = [(i, j) for i in R for j in R]
    stacked = {p: c for c, (i, j) in enumerate(pairs) for p in ((i, j), (j, i))}
    # The stencils keep the layout of kernel_layout, so each D[i][a] = d_iX^a
    # and each dd[i, j][a] = d_i d_jX^a is one contiguous grid (+ batch)
    # array, and a per-node field multiplies it from the right.  One halo
    # copy of X per axis serves d_iX and the compact d_iiX; the mixed second
    # stencil is the first stencil applied twice.
    Xa = kernel_layout(X, m)
    first_second = [partial_and_second(grid, Xa, i) for i in R]
    del Xa
    dd = {(0, 1): components_first(partial(grid, first_second[0][0], 1), 1)}
    for i in R:
        dd[i, i] = components_first(first_second[i][1], 1)
    D = [components_first(d, 1) for d, _ in first_second]

    scratch = np.empty_like(D[0])  # the X-sized buffer of every product
    sc = scratch[0]
    G = np.empty((len(pairs),) + D[0].shape[1:])  # [c] = g_ij, (i, j) = pairs[c]
    for c, (i, j) in enumerate(pairs):
        np.multiply(D[i][0], D[j][0], out=G[c])
        for a in range(1, len(D[i])):
            np.multiply(D[i][a], D[j][a], out=sc)
            G[c] += sc
    g00, g01, g11 = G
    det = g00 * g11
    det -= np.multiply(g01, g01, out=sc)
    _check_det(X, det, m)
    off = np.negative(g01)
    off /= det
    ginv = {(0, 0): g11 / det, (1, 1): g00 / det, (0, 1): off, (1, 0): off}
    metric = G[[stacked[p] for p in ij]].reshape((m, m) + det.shape)

    # one stencil call per axis over the stacked distinct components of g
    dG = [components_first(partial(grid, components_last(G, 1), l), 1) for l in R]
    del G, g00, g01, g11
    gamma = {}
    c = np.empty((m,) + det.shape)
    for i, j in pairs:
        # c_lij = d_i g_jl + d_j g_il - d_l g_ij
        for l in R:
            np.add(dG[i][stacked[j, l]], dG[j][stacked[i, l]], out=c[l])
            c[l] -= dG[l][stacked[i, j]]
        for k in R:
            s = ginv[k, 0] * c[0]
            for l in range(1, m):
                s += np.multiply(ginv[k, l], c[l], out=sc)
            s *= 0.5
            gamma[k, i, j] = gamma[k, j, i] = s
    del dG, c

    corr = np.empty_like(scratch)
    h = {}
    for i, j in pairs:
        np.multiply(gamma[0, i, j], D[0], out=corr)
        for k in range(1, m):
            corr += np.multiply(gamma[k, i, j], D[k], out=scratch)
        dd[i, j] -= corr
        h[i, j] = h[j, i] = dd[i, j]

    H = ginv[0, 0] * h[0, 0]
    t = np.multiply(ginv[0, 1], h[0, 1], out=corr)
    H += t
    t += np.multiply(ginv[1, 1], h[1, 1], out=scratch)
    H += t
    return KernelResult(
        components_last(H, 1),
        components_last(metric, 2),
        det,
        [components_last(d, 1) for d in D],
        [ginv[p] for p in ij],
        [gamma[(k,) + p] for k in R for p in ij],
        [components_last(h[p], 1) for p in ij],
    )


def batch_positions(states: list) -> np.ndarray:
    """The positions of immersions on one grid stacked on a batch axis (grid
    + (B,) + (A,)) in `kernel_layout`, as `stacked_kernel` and the
    fixed-step stream's loop state hold them."""
    return kernel_layout(np.stack([s.positions for s in states], -2), states[0].grid.m)


def stacked_kernel(states: list) -> KernelResult:
    """One kernel evaluation of immersions on one grid, stacked on a batch
    axis (`batch_positions`), as the fixed-step stream stacks them, so
    that the m=2 kernel copies nothing."""
    return geometry_kernel(states[0].grid, batch_positions(states))


def field_block(grid_shape: tuple, leads: list) -> tuple:
    """One fresh block ((n,) + grid) holding fields with component axes
    leads one after another, components first, and each field's
    components_last view: the layout of a pack and of its `kernel_rate`.
    With a fresh array per field, the identity suite's RK steps beside its
    live packs ran about 20 % slower at N=128, and the check_simons that
    follows its rates at N=128 in a convergence run took 7.0k minor faults
    instead of 4.1k."""
    sizes = [math.prod(lead) for lead in leads]
    block = np.empty((sum(sizes),) + grid_shape)
    views, start = [], 0
    for n, lead in zip(sizes, leads):
        f = block[start : start + n].reshape(lead + grid_shape)
        views.append(components_last(f, len(lead)))
        start += n
    return block, views


def geometry_packs(states: list, k: KernelResult | None = None) -> list:
    """The GeometryPack of each immersion of states, on one grid, from one
    kernel evaluation k of them stacked on a batch axis (grid + (B,) + (A,)),
    as the fixed-step stream yields it, or from one call here if k is None.

    The one reader of `KernelResult`: each pack is one `field_block` that
    its member's grid arrays of k are copied into, field by field in pack
    order, each field's in the row-major order of a components-first copy,
    ambient axis first.  So a pack has the bytes, shape and strides of a
    single flow's whatever the batch: a member's strided view would change
    the pairwise sums of `induced_volume` and `cell_weight`.
    """
    if k is None:
        k = stacked_kernel(states)
    m, A = len(k.dX), k.mean_curv.shape[-1]
    R, RA = range(m), range(A)
    leads = [(A, m), (m, m), (m, m), (), (m, m, m), (A, m, m), (A,)]  # pack order
    packs = []
    for b, imm in enumerate(states):
        components = [
            *(d[..., b, a] for a in RA for d in k.dX),
            *(k.metric[..., b, i, j] for i in R for j in R),
            *(g[..., b] for g in k.ginv),
            k.det[..., b],
            *(g[..., b] for g in k.gamma),
            *(h[..., b, a] for a in RA for h in k.h),
            *(k.mean_curv[..., b, a] for a in RA),
        ]
        block, views = field_block(imm.grid.shape, leads)
        np.stack(components, out=block)
        packs.append(GeometryPack(imm, *views))
    return packs


def compute_geometry(imm: Immersion) -> GeometryPack:
    """The GeometryPack of an immersion: `geometry_packs` of it alone."""
    (pack,) = geometry_packs([imm])
    return pack


# --- covariant calculus -----------------------------------------------------


def covariant_derivative(
    field_arr: np.ndarray, geom: GeometryPack, index_spec: str
) -> np.ndarray:
    """Levi-Civita covariant derivative of a tensor field.

    index_spec marks the trailing axes of the field as lower ('l') or
    upper ('u') tensor indices; any axes between the grid axes and those
    are passive labels (the per-ambient family index).  The new lower
    derivative index is inserted immediately before the declared indices,
    so the result has spec 'l' + index_spec.  The result is the
    components_last view of a components-first array.
    """
    f, n_pass = _tensor_components(field_arr, geom, index_spec)
    out = np.empty(f.shape[:n_pass] + (geom.grid.m,) + f.shape[n_pass:])
    lead = (slice(None),) * n_pass
    for d in range(geom.grid.m):
        _covariant_slab(f, geom, index_spec, d, out[lead + (d,)])
    return components_last(out, out.ndim - geom.grid.m)


def _tensor_components(field_arr: np.ndarray, geom: GeometryPack, index_spec: str):
    """(components_first copy of the field, its number of passive axes),
    after checking that the field can carry index_spec."""
    m = geom.grid.m
    n_comp = field_arr.ndim - m
    n_pass = n_comp - len(index_spec)
    if n_pass < 0:
        raise ShapeError(
            f"field of rank {field_arr.ndim} cannot carry spec {index_spec!r}"
        )
    if any(n != m for n in field_arr.shape[m + n_pass :]):
        raise ShapeError("declared tensor axes must have length m")
    for kind in index_spec:
        if kind not in "lu":
            raise ValueError(f"bad index spec character {kind!r}")
    return components_first(field_arr, n_comp), n_pass


def _covariant_slab(
    f: np.ndarray, geom: GeometryPack, index_spec: str, d: int, o: np.ndarray
) -> None:
    """grad_d of the components-first field f, written into o, an array of
    f's shape: the stencil goes straight into o, then each Christoffel term
    of index_spec, in index order."""
    n_comp = f.ndim - geom.grid.m
    n_pass = n_comp - len(index_spec)
    partial(geom.grid, components_last(f, n_comp), d, out=components_last(o, n_comp))
    Gd = components_first(geom.christoffels, 3)[:, d]  # [k, p] = Gamma^k_dp
    for pos, kind in enumerate(index_spec):
        # lower: - Gamma^k_dp f_..k..; upper: + Gamma^p_dk f^..k..
        M, op = (Gd.swapaxes(0, 1), np.subtract) if kind == "l" else (Gd, np.add)
        op(o, contract_with_metric(f, M, n_pass + pos), out=o)


def contract_with_metric(
    field_arr: np.ndarray, M: np.ndarray, axis: int
) -> np.ndarray:
    """Contract one component axis of a components-first field with a
    components-first per-node matrix field (m, m) + grid.

    out[..., a, ...] = sum_b M[a, b] f[..., b, ...] along `axis`, counted
    from the front, is the `sum_of_products` in index order of the columns
    M[:, b], with unit axes for the axes after `axis`, and the slabs
    f[..., b:b+1, ...]; the einsum "...ab,...b->...a" on the grid-first
    layout, kept as the reference in tests/test_geometry.py, gives the same
    bits except for the sign of exact zeros.
    """
    lead = (slice(None),) * axis
    column = (len(M),) + (1,) * (field_arr.ndim - axis - M.ndim + 1) + M.shape[2:]
    return sum_of_products(
        (M[:, b].reshape(column), field_arr[lead + (slice(b, b + 1),)])
        for b in range(len(M))
    )


def tensor_norm_sq(
    field_arr: np.ndarray, geom: GeometryPack, index_spec: str
) -> np.ndarray:
    """Pointwise squared g-norm; passive (ambient) axes add in Frobenius.

    The product of the field with its raised copy is written grid first in
    C order before the sum over the tensor and passive axes, because
    numpy's pairwise summation order follows the memory layout.
    """
    m = geom.grid.m
    n_comp = field_arr.ndim - m
    n_pass = n_comp - len(index_spec)
    raised = field_arr
    if index_spec:
        raised = components_first(field_arr, n_comp)
        for pos, kind in enumerate(index_spec):
            M = geom.inverse_metric if kind == "l" else geom.metric
            raised = contract_with_metric(
                raised, components_first(M, 2), n_pass + pos
            )
        raised = components_last(raised, n_comp)
    prod = np.multiply(field_arr, raised, out=np.empty(field_arr.shape))
    return prod.sum(axis=tuple(range(m, field_arr.ndim))) if n_comp else prod


def tensor_norm_sup(field_arr, geom, index_spec) -> float:
    """sup over nodes of the pointwise g-norm of a field
    (`identities.residual_report` takes its own, beside the L2 norm)."""
    return float(np.sqrt(tensor_norm_sq(field_arr, geom, index_spec).max()))


def divergence(field_arr: np.ndarray, geom: GeometryPack, index_spec: str):
    """g^pq grad_p T_q... of a field T whose spec starts with a lower index q.

    The trace sums over (p, q) in row-major order.  That is the order of
    the einsum "...pq,...pq->..." kept as the reference in
    tests/test_geometry.py whenever the field carries tensor indices past
    q; for a gradient of an index-free field at m=2 einsum adds the terms
    in two SIMD lanes, so the last bit can differ there.  The full grad T
    is never built: slab grad_p T is made into one reused T-sized buffer
    when the terms of p are due, so besides the output the trace holds one
    slab and the scratch of one slab's build at a time.
    """
    f, n_pass = _tensor_components(field_arr, geom, index_spec)
    ginv = components_first(geom.inverse_metric, 2)
    lead = (slice(None),) * n_pass
    slab = np.empty(f.shape)
    R = range(geom.grid.m)

    def terms():
        # sum_of_products takes each term before it asks for the next one
        for p in R:
            _covariant_slab(f, geom, index_spec, p, slab)
            for q in R:
                yield ginv[p, q], slab[lead + (q,)]

    out = sum_of_products(terms())
    return components_last(out, out.ndim - geom.grid.m)


def laplacian(field_arr: np.ndarray, geom: GeometryPack, index_spec: str):
    """Rough Laplacian g^pq grad_p grad_q: the divergence of the covariant
    derivative, one passive (ambient) component at a time into one
    components-first output, returned as its components_last view.  Every
    operation is elementwise per component, so the bits are those of the
    whole family at once, and only one component's second derivative is
    alive at a time."""
    m = geom.grid.m
    n_pass = max(field_arr.ndim - m - len(index_spec), 0)
    passive = field_arr.shape[m : m + n_pass]
    out = np.empty(passive + field_arr.shape[m + n_pass :] + geom.grid.shape)
    for idx in np.ndindex(passive):
        f = field_arr[(slice(None),) * m + idx]
        lap = divergence(
            covariant_derivative(f, geom, index_spec), geom, "l" + index_spec
        )
        out[idx] = components_first(lap, len(index_spec))
    return components_last(out, out.ndim - m)


def sum_of_products(pairs) -> np.ndarray:
    """sum_k x_k * y_k over an iterable of (x_k, y_k) array pairs: the
    shared loop that sums products of components.

    Each pair broadcasts to the output's shape.  The products are added in
    the order given into one fresh output, each before the next pair is
    drawn, and every product after the first goes through one shared
    scratch array, so a sum of any length allocates two arrays.
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


@lru_cache(maxsize=None)
def _to_first(ndim: int, n: int) -> tuple:
    """transpose axes that move the last n of ndim axes in front."""
    return tuple(range(ndim - n, ndim)) + tuple(range(ndim - n))


@lru_cache(maxsize=None)
def _to_last(ndim: int, n: int) -> tuple:
    """transpose axes that move the first n of ndim axes behind the rest."""
    return tuple(range(n, ndim)) + tuple(range(n))


def components_first(arr: np.ndarray, n: int) -> np.ndarray:
    """Contiguous copy of a field with its last n axes moved in front of the
    grid axes.  Each component arr[i, j, ...] is then one contiguous grid
    array, and a per-node scalar field broadcasts against it from the right,
    so sums of products run as long contiguous loops.  A components_last
    view comes back as its base array, with no copy."""
    return np.ascontiguousarray(arr.transpose(_to_first(arr.ndim, n)))


def components_last(arr: np.ndarray, n: int) -> np.ndarray:
    """The grid-first view of a components-first array: the first n axes go
    behind the grid and the memory stays as it is, so components_first of
    the view is the original array again, with no copy."""
    return arr.transpose(_to_last(arr.ndim, n))


# --- curvature --------------------------------------------------------------
#
# The curvature layer is component arithmetic in index order on
# components_first copies: each contraction loops over its summed indices in
# index order and broadcasts over the free ones and the grid.


@dataclass(frozen=True)
class CurvaturePack:
    """Fully lowered Riemann tensor and Ricci tensor of `curvature_gauss`;
    both are components_last views of components-first arrays."""

    riemann: np.ndarray  # grid + (m, m, m, m)
    ricci: np.ndarray  # grid + (m, m)


def curvature_intrinsic(geom: GeometryPack) -> np.ndarray:
    """Fully lowered Riemann tensor from the Christoffel symbols of the
    induced metric, as the components_last view of a components-first array.

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
    return components_last(Rlow, 4)


def curvature_gauss(geom: GeometryPack) -> CurvaturePack:
    """Pointwise quadratic expression of Riemann in the second form, with
    its Ricci trace.

    R_ijkl = P_ijkl - P_ijlk with P_ijkl = sum_a h^a_ik h^a_jl summed over a
    in index order, so R is antisymmetric in (k, l) to the bit and zero at
    m = 1.  R_ij = g^kl R_ikjl sums over (k, l) in row-major order.
    """
    h = components_first(geom.second_form, 3)  # [a, i, j] = h^a_ij
    P = sum_of_products((ha[:, None, :, None], ha[None, :, None, :]) for ha in h)
    R = P - np.swapaxes(P, 2, 3)
    del P
    ginv = components_first(geom.inverse_metric, 2)
    M = range(len(ginv))
    ricci = sum_of_products((ginv[k, l], R[:, k, :, l]) for k in M for l in M)
    return CurvaturePack(components_last(R, 4), components_last(ricci, 2))


# --- rates along the flow ---------------------------------------------------


def kernel_rate(geom: GeometryPack) -> list:
    """The exact d/dt of the pack's first_derivs, metric, christoffels and
    second_form under the semi-discrete flow dX/dt = H, H the pack's own
    mean_curv: the directional derivative of `geometry_kernel` along H
    (its tangent-linear map), as one `field_block` in pack layout, returned
    as the four grid-first views in that order.

    d/dt d_iX^a = d_iH^a;  d/dt g_ij = sum_a (d_iH^a d_jX^a + d_iX^a d_jH^a);
    d/dt Gamma^k_ij = g^kl (c'_lij / 2 - g'_lp Gamma^p_ij), with c'_lij =
    d_i g'_jl + d_j g'_il - d_l g'_ij from the kernel's first stencil on g'
    = d/dt g;  d/dt h^a_ij = d_i d_jH^a - (d/dt Gamma^k_ij) d_kX^a -
    Gamma^k_ij d_kH^a, with the kernel's second stencils: compact on the
    diagonal, the first one twice off it.  The Christoffel rate is the
    derivative of g^kl c_lij / 2, whose g^-1 term (g^-1)' c / 2 = -g^-1 g'
    g^-1 c / 2 is -g^-1 g' Gamma.  The loops run over whole grid arrays,
    components first, as the m=2 kernel's do; `contract_with_metric` raises
    c'/2 - g' Gamma.  d_iH comes from the stencil that
    `covariant_derivative` applies to H, so it is its gradient to the bit.
    """
    grid, m = geom.grid, geom.grid.m
    R = range(m)
    pairs = [(i, j) for i in R for j in R if i <= j]  # the distinct (i, j)
    stacked = {p: c for c, (i, j) in enumerate(pairs) for p in ((i, j), (j, i))}
    X = components_first(geom.first_derivs, 2)  # [a, i] = d_iX^a
    ginv = components_first(geom.inverse_metric, 2)
    gamma = components_first(geom.christoffels, 3)  # [k, i, j] = Gamma^k_ij
    A = len(X)
    leads = [(A, m), (m, m), (m, m, m), (A, m, m)]
    _, rates = field_block(grid.shape, leads)
    dX, dg, dgamma, dh = (components_first(r, len(n)) for r, n in zip(rates, leads))

    # d_iH^a into dX[:, i] and the kernel's d_i d_jH^a into dh[:, i, j]
    for i in R:
        first, second = partial_and_second(grid, geom.mean_curv, i)
        dX[:, i] = components_first(first, 1)
        dh[:, i, i] = components_first(second, 1)
    for i, j in pairs:
        if i != j:
            partial(grid, rates[0][..., i], j, out=rates[3][..., i, j])

    sc, other = np.empty((2,) + grid.shape)
    G = np.empty((len(pairs),) + grid.shape)  # [c] = g'_ij, (i, j) = pairs[c]
    for c, (i, j) in enumerate(pairs):
        np.multiply(dX[0, i], X[0, j], out=G[c])
        np.multiply(X[0, i], dX[0, j], out=other)
        for a in range(1, A):
            G[c] += np.multiply(dX[a, i], X[a, j], out=sc)
            other += np.multiply(X[a, i], dX[a, j], out=sc)
        G[c] += other
        dg[i, j] = dg[j, i] = G[c]

    # one stencil call per axis over the stacked distinct components of g'
    dG = [components_first(partial(grid, components_last(G, 1), l), 1) for l in R]
    del G
    q = np.empty((m,) + grid.shape)  # [l] = c'_lij / 2 - g'_lp Gamma^p_ij
    for i, j in pairs:
        for l in R:
            np.add(dG[i][stacked[j, l]], dG[j][stacked[i, l]], out=q[l])
            q[l] -= dG[l][stacked[i, j]]
            q[l] *= 0.5
            for p in R:
                q[l] -= np.multiply(dg[l, p], gamma[p, i, j], out=sc)
        dgamma[:, i, j] = contract_with_metric(q, ginv, 0)
        if i != j:
            dgamma[:, j, i] = dgamma[:, i, j]
    del dG, q

    for i, j in pairs:
        # sum_k (d/dt Gamma^k_ij) d_kX^a + Gamma^k_ij d_kH^a
        dh[:, i, j] -= sum_of_products(
            (c[k, i, j], F[:, k]) for c, F in ((dgamma, X), (gamma, dX)) for k in R
        )
        if i != j:
            dh[:, j, i] = dh[:, i, j]
    return rates
