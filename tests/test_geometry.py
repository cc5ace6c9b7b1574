import re

import numpy as np
import pytest

from mcflab import shapes
from mcflab.geometry import (
    _check_nondegenerate,
    compute_geometry,
    contract_with_metric,
    covariant_derivative,
    curvature_gauss,
    curvature_intrinsic,
    geometry_kernel,
    laplacian,
    tensor_norm_sq,
    tensor_norm_sup,
)
from mcflab.grid import (
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    partial,
    second_partial,
)

from conftest import (
    REFERENCE_MAKERS,
    permute_field,
    stencil_symbols,
    trace_identity_residual,
)


class TestInducedMetric:
    def test_circle_radius_two_at_n8(self):
        g = GridSpec(1, 8)
        imm = shapes.circle(g, 2.0)
        s1, _ = stencil_symbols(g)
        metric = compute_geometry(imm).metric
        assert np.allclose(metric[..., 0, 0], 4 * s1**2, atol=1e-12)
        assert metric[0, 0, 0] == pytest.approx(3.242278, abs=1e-6)

    def test_flat_torus_metric_is_diagonal(self, flat_torus):
        s1, _ = stencil_symbols(flat_torus.grid)
        metric = compute_geometry(flat_torus).metric
        assert np.allclose(metric[..., 0, 0], s1**2, atol=1e-13)
        assert np.allclose(metric[..., 1, 1], s1**2, atol=1e-13)
        assert np.abs(metric[..., 0, 1]).max() < 1e-15

    def test_metric_symmetric_exactly(self, torus_grid):
        imm = shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2)
        metric = compute_geometry(imm).metric
        assert np.array_equal(metric, np.swapaxes(metric, -1, -2))

    def test_inverse_to_tolerance(self, torus_grid):
        geom = compute_geometry(shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2))
        prod = np.einsum("...ij,...jk->...ik", geom.metric, geom.inverse_metric)
        eye = np.eye(2)
        assert np.abs(prod - eye).max() < 1e-10

    def test_degenerate_error_names_node(self, circle_grid):
        pos = np.zeros(circle_grid.shape + (2,))
        pos[:, 0] = 1.0  # all nodes coincide
        with pytest.raises(DegenerateImmersionError) as err:
            compute_geometry(Immersion(circle_grid, pos))
        assert err.value.node is not None

    def test_degenerate_error_node_is_plain_ints(self):
        det = np.ones((8, 8))
        det[0, 1] = 0.0
        with pytest.raises(DegenerateImmersionError, match=re.escape("at node (0, 1)")):
            _check_nondegenerate(det, 2)

    def test_degenerate_error_reports_the_smallest_det(self):
        # node (2, 3) fails first in C order; node (6, 1) has the smaller det
        det = np.ones((8, 8))
        det[2, 3] = -0.5
        det[6, 1] = -2.0
        with pytest.raises(DegenerateImmersionError) as err:
            _check_nondegenerate(det, 2)
        assert err.value.node == (6, 1)
        assert err.value.value == -2.0
        assert f"det(g) = {-2.0:.3e} at node (6, 1)" in str(err.value)

    def test_degenerate_error_drops_the_batch_index(self):
        # a pair's det carries a batch axis after the grid axes
        det = np.ones((8, 8, 2))
        det[5, 6, 1] = 0.0
        with pytest.raises(DegenerateImmersionError) as err:
            _check_nondegenerate(det, 2)
        assert err.value.node == (5, 6)
        assert "at node (5, 6)" in str(err.value)


class TestChristoffels:
    def test_round_circle_connection_vanishes(self, unit_circle):
        geom = compute_geometry(unit_circle)
        assert np.abs(geom.christoffels).max() < 1e-13

    def test_flat_torus_connection_vanishes(self, flat_torus):
        geom = compute_geometry(flat_torus)
        assert np.abs(geom.christoffels).max() < 1e-13

    def test_index_symmetry_exact(self, torus_grid):
        geom = compute_geometry(shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2))
        assert np.array_equal(
            geom.christoffels, np.swapaxes(geom.christoffels, -1, -2)
        )


def normality_residual(geom):
    """Sup of |<h_ij, d_k X> g^kl| in g; O(h^2) for a true immersion."""
    h, X = geom.second_form, geom.first_derivs
    tang = (h[..., None] * X[..., :, None, None, :]).sum(axis=-4)  # [i, j, k]
    tang = np.einsum("...ijk,...lk->...ijl", tang, geom.inverse_metric)
    return tensor_norm_sup(tang, geom, "llu")


class TestSecondFundamentalForm:
    def test_unit_circle_curvature_magnitude(self, unit_circle):
        geom = compute_geometry(unit_circle)
        s1, s2 = stencil_symbols(unit_circle.grid)
        normH = np.linalg.norm(geom.mean_curv, axis=-1)
        assert np.allclose(normH, s2 / s1**2, atol=1e-12)
        assert normH[0] == pytest.approx(1.002413, abs=1e-6)

    def test_huge_radius_scaling(self):
        g = GridSpec(1, 64)
        geom = compute_geometry(shapes.circle(g, 1e3))
        normH = np.linalg.norm(geom.mean_curv, axis=-1)
        assert normH.max() == pytest.approx(1e-3, rel=5e-3)

    def test_symmetry_exact(self, torus_grid):
        geom = compute_geometry(shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2))
        assert np.array_equal(
            geom.second_form, np.swapaxes(geom.second_form, -1, -2)
        )

    def test_product_torus_has_no_mixed_component(self):
        g = GridSpec(2, 16)
        geom = compute_geometry(shapes.product_torus(g, 1.0, 0.5))
        assert np.abs(geom.second_form[..., :, 0, 1]).max() < 1e-14

    def test_normality_residual_second_order(self):
        sups = []
        for N in (16, 32):
            g = GridSpec(2, N)
            geom = compute_geometry(shapes.perturbed_torus(g, 1.0, 0.5, 0.1))
            sups.append(normality_residual(geom))
        assert np.log2(sups[0] / sups[1]) > 1.9


class TestCovariantDerivative:
    def test_metric_compatibility_exact(self, torus_grid):
        geom = compute_geometry(shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2))
        grad_g = covariant_derivative(geom.metric, geom, "ll")
        assert np.abs(grad_g).max() < 1e-12

    def test_scalar_gradient_is_plain_partial(self, unit_circle):
        from mcflab.grid import partial

        geom = compute_geometry(unit_circle)
        f = np.cos(unit_circle.grid.coordinates()[0])
        grad = covariant_derivative(f, geom, "")
        assert np.array_equal(grad[..., 0], partial(unit_circle.grid, f, 0))

    def test_curvature_magnitude_gradient_vanishes_on_circle(self, unit_circle):
        # the rotationally invariant scalar is |H|^2; its gradient is rounding
        geom = compute_geometry(unit_circle)
        speed_sq = np.einsum("...a,...a->...", geom.mean_curv, geom.mean_curv)
        grad = covariant_derivative(speed_sq, geom, "")
        assert tensor_norm_sq(grad, geom, "l").max() < 1e-24

    def test_curvature_gradient_norm_constant_on_circle(self, unit_circle):
        # |grad H|_g is rotation invariant even though the components vary
        geom = compute_geometry(unit_circle)
        gradH = covariant_derivative(geom.mean_curv, geom, "")
        norms = tensor_norm_sq(gradH, geom, "l")
        assert norms.max() - norms.min() < 1e-11


class TestCurvature:
    def test_flat_torus_intrinsic_curvature_vanishes(self, flat_torus):
        pack = curvature_intrinsic(compute_geometry(flat_torus))
        assert np.abs(pack.riemann).max() < 1e-10

    def test_m1_intrinsic_is_zero(self, unit_circle):
        pack = curvature_intrinsic(compute_geometry(unit_circle))
        assert np.abs(pack.riemann).max() == 0.0

    def test_m1_gauss_is_zero_exactly(self, unit_circle):
        pack = curvature_gauss(compute_geometry(unit_circle))
        assert np.abs(pack.riemann).max() == 0.0

    def test_flat_torus_gauss_vanishes(self, flat_torus):
        pack = curvature_gauss(compute_geometry(flat_torus))
        assert np.abs(pack.riemann[..., 0, 1, 0, 1]).max() < 1e-13

    def test_algebraic_symmetries_of_gauss_form(self, torus_grid):
        pack = curvature_gauss(
            compute_geometry(shapes.perturbed_torus(torus_grid, 1.0, 0.6, 0.2))
        )
        R = pack.riemann
        assert np.abs(R + np.einsum("...ijkl->...jikl", R)).max() < 1e-13
        assert np.abs(R + np.einsum("...ijkl->...ijlk", R)).max() < 1e-13
        assert np.abs(R - np.einsum("...ijkl->...klij", R)).max() < 1e-13
        bianchi = (
            R
            + np.einsum("...ijkl->...iklj", R)
            + np.einsum("...ijkl->...iljk", R)
        )
        assert np.abs(bianchi).max() < 1e-13

    def test_antisymmetry_of_intrinsic_on_perturbed_torus(self):
        # last-pair antisymmetry is exact by construction; first-pair
        # antisymmetry holds at the truncation order of the stencils
        sups = []
        for N in (32, 64):
            pack = curvature_intrinsic(
                compute_geometry(
                    shapes.perturbed_torus(GridSpec(2, N), 1.0, 1.0, 0.1)
                )
            )
            R = pack.riemann
            assert np.abs(R + np.einsum("...ijkl->...ijlk", R)).max() < 1e-13
            sups.append(np.abs(R + np.einsum("...ijkl->...jikl", R)).max())
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_gauss_cross_check_second_order(self):
        sups = []
        for N in (16, 32):
            g = GridSpec(2, N)
            geom = compute_geometry(shapes.perturbed_torus(g, 1.0, 0.5, 0.1))
            diff = curvature_gauss(geom).riemann - curvature_intrinsic(geom).riemann
            sups.append(np.abs(diff).max())
        assert np.log2(sups[0] / sups[1]) > 1.9


class TestInvariants:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: shapes.circle(GridSpec(1, 32), 2.0),
            lambda: shapes.ellipse(GridSpec(1, 32), 1.5, 1.0),
            lambda: shapes.product_torus(GridSpec(2, 16), 1.0, 0.5),
            lambda: shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.2),
        ],
    )
    def test_trace_identity_exact(self, maker):
        geom = compute_geometry(maker())
        assert trace_identity_residual(geom) < 1e-12

    def test_geometry_equivariant_under_grid_shift(self, circle_grid):
        from mcflab.grid import (
            SymmetryAction,
            apply_symmetry,
            shift_permutation,
        )

        ell = shapes.ellipse(circle_grid, 1.5, 1.0)
        perm = shift_permutation(circle_grid, [5])
        s = SymmetryAction(np.eye(2), np.zeros(2), perm)
        geomA = compute_geometry(apply_symmetry(ell, s))
        geomB = compute_geometry(ell)
        assert np.array_equal(
            geomA.metric, permute_field(geomB.metric, circle_grid, perm)
        )
        assert np.array_equal(
            geomA.christoffels, permute_field(geomB.christoffels, circle_grid, perm)
        )


# --- the einsum formulation as reference for the unrolled kernel -----------


def einsum_geometry(imm):
    """g, Gamma, h and H by einsum contractions over the pack index layout."""
    grid, X = imm.grid, imm.positions
    m, A = grid.m, imm.ambient_dim
    Xi = np.stack([partial(grid, X, i) for i in range(m)], axis=-1)
    g = np.einsum("...ai,...aj->...ij", Xi, Xi)
    ginv = np.linalg.inv(g)
    dg = np.stack([partial(grid, g, l) for l in range(m)], axis=-3)
    # c[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    c = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, c)
    dd = np.empty(grid.shape + (A, m, m))
    for i in range(m):
        for j in range(m):
            dd[..., :, i, j] = second_partial(grid, X, i, j)
    h = dd - np.einsum("...kij,...ak->...aij", gamma, Xi)
    H = np.einsum("...ij,...aij->...a", ginv, h)
    return g, gamma, h, H


class TestKernelAgainstEinsum:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "maker",
        list(REFERENCE_MAKERS.values()),
        ids=list(REFERENCE_MAKERS),
    )
    def test_fields_match_reference(self, maker, order):
        imm = maker(order)
        g, gamma, h, H = einsum_geometry(imm)
        geom = compute_geometry(imm)
        kern = geometry_kernel(imm.grid, imm.positions)
        for got, want in [
            (kern.metric, g),
            (geom.metric, g),
            (geom.christoffels, gamma),
            (geom.second_form, h),
            (kern.mean_curv, H),
            (geom.mean_curv, H),
        ]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestKernelBatchAxis:
    """Two immersions stacked on a batch axis give each one's kernel fields
    bit for bit."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "maker",
        list(REFERENCE_MAKERS.values()),
        ids=list(REFERENCE_MAKERS),
    )
    def test_members_match_single_kernels(self, maker, order):
        a = maker(order)
        b = shapes.low_mode_perturbation(a, 1e-2, seed=5)
        grid = a.grid
        X = np.stack([a.positions, b.positions], axis=-2)
        batched = geometry_kernel(grid, X)
        assert batched.metric.shape == grid.shape + (2, grid.m, grid.m)
        for member, imm in enumerate((a, b)):
            single = geometry_kernel(grid, imm.positions)
            for name in single._fields:
                got, want = getattr(batched, name), getattr(single, name)
                if isinstance(want, list):
                    assert len(got) == len(want)
                else:
                    got, want = [got], [want]
                for g, w in zip(got, want):
                    # the batch axis sits right after the grid axes
                    member_part = g[(slice(None),) * grid.m + (member,)]
                    assert np.array_equal(member_part, w), name


# --- the einsum formulation as reference for the curvature layer -----------


def einsum_curvature(geom):
    """{source: (Riemann, Ricci)} of both curvature paths by einsum."""
    grid, gamma, h = geom.grid, geom.christoffels, geom.second_form

    def ricci(R):
        return np.einsum("...kl,...ikjl->...ij", geom.inverse_metric, R)

    gauss = np.einsum("...aik,...ajl->...ijkl", h, h) - np.einsum(
        "...ail,...ajk->...ijkl", h, h
    )
    dgamma = np.stack([partial(grid, gamma, d) for d in range(grid.m)], axis=-4)
    Rup = (
        np.einsum("...iljk->...lijk", dgamma)
        - np.einsum("...jlik->...lijk", dgamma)
        + np.einsum("...lip,...pjk->...lijk", gamma, gamma)
        - np.einsum("...ljp,...pik->...lijk", gamma, gamma)
    )
    intrinsic = np.einsum("...im,...mklj->...ijkl", geom.metric, Rup)
    return {
        "gauss": (gauss, ricci(gauss)),
        "intrinsic": (intrinsic, ricci(intrinsic)),
    }


class TestCurvatureAgainstEinsum:
    """Both curvature paths sum in index order; the bound allows reordered
    rounding (numpy 2.4 gives the einsum's bits on these immersions)."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "maker", list(REFERENCE_MAKERS.values()), ids=list(REFERENCE_MAKERS)
    )
    def test_tensors_match_reference(self, maker, order):
        geom = compute_geometry(maker(order))
        ref = einsum_curvature(geom)
        packs = {"gauss": curvature_gauss(geom), "intrinsic": curvature_intrinsic(geom)}
        for source, pack in packs.items():
            for got, want in zip((pack.riemann, pack.ricci), ref[source]):
                assert got.shape == want.shape
                # m = 1 tensors are exact zeros on both sides
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# --- the einsum formulation as reference for the covariant layer -----------
#
# The references work on the grid-first layout and share no code with the
# components-first contraction of the package.


def einsum_contract_with_metric(field_arr, M, axis):
    """out[..., a, ...] = sum_b M[..., a, b] f[..., b, ...] along `axis`."""
    moved = np.moveaxis(field_arr, axis, -1)
    extra = moved.ndim - M.ndim + 1
    Mr = M.reshape(M.shape[:-2] + (1,) * extra + M.shape[-2:]) if extra > 0 else M
    out = np.einsum("...ab,...b->...a", Mr, moved)
    return np.moveaxis(out, -1, axis)


def einsum_covariant_derivative(field_arr, geom, index_spec):
    n_idx = len(index_spec)
    pieces = []
    for d in range(geom.grid.m):
        val = partial(geom.grid, field_arr, d)
        Gd = geom.christoffels[..., :, d, :]  # [k, p] = Gamma^k_dp
        for pos, kind in enumerate(index_spec):
            axis = field_arr.ndim - n_idx + pos
            if kind == "l":
                val = val - einsum_contract_with_metric(
                    field_arr, np.swapaxes(Gd, -1, -2), axis
                )
            else:
                val = val + einsum_contract_with_metric(field_arr, Gd, axis)
        pieces.append(val)
    return np.stack(pieces, axis=field_arr.ndim - n_idx)


def einsum_tensor_norm_sq(field_arr, geom, index_spec):
    raised = field_arr
    for pos, kind in enumerate(index_spec):
        M = geom.inverse_metric if kind == "l" else geom.metric
        raised = einsum_contract_with_metric(raised, M, pos - len(index_spec))
    # summed in grid-first C order, as the package does
    prod = np.ascontiguousarray(field_arr * raised)
    return prod.sum(axis=tuple(range(geom.grid.m, field_arr.ndim)))


def einsum_laplacian(field_arr, geom, index_spec):
    dd = einsum_covariant_derivative(
        einsum_covariant_derivative(field_arr, geom, index_spec),
        geom,
        "l" + index_spec,
    )
    n_idx = len(index_spec)
    p_axis = dd.ndim - n_idx - 2
    moved = np.moveaxis(dd, (p_axis, p_axis + 1), (-2, -1))
    ginv = geom.inverse_metric
    extra = moved.ndim - ginv.ndim
    gr = ginv.reshape(ginv.shape[:-2] + (1,) * extra + ginv.shape[-2:])
    return np.einsum("...pq,...pq->...", gr, moved)


COVARIANT_GEOMS = {
    1: lambda: compute_geometry(shapes.ellipse(GridSpec(1, 16), 1.5, 1.0)),
    2: lambda: compute_geometry(
        shapes.perturbed_torus(GridSpec(2, 8), 1.0, 0.6, 0.2)
    ),
}

SPECS = ["", "l", "ll", "ull", "lll", "lull", "llll"]


def layer(f, geom, spec):
    return [
        tensor_norm_sq(f, geom, spec),
        covariant_derivative(f, geom, spec),
        laplacian(f, geom, spec),
    ]


class TestCovariantLayerAgainstEinsum:
    """Component arithmetic gives the einsum's bits (np.array_equal does not
    tell the signs of zeros apart, which are the one allowed difference)."""

    @pytest.fixture(params=[1, 2], ids=["m1", "m2"])
    def geom(self, request):
        return COVARIANT_GEOMS[request.param]()

    @pytest.mark.parametrize("A", [2, 3, 4])
    @pytest.mark.parametrize("spec", SPECS)
    def test_layer_matches_reference(self, geom, A, spec):
        m = geom.grid.m
        rng = np.random.default_rng(7)
        f = rng.standard_normal(geom.grid.shape + (A,) + (m,) * len(spec))
        n_comp = f.ndim - m
        f_first = np.ascontiguousarray(np.moveaxis(f, range(m, f.ndim), range(n_comp)))
        gamma0 = geom.christoffels[..., :, 0, :]
        for M in (geom.metric, geom.inverse_metric, gamma0, np.swapaxes(gamma0, -1, -2)):
            M_first = np.ascontiguousarray(np.moveaxis(M, (-2, -1), (0, 1)))
            for axis in range(f.ndim - len(spec), f.ndim):
                got = contract_with_metric(f_first, M_first, axis - m)
                got = np.moveaxis(got, range(n_comp), range(m, f.ndim))
                assert np.array_equal(got, einsum_contract_with_metric(f, M, axis))
        new = layer(f, geom, spec)
        ref = [
            einsum_tensor_norm_sq(f, geom, spec),
            einsum_covariant_derivative(f, geom, spec),
            einsum_laplacian(f, geom, spec),
        ]
        assert np.array_equal(new[0], ref[0])
        assert np.array_equal(new[1], ref[1])
        if m == 2 and spec == "":
            # here the (p, q) axes are contiguous and einsum adds the four
            # terms in two SIMD lanes, (00 + 10) + (01 + 11), where the
            # component sum runs in row-major order; no caller takes the
            # Laplacian of an index-free field
            tol = 4 * np.finfo(float).eps * np.abs(ref[2]).max()
            assert np.abs(new[2] - ref[2]).max() <= tol
        else:
            assert np.array_equal(new[2], ref[2])

    @pytest.mark.parametrize("spec", SPECS)
    def test_layout_of_the_input_does_not_change_the_bits(self, geom, spec):
        m = geom.grid.m
        rng = np.random.default_rng(11)
        shape = geom.grid.shape + (4,) + (m,) * len(spec)
        n_comp = len(shape) - m
        views = {
            "strided": rng.standard_normal(shape[:m] + (8,) + shape[m + 1 :])[
                (slice(None),) * m + (slice(None, None, 2),)
            ],
            "fortran": np.asfortranarray(rng.standard_normal(shape)),
            "components_last": np.moveaxis(
                rng.standard_normal(shape[m:] + shape[:m]),
                range(n_comp),
                range(m, len(shape)),
            ),
        }
        for name, view in views.items():
            assert not view.flags.c_contiguous, name
            for got, want in zip(
                layer(view, geom, spec), layer(np.ascontiguousarray(view), geom, spec)
            ):
                assert np.array_equal(got, want), name
