import re

import numpy as np
import pytest

from mcflab import shapes
from mcflab.geometry import (
    _check_nondegenerate,
    compute_geometry,
    covariant_derivative,
    curvature_gauss,
    curvature_intrinsic,
    geometry_kernel,
    normality_residual,
    tensor_norm_sq,
    trace_identity_residual,
)
from mcflab.grid import (
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    partial,
    second_partial,
)

from conftest import stencil_symbols


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
            _check_nondegenerate(det, 1e-10)


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
            permute_field,
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


def space_curve(grid):
    (t,) = grid.coordinates()
    pos = np.stack([1.5 * np.cos(t), np.sin(t), 0.3 * np.sin(3 * t)], axis=-1)
    return Immersion(grid, pos)


def torus_of_revolution(grid):
    u, v = grid.coordinates()
    ring = 1.0 + 0.4 * np.cos(v)
    pos = np.stack([ring * np.cos(u), ring * np.sin(u), 0.4 * np.sin(v)], axis=-1)
    return Immersion(grid, pos)


class TestKernelAgainstEinsum:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "maker",
        [
            lambda o: shapes.ellipse(GridSpec(1, 32, o), 1.5, 1.0),
            lambda o: space_curve(GridSpec(1, 32, o)),
            lambda o: torus_of_revolution(GridSpec(2, 16, o)),
            lambda o: shapes.perturbed_torus(GridSpec(2, 16, o), 1.0, 0.6, 0.2),
        ],
        ids=["m1-codim1", "m1-codim2", "m2-codim1", "m2-codim2"],
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
