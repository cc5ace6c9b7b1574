import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import cli, shapes
from mcflab.geometry import (
    GeometryPack,
    _check_det,
    components_first,
    components_last,
    compute_geometry,
    contract_with_metric,
    covariant_derivative,
    curvature_gauss,
    curvature_intrinsic,
    divergence,
    geometry_kernel,
    geometry_packs,
    kernel_rate,
    laplacian,
    stacked_kernel,
    tensor_norm_sq,
    tensor_norm_sup,
)
from mcflab.grid import (
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    NonFiniteImmersionError,
    SymmetryAction,
    apply_symmetry,
    partial,
    reflection_permutation,
    second_partial,
)

from conftest import (
    PACK_FIELDS,
    REFERENCE_MAKERS,
    assert_same_bytes,
    full_trace_divergence,
    permute_field,
    reference_curve_kernel,
    space_curve,
    stencil_symbols,
    trace_identity_residual,
    traced_peak,
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
            _check_det(np.zeros(det.shape + (3,)), det, 2)

    def test_degenerate_error_reports_the_smallest_det(self):
        # node (2, 3) fails first in C order; node (6, 1) has the smaller det
        det = np.ones((8, 8))
        det[2, 3] = -0.5
        det[6, 1] = -2.0
        with pytest.raises(DegenerateImmersionError) as err:
            _check_det(np.zeros(det.shape + (3,)), det, 2)
        assert err.value.node == (6, 1)
        assert err.value.value == -2.0
        assert f"det(g) = {-2.0:.3e} at node (6, 1)" in str(err.value)

    def test_degenerate_error_drops_the_batch_index(self):
        # a pair's det carries a batch axis after the grid axes
        det = np.ones((8, 8, 2))
        det[5, 6, 1] = 0.0
        with pytest.raises(DegenerateImmersionError) as err:
            _check_det(np.zeros(det.shape + (3,)), det, 2)
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
        R = curvature_intrinsic(compute_geometry(flat_torus))
        assert np.abs(R).max() < 1e-10

    def test_m1_intrinsic_is_zero(self, unit_circle):
        R = curvature_intrinsic(compute_geometry(unit_circle))
        assert np.abs(R).max() == 0.0

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
            R = curvature_intrinsic(
                compute_geometry(
                    shapes.perturbed_torus(GridSpec(2, N), 1.0, 1.0, 0.1)
                )
            )
            assert np.abs(R + np.einsum("...ijkl->...ijlk", R)).max() < 1e-13
            sups.append(np.abs(R + np.einsum("...ijkl->...jikl", R)).max())
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_gauss_cross_check_second_order(self):
        sups = []
        for N in (16, 32):
            g = GridSpec(2, N)
            geom = compute_geometry(shapes.perturbed_torus(g, 1.0, 0.5, 0.1))
            diff = curvature_gauss(geom).riemann - curvature_intrinsic(geom)
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


    @given(
        maker=st.sampled_from(sorted(REFERENCE_MAKERS)),
        order=st.sampled_from([2, 4]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_metric_and_curvature_norms_invariant_under_rigid_motion(
        self, maker, order, data
    ):
        imm = REFERENCE_MAKERS[maker](order)
        A = imm.ambient_dim

        def draw(n, bound):
            entry = st.floats(-bound, bound, allow_nan=False)
            return np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))

        Q, _ = np.linalg.qr(draw(A * A, 1.0).reshape(A, A))
        identity = np.arange(imm.grid.num_nodes).reshape(imm.grid.shape)
        moved = apply_symmetry(imm, SymmetryAction(Q, draw(A, 10.0), identity))
        geom, geom_moved = compute_geometry(imm), compute_geometry(moved)
        invariants = {
            "g": lambda g: g.metric,
            "|h|^2_g": lambda g: tensor_norm_sq(g.second_form, g, "ll"),
            "|H|^2": lambda g: (g.mean_curv**2).sum(axis=-1),
        }
        for name, of in invariants.items():
            want, got = of(geom), of(geom_moved)
            # relative to the field's sup: a vanishing component (g_01 of a
            # torus) moves at rounding level
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @given(
        maker=st.sampled_from(["m2-codim1", "m2-codim2"]),
        order=st.sampled_from([2, 4]),
        axes=st.sampled_from([[0], [1], [0, 1]]),
    )
    @settings(max_examples=12, deadline=None)
    def test_geometry_commutes_with_reflection_at_m2(self, maker, order, axes):
        """X(u) -> X(-u) along the axes flips the sign of each lower index
        on a reflected axis, and of each upper one."""
        imm = REFERENCE_MAKERS[maker](order)
        grid, A = imm.grid, imm.ambient_dim
        perm = reflection_permutation(grid, axes)
        reflected = apply_symmetry(imm, SymmetryAction(np.eye(A), np.zeros(A), perm))
        geom, geom_reflected = compute_geometry(imm), compute_geometry(reflected)
        s = np.where(np.isin(np.arange(grid.m), axes), -1.0, 1.0)
        ss = s[:, None] * s[None, :]
        signs = {
            "first_derivs": s,
            "metric": ss,
            "christoffels": s[:, None, None] * ss,
            "second_form": ss,
            "mean_curv": 1.0,
        }
        for name, sign in signs.items():
            want = sign * permute_field(getattr(geom, name), grid, perm)
            got = getattr(geom_reflected, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


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


class TestKernelHaloCopies:
    """Each halo copy is one np.concatenate.  At m=1 one copy of X, 2r
    deep, serves d_0X, d_00X and the r-deep halo of g_00 that c_000 reads;
    at m=2 one copy of X per axis serves d_iX and d_iiX, one of the stacked
    g per axis its partials, and one of d_0X the mixed d_0d_1X."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize(
        "maker, copies", [("m1-codim1", 1), ("m1-codim2", 1), ("m2-codim1", 5),
                          ("m2-codim2", 5)]
    )
    def test_copies_per_call(self, monkeypatch, maker, copies, order, batch):
        imm = REFERENCE_MAKERS[maker](order)
        X = np.stack([imm.positions] * batch, axis=-2)
        calls = []
        concatenate = np.concatenate

        def counting(*args, **kwargs):
            calls.append(args)
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        geometry_kernel(imm.grid, X)
        assert len(calls) == copies


def curve_in_r4(grid):
    """space_curve with a fourth coordinate."""
    (t,) = grid.coordinates()
    pos = space_curve(grid).positions
    return Immersion(grid, np.concatenate([pos, 0.2 * np.cos(2 * t)[:, None]], -1))


# one immersion per dimension m and ambient dimension A, at derivative order o
LAYOUT_MAKERS = {
    (1, 3): REFERENCE_MAKERS["m1-codim2"],
    (1, 4): lambda o: curve_in_r4(GridSpec(1, 32, o)),
    (2, 3): REFERENCE_MAKERS["m2-codim1"],
    (2, 4): REFERENCE_MAKERS["m2-codim2"],
}


def layouts(X: np.ndarray) -> dict:
    """X (grid + batch + (A,)) in C order, with the ambient axis first in
    memory, in Fortran order and as a strided slice of a larger array."""
    big = np.zeros(X.shape[:-1] + (2 * X.shape[-1],))
    big[..., ::2] = X
    out = {
        "C": np.ascontiguousarray(X),
        "components-first": components_last(components_first(X, 1), 1),
        "Fortran": np.asfortranarray(X),
        "strided": big[..., ::2],
    }
    for name, x in out.items():
        assert np.array_equal(x, X, equal_nan=True), name
        assert x.flags.c_contiguous == (name == "C"), name
    cf = out["components-first"]
    assert np.shares_memory(cf, components_first(cf, 1))  # a free view
    return out


class TestKernelLayouts:
    """The kernel and the pack give the same bytes whatever the memory order
    of X: the m=2 kernel works with the ambient axis first in memory, and
    its conversion must not change a bit, the sign of a zero included."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("batch", [None, 2], ids=["single", "batch2"])
    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_fields_do_not_depend_on_the_layout(self, m, A, batch, order):
        imm = LAYOUT_MAKERS[m, A](order)
        grid = imm.grid
        assert (grid.m, imm.ambient_dim) == (m, A)
        X = imm.positions
        if batch:
            other = shapes.low_mode_perturbation(imm, 1e-2, seed=5)
            X = np.stack([X, other.positions], axis=-2)
        want = geometry_kernel(grid, X)
        want_pack = compute_geometry(imm)
        for name, x in layouts(X).items():
            got = geometry_kernel(grid, x)
            for field in want._fields:
                g, w = getattr(got, field), getattr(want, field)
                if isinstance(w, list):
                    assert len(g) == len(w), (name, field)
                else:
                    g, w = [g], [w]
                for gi, wi in zip(g, w):
                    assert_same_bytes(gi, wi)
            if batch:
                continue
            pack = compute_geometry(Immersion(grid, x))
            for field in GeometryPack.__dataclass_fields__:
                if field != "immersion":
                    assert_same_bytes(getattr(pack, field), getattr(want_pack, field))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_nan_in_components_first_memory_names_its_first_c_order_node(
        self, m, A, order
    ):
        imm = LAYOUT_MAKERS[m, A](order)
        X = imm.positions.copy()
        first, later = (3,) * m, (5,) * m
        X[later + (0,)] = np.nan  # first in memory: the ambient axis leads
        X[first + (A - 1,)] = np.nan  # first in C order
        x = layouts(X)["components-first"]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteImmersionError) as err:
                geometry_kernel(imm.grid, x)
        assert err.value.node == first

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_degenerate_x_names_the_same_node_in_every_layout(self, m, A, order):
        imm = LAYOUT_MAKERS[m, A](order)
        X = imm.positions.copy()
        X[6], X[7] = X[4], X[3]  # d_0X vanishes at axis-0 index 5
        with pytest.raises(DegenerateImmersionError) as want:
            geometry_kernel(imm.grid, X)
        assert want.value.node[0] == 5
        for name, x in layouts(X).items():
            with pytest.raises(DegenerateImmersionError) as got:
                geometry_kernel(imm.grid, x)
            assert got.value.node == want.value.node, name
            assert str(got.value) == str(want.value), name


# one curve per ambient dimension A, at derivative order o
CURVE_MAKERS = {
    2: REFERENCE_MAKERS["m1-codim1"],
    3: LAYOUT_MAKERS[1, 3],
    4: LAYOUT_MAKERS[1, 4],
}


class TestCurveKernelStencils:
    """The m=1 kernel writes its two stencils out on one halo copy of X;
    `reference_curve_kernel` takes them from `grid`.  Every field is the
    same to the byte, the sign of zero included, and a bad X raises the
    same exception at the same node."""

    @pytest.mark.parametrize("layout", ["C", "Fortran", "strided"])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("batch", [None, 1, 2], ids=["single", "batch1", "batch2"])
    @pytest.mark.parametrize("A", sorted(CURVE_MAKERS))
    def test_fields_match_the_grid_stencils(self, A, batch, order, layout):
        imm = CURVE_MAKERS[A](order)
        X = imm.positions
        if batch:
            others = [
                shapes.low_mode_perturbation(imm, 1e-2, seed=s).positions
                for s in range(batch - 1)
            ]
            X = np.stack([X, *others], axis=-2)
        x = layouts(X)[layout]
        got = geometry_kernel(imm.grid, x)
        want = reference_curve_kernel(imm.grid, x)
        for field in want._fields:
            g, w = getattr(got, field), getattr(want, field)
            if not isinstance(w, list):
                g, w = [g], [w]
            assert len(g) == len(w), field
            for gi, wi in zip(g, w):
                assert_same_bytes(gi, wi)
                if layout == "C":  # as the KernelResult docstring says
                    assert gi.flags.c_contiguous, field

    @pytest.mark.parametrize(
        "error", [NonFiniteImmersionError, DegenerateImmersionError]
    )
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("A", sorted(CURVE_MAKERS))
    def test_bad_x_raises_the_same_error(self, A, order, error):
        imm = CURVE_MAKERS[A](order)
        X = np.stack([imm.positions] * 2, axis=-2)
        if error is NonFiniteImmersionError:
            X[5, 1, A - 1] = np.nan
        else:
            X[6], X[7] = X[4], X[3]  # d_0X vanishes at node 5
        errors = []
        for kernel in (geometry_kernel, reference_curve_kernel):
            with pytest.raises(error) as e:
                kernel(imm.grid, X)
            errors.append(e.value)
        got, want = errors
        assert got.node == want.node == (5,)
        assert str(got) == str(want)


def assert_one_block(fields):
    """fields are views, one after another in this order, of one fresh
    C-order base array of their total size."""
    base = fields[0].base
    assert base is not None and base.base is None
    assert base.flags.c_contiguous
    assert all(f.base is base for f in fields)
    assert base.size == sum(f.size for f in fields)
    start = base.__array_interface__["data"][0]
    offsets = [f.__array_interface__["data"][0] - start for f in fields]
    ends = np.cumsum([f.nbytes for f in fields])
    assert offsets == [0] + ends[:-1].tolist()


class TestFieldBlock:
    """Every field of a pack, and every rate of `kernel_rate`, lies in one
    block per pack or rate, in field order: the layout `geometry.field_block`
    makes, which keeps the minor faults and the RK steps beside live packs
    down."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_a_pack_is_one_block(self, m, A, batch):
        imm = LAYOUT_MAKERS[m, A](4)
        states = [imm, shapes.low_mode_perturbation(imm, 1e-2, seed=5)][:batch]
        packs = geometry_packs(states)
        for pack in packs:
            assert_one_block([getattr(pack, name) for name in PACK_FIELDS])
        if batch == 2:
            assert not np.shares_memory(packs[0].metric, packs[1].metric)

    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_kernel_rates_are_one_block(self, m, A):
        geom = compute_geometry(LAYOUT_MAKERS[m, A](4))
        rates = kernel_rate(geom)
        assert [r.shape for r in rates] == [
            getattr(geom, name).shape for name in RATE_FIELDS
        ]
        assert_one_block(rates)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("m, A", sorted(LAYOUT_MAKERS))
    def test_components_are_the_pack_fields_components_first(self, m, A, batch):
        """Each pack field, components first, is its member's grid arrays of
        the kernel in the order the `KernelResult` docstring gives, ambient
        axis first, copied out of the kernel's memory."""
        imm = LAYOUT_MAKERS[m, A](2)
        states = [imm, shapes.low_mode_perturbation(imm, 1e-2, seed=5)][:batch]
        k = stacked_kernel(states)
        kernel_arrays = [a for f in k for a in (f if isinstance(f, list) else [f])]
        R, RA = range(m), range(A)
        for b, pack in enumerate(geometry_packs(states, k)):
            fields = {  # each pack field's component axes and components in k
                "first_derivs": ((A, m), [d[..., b, a] for a in RA for d in k.dX]),
                "metric": ((m, m), [k.metric[..., b, i, j] for i in R for j in R]),
                "inverse_metric": ((m, m), [g[..., b] for g in k.ginv]),
                "det_metric": ((), [k.det[..., b]]),
                "christoffels": ((m, m, m), [g[..., b] for g in k.gamma]),
                "second_form": ((A, m, m), [h[..., b, a] for a in RA for h in k.h]),
                "mean_curv": ((A,), [k.mean_curv[..., b, a] for a in RA]),
            }
            assert list(fields) == list(PACK_FIELDS)
            for name, (lead, components) in fields.items():
                got = components_first(getattr(pack, name), len(lead))
                assert got.shape == lead + imm.grid.shape
                assert_same_bytes(got, np.stack(components).reshape(got.shape))
                assert not any(np.shares_memory(got, a) for a in kernel_arrays), name


# the pack fields whose d/dt `kernel_rate` returns, in its order
RATE_FIELDS = ("first_derivs", "metric", "christoffels", "second_form")


class TestKernelRate:
    """`kernel_rate` is the directional derivative of the kernel along H:
    the central difference of `compute_geometry(X + eps H)` in eps, with one
    Richardson step, matches every rate field to 1e-8 of the field's sup.
    A rate below 1e-3 counts as vanishing (the Christoffel rate of a
    product torus is 0) and is held to 1e-11 absolute."""

    MAKERS = {
        **REFERENCE_MAKERS,
        "product-torus": lambda o: shapes.product_torus(GridSpec(2, 16, o), 1.0, 0.7),
    }

    # sha256 of the C-order bytes of each field of `kernel_rate`, in
    # RATE_FIELDS order, for every maker at orders 2 and 4: the bytes before
    # its sums went through `contract_with_metric` and `sum_of_products`.
    # Each field is elementwise arithmetic on the pack with no reduction, so
    # its bytes do not depend on the SIMD width of that arithmetic.
    RATE_PINS = {
        ("m1-codim1", 2): (
            "e335fd0a5ad33c9b5f120f796f2520f7f7bc0e95c098463e05ac06a51fd1930c",
            "08b10aac2ac2ac9d8edcc9c7348a523fee02971439502f8b0b53fedb18cc94bb",
            "73f3b4f20e05e6ac03691cd634e7a8441c58d47fd7cdd89fefe3b8bbdda0bcec",
            "bbd03e526447cb7639a79470f755e1d4dc397833781b3970ad59913766a58769",
        ),
        ("m1-codim1", 4): (
            "1e53ea916b51c88e4d5e48d8072de43a52d64e8c55988015c5a7c433c65a50de",
            "3f6251fd9e8863ea9106e958832d94acf7d26f3b21969913c4bd300ada1a7c43",
            "cd146c4e5129a909afa600273a5c535039c5e4eb9660bf4f705cc87ddb5c3949",
            "9aea5b15a150949e6887d3c9f9af482d9ac24490fc482525ea7038add9d85ae3",
        ),
        ("m1-codim2", 2): (
            "73d70ce275979b02cb584bce717fa58cbc92c899682621bf7b101a0620faf3f0",
            "4888d0c8838ef8c6966c9e7e4330a153d097ceba04fc2332f20c242a149d767a",
            "d58dbc5602fd0f2d7b8fe8c65e2b8dae13a0e57807572b9acb4375f321f8cf10",
            "0075e011c2b58e4cfd21bccd8feea00d37c018b3ba2925645e57fdc89c11912d",
        ),
        ("m1-codim2", 4): (
            "3cd3e5b2cfbf4daf7a97f62ac6e2b6d94b1933fbc36e85942d87f6d376dd9069",
            "f14b9e1a19528f94885085024c6a4805740a0578ce32401b78a33ebeb4f50dbe",
            "61441c12d8b1caba57be4d21c43f8aa2a5b11d8faa588c541895ace598f2c870",
            "edd188122d655562fb96f0a650a3cb66e872899e04f1a62e4bac0e8e78bff950",
        ),
        ("m2-codim1", 2): (
            "de1350af70d9962dcd11fb6191867d0534d28404418dff99190090bdff5ac479",
            "119d9cbeefa4f514fb4f7259b2f9143156fcce920c71d1c6b1fd5058c684685f",
            "c20c0be4bfd9110e3b892c4b9f04b2e0e1a35c1ecf6e57da10a7f8f0df956de6",
            "2e15fec975767835beca1b94d60acae75b5b2bd6af06417a447a2a1fc668dcd9",
        ),
        ("m2-codim1", 4): (
            "ddb81d6c5b5f85628ded39e5040d9b5e75ed87922affb6cde7697456c87b80ba",
            "aa573fca7da0659b02387d2717b735b9424f63c4b7d8397e21c25b3a71b90740",
            "c4cf2ea618e4e9b42ada8448224da4d535ee075cbe07a7eca5380e8d1decf046",
            "13bc4e0d3c7e4cef7689dc35fa535cbec6d18160a3db14b6afb0f3fff193aabc",
        ),
        ("m2-codim2", 2): (
            "38661adf6f0e64745c63e9fed33259b7da4e52d4dc68a9aa44247f51c04fa369",
            "63d2d4297356542276b6baf940d6f30528b573ce71918bf216aef381b5ba611a",
            "e6d18a1ecea6d121bbdae9e3954292330aac82683431fa086a836643fe8c0434",
            "881fd655ec41c1c7f38299022473c447e7e37089dcafd5dfd1d102756637c68f",
        ),
        ("m2-codim2", 4): (
            "b6d62c4aaa5af190a9e5534692493664fcfcb0985cd0f25a36427f474b649b1f",
            "83403401c6d779731d65aa5c4dabe227178288e42c80a5075949835449913613",
            "887ac48604070a2eadec4b2f5499dc1b5194d4df1a0eff852d00fafcc49b8236",
            "49efc6faa11a78b1fb1a032a397925bd4e9e9bfcbe66008f0192e39fc580ab32",
        ),
        ("product-torus", 2): (
            "d9b8c76e22bd1584042c75b07ebc318f6e11608c2a8db08b455794f126c8b6c8",
            "c6bd87834e3008bf5d7eb038a7d22127f432c883593c2dda3cf432e4d16b4712",
            "5fc5406fc6f334595e1d196c5cd5e4230f5107ff2dd80abb4b59be7f64fa9d0d",
            "1e1e320f0cffb557f2c4d163b210f0146cadcaefc18070dfcdafdc6e7cfab059",
        ),
        ("product-torus", 4): (
            "018b786da69c0ef7e8e7cb2af4dcf4c31061c9ee3c932c50f8d37a65460299aa",
            "3d0730d150e66af500551ae4af9902393d260e6910869dd4b9b812bd15da9462",
            "56a08a4317295e7d5f754df1c1e8a89e7cc8bdd5bf89c6dea18b9a61f7476158",
            "a6b6c7beefd3ba05da57a4cd92085a09d5d29309c1d3046418a92c3479892597",
        ),
    }

    @staticmethod
    def central_difference(imm, eps):
        H = compute_geometry(imm).mean_curv
        plus, minus = (
            compute_geometry(imm.with_positions(imm.positions + s * H))
            for s in (eps, -eps)
        )
        return [
            (getattr(plus, f) - getattr(minus, f)) / (2 * eps) for f in RATE_FIELDS
        ]

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("maker", sorted(MAKERS))
    def test_matches_a_richardson_central_difference(self, maker, order):
        imm = self.MAKERS[maker](order)
        rates = kernel_rate(compute_geometry(imm))
        coarse, fine = (self.central_difference(imm, eps) for eps in (1e-3, 5e-4))
        for field, rate, c, f in zip(RATE_FIELDS, rates, coarse, fine):
            want = (4 * f - c) / 3
            scale = max(np.abs(want).max(), 1e-3)
            assert np.abs(rate - want).max() <= 1e-8 * scale, field

    @pytest.mark.parametrize("maker, order", sorted(RATE_PINS))
    def test_fields_are_pinned_to_the_bit(self, maker, order):
        rates = kernel_rate(compute_geometry(self.MAKERS[maker](order)))
        got = [
            hashlib.sha256(np.ascontiguousarray(r).tobytes()).hexdigest()
            for r in rates
        ]
        assert got == list(self.RATE_PINS[maker, order])

    @pytest.mark.parametrize("maker", sorted(REFERENCE_MAKERS))
    def test_position_gradient_rate_is_the_gradient_of_H(self, maker):
        geom = compute_geometry(REFERENCE_MAKERS[maker](4))
        assert_same_bytes(
            kernel_rate(geom)[0], covariant_derivative(geom.mean_curv, geom, "")
        )


class TestDetScreen:
    """The kernel's one det screen catches non-finite positions, reports
    them before a degenerate det, and lets an overflowing det of finite
    positions through as the plain degeneracy check did."""

    @given(
        maker=st.sampled_from(sorted(REFERENCE_MAKERS)),
        order=st.sampled_from([2, 4]),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_position_fails_the_screen(self, maker, order, value, data):
        imm = REFERENCE_MAKERS[maker](order)
        grid = imm.grid
        node = tuple(
            data.draw(st.integers(0, grid.resolution - 1)) for _ in range(grid.m)
        )
        X = imm.positions.copy()
        X[node + (data.draw(st.integers(0, imm.ambient_dim - 1)),)] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteImmersionError) as err:
                geometry_kernel(grid, X)
        assert err.value.node == node
        assert f"non-finite position at node {node}" == str(err.value)

    def test_first_non_finite_node_in_c_order_wins_over_degeneracy(self):
        grid = GridSpec(1, 32)
        pos = shapes.circle(grid, 1.0).positions.copy()
        pos[6] = pos[4]  # det vanishes at node 5
        pos[20, 1] = np.nan
        pos[12, 0] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteImmersionError) as err:
                geometry_kernel(grid, pos)
        assert err.value.node == (12,)

    @pytest.mark.parametrize("maker", sorted(REFERENCE_MAKERS))
    def test_overflowing_det_of_finite_positions_passes(self, maker):
        imm = REFERENCE_MAKERS[maker](2)
        X = imm.positions * 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            kern = geometry_kernel(imm.grid, X)
        assert np.all(np.isfinite(X))
        assert not np.all(np.isfinite(kern.det))

    def test_overflow_elsewhere_keeps_the_degenerate_node(self):
        grid = GridSpec(1, 32)
        pos = shapes.circle(grid, 1e160).positions.copy()
        pos[6] = pos[4]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateImmersionError) as err:
                geometry_kernel(grid, pos)
        assert err.value.node == (5,)
        assert err.value.value == 0.0


# --- the einsum formulation as reference for the curvature layer -----------


def einsum_curvature(geom):
    """{source: tensors} of both curvature paths by einsum: the Gauss
    Riemann and Ricci tensors and the intrinsic Riemann tensor."""
    grid, gamma, h = geom.grid, geom.christoffels, geom.second_form
    gauss = np.einsum("...aik,...ajl->...ijkl", h, h) - np.einsum(
        "...ail,...ajk->...ijkl", h, h
    )
    ricci = np.einsum("...kl,...ikjl->...ij", geom.inverse_metric, gauss)
    dgamma = np.stack([partial(grid, gamma, d) for d in range(grid.m)], axis=-4)
    Rup = (
        np.einsum("...iljk->...lijk", dgamma)
        - np.einsum("...jlik->...lijk", dgamma)
        + np.einsum("...lip,...pjk->...lijk", gamma, gamma)
        - np.einsum("...ljp,...pik->...lijk", gamma, gamma)
    )
    intrinsic = np.einsum("...im,...mklj->...ijkl", geom.metric, Rup)
    return {"gauss": (gauss, ricci), "intrinsic": (intrinsic,)}


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
        gauss = curvature_gauss(geom)
        tensors = {
            "gauss": (gauss.riemann, gauss.ricci),
            "intrinsic": (curvature_intrinsic(geom),),
        }
        for source, got_tensors in tensors.items():
            for got, want in zip(got_tensors, ref[source], strict=True):
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

    @pytest.mark.parametrize("A", [1, 4])
    @pytest.mark.parametrize("spec", SPECS)
    def test_laplacian_of_a_family_is_that_of_the_whole_family(self, geom, A, spec):
        """One passive component at a time gives the bytes and the layout of
        the divergence of the covariant derivative of the whole family."""
        m = geom.grid.m
        rng = np.random.default_rng(5)
        f = rng.standard_normal(geom.grid.shape + (A,) + (m,) * len(spec))
        got = laplacian(f, geom, spec)
        whole = divergence(covariant_derivative(f, geom, spec), geom, "l" + spec)
        assert got.strides == whole.strides
        assert_same_bytes(got, whole)

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


class TestContractionOutput:
    """`contract_with_metric` hands back a fresh C-contiguous array of the
    field's shape and result type, and holds no more than the two arrays of
    `sum_of_products` (its output and one scratch) while it runs, beside
    the buffers of np.getbufsize() elements that numpy's ufunc iterator may
    take for each of a broadcast product's two inputs.  At the CLI's buffer
    the iterator takes none: no operand has a contiguous run shorter than
    it.  The grids are fine enough that a third field-sized array would
    break the bound."""

    GEOMS = {
        1: lambda: compute_geometry(shapes.ellipse(GridSpec(1, 8192), 1.5, 1.0)),
        2: lambda: compute_geometry(
            shapes.perturbed_torus(GridSpec(2, 64), 1.0, 0.6, 0.2)
        ),
    }

    @pytest.fixture(params=[1, 2], ids=["m1", "m2"])
    def geom(self, request):
        return self.GEOMS[request.param]()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spec", [s for s in SPECS if s])
    def test_a_fresh_contiguous_array(self, geom, spec, dtype):
        self.check(geom, spec, dtype, 2 * np.getbufsize())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spec", [s for s in SPECS if s])
    def test_no_iterator_buffer_at_the_cli_buffer(self, geom, spec, dtype):
        """numpy's default buffer of 8192 elements breaks this bound at m=2,
        where a component's contiguous run is N^2 = 4096 nodes."""
        old = np.setbufsize(cli.UFUNC_BUFSIZE)
        try:
            self.check(geom, spec, dtype, 0)
        finally:
            np.setbufsize(old)

    def check(self, geom, spec, dtype, buffered):
        """The contraction of a random field of spec along each of its
        tensor axes; its peak within two outputs, `buffered` elements and
        64 KiB."""
        m = geom.grid.m
        n_comp = 1 + len(spec)
        rng = np.random.default_rng(19)
        f = rng.standard_normal((4,) + (m,) * len(spec) + geom.grid.shape)
        f = f.astype(dtype)
        gamma0 = components_first(geom.christoffels, 3)[:, 0]  # [k, p]
        for M in (components_first(geom.metric, 2), gamma0.swapaxes(0, 1)):
            for axis in range(1, n_comp):
                out, peak = traced_peak(contract_with_metric, f, M, axis)
                assert out.shape == f.shape
                assert out.dtype == np.result_type(M, f)
                assert out.flags.c_contiguous and out.flags.owndata
                assert not np.shares_memory(out, f)
                assert not np.shares_memory(out, M)
                buffers = buffered * out.itemsize
                assert peak <= 2 * out.nbytes + buffers + 64 * 2**10, (axis, peak)


class TestDivergenceOneSlab:
    """`divergence` builds one slab grad_p T at a time and gives the bits of
    the trace of the whole covariant derivative."""

    @pytest.fixture(params=[1, 2], ids=["m1", "m2"])
    def geom(self, request):
        return COVARIANT_GEOMS[request.param]()

    @pytest.mark.parametrize("A", [1, 4])
    @pytest.mark.parametrize("spec", [s for s in SPECS if s.startswith("l")])
    def test_bitwise_equal_to_the_full_trace(self, geom, A, spec):
        m = geom.grid.m
        rng = np.random.default_rng(13)
        f = rng.standard_normal(geom.grid.shape + (A,) + (m,) * len(spec))
        f[(0,) * f.ndim] = -0.0
        got = divergence(f, geom, spec)
        want = full_trace_divergence(f, geom, spec)
        assert got.strides == want.strides
        assert_same_bytes(got, want)

    def test_traced_peak_of_a_grad_V_shaped_field(self):
        """grad V of the paired checks: an A-family with spec 'llll'.  The
        full grad T alone is twice the field; the whole-trace form peaked
        at 5.3 fields here."""
        geom = compute_geometry(shapes.perturbed_torus(GridSpec(2, 32), 1.0, 0.6, 0.2))
        rng = np.random.default_rng(17)
        V = rng.standard_normal(geom.grid.shape + (4, 2, 2, 2))
        grad_V = covariant_derivative(V, geom, "lll")
        got, peak = traced_peak(divergence, grad_V, geom, "llll")
        assert peak < 4.5 * grad_V.nbytes
        assert_same_bytes(got, full_trace_divergence(grad_V, geom, "llll"))
