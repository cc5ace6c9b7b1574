"""Residual checks of the evolution equations along integrated flows.

Discrete trajectories are generated with small fixed steps so the 4th-order
time differences are far below the stencil truncation error; the residual of
each evolution identity then shrinks at second order in the grid spacing,
except for relations that hold exactly in the semi-discrete system.
"""

import numpy as np
import pytest

from mcflab import GridSpec, compute_geometry
from mcflab import shapes
from mcflab.flow import FlowTrajectory, run_fixed_dt
from mcflab.geometry import covariant_derivative, curvature_gauss, laplacian
from mcflab.grid import (
    SymmetryAction,
    apply_symmetry,
    partial,
)
from mcflab.identities import (
    ANCHORS,
    ProtocolError,
    ResidualReport,
    _connection_rhs,
    _second_form_rhs,
    check_dGamma,
    check_dX,
    check_dg,
    check_dh,
    check_simons,
    five_point_derivative,
    gauss_cross_check,
    grad_grad_H,
    grad_H,
    metric_rhs,
    simons_residual_field,
)

from conftest import REFERENCE_MAKERS, stencil_symbols, trajectory_window


def short_run(imm, dt=1e-5, n_steps=4):
    return run_fixed_dt(imm, dt, n_steps)


class TestTimeDifference:
    def test_exact_on_quartic(self):
        dt = 0.1
        t = np.arange(5) * dt
        fields = [np.full((4,), ti**4) for ti in t]
        d = five_point_derivative(fields, dt)
        assert np.allclose(d, 4 * t[2] ** 3, atol=1e-12)

    def test_exact_on_quartics_at_the_centre(self):
        dt = 0.5
        t = np.arange(5) * dt - 1.0
        coeffs = np.array([[3.0, -2.0, 1.0, 5.0, -7.0], [-1.0, 4.0, 0.0, -2.0, 2.0]])
        fields = [coeffs @ ti ** np.arange(5) for ti in t]
        exact = coeffs[:, 1:] @ (np.arange(1, 5) * t[2] ** np.arange(4))
        assert np.allclose(five_point_derivative(fields, dt), exact, atol=1e-12)

    def test_window_differences_the_five_states_around_each_centre(self):
        traj = short_run(shapes.ellipse(GridSpec(1, 16), 1.5, 1.0), n_steps=6)
        window = trajectory_window(traj)
        n = len(window)
        metrics = [window.geometry(k).metric for k in range(n)]
        assert list(window.centers) == [2, 3, 4]
        for c in window.centers:
            want = five_point_derivative(metrics[c - 2 : c + 3], window.dt)
            got = window.time_derivative(c, lambda geom: geom.metric)
            assert np.array_equal(got, want)

    def test_window_serves_centres_only(self):
        window = trajectory_window(
            short_run(shapes.ellipse(GridSpec(1, 16), 1.5, 1.0), n_steps=6)
        )
        n = len(window)
        for k in (0, 1, n - 2, n - 1, -1, n):
            with pytest.raises(IndexError, match=f"state {k} is not a center"):
                window.time_derivative(k, lambda geom: geom.metric)

    def test_item_outside_the_states_raises_without_wrapping(self):
        window = trajectory_window(
            short_run(shapes.ellipse(GridSpec(1, 16), 1.5, 1.0), n_steps=6)
        )
        n = len(window)
        for k in (-1, -n, n):
            with pytest.raises(IndexError, match=f"state {k} is outside"):
                window.item(k)

    def test_sweep_drops_each_item_behind_the_stencil(self):
        window = trajectory_window(
            short_run(shapes.ellipse(GridSpec(1, 16), 1.5, 1.0), n_steps=6)
        )
        seen = []
        for c in window.sweep():
            seen.append(c)
            window.time_derivative(c, lambda geom: geom.metric)
            if c > 2:
                with pytest.raises(IndexError, match=f"state {c - 3} is behind"):
                    window.item(c - 3)
        assert seen == list(window.centers) == [2, 3, 4]
        with pytest.raises(IndexError, match="state 2 is behind the sweep"):
            window.time_derivative(4, lambda geom: geom.metric)
        assert window.geometry(3) is not None  # the last four stay

    def test_center_is_the_central_formula_to_the_bit(self):
        rng = np.random.default_rng(7)
        dt = 1e-5
        f0, f1, f2, f3, f4 = (
            rng.standard_normal((64, 3)) * 10.0 ** rng.integers(-8, 8, (64, 3))
            for _ in range(5)
        )
        reference = (f0 - 8 * f1 + 8 * f3 - f4) / (12 * dt)
        assert np.array_equal(
            five_point_derivative([f0, f1, f2, f3, f4], dt), reference
        )


class TestEvolutionChecks:
    def test_position_gradient_is_semi_discrete_exact(self):
        traj = short_run(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
        assert check_dX(trajectory_window(traj), 2).sup_residual < 1e-9

    def test_metric_residual_matches_stencil_prediction_on_circle(self):
        grid = GridSpec(1, 64)
        traj = short_run(shapes.circle(grid, 1.0))
        s1, s2 = stencil_symbols(grid)
        predicted = 2.0 * s2 * abs(s2 - s1**2) / s1**2
        rep = check_dg(trajectory_window(traj), 2)
        assert abs(rep.sup_residual - predicted) / predicted < 0.01

    @pytest.mark.parametrize(
        "checker,resolutions",
        [
            (check_dg, (64, 128)),
            (check_dGamma, (64, 128)),
            (check_dh, (128, 256)),
        ],
    )
    def test_second_order_convergence_on_ellipse(self, checker, resolutions):
        sups = []
        for N in resolutions:
            traj = short_run(shapes.ellipse(GridSpec(1, N), 1.5, 1.0))
            sups.append(checker(trajectory_window(traj), 2).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_one_sweep_checks_every_center(self):
        traj = short_run(shapes.ellipse(GridSpec(1, 32), 1.5, 1.0), n_steps=8)
        window = trajectory_window(traj)
        for c in window.sweep():
            # the same center of a five-state window around it, to the bit
            alone = trajectory_window(
                FlowTrajectory(traj.states[c - 2 : c + 3], sample_step=1e-5)
            )
            for checker in (check_dX, check_dg, check_dGamma, check_dh):
                rep = checker(window, c)
                assert rep.t_center == traj.states[c].time
                assert rep == checker(alone, 2)

    def test_short_trajectory_rejected(self):
        traj = run_fixed_dt(shapes.circle(GridSpec(1, 32), 1.0), 1e-4, 3)
        with pytest.raises(ProtocolError, match="at least 5"):
            trajectory_window(traj)

    def test_report_carries_anchor_and_metadata(self):
        traj = short_run(shapes.circle(GridSpec(1, 32), 1.0))
        rep = check_dg(trajectory_window(traj), 2)
        assert rep.anchor == ANCHORS["evolve_metric"]
        assert rep.resolution == 32
        assert rep.dt == 1e-5
        assert rep.l2_residual <= rep.sup_residual * np.sqrt(2 * np.pi) * 1.5

    def test_residuals_invariant_under_rigid_motion(self):
        grid = GridSpec(1, 64)
        phi = 0.7
        Q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        traj = short_run(shapes.ellipse(grid, 1.5, 1.0))
        sym = SymmetryAction(Q, np.array([3.0, -1.0]), np.arange(grid.num_nodes))
        moved = FlowTrajectory(
            states=[apply_symmetry(s, sym) for s in traj.states],
            dt_history=list(traj.dt_history),
            sample_step=traj.sample_step,
        )
        for checker in (check_dg, check_dGamma, check_dh):
            a = checker(trajectory_window(traj), 2).sup_residual
            b = checker(trajectory_window(moved), 2).sup_residual
            # the 1/dt factor in the time difference amplifies the rounding
            # introduced by the rotation, so the match is relative, not exact
            assert abs(a - b) < 1e-7 * a


class TestCommutationIdentity:
    def test_exact_on_circle(self):
        geom = compute_geometry(shapes.circle(GridSpec(1, 64), 1.0))
        rep = check_simons(geom, curvature_gauss(geom))
        assert rep.sup_residual < 1e-12

    def test_second_order_on_perturbed_torus(self):
        sups = []
        for N in (16, 32):
            imm = shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1)
            geom = compute_geometry(imm)
            sups.append(check_simons(geom, curvature_gauss(geom)).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_residual_scales_as_inverse_cube(self):
        # dilating the immersion by lam scales the g-norm of the [a,i,j]
        # residual tensor by lam^-3, exactly, in the discrete system
        sups = []
        for r1, r2, amplitude in ((1.0, 0.5, 0.1), (2.0, 1.0, 0.2)):
            imm = shapes.perturbed_torus(GridSpec(2, 16), r1, r2, amplitude)
            geom = compute_geometry(imm)
            sups.append(check_simons(geom, curvature_gauss(geom)).sup_residual)
        base, scaled = sups
        assert abs(scaled * 8.0 - base) < 1e-12 * base

    def test_accepts_geometry_pack(self):
        geom = compute_geometry(shapes.circle(GridSpec(1, 32), 1.0))
        rep = check_simons(geom, curvature_gauss(geom))
        assert rep.identity == "second_form_commutation"


class TestGaussCrossCheck:
    def test_second_order(self):
        sups = []
        for N in (16, 32):
            geom = compute_geometry(
                shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1)
            )
            sups.append(gauss_cross_check(geom, curvature_gauss(geom)).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_exact_for_curves(self):
        geom = compute_geometry(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
        assert gauss_cross_check(geom, curvature_gauss(geom)).sup_residual == 0.0


# --- the einsum formulation as reference for the identity layer ------------


def einsum_identity_fields(geom):
    """metric_rhs, grad_H, the connection and second-form right-hand sides
    and the commutation residual by einsum contractions; the covariant
    derivatives, the Laplacian and the Gauss curvature come from the
    package, whose own einsum references are in test_geometry.py."""
    ginv, h, X = geom.inverse_metric, geom.second_form, geom.first_derivs
    S = np.einsum("...a,...aij->...ij", geom.mean_curv, h)
    DS = covariant_derivative(S, geom, "ll")
    sym = np.einsum("...ijl->...lij", DS) + np.einsum("...jil->...lij", DS) - DS
    conn = -np.einsum("...kl,...lij->...kij", ginv, sym)
    second = grad_grad_H(geom) - np.einsum("...kij,...ak->...aij", conn, X)

    curv = curvature_gauss(geom)
    R, ric = curv.riemann, curv.ricci
    DR = covariant_derivative(ric, geom, "ll")
    B = DR + np.einsum("...jip->...ijp", DR) - np.einsum("...pij->...ijp", DR)
    rhs = (
        laplacian(h, geom, "ll")
        - np.einsum("...pq,...ijp,...aq->...aij", ginv, B, X)
        + 2.0 * np.einsum("...kp,...lq,...ikjl,...apq->...aij", ginv, ginv, R, h)
        - np.einsum("...pq,...ip,...ajq->...aij", ginv, ric, h)
        - np.einsum("...pq,...jp,...aiq->...aij", ginv, ric, h)
    )
    grid, H = geom.grid, geom.mean_curv
    grad = np.stack([partial(grid, H, d) for d in range(grid.m)], axis=-1)
    return {
        "metric_rhs": -2.0 * S,
        "grad_H": grad,
        "connection": conn,
        "second_form": second,
        "simons": grad_grad_H(geom) - rhs,
    }


class TestIdentityLayerAgainstEinsum:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "maker", list(REFERENCE_MAKERS.values()), ids=list(REFERENCE_MAKERS)
    )
    def test_fields_match_reference(self, maker, order):
        geom = compute_geometry(maker(order))
        ref = einsum_identity_fields(geom)
        # H of a flow is a family of scalars: no Christoffel term
        assert np.array_equal(grad_H(geom), ref["grad_H"])
        if geom.mean_curv.shape[-1] in (2, 4):
            # the diff-system reports print these bits (circles and tori)
            assert np.array_equal(metric_rhs(geom), ref["metric_rhs"])
        else:
            # einsum does not add three terms in index order
            want = ref["metric_rhs"]
            assert np.abs(metric_rhs(geom) - want).max() <= 1e-15 * np.abs(want).max()
        for got, want in [
            (_connection_rhs(geom), ref["connection"]),
            (_second_form_rhs(geom), ref["second_form"]),
        ]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the residual is the difference of terms of the size of grad grad H
        # and nearly cancels, so its drift is bounded on that scale
        got, want = simons_residual_field(geom, curvature_gauss(geom)), ref["simons"]
        assert got.shape == want.shape
        scale = np.abs(grad_grad_H(geom)).max()
        assert np.abs(got - want).max() <= 1e-14 * scale


class TestReportSerialization:
    def test_csv_row_roundtrips_floats(self):
        rep = ResidualReport(
            identity="evolve_metric",
            resolution=64,
            dt=1e-5,
            t_center=2e-5,
            sup_residual=0.123456789012345,
            l2_residual=0.25,
        )
        row = rep.csv_row()
        parts = row.split(",")
        assert parts[0] == "evolve_metric"
        assert float(parts[4]) == 0.123456789012345
        assert ResidualReport.CSV_HEADER.count(",") == row.count(",")
