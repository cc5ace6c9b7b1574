"""Residual checks of the evolution equations along integrated flows.

Discrete trajectories are generated with small fixed steps so the 4th-order
time differences are far below the stencil truncation error; the residual of
each evolution identity then shrinks at second order in the grid spacing,
except for relations that hold exactly in the semi-discrete system.
"""

import re

import numpy as np
import pytest

from mcflab import GridSpec, compute_geometry
from mcflab import shapes
from mcflab.flow import FlowTrajectory, run_fixed_dt
from mcflab.grid import DegenerateImmersionError, SymmetryAction, apply_symmetry
from mcflab.identities import (
    ANCHORS,
    ProtocolError,
    ResidualReport,
    check_dGamma,
    check_dX,
    check_dg,
    check_dh,
    check_simons,
    gauss_cross_check,
    measure_bernstein,
    measure_equivalence,
    time_derivative_5pt,
)

from conftest import stencil_symbols


def short_run(imm, dt=1e-5, n_steps=4):
    return run_fixed_dt(imm, dt, n_steps)


class TestTimeDifference:
    def test_exact_on_quartic(self):
        dt = 0.1
        t = np.arange(5) * dt
        fields = [np.full((4,), ti**4) for ti in t]
        d = time_derivative_5pt(fields, dt)
        assert np.allclose(d, 4 * t[2] ** 3, atol=1e-12)


class TestEvolutionChecks:
    def test_position_gradient_is_semi_discrete_exact(self):
        traj = short_run(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
        assert check_dX(traj).sup_residual < 1e-9

    def test_metric_residual_matches_stencil_prediction_on_circle(self):
        grid = GridSpec(1, 64)
        traj = short_run(shapes.circle(grid, 1.0))
        s1, s2 = stencil_symbols(grid)
        predicted = 2.0 * s2 * abs(s2 - s1**2) / s1**2
        rep = check_dg(traj)
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
            sups.append(checker(traj).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_short_trajectory_rejected(self):
        traj = run_fixed_dt(shapes.circle(GridSpec(1, 32), 1.0), 1e-4, 3)
        with pytest.raises(ProtocolError):
            check_dg(traj)

    def test_report_carries_anchor_and_metadata(self):
        traj = short_run(shapes.circle(GridSpec(1, 32), 1.0))
        rep = check_dg(traj)
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
        )
        for checker in (check_dg, check_dGamma, check_dh):
            a = checker(traj).sup_residual
            b = checker(moved).sup_residual
            # the 1/dt factor in the time difference amplifies the rounding
            # introduced by the rotation, so the match is relative, not exact
            assert abs(a - b) < 1e-7 * a


class TestCommutationIdentity:
    def test_exact_on_circle(self):
        rep = check_simons(shapes.circle(GridSpec(1, 64), 1.0))
        assert rep.sup_residual < 1e-12

    def test_second_order_on_perturbed_torus(self):
        sups = []
        for N in (16, 32):
            imm = shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1)
            sups.append(check_simons(imm).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_residual_scales_as_inverse_cube(self):
        # dilating the immersion by lam scales the g-norm of the [a,i,j]
        # residual tensor by lam^-3, exactly, in the discrete system
        base = check_simons(
            shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.5, 0.1)
        ).sup_residual
        scaled = check_simons(
            shapes.perturbed_torus(GridSpec(2, 16), 2.0, 1.0, 0.2)
        ).sup_residual
        assert abs(scaled * 8.0 - base) < 1e-12 * base

    def test_accepts_geometry_pack(self):
        geom = compute_geometry(shapes.circle(GridSpec(1, 32), 1.0))
        assert check_simons(geom).identity == "second_form_commutation"


class TestGaussCrossCheck:
    def test_second_order(self):
        sups = []
        for N in (16, 32):
            geom = compute_geometry(
                shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1)
            )
            sups.append(gauss_cross_check(geom).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_exact_for_curves(self):
        geom = compute_geometry(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
        assert gauss_cross_check(geom).sup_residual == 0.0


class TestBernsteinTable:
    def test_circle_curvature_envelope(self):
        grid = GridSpec(1, 64)
        r0 = 2.0
        traj = run_fixed_dt(shapes.circle(grid, r0), 1e-4, 8, store_every=2)
        s1, s2 = stencil_symbols(grid)
        c = s2 / s1**2
        rows = measure_bernstein(traj, k_max=1)
        for row in rows:
            if row["k"] != 0:
                continue
            r_t = np.sqrt(r0**2 - 2.0 * c * row["t"])
            assert abs(row["sup"] - c / r_t) < 1e-10

    def test_rows_cover_all_orders(self):
        traj = run_fixed_dt(shapes.circle(GridSpec(1, 32), 1.0), 1e-4, 4)
        rows = measure_bernstein(traj, k_max=2)
        assert sorted({row["k"] for row in rows}) == [0, 1, 2]
        assert len(rows) == 3 * len(traj.states)


class TestMetricEquivalence:
    def test_identical_metrics_give_one(self):
        g = compute_geometry(shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)).metric
        assert measure_equivalence(g, g) == 1.0

    def test_concentric_circles(self):
        grid = GridSpec(1, 32)
        gA = compute_geometry(shapes.circle(grid, 1.0)).metric
        gB = compute_geometry(shapes.circle(grid, 2.0)).metric
        assert abs(measure_equivalence(gA, gB) - 4.0) < 1e-12
        assert abs(measure_equivalence(gB, gA) - 4.0) < 1e-12

    def test_torus_pair(self):
        grid = GridSpec(2, 16)
        gA = compute_geometry(shapes.product_torus(grid, 1.0, 1.0)).metric
        gB = compute_geometry(shapes.product_torus(grid, 2.0, 1.0)).metric
        assert abs(measure_equivalence(gA, gB) - 4.0) < 1e-12

    def test_shape_mismatch_rejected(self):
        gA = compute_geometry(shapes.circle(GridSpec(1, 32), 1.0)).metric
        gB = compute_geometry(shapes.circle(GridSpec(1, 64), 1.0)).metric
        with pytest.raises(ProtocolError):
            measure_equivalence(gA, gB)

    def test_degenerate_metric_rejected(self):
        g = compute_geometry(shapes.circle(GridSpec(1, 32), 1.0)).metric
        bad = g.copy()
        bad[3, 0, 0] = -1.0
        with pytest.raises(DegenerateImmersionError, match=re.escape("at node (3,)")):
            measure_equivalence(g, bad)

    def test_degenerate_metric_node_on_torus(self):
        g = compute_geometry(shapes.product_torus(GridSpec(2, 8), 1.0, 0.5)).metric
        bad = g.copy()
        bad[1, 2, 0, 0] = -1.0
        with pytest.raises(DegenerateImmersionError) as err:
            measure_equivalence(bad, g)
        assert err.value.node == (1, 2)
        assert "at node (1, 2)" in str(err.value)

    def test_negated_metric_names_its_node(self):
        # det(g) stays positive at a negated node; g_00 is what fails there
        g = compute_geometry(shapes.product_torus(GridSpec(2, 8), 1.0, 0.5)).metric
        bad = g.copy()
        bad[5, 6] = -g[5, 6]
        with pytest.raises(DegenerateImmersionError) as err:
            measure_equivalence(g, bad)
        assert err.value.node == (5, 6)
        assert err.value.value == -g[5, 6, 0, 0]
        assert f"g_00 = {-g[5, 6, 0, 0]:.3e} at node (5, 6)" in str(err.value)

    def test_first_failing_node_is_reported_with_its_det(self):
        # node (2, 3) fails first in C order; node (6, 1) has the smaller det
        g = compute_geometry(shapes.product_torus(GridSpec(2, 8), 1.0, 0.5)).metric
        bad = g.copy()
        bad[2, 3, 0, 1] = bad[2, 3, 1, 0] = 2.0
        bad[6, 1, 0, 1] = bad[6, 1, 1, 0] = 9.0
        det = bad[..., 0, 0] * bad[..., 1, 1] - bad[..., 0, 1] ** 2
        assert det[6, 1] < det[2, 3] <= 0
        with pytest.raises(DegenerateImmersionError) as err:
            measure_equivalence(bad, g)
        assert err.value.node == (2, 3)
        assert f"det(g) = {det[2, 3]:.3e} at node (2, 3)" in str(err.value)


class TestReportSerialization:
    def test_csv_row_roundtrips_floats(self):
        rep = ResidualReport(
            identity="evolve_metric",
            resolution=64,
            dt=1e-5,
            t_center=2e-5,
            sup_residual=0.123456789012345,
            l2_residual=0.25,
            order_estimate=1.98,
        )
        row = rep.csv_row()
        parts = row.split(",")
        assert parts[0] == "evolve_metric"
        assert float(parts[4]) == 0.123456789012345
        assert ResidualReport.CSV_HEADER.count(",") == row.count(",")
