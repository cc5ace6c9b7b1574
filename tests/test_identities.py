"""Residual checks of the evolution equations along integrated flows.

Discrete trajectories are generated with small fixed steps so the 4th-order
time differences are far below the stencil truncation error; the residual of
each evolution identity then shrinks at second order in the grid spacing,
except for relations that hold exactly in the semi-discrete system.
"""


import dataclasses
import math
import types

import numpy as np
import pytest

from mcflab import GridSpec, compute_geometry
from mcflab import cli, differences, identities, shapes
from mcflab.differences import (
    build_difference,
    five_point_derivative,
    verify_inequalities,
)
from mcflab.flow import FlowTrajectory, ProtocolError, run_fixed_dt
from mcflab.geometry import (
    covariant_derivative,
    curvature_gauss,
    kernel_rate,
    laplacian,
)
from mcflab.grid import (
    SymmetryAction,
    apply_symmetry,
    partial,
)
from mcflab.identities import (
    ANCHORS,
    ResidualReport,
    _connection_rhs,
    _second_form_rhs,
    check_dGamma,
    check_dX,
    check_dg,
    check_dh,
    check_simons,
    gauss_cross_check,
    grad_grad_H,
    grad_H,
    identity_suite,
    metric_rhs,
    simons_residual_field,
)

from conftest import (
    CHECKED_FIELDS,
    REFERENCE_MAKERS,
    assert_same_bytes,
    check_at,
    paired_stream,
    run_paired_fixed_dt,
    stencil_symbols,
    traced_peak,
)


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

    def test_pass_differences_the_five_states_around_each_centre(self, monkeypatch):
        grid = GridSpec(1, 16)
        trajs = run_paired_fixed_dt(
            shapes.ellipse(grid, 1.5, 1.0), shapes.circle(grid, 1.0), 1e-5, 6
        )
        diffs = [build_difference(a, b).d for a, b in zip(*(t.states for t in trajs))]
        check, seen = differences.check_dd, []

        def recording(p, rate, dt):
            seen.append((p.geomA.immersion.time, rate("d")))
            return check(p, rate, dt)

        monkeypatch.setattr(differences, "check_dd", recording)
        verify_inequalities(*paired_stream(*trajs), 2e-5)
        assert [t for t, _ in seen] == [trajs[0].states[c].time for c in (2, 3, 4)]
        for c, (_, got) in zip((2, 3, 4), seen):
            want = five_point_derivative(diffs[c - 2 : c + 3], 1e-5)
            assert np.array_equal(got, want)

    def test_pass_memory_is_flat_over_a_long_stream(self, monkeypatch):
        """However many states the pass reads, it holds five packs: reading
        10^5 trivial ones peaks as reading 10^3 does."""

        @dataclasses.dataclass
        class Item:  # what the pass reads of a DifferencePack
            geomA: object
            sup_h: int
            sup_h_tilde: int

        grid = types.SimpleNamespace(resolution=1)
        report = ResidualReport("difference_metric", 1, 1.0, 0.0, 0.0, 0.0)
        centre = [2]

        def check_dd(p, rate, dt):
            assert p.sup_h == centre[0]
            centre[0] += 1
            return report

        def build(a, b, kern):
            geom = types.SimpleNamespace(immersion=types.SimpleNamespace(time=a), grid=grid)
            return Item(geom, a, b)

        monkeypatch.setattr(differences, "build_difference", build)
        monkeypatch.setattr(differences, "check_dd", check_dd)
        monkeypatch.setattr(differences, "check_dw", lambda p, rate, dt: report)
        monkeypatch.setattr(differences, "_fitted_row", lambda p, rate: ({}, 0, 0, 0))

        def read(n):
            centre[0] = 2
            stream = (((k, -k), None) for k in range(n))
            rep = verify_inequalities(stream, n, 1.0, n - 4)
            assert centre[0] == n - 2  # every centre 2 .. n - 3
            assert (rep.K, rep.K_tilde, rep.T) == (n - 1, 0, n - 1)
            assert len(rep.rows) == 2

        peaks = {n: traced_peak(read, n)[1] for n in (10**3, 10**5)}
        assert peaks[10**5] <= 1.1 * peaks[10**3], peaks

    @pytest.mark.parametrize("maker", ["m1-codim1", "m2-codim2"])
    def test_agrees_with_kernel_rate_to_fourth_order_along_a_stream(self, maker):
        """The five-point d/dt of the packs of a fixed-step RK4 run differs
        from the exact rate at the centre by O(dt^4): halving dt cuts the gap
        in every checked field about 16 times.  This ties the integrator to
        the identities, whose rates no longer come from it."""
        initial = REFERENCE_MAKERS[maker](2)
        gaps = []
        for dt in (2.0**-10, 2.0**-11):
            packs = [compute_geometry(s) for s in run_fixed_dt(initial, dt, 4).states]
            rates = kernel_rate(packs[2])
            gaps.append([
                np.abs(five_point_derivative([getattr(p, f) for p in packs], dt) - r).max()
                for f, r in zip(CHECKED_FIELDS.values(), rates)
            ])
        ratios = np.array(gaps[0]) / np.array(gaps[1])
        assert np.all((12 < ratios) & (ratios < 20)), ratios

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


class TestSuiteRates:
    """The identity suite hands its evolution checks the centre's pack and
    the exact rates of `geometry.kernel_rate` there, to the bit."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("maker", sorted(REFERENCE_MAKERS))
    def test_rates_are_the_kernel_rate_of_the_centre_pack(
        self, maker, order, monkeypatch
    ):
        initial, dt = REFERENCE_MAKERS[maker](order), 1e-5
        seen = {}

        def seeing(check):
            def wrapper(geom, rate, step):
                seen[check.__name__] = geom, rate.copy(), step
                return check(geom, rate, step)

            return wrapper

        for name in CHECKED_FIELDS:
            monkeypatch.setattr(identities, name, seeing(getattr(identities, name)))
        identity_suite(initial, dt)
        centre = compute_geometry(run_fixed_dt(initial, dt, 2).states[2])
        rates = dict(zip(CHECKED_FIELDS.values(), kernel_rate(centre)))
        assert list(seen) == list(CHECKED_FIELDS)
        for check, field in CHECKED_FIELDS.items():
            geom, got, step = seen[check]
            assert step == dt
            assert_same_bytes(got, rates[field])
            assert_same_bytes(getattr(geom, field), getattr(centre, field))


class TestEvolutionChecks:
    def test_position_gradient_is_semi_discrete_exact(self):
        traj = short_run(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
        assert check_at(check_dX, traj).sup_residual < 1e-9

    def test_metric_residual_matches_stencil_prediction_on_circle(self):
        grid = GridSpec(1, 64)
        traj = short_run(shapes.circle(grid, 1.0))
        s1, s2 = stencil_symbols(grid)
        predicted = 2.0 * s2 * abs(s2 - s1**2) / s1**2
        rep = check_at(check_dg, traj)
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
            sups.append(check_at(checker, traj).sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_each_center_is_the_suite_from_two_states_before(self):
        """At every state of a longer run, the checks on its pack and its
        `kernel_rate` give the reports of the suite from the state two
        before, to the bit (dyadic dt keeps the stamps)."""
        dt = 2.0**-17
        traj = short_run(shapes.ellipse(GridSpec(1, 32), 1.5, 1.0), dt, n_steps=8)
        for c in range(2, len(traj.states)):
            suite = identity_suite(traj.states[c - 2], dt)
            geom = compute_geometry(traj.states[c])
            checks = (check_dX, check_dg, check_dGamma, check_dh)
            for checker, rate, want in zip(checks, kernel_rate(geom), suite):
                rep = checker(geom, rate, dt)
                assert rep.t_center == traj.states[c].time
                assert rep == want

    def test_short_trajectory_rejected(self):
        traj = run_fixed_dt(shapes.circle(GridSpec(1, 32), 1.0), 1e-4, 3)
        with pytest.raises(ProtocolError, match="'store_every' or 'T'.* store 4 state"):
            verify_inequalities(*paired_stream(traj, traj), 2e-4)

    def test_report_carries_anchor_and_metadata(self):
        traj = short_run(shapes.circle(GridSpec(1, 32), 1.0))
        rep = check_at(check_dg, traj)
        assert ANCHORS[rep.identity] == ANCHORS["evolve_metric"]
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
            a = check_at(checker, traj).sup_residual
            b = check_at(checker, moved).sup_residual
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


class TestParabolicScaling:
    """The suite of a flow run at X -> lam X, dt -> lam^2 dt, lam a power of
    2, against the unscaled run.  Each g-norm residual of a k-th order
    quantity (k = 2 for the position gradient and metric rates, 3 for the
    connection and second-form rates and the commutation identity) has its
    sup times lam^-k, bit for bit, and its volume-weighted L2 times
    lam^(m/2 - k): bit for bit at m = 2 and at m = 1 for lam = 4, and to 1
    ulp at m = 1 for lam = 1/2 and 2, where the factor carries sqrt 2."""

    ORDER = {
        "evolve_position_gradient": 2,
        "evolve_metric": 2,
        "evolve_connection": 3,
        "evolve_second_form": 3,
        "second_form_commutation": 3,
    }

    @pytest.mark.parametrize("m", [1, 2])
    def test_suite_scales_by_exact_powers_of_lam(self, m):
        if m == 1:
            initial = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        else:
            initial = shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.5, 0.1)
        dt = 2.0**-14
        one = identity_suite(initial, dt)
        for lam in (0.5, 2.0, 4.0):
            scaled = identity_suite(
                initial.with_positions(lam * initial.positions), lam**2 * dt
            )
            assert [r.identity for r in scaled] == [r.identity for r in one]
            for r1, r2 in zip(one, scaled):
                what = (r1.identity, lam)
                if r1.identity == "gauss_cross_check":
                    # a coordinate max of |R_ijkl|, not a g-norm: it is
                    # scale-dependent, exactly zero for curves and x lam^2
                    # for surfaces
                    if m == 1:
                        assert r2.sup_residual == r1.sup_residual == 0.0
                    else:
                        assert r2.sup_residual == r1.sup_residual * lam**2
                    continue
                k = self.ORDER[r1.identity]
                assert r2.sup_residual == r1.sup_residual * lam**-k, what
                l2 = r1.l2_residual * lam ** (m / 2 - k)
                if m == 2 or lam == 4.0:
                    assert r2.l2_residual == l2, what
                else:
                    assert abs(r2.l2_residual - l2) <= math.ulp(l2), what


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
        header, row = cli._table(
            cli.RESIDUAL_HEADER, [cli._residual_cells(rep)]
        ).splitlines()
        parts = row.split(",")
        assert parts[0] == "evolve_metric"
        assert float(parts[4]) == 0.123456789012345
        assert header.count(",") == row.count(",")
