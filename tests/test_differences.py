"""Difference-tensor and coupled-inequality tests on paired flows.

Concentric circles give closed-form difference tensors (the connection
difference vanishes identically), while a circle/ellipse pair exercises the
generic second-order behaviour of the displayed difference evolutions.
"""

import dataclasses
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import GridSpec
from mcflab import cli, differences, flow, geometry, shapes
from mcflab.cli import LIMITATION_STATEMENT
from mcflab.differences import (
    Y_SUMMANDS,
    Z_SUMMANDS,
    DifferencePack,
    build_difference,
    check_dd,
    check_dw,
    fitted_centers,
    forward_gronwall,
    heat_operator_Y,
    paired_pass,
    time_derivative_Z_sq,
    verify_inequalities,
)
from mcflab.flow import FlowTrajectory, ProtocolError, fixed_dt_stream, run_fixed_dt
from mcflab.geometry import (
    compute_geometry,
    covariant_derivative,
    laplacian,
    tensor_norm_sq,
    tensor_norm_sup,
)
from mcflab.grid import SymmetryAction, apply_symmetry
from mcflab.identities import grad_H, metric_rhs

from conftest import (
    paired_center,
    paired_stream,
    run_paired_fixed_dt,
    stencil_symbols,
    traced_peak,
)

DT = 1e-4


def circle_pair(N=64, r1=1.0, r2=1.2, n_steps=8):
    """The stored trajectories of two concentric circles at step DT."""
    grid = GridSpec(1, N)
    A = run_fixed_dt(shapes.circle(grid, r1), DT, n_steps)
    B = run_fixed_dt(shapes.circle(grid, r2), DT, n_steps)
    return A, B


def circle_ellipse_pair(N=64, n_steps=8):
    grid = GridSpec(1, N)
    A = run_fixed_dt(shapes.circle(grid, 1.0), DT, n_steps)
    B = run_fixed_dt(shapes.ellipse(grid, 1.2, 0.9), DT, n_steps)
    return A, B


class TestDifferencePack:
    def test_identical_states_give_exact_zero(self):
        imm = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        p = build_difference(imm, imm)
        for arr in (p.d, p.N, p.W, p.w, p.U, p.V):
            assert np.abs(arr).max() == 0.0
        assert p.norm_sq_Y().max() == 0.0
        assert p.norm_sq_Z().max() == 0.0

    def test_concentric_circle_metric_difference(self):
        grid = GridSpec(1, 32)
        p = build_difference(
            shapes.circle(grid, 2.0), shapes.circle(grid, 1.0)
        )
        s1, _ = stencil_symbols(grid)
        assert np.allclose(p.d[..., 0, 0], 3.0 * s1**2, atol=1e-13)
        assert np.abs(p.N).max() < 1e-14
        assert np.abs(p.W).max() < 1e-14

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            build_difference(
                shapes.circle(GridSpec(1, 32), 1.0),
                shapes.circle(GridSpec(1, 64), 1.0),
            )

    def test_time_mismatch_rejected(self):
        imm = shapes.circle(GridSpec(1, 32), 1.0)
        late = imm.with_positions(imm.positions, time=0.5)
        with pytest.raises(ProtocolError):
            build_difference(imm, late)

    def test_sums_over_Y_and_Z_match_their_written_out_summands(self):
        """Y = U + V and Z = w + d + N + W, each sum added in that order."""
        a = shapes.perturbed_torus(GridSpec(2, 12), 1.0, 0.6, 0.1)
        b = shapes.low_mode_perturbation(a, 1e-2, 3, 3)
        p, rate = paired_center(*run_paired_fixed_dt(a, b, 1e-3, 4))
        g = p.geomA

        def sq(x, spec):
            return tensor_norm_sq(x, g, spec)

        def grad(x, spec):
            return covariant_derivative(x, g, spec)

        def heat(name, spec):
            return rate(name) - laplacian(getattr(p, name), g, spec)

        expected = {
            "Y": sq(p.U, "ll") + sq(p.V, "lll"),
            "Z": sq(p.w, "l") + sq(p.d, "ll") + sq(p.N, "ull") + sq(p.W, "lull"),
            "grad_Y": sq(grad(p.U, "ll"), "lll") + sq(grad(p.V, "lll"), "llll"),
            "heat_Y": sq(heat("U", "ll"), "ll") + sq(heat("V", "lll"), "lll"),
            "dt_Z": sq(rate("w"), "l") + sq(rate("d"), "ll") + sq(rate("N"), "ull")
            + sq(rate("W"), "lull"),
        }
        got = {
            "Y": p.norm_sq_Y(),
            "Z": p.norm_sq_Z(),
            "grad_Y": p.norm_sq_grad_Y(p.grad_Y()),
            "heat_Y": heat_operator_Y(p, rate, p.grad_Y()),
            "dt_Z": time_derivative_Z_sq(p, rate),
        }
        for name, want in expected.items():
            assert np.array_equal(got[name], want), name

    def test_ambient_mismatch_rejected(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = a.with_positions(np.pad(a.positions, ((0, 0), (0, 1))))
        with pytest.raises(ProtocolError, match="ambient dimension: 2 vs 3"):
            build_difference(a, b)

    def test_what_the_pack_keeps_of_the_second_flow(self):
        """The right-hand sides of check_dd and check_dw and sup |ht|_gt are
        taken from the second flow's pack when the pair is built, with the
        bits of reading them from the two flows' own packs."""
        a = shapes.perturbed_torus(GridSpec(2, 12), 1.0, 0.6, 0.1)
        b = shapes.low_mode_perturbation(a, 1e-2, 3, 3)
        p = build_difference(a, b)
        gA, gB = compute_geometry(a), compute_geometry(b)
        assert np.array_equal(p.d_rhs, metric_rhs(gA) - metric_rhs(gB))
        assert np.array_equal(p.w_rhs, grad_H(gA) - grad_H(gB))
        assert p.sup_h == tensor_norm_sup(gA.second_form, gA, "ll")
        assert p.sup_h_tilde == tensor_norm_sup(gB.second_form, gB, "ll")
        assert not any(
            isinstance(getattr(p, f.name), type(gB)) for f in dataclasses.fields(p)
            if f.name != "geomA"
        )

    @given(lam=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_norms_are_quadratic_in_the_tensors(self, lam):
        grid = GridSpec(1, 16)
        p = build_difference(
            shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9)
        )
        scaled = dataclasses.replace(
            p, d=lam * p.d, N=lam * p.N, W=lam * p.W,
            w=lam * p.w, U=lam * p.U, V=lam * p.V,
        )
        assert np.allclose(
            scaled.norm_sq_Y(), lam**2 * p.norm_sq_Y(), rtol=1e-12
        )
        assert np.allclose(
            scaled.norm_sq_Z(), lam**2 * p.norm_sq_Z(), rtol=1e-12
        )

    def test_norms_invariant_under_rigid_motion(self):
        grid = GridSpec(1, 32)
        A = shapes.circle(grid, 1.0)
        B = shapes.ellipse(grid, 1.2, 0.9)
        p = build_difference(A, B)
        phi = 1.1
        Q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        sym = SymmetryAction(Q, np.array([0.5, 2.0]), np.arange(grid.num_nodes))
        q = build_difference(apply_symmetry(A, sym), apply_symmetry(B, sym))
        assert np.allclose(q.norm_sq_Y(), p.norm_sq_Y(), atol=1e-12)
        assert np.allclose(q.norm_sq_Z(), p.norm_sq_Z(), atol=1e-12)


class TestPairedStream:
    """A pair's stream is one loop, so its states pair up by construction;
    the streams of stored trajectories the tests build (`paired_stream`)
    reject what does not."""

    def test_a_stream_of_four_states_is_rejected_before_it_is_read(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        with pytest.raises(ProtocolError, match="'store_every' or 'T'.* store 4 state"):
            verify_inequalities(fixed_dt_stream([a, a], DT, 3), 4, DT, 2 * DT)

    def test_the_pass_holds_nothing_per_state_before_reading(self):
        """The pass knows its states by number: one over a million steps
        holds no list of their times when it reads its first state."""

        class FirstRead(Exception):
            pass

        def stream():
            raise FirstRead
            yield

        def until_read():
            with pytest.raises(FirstRead):
                verify_inequalities(stream(), 10**6 + 1, 1e-7, 0.05)

        assert traced_peak(until_read)[1] < 2**20

    def test_length_mismatch_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 6)
        with pytest.raises(ProtocolError):
            paired_stream(A, B)

    def test_step_mismatch_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), 2 * DT, 8)
        with pytest.raises(ProtocolError):
            paired_stream(A, B)

    def test_time_skew_rejected_when_built(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 8)
        skewed = FlowTrajectory(
            [s.with_positions(s.positions, time=s.time + 5e-11) for s in B.states]
        )
        with pytest.raises(ProtocolError, match="paired flows differ in time"):
            paired_stream(A, skewed)

    def test_ambient_mismatch_rejected_when_built(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = a.with_positions(np.pad(a.positions, ((0, 0), (0, 1))))
        with pytest.raises(ProtocolError, match="ambient dimension: 2 vs 3"):
            paired_stream(run_fixed_dt(a, DT, 4), run_fixed_dt(b, DT, 4))

    def test_too_few_samples_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 3)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 3)
        with pytest.raises(ProtocolError):
            verify_inequalities(*paired_stream(A, B), 2 * DT)


class TestDifferenceEvolutions:
    def test_circle_pair_is_near_exact(self):
        # the stencil truncation error of d/dt g is radius independent, so
        # it cancels in the difference of two concentric circles
        rep = verify_inequalities(*paired_stream(*circle_pair()), delta=2 * DT)
        assert rep.dd.sup_residual < 1e-10
        assert rep.dw.sup_residual < 1e-10

    def test_dd_second_order_on_circle_ellipse(self):
        sups = []
        for N in (64, 128):
            rep = verify_inequalities(*paired_stream(*circle_ellipse_pair(N)), delta=2 * DT)
            sups.append(rep.dd.sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_pass_keeps_the_worst_center_of_each_check(self):
        """Over every center, those before delta included."""
        trajs = circle_ellipse_pair()
        rep = verify_inequalities(*paired_stream(*trajs), delta=5 * DT)
        centers = [paired_center(*trajs, c) for c in range(2, 7)]
        for check, got in ((check_dd, rep.dd), (check_dw, rep.dw)):
            per_center = [check(p, rate, DT) for p, rate in centers]
            assert got == max(per_center, key=lambda r: r.sup_residual)
            assert got.t_center < 5 * DT  # the worst lies before delta
        assert rep.dd.identity == "difference_metric"
        assert rep.dw.identity == "difference_position_gradient"


class TestCoupledInequalities:
    def test_heat_operator_constant_on_circle_pair(self):
        p, rate = paired_center(*circle_pair(), 4)
        h = heat_operator_Y(p, rate, p.grad_Y())
        assert (h.max() - h.min()) / h.max() < 1e-6

    def test_fitted_constants_finite_and_stable(self):
        rep = verify_inequalities(*paired_stream(*circle_pair()), delta=2 * DT)
        assert 0.0 < rep.C1 < 100.0
        assert 0.0 < rep.C2 < 100.0
        assert rep.flagged_nodes == 0
        assert rep.K >= 1.0 and rep.K_tilde > 0.0

    def test_K_and_K_tilde_take_every_state(self):
        """K and K~ are the sups of |h|_g and |ht|_gt over the packs of every
        state, the two at either end that are no center included: the
        shrinking circle's largest |h| is at its last state, and the
        ellipse's at its first."""
        grid = GridSpec(1, 64)
        trajs = run_paired_fixed_dt(
            shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9), DT, 8
        )
        rep = verify_inequalities(*paired_stream(*trajs), delta=2 * DT)
        packs = [[compute_geometry(s) for s in t.states] for t in trajs]
        sups = [[tensor_norm_sup(g.second_form, g, "ll") for g in gs] for gs in packs]
        assert rep.K == max(sups[0]) == sups[0][-1]
        assert rep.K_tilde == max(sups[1]) == sups[1][0]

    def test_constants_nonincreasing_in_delta(self):
        early = verify_inequalities(*paired_stream(*circle_pair()), delta=2 * DT)
        late = verify_inequalities(*paired_stream(*circle_pair()), delta=4 * DT)
        assert late.C1 <= early.C1 + 1e-12
        assert late.C2 <= early.C2 + 1e-12

    def test_zero_difference_pair_fits_zero(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        rep = verify_inequalities(*paired_stream(A, B), delta=2 * DT)
        assert rep.C1 == 0.0
        assert rep.C2 == 0.0
        assert rep.flagged_nodes == 0

    def test_each_norm_evaluated_once_per_center(self, monkeypatch):
        calls = {}

        def counting(name):
            method = getattr(DifferencePack, name)

            def wrapper(pack, *args):
                calls[name] = calls.get(name, 0) + 1
                return method(pack, *args)

            return wrapper

        for name in ("norm_sq_Y", "norm_sq_grad_Y", "norm_sq_Z"):
            monkeypatch.setattr(DifferencePack, name, counting(name))
        rep = verify_inequalities(*paired_stream(*circle_pair()), delta=3 * DT)
        centers = [c for c in range(2, 7) if c * DT >= 3 * DT - 1e-12]
        assert len(rep.rows) == len(centers) == 4
        assert calls == dict.fromkeys(calls, len(centers))
        assert len(calls) == 3

    def test_bad_delta_rejected(self):
        args = paired_stream(*circle_pair())  # rejected before it is read
        with pytest.raises(ValueError):
            verify_inequalities(*args, delta=0.0)
        with pytest.raises(ValueError):
            verify_inequalities(*args, delta=1.0)

    def test_one_center_past_delta_rejected(self):
        """The Gronwall fit differences its rows, so delta must leave two
        centers: of the 9 states' centers 2 .. 6, delta = 5 dt leaves the
        last two and 6 dt the last alone."""
        assert len(verify_inequalities(*paired_stream(*circle_pair()), delta=5 * DT).rows) == 2
        with pytest.raises(ProtocolError, match="'delta'"):
            verify_inequalities(*paired_stream(*circle_pair()), delta=6 * DT)

    def test_ode_operator_positive_for_distinct_pair(self):
        p, rate = paired_center(*circle_ellipse_pair(), 4)
        assert time_derivative_Z_sq(p, rate).max() > 0.0

    def test_report_serialization_mentions_forward_only_protocol(self):
        rep = verify_inequalities(*paired_stream(*circle_pair()), delta=2 * DT)
        text = cli._inequality_report(rep)
        assert LIMITATION_STATEMENT in text
        assert "t,E_Y,E_gradY,E_Z,sup_lhs1,sup_lhs2" in text


class TestEnergyEnvelope:
    def test_forward_envelope_holds(self):
        for trajs in (circle_pair(), circle_ellipse_pair()):
            _, F, _, _, envelope, _ = forward_gronwall(
                verify_inequalities(*paired_stream(*trajs), 2 * DT)
            )
            for f, e in zip(F, envelope):
                assert f <= e * (1.0 + 1e-9)

    def test_energy_scales_with_perturbation_squared(self):
        grid = GridSpec(1, 64)
        base = shapes.circle(grid, 1.0)
        energy = {}
        for eps in (1e-3, 2e-3):
            pert = shapes.low_mode_perturbation(base, eps, seed=3)
            A, B = run_fixed_dt(base, DT, 8), run_fixed_dt(pert, DT, 8)
            p = build_difference(A.states[4], B.states[4])
            wt = p.geomA.sqrt_det * grid.spacing
            energy[eps] = float(
                np.sum((p.norm_sq_Y() + p.norm_sq_Z()) * wt)
            )
        assert abs(energy[2e-3] / energy[1e-3] - 4.0) < 0.05


def torus_pair(n_steps):
    """Trajectories of a perturbed m=2, N=16 product-torus pair at dt 1e-3."""
    a = shapes.product_torus(GridSpec(2, 16), 1.0, 1.0)
    b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
    return run_paired_fixed_dt(a, b, 1e-3, n_steps)


class TestStreamingPass:
    """verify_inequalities is one forward pass over at most five packs."""

    @staticmethod
    def pass_peak(trajA, trajB) -> int:
        return traced_peak(
            lambda: verify_inequalities(*paired_stream(trajA, trajB), delta=2e-3)
        )[1]

    def test_peak_memory_does_not_grow_with_the_stored_states(self):
        short, long = torus_pair(8), torus_pair(32)  # 9 and 33 stored states
        peaks = {len(p[0].states): self.pass_peak(*p) for p in (short, long)}
        assert peaks[33] <= 1.1 * peaks[9], peaks

    def test_paired_pass_peak_does_not_grow_with_the_stream(self):
        """An m=1 pair read from its stream: 3x the stored states, with the
        same 7 fitted rows at the end, peaks no higher."""
        a = shapes.circle(GridSpec(1, 16), 1.0)
        b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
        dt, peaks = 1e-5, {}
        for n in (120, 360):
            stream = fixed_dt_stream([a, b], dt, n)
            rep, peaks[n] = traced_peak(
                verify_inequalities, stream, n + 1, dt, (n - 8) * dt
            )
            assert len(rep.rows) == 7
        assert peaks[360] <= 1.1 * peaks[120], peaks

    def test_each_pack_is_built_once_and_at_most_five_are_alive(self, monkeypatch):
        """A pack is alive while its differences are: a released pack is a
        new DifferencePack on the same arrays.  Five are alive as a pack is
        built, and four while the pair steps to the next state."""
        built, alive, stepping, differences_of = [], [], [], []

        def held():
            return sum(ref() is not None for ref in differences_of)

        def counting(stateA, stateB, kern):
            built.append(stateA.time)
            alive.append(held() + 1)
            p = build_difference(stateA, stateB, kern)
            differences_of.append(weakref.ref(p.d))
            return p

        def step(*args):
            stepping.append(held())
            return rk4(*args)

        rk4 = flow._rk4_positions
        monkeypatch.setattr(differences, "build_difference", counting)
        monkeypatch.setattr(flow, "_rk4_positions", step)
        a = shapes.product_torus(GridSpec(2, 16), 1.0, 1.0)
        b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
        verify_inequalities(fixed_dt_stream([a, b], 1e-3, 12), 13, 1e-3, 2e-3)
        assert built == [k * 1e-3 for k in range(13)]
        assert max(alive) == 5
        assert len(stepping) == 12 and max(stepping) == 4

    def test_delta_counts_from_the_first_state(self):
        """A pair stamped from t0 = 0.2 keeps the rows of the same pair from 0."""
        reports = {}
        for t0 in (0.0, 0.2):
            a = shapes.product_torus(GridSpec(2, 16), 1.0, 1.0)
            a = a.with_positions(a.positions, time=t0)
            b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
            trajs = run_paired_fixed_dt(a, b, 1e-3, 20)
            reports[t0] = verify_inequalities(*paired_stream(*trajs), delta=0.012)
        at0, late = reports[0.0], reports[0.2]
        assert len(late.rows) == len(at0.rows) == 7
        assert late.flagged_nodes == at0.flagged_nodes == 0
        # both passes divide by the run's sample step, not by the stamped
        # differences, which from 0.2 miss 1e-3 at rounding level
        assert late.dt == at0.dt == 1e-3
        assert late.C1 == at0.C1
        assert late.C2 == at0.C2
        with pytest.raises(ValueError, match="delta must lie in"):
            verify_inequalities(*paired_stream(*trajs), delta=0.021)

    def test_rows_follow_the_center_index_from_a_late_start(self):
        """From t0 = 1e6 the stamped t - t0 of the center at delta falls more
        than 1e-12 below it; rows are chosen by center index, so the pair
        keeps the 7 rows of its start at 0, in a pass over stored
        trajectories and in one over the stream."""
        rows = {}
        for t0 in (0.0, 1e6):
            a = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
            a = a.with_positions(a.positions, time=t0)
            b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
            for source in ("stored", "stream"):
                if source == "stored":
                    args = paired_stream(*run_paired_fixed_dt(a, b, 1e-3, 20))
                else:
                    args = fixed_dt_stream([a, b], 1e-3, 20), 21, 1e-3
                rep = verify_inequalities(*args, delta=0.012)
                rows[t0, source] = [r["t"] - t0 for r in rep.rows]
        assert len(rows[0.0, "stored"]) == 7
        assert rows[0.0, "stored"] == rows[0.0, "stream"]
        for source in ("stored", "stream"):
            assert len(rows[1e6, source]) == 7
            assert np.allclose(rows[1e6, source], rows[0.0, source], atol=1e-9)
        assert fitted_centers(21, 1e-3, 0.012) == range(12, 19)


@pytest.mark.parametrize(
    "delta", [0.0, -1e-3, float("nan"), 0.0175, 0.021], ids=str
)
def test_fitted_centers_holds_the_delta_rule(delta):
    """delta must be positive and leave two of the centers 2 .. 18 of 21
    states at step 1e-3: 0.017 leaves 17 and 18."""
    assert fitted_centers(21, 1e-3, 0.017) == range(17, 19)
    with pytest.raises(ProtocolError, match=r"'delta'.*delta must lie in \(0, "):
        fitted_centers(21, 1e-3, delta)


def circle_pair_workload():
    """The benchmark's `circle-pair` config: (initA, initB, T, delta, dt,
    store_every)."""
    grid = GridSpec(1, 256)
    return shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.5, 1.0), 0.3, 0.03, 1e-4, 50


def torus_pair_workload():
    """The benchmark's `torus-pair` config, at the default dt h^2 / 20."""
    grid = GridSpec(2, 32)
    a = shapes.product_torus(grid, 1.0, 1.0)
    b = shapes.low_mode_perturbation(a, 1e-3, seed=1, max_mode=3)
    return a, b, 0.04, 0.01, grid.spacing**2 / 20.0, 1


class TestPairedPass:
    """`paired_pass` plans the pair's steps and checks the plan and delta
    before it integrates; then it is the pass over the stream it builds."""

    @pytest.mark.parametrize(
        "workload", [circle_pair_workload, torus_pair_workload],
        ids=["circle-pair", "torus-pair"],
    )
    def test_the_report_of_the_stream_it_plans(self, workload):
        a, b, T, delta, dt, store_every = workload()
        n_steps = int(round(T / dt))
        n_steps -= n_steps % store_every
        stream = fixed_dt_stream([a, b], dt, n_steps, store_every)
        with np.errstate(over="ignore", invalid="ignore"):
            want = verify_inequalities(
                stream, n_steps // store_every + 1, store_every * dt, delta
            )
        got = paired_pass(a, b, T, delta, dt, store_every)
        assert got == want
        assert cli._inequality_report(got) == cli._inequality_report(want)
        assert [cli._residual_cells(r) for r in (got.dd, got.dw)] == [
            cli._residual_cells(r) for r in (want.dd, want.dw)
        ]

    def test_no_paired_check_integrates_the_pair(self):
        """The pair's steps and kernel calls all run between the checks, so a
        check's span times the check alone: no `geometry_kernel` and no
        `flow._rk4_positions` call starts inside one of the four."""
        checks = {
            getattr(differences, name).__code__
            for name in ("check_dd", "check_dw", "heat_operator_Y", "time_derivative_Z_sq")
        }
        work = {
            geometry.geometry_kernel.__code__: "geometry_kernel",
            flow._rk4_positions.__code__: "_rk4_positions",
        }
        inside, outside, depth = Counter(), Counter(), [0]

        def profile(frame, event, arg):
            if frame.f_code in checks:
                depth[0] += {"call": 1, "return": -1}.get(event, 0)
                inside["checks"] += event == "call"
            elif event == "call" and frame.f_code in work:
                (inside if depth[0] else outside)[work[frame.f_code]] += 1

        grid = GridSpec(1, 16)
        a, b = shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9)
        sys.setprofile(profile)
        try:
            # 9 states, centres 2 .. 6, rows at 4 .. 6
            paired_pass(a, b, 8e-4, 4e-4, 1e-4, 1)
        finally:
            sys.setprofile(None)
        assert inside == {"checks": 2 * 5 + 2 * 3}
        # four kernel calls per step, and one for the final state
        assert outside == {"_rk4_positions": 8, "geometry_kernel": 4 * 8 + 1}

    @pytest.mark.parametrize(
        "T, store_every, delta, keys",
        [
            ((flow.MAX_STEPS + 1) * DT, 1, 5e-4, ("'T'",)),
            (-4 * DT, 1, DT, ("'T'",)),
            # 10 steps stored every 3rd: 9 steps, 4 states
            (10 * DT, 3, 5e-4, ("'store_every'", "'T'")),
            # 5 states hold centres 2 .. 2: one row, however small delta is
            (4 * DT, 1, DT, ("'store_every'", "'T'")),
            (20 * DT, 1, 0.0, ("'delta'",)),
        ],
        ids=[
            "too-many-steps", "negative-T", "four-states", "five-states", "zero-delta"
        ],
    )
    def test_bad_plan_raises_before_integrating(
        self, monkeypatch, T, store_every, delta, keys
    ):
        def not_read(*args, **kwargs):  # the stream is built, never read
            raise AssertionError("the pair was integrated")
            yield

        monkeypatch.setattr(flow, "_fixed_dt_loop", not_read)
        grid = GridSpec(1, 32)
        a, b = shapes.circle(grid, 1.0), shapes.circle(grid, 1.2)
        with pytest.raises(ProtocolError) as raised:
            paired_pass(a, b, T, delta, DT, store_every)
        assert all(key in str(raised.value) for key in keys), raised.value

    def test_the_plan_is_checked_once_before_the_first_state(self, monkeypatch):
        """The plan rule has one home and one call per pass: `fitted_centers`
        runs once, before the stream yields its first state."""
        events = []
        plan, loop = differences.fitted_centers, flow._fixed_dt_loop

        def planning(*args):
            events.append("plan")
            return plan(*args)

        def reading(*args):
            for item in loop(*args):
                events.append("state")
                yield item

        monkeypatch.setattr(differences, "fitted_centers", planning)
        monkeypatch.setattr(flow, "_fixed_dt_loop", reading)
        grid = GridSpec(1, 16)
        a, b = shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9)
        paired_pass(a, b, 8e-4, 4e-4, 1e-4, 1)
        assert events == ["plan"] + ["state"] * 9


def small_torus_pair(n_steps):
    """The leading arguments of the pass over the stream of a perturbed m=2,
    N=16 torus pair at dt 1e-3."""
    a = shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.1)
    b = shapes.low_mode_perturbation(a, 1e-2, 3, 3)
    return fixed_dt_stream([a, b], 1e-3, n_steps), n_steps + 1, 1e-3


class TestPassReleasesGeometry:
    """The pass keeps no second-flow pack, and lets each first-flow pack go
    as it builds the state three later."""

    def test_pass_peak_is_bounded(self):
        """9 states, 3 fitted rows: the traced peak read 2.87 MiB while every
        DifferencePack held both flows' packs, and 2.25 MiB since."""
        rep, peak = traced_peak(verify_inequalities, *small_torus_pair(8), 4e-3)
        assert len(rep.rows) == 3
        assert peak < 2.5 * 2**20, peak

    def test_no_second_flow_pack_outlives_its_difference(self, monkeypatch):
        first, second, alive = [], [], []
        packs, build = differences.geometry_packs, differences.build_difference

        def recording(states, kern):
            geomA, geomB = packs(states, kern)
            first.append(weakref.ref(geomA))
            second.append(weakref.ref(geomB))
            alive.append([k for k, ref in enumerate(first) if ref() is not None])
            return geomA, geomB

        def building(stateA, stateB, kern):
            p = build(stateA, stateB, kern)
            assert second[-1]() is None
            return p

        monkeypatch.setattr(differences, "geometry_packs", recording)
        monkeypatch.setattr(differences, "build_difference", building)
        verify_inequalities(*small_torus_pair(12), delta=4e-3)
        assert len(first) == len(second) == 13
        # state k's pack goes as state k + 3 is built, so three are alive
        assert alive == [list(range(max(0, j - 2), j + 1)) for j in range(13)]
        assert max(map(len, alive)) == 3


class TestParabolicScaling:
    """Mean curvature flow is invariant under X -> lam X, t -> lam^2 t, and
    so is the semi-discrete scheme; for lam a power of 2 floating point
    keeps it bit for bit.  So every quantity of the pass scales by the power
    of lam its weight predicts: a g-norm squared of a summand with u upper
    and l lower indices and length dimension e scales as lam^(2e + 2u - 2l)."""

    # the power of lam that each summand's squared g-norm falls by
    SUMMAND_FALL = {"U": 2, "V": 4, "w": 0, "d": 0, "N": 2, "W": 4}

    # (C1, C2) as float.hex at each lam.  They weigh summands of different
    # dimension in one core, so they depend on the unit of length and have
    # no power of lam to check: at lam = 2, C1 falls 8.87x (m = 1) and 7.27x
    # (m = 2), C2 3.93x and 3.19x
    CONSTANTS = {
        1: {
            1.0: ("0x1.96dfb56af2563p+2", "0x1.63bc715135928p+2"),
            0.5: ("0x1.ef70810f8383ap+4", "0x1.729df4230449cp+4"),
            2.0: ("0x1.6f259ccef7a31p-1", "0x1.6a4ebcfe0877ap+0"),
            4.0: ("0x1.44553a84e4205p-5", "0x1.edd7e6dc89f71p-3"),
        },
        2: {
            1.0: ("0x1.1e97356e6ea46p+3", "0x1.4b5b0f8f363fcp+1"),
            0.5: ("0x1.01f63ddaebe85p+6", "0x1.89041c0fcc49ep+3"),
            2.0: ("0x1.3b91f4f3ff13bp+0", "0x1.9f3b24f815d3cp-1"),
            4.0: ("0x1.a801677bbc452p-4", "0x1.05c98f5c84670p-2"),
        },
    }

    @staticmethod
    def run(a, b, dt, n_steps, delta, lam):
        a, b = (s.with_positions(lam * s.positions) for s in (a, b))
        trajs = run_paired_fixed_dt(a, b, lam**2 * dt, 2)
        p = build_difference(*(t.states[2] for t in trajs))
        norms = {f: tensor_norm_sq(getattr(p, f), p.geomA, s)
                 for f, s in Y_SUMMANDS + Z_SUMMANDS}
        stream = fixed_dt_stream([a, b], lam**2 * dt, n_steps)
        return verify_inequalities(stream, n_steps + 1, lam**2 * dt, lam**2 * delta), norms

    @pytest.mark.parametrize("m", [1, 2])
    def test_the_pass_scales_by_exact_powers_of_two(self, m):
        if m == 1:
            grid = GridSpec(1, 64)
            a, b = shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9)
            dt, n_steps = 2.0**-13, 40
        else:
            a = shapes.product_torus(GridSpec(2, 16), 1.0, 1.0)
            b = shapes.low_mode_perturbation(a, 1e-2, seed=1)
            dt, n_steps = 2.0**-9, 12
        delta = (n_steps - 8) * dt
        one, norms = self.run(a, b, dt, n_steps, delta, 1.0)
        pins = self.CONSTANTS[m]
        assert (one.C1.hex(), one.C2.hex()) == pins[1.0]
        for lam in (0.5, 2.0, 4.0):
            two, norms2 = self.run(a, b, dt, n_steps, delta, lam)
            assert len(two.rows) == len(one.rows) == 7
            assert (two.K, two.K_tilde) == (one.K / lam, one.K_tilde / lam)
            assert two.dd.sup_residual == one.dd.sup_residual / lam**2
            assert two.dw.sup_residual == one.dw.sup_residual / lam**2
            assert two.T == lam**2 * one.T
            assert set(norms) == set(self.SUMMAND_FALL)
            for f, fall in self.SUMMAND_FALL.items():
                assert np.array_equal(norms2[f] * lam**fall, norms[f]), (f, lam)
            assert (two.C1.hex(), two.C2.hex()) == pins[lam], lam


class TestClosedFormPair:
    """Every number of the paired report of two concentric circles (m = 1)
    and of two coaxial product tori (m = 2, one circle factor per grid
    axis) against its closed form in the semi-discrete system.

    A circle factor of radius r has X_u = r s1 tau and X_uu = -r s2 n, with
    the stencil symbols s1, s2 (`stencil_symbols`).  So g = r^2 s1^2,
    Gamma = 0, h = -r s2 n, H = -(kappa / r) n with kappa = s2 / s1^2, and
    r' = -kappa / r: r^2 = r0^2 - 2 kappa t.  With first-flow radii a and
    second-flow radii b, and e = (a - b)^2 s2^2 / s1^4, each factor adds

        |U|^2 = e / a^4,  |V|^2 = |grad U|^2 = e / a^6,  |grad V|^2 = e / a^8,
        |w|^2 = (a - b)^2 / a^2,  |d|^2 = (a^2 - b^2)^2 / a^4,  N = W = 0,

    and the cell weights sum to the product of 2 pi a s1.  The heat
    operator: d/dt U = -(a' - b') s2 n, and Lap, the divergence of the
    central-difference gradient, has the symbol -s1^2 / g, so Lap U =
    (a - b) s2 n / a^2.  With Q = (a' - b') + (a - b) / a^2, which is
    (a - b) (kappa / (a b) + 1 / a^2) as a' = -kappa / a,
    |(d/dt - Lap) U|^2 = s2^2 Q^2 / (a^4 s1^4), and V, one central
    difference more, gives s2^2 Q^2 / (a^6 s1^4): their sum is sup_lhs1.
    Of Z only w moves, as (a^2 - b^2)' = 0: sup_lhs2 = (a' - b')^2 / a^2.
    Every field is constant in space, so C1 and C2 are the largest ratio
    over the rows of sup_lhs1 and sup_lhs2 to |Y|^2 + |grad Y|^2 + |Z|^2.
    K = kappa (sum 1 / a^2)^(1/2) at the last state, K~ the same in b.
    The displayed difference evolutions hold exactly here: d_rhs = 0 =
    (d/dt) d and grad H - gradt Ht = (a' - b') s1 tau = (d/dt) w, so dd
    and dw are 0.

    Tolerances.  A number read without a time derivative (E_Y, E_gradY,
    E_Z, K, K~) is off by rounding only: RTOL.  A rate is a five-point
    difference at the sample step s, off by s^4 |f^(5)| / 30, and
    r^(5) = -105 kappa^5 / r^9; plus the rounding of the second
    differences, up to 4 eps / h^2 for the weights (1, -2, 1) / h^2, times
    18 / (12 s), the weights of the five-point difference.  `rate_error` bounds
    the error of a' - b' so; a squared rate doubles its relative error,
    and every bound is doubled again for the variation of r over the
    stencil.
    """

    RTOL = 1e-12
    CASES = {
        "circles": (GridSpec(1, 64), (1.0,), (1.2,), 2.0**-13, 40, 4),
        "tori": (GridSpec(2, 16), (1.0, 0.8), (1.2, 1.0), 2.0**-10, 24, 2),
    }

    @staticmethod
    def shape(grid, radii):
        if grid.m == 1:
            return shapes.circle(grid, *radii)
        return shapes.product_torus(grid, *radii)

    @staticmethod
    def closed_forms(grid, a0, b0, t):
        """The closed form of every row number, K and K~ at time t, and the
        core |Y|^2 + |grad Y|^2 + |Z|^2."""
        s1, s2 = stencil_symbols(grid)
        kappa = s2 / s1**2
        a = np.sqrt(np.square(a0) - 2 * kappa * t)
        b = np.sqrt(np.square(b0) - 2 * kappa * t)
        rate = -kappa / a + kappa / b  # a' - b'
        e = (a - b) ** 2 * s2**2 / s1**4
        Q = rate + (a - b) / a**2
        Y = np.sum(e / a**4 + e / a**6)
        grad_Y = np.sum(e / a**6 + e / a**8)
        Z = np.sum((a - b) ** 2 / a**2 + (a**2 - b**2) ** 2 / a**4)
        volume = np.prod(2 * np.pi * a * s1)
        return {
            "E_Y": Y * volume,
            "E_gradY": grad_Y * volume,
            "E_Z": Z * volume,
            "sup_lhs1": np.sum(s2**2 * Q**2 * (1 / a**4 + 1 / a**6) / s1**4),
            "sup_lhs2": np.sum(rate**2 / a**2),
            "K": kappa * np.sqrt(np.sum(1 / a**2)),
            "K_tilde": kappa * np.sqrt(np.sum(1 / b**2)),
            "core": Y + grad_Y + Z,
        }

    @staticmethod
    def rate_error(grid, a0, b0, t, s):
        """(relative, absolute) bound of the five-point error of a' - b' at
        time t, the largest over the factors; the absolute one in the
        g-norm of w, |.| / a."""
        s1, s2 = stencil_symbols(grid)
        kappa = s2 / s1**2
        a = np.sqrt(np.square(a0) - 2 * kappa * t)
        b = np.sqrt(np.square(b0) - 2 * kappa * t)
        err = s**4 / 30 * 105 * kappa**5 * (a**-9.0 + b**-9.0)
        err += 18 / (12 * s) * 4 * np.finfo(float).eps / grid.spacing**2
        rel = err / np.abs(kappa / b - kappa / a)
        return float(np.max(rel)), float(np.max(err / a))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_number_of_the_report(self, case):
        grid, a0, b0, dt, n_steps, store_every = self.CASES[case]
        s = store_every * dt
        a, b = self.shape(grid, a0), self.shape(grid, b0)
        rep = paired_pass(a, b, n_steps * dt, 2 * s, dt, store_every)
        assert len(rep.rows) == n_steps // store_every - 3
        assert rep.flagged_nodes == 0
        C1 = C2 = 0.0
        for row in rep.rows:
            want = self.closed_forms(grid, a0, b0, row["t"])
            rel, _ = self.rate_error(grid, a0, b0, row["t"], s)
            for key in ("E_Y", "E_gradY", "E_Z"):
                assert row[key] == pytest.approx(want[key], rel=self.RTOL), key
            for key in ("sup_lhs1", "sup_lhs2"):
                assert row[key] == pytest.approx(want[key], rel=4 * rel), key
            C1 = max(C1, want["sup_lhs1"] / want["core"])
            C2 = max(C2, want["sup_lhs2"] / want["core"])
        rel, abs_err = self.rate_error(grid, a0, b0, rep.T, s)
        assert rep.C1 == pytest.approx(C1, rel=4 * rel)
        assert rep.C2 == pytest.approx(C2, rel=4 * rel)
        last = self.closed_forms(grid, a0, b0, rep.T)
        assert rep.T == n_steps * dt
        assert rep.K == pytest.approx(last["K"], rel=self.RTOL)
        assert rep.K_tilde == pytest.approx(last["K_tilde"], rel=self.RTOL)
        for r in (rep.dd, rep.dw):
            assert r.dt == s
            assert r.sup_residual < 2 * abs_err, r.identity
