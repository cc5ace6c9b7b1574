"""Difference-tensor and coupled-inequality tests on paired flows.

Concentric circles give closed-form difference tensors (the connection
difference vanishes identically), while a circle/ellipse pair exercises the
generic second-order behaviour of the displayed difference evolutions.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import GridSpec
from mcflab import differences, shapes
from mcflab.differences import (
    LIMITATION_STATEMENT,
    DifferencePack,
    PairedWindow,
    build_difference,
    check_dd,
    check_dw,
    fitted_centers,
    forward_gronwall,
    heat_operator_Y,
    time_derivative_Z_sq,
    verify_inequalities,
)
from mcflab.flow import FlowTrajectory, run_fixed_dt
from mcflab.geometry import covariant_derivative, laplacian, tensor_norm_sq
from mcflab.grid import SymmetryAction, apply_symmetry
from mcflab.identities import ProtocolError

from conftest import paired_window, run_paired_fixed_dt, stencil_symbols

DT = 1e-4


def circle_pair(N=64, r1=1.0, r2=1.2, n_steps=8):
    grid = GridSpec(1, N)
    A = run_fixed_dt(shapes.circle(grid, r1), DT, n_steps)
    B = run_fixed_dt(shapes.circle(grid, r2), DT, n_steps)
    return paired_window(A, B)


def circle_ellipse_pair(N=64, n_steps=8):
    grid = GridSpec(1, N)
    A = run_fixed_dt(shapes.circle(grid, 1.0), DT, n_steps)
    B = run_fixed_dt(shapes.ellipse(grid, 1.2, 0.9), DT, n_steps)
    return paired_window(A, B)


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
        window = paired_window(*run_paired_fixed_dt(a, b, 1e-3, 4))
        p = window.item(2)
        g = p.geomA

        def sq(x, spec):
            return tensor_norm_sq(x, g, spec)

        def ddt(name):
            return window.time_derivative(2, lambda q: getattr(q, name))

        def grad(x, spec):
            return covariant_derivative(x, g, spec)

        def heat(name, spec):
            return ddt(name) - laplacian(getattr(p, name), g, spec)

        expected = {
            "Y": sq(p.U, "ll") + sq(p.V, "lll"),
            "Z": sq(p.w, "l") + sq(p.d, "ll") + sq(p.N, "ull") + sq(p.W, "lull"),
            "grad_Y": sq(grad(p.U, "ll"), "lll") + sq(grad(p.V, "lll"), "llll"),
            "heat_Y": sq(heat("U", "ll"), "ll") + sq(heat("V", "lll"), "lll"),
            "dt_Z": sq(ddt("w"), "l") + sq(ddt("d"), "ll") + sq(ddt("N"), "ull")
            + sq(ddt("W"), "lull"),
        }
        got = {
            "Y": p.norm_sq_Y(),
            "Z": p.norm_sq_Z(),
            "grad_Y": p.norm_sq_grad_Y(p.grad_Y()),
            "heat_Y": heat_operator_Y(window, 2, p.grad_Y()),
            "dt_Z": time_derivative_Z_sq(window, 2),
        }
        for name, want in expected.items():
            assert np.array_equal(got[name], want), name

    def test_ambient_mismatch_rejected(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = a.with_positions(np.pad(a.positions, ((0, 0), (0, 1))))
        with pytest.raises(ProtocolError, match="ambient dimension: 2 vs 3"):
            build_difference(a, b)

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


class TestPairedWindow:
    """A pair's stream is one loop, so its window pairs up by construction;
    the stored-trajectory windows the tests build (`paired_window`) reject
    what does not."""

    def test_stream_window_needs_five_states(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        with pytest.raises(ProtocolError, match="at least 5"):
            PairedWindow.fixed_dt([a, a], DT, 3)

    def test_stream_window_holds_nothing_per_state_before_reading(self):
        """A window knows its states by number: one for a million steps
        holds no list of their times."""
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = shapes.circle(GridSpec(1, 32), 1.2)
        tracemalloc.start()
        try:
            window = PairedWindow.fixed_dt([a, b], 1e-7, 10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(window) == 10**6 + 1
        assert peak < 2**20

    def test_length_mismatch_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 6)
        with pytest.raises(ProtocolError):
            paired_window(A, B)

    def test_step_mismatch_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), 2 * DT, 8)
        with pytest.raises(ProtocolError):
            paired_window(A, B)

    def test_time_skew_rejected_when_built(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 8)
        skewed = FlowTrajectory(
            [s.with_positions(s.positions, time=s.time + 5e-11) for s in B.states]
        )
        with pytest.raises(ProtocolError, match="paired flows differ in time"):
            paired_window(A, skewed)

    def test_ambient_mismatch_rejected_when_built(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = a.with_positions(np.pad(a.positions, ((0, 0), (0, 1))))
        with pytest.raises(ProtocolError, match="ambient dimension: 2 vs 3"):
            paired_window(run_fixed_dt(a, DT, 4), run_fixed_dt(b, DT, 4))

    def test_too_few_samples_rejected(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 3)
        B = run_fixed_dt(shapes.circle(grid, 1.2), DT, 3)
        with pytest.raises(ProtocolError):
            paired_window(A, B)


class TestDifferenceEvolutions:
    def test_circle_pair_is_near_exact(self):
        # the stencil truncation error of d/dt g is radius independent, so
        # it cancels in the difference of two concentric circles
        rep = verify_inequalities(circle_pair(), delta=2 * DT)
        assert rep.dd.sup_residual < 1e-10
        assert rep.dw.sup_residual < 1e-10

    def test_dd_second_order_on_circle_ellipse(self):
        sups = []
        for N in (64, 128):
            rep = verify_inequalities(circle_ellipse_pair(N), delta=2 * DT)
            sups.append(rep.dd.sup_residual)
        assert np.log2(sups[0] / sups[1]) > 1.9

    def test_sweep_keeps_the_worst_center_of_each_check(self):
        """Over every center, those before delta included."""
        rep = verify_inequalities(circle_ellipse_pair(), delta=5 * DT)
        w = circle_ellipse_pair()
        for check, got in ((check_dd, rep.dd), (check_dw, rep.dw)):
            per_center = [check(w, c) for c in w.centers]
            assert got == max(per_center, key=lambda r: r.sup_residual)
            assert got.t_center < 5 * DT  # the worst lies before delta
        assert rep.dd.identity == "difference_metric"
        assert rep.dw.identity == "difference_position_gradient"


class TestCoupledInequalities:
    def test_heat_operator_constant_on_circle_pair(self):
        w = circle_pair()
        c = len(w) // 2
        h = heat_operator_Y(w, c, w.item(c).grad_Y())
        assert (h.max() - h.min()) / h.max() < 1e-6

    def test_fitted_constants_finite_and_stable(self):
        w = circle_pair()
        rep = verify_inequalities(w, delta=2 * DT)
        assert 0.0 < rep.C1 < 100.0
        assert 0.0 < rep.C2 < 100.0
        assert rep.flagged_nodes == 0
        assert rep.K >= 1.0 and rep.K_tilde > 0.0

    def test_constants_nonincreasing_in_delta(self):
        early = verify_inequalities(circle_pair(), delta=2 * DT)
        late = verify_inequalities(circle_pair(), delta=4 * DT)
        assert late.C1 <= early.C1 + 1e-12
        assert late.C2 <= early.C2 + 1e-12

    def test_zero_difference_pair_fits_zero(self):
        grid = GridSpec(1, 32)
        A = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        B = run_fixed_dt(shapes.circle(grid, 1.0), DT, 8)
        rep = verify_inequalities(paired_window(A, B), delta=2 * DT)
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
        w = circle_pair()
        rep = verify_inequalities(w, delta=3 * DT)
        centers = [c for c in w.centers if c * DT >= 3 * DT - 1e-12]
        assert len(rep.rows) == len(centers) == 4
        assert calls == dict.fromkeys(calls, len(centers))
        assert len(calls) == 3

    def test_bad_delta_rejected(self):
        w = circle_pair()
        with pytest.raises(ValueError):
            verify_inequalities(w, delta=0.0)
        with pytest.raises(ValueError):
            verify_inequalities(w, delta=1.0)

    def test_ode_operator_positive_for_distinct_pair(self):
        w = circle_ellipse_pair()
        assert time_derivative_Z_sq(w, len(w) // 2).max() > 0.0

    def test_report_serialization_mentions_forward_only_protocol(self):
        rep = verify_inequalities(circle_pair(), delta=2 * DT)
        text = rep.serialize()
        assert LIMITATION_STATEMENT in text
        assert "t,E_Y,E_gradY,E_Z,sup_lhs1,sup_lhs2" in text


class TestEnergyEnvelope:
    def test_forward_envelope_holds(self):
        for window in (circle_pair(), circle_ellipse_pair()):
            rows = forward_gronwall(verify_inequalities(window, 2 * DT))
            for r in rows:
                assert r["F"] <= r["envelope"] * (1.0 + 1e-9)

    def test_energy_scales_with_perturbation_squared(self):
        grid = GridSpec(1, 64)
        base = shapes.circle(grid, 1.0)
        energy = {}
        for eps in (1e-3, 2e-3):
            pert = shapes.low_mode_perturbation(base, eps, seed=3)
            w = paired_window(
                run_fixed_dt(base, DT, 8), run_fixed_dt(pert, DT, 8)
            )
            p = w.item(len(w) // 2)
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
    """verify_inequalities is one forward sweep over at most five packs."""

    @staticmethod
    def traced_peak(trajA, trajB) -> int:
        tracemalloc.start()
        try:
            verify_inequalities(paired_window(trajA, trajB), delta=2e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_stored_states(self):
        short, long = torus_pair(8), torus_pair(32)  # 9 and 33 stored states
        peaks = {len(p[0].states): self.traced_peak(*p) for p in (short, long)}
        assert peaks[33] <= 1.1 * peaks[9], peaks

    def test_each_pack_is_built_once_and_at_most_five_are_alive(self, monkeypatch):
        built, alive = [], []
        window = None

        def counting(stateA, stateB, kern):
            built.append(stateA.time)
            if window is not None:
                alive.append(sum(x is not None for x in window._items) + 1)
            return build_difference(stateA, stateB, kern)

        monkeypatch.setattr(differences, "build_difference", counting)
        trajA, trajB = torus_pair(12)
        window = paired_window(trajA, trajB)
        verify_inequalities(window, delta=2e-3)
        assert built == [s.time for s in trajA.states]
        assert max(alive) == 5

    def test_reading_behind_the_sweep_raises(self):
        window = paired_window(*torus_pair(6))
        verify_inequalities(window, delta=2e-3)
        last = window.centers[-1]
        for k in range(last - 1):
            with pytest.raises(IndexError, match=f"state {k} is behind the sweep"):
                window.item(k)
        assert window.item(last - 1) is not None
        with pytest.raises(IndexError, match="behind the sweep"):
            verify_inequalities(window, delta=2e-3)  # a window serves one pass

    def test_delta_counts_from_the_first_state(self):
        """A pair stamped from t0 = 0.2 keeps the rows of the same pair from 0."""
        reports = {}
        for t0 in (0.0, 0.2):
            a = shapes.product_torus(GridSpec(2, 16), 1.0, 1.0)
            a = a.with_positions(a.positions, time=t0)
            b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
            window = paired_window(*run_paired_fixed_dt(a, b, 1e-3, 20))
            reports[t0] = verify_inequalities(window, delta=0.012)
        at0, late = reports[0.0], reports[0.2]
        assert len(late.rows) == len(at0.rows) == 7
        assert late.flagged_nodes == at0.flagged_nodes == 0
        # both windows divide by the run's sample step, not by the stamped
        # differences, which from 0.2 miss 1e-3 at rounding level
        assert late.dt == at0.dt == 1e-3
        assert late.C1 == at0.C1
        assert late.C2 == at0.C2
        with pytest.raises(ValueError, match="delta must lie in"):
            verify_inequalities(window, delta=0.021)

    def test_rows_follow_the_center_index_from_a_late_start(self):
        """From t0 = 1e6 the stamped t - t0 of the center at delta falls more
        than 1e-12 below it; rows are chosen by center index, so the pair
        keeps the 7 rows of its start at 0, in a window on stored
        trajectories and in one on the stream."""
        rows = {}
        for t0 in (0.0, 1e6):
            a = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
            a = a.with_positions(a.positions, time=t0)
            b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
            for source in ("stored", "stream"):
                if source == "stored":
                    window = paired_window(*run_paired_fixed_dt(a, b, 1e-3, 20))
                else:
                    window = PairedWindow.fixed_dt([a, b], 1e-3, 20)
                rep = verify_inequalities(window, delta=0.012)
                rows[t0, source] = [r["t"] - t0 for r in rep.rows]
        assert len(rows[0.0, "stored"]) == 7
        assert rows[0.0, "stored"] == rows[0.0, "stream"]
        for source in ("stored", "stream"):
            assert len(rows[1e6, source]) == 7
            assert np.allclose(rows[1e6, source], rows[0.0, source], atol=1e-9)
        assert fitted_centers(21, 1, 1e-3, 0.012) == range(12, 19)
