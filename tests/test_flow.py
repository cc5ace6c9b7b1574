"""Integrator tests against closed-form shrinking solutions.

On the discrete grid a circle of radius r shrinks with r' = -c/r where
c = s2/s1^2 is the stencil-dependent curvature factor, so the semi-discrete
radius law sqrt(r0^2 - 2 c t) is exact up to RK4 time error.
"""

import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mcflab import GridSpec, StepPolicy, run_flow, step_rk4
from mcflab import cli, differences, flow, geometry, identities, shapes
from mcflab.flow import (
    BlowUpError,
    FlowTrajectory,
    PolicyError,
    ProtocolError,
    adaptive_stream,
    fixed_dt_stream,
    run_fixed_dt,
)
from mcflab.geometry import (
    KernelResult,
    components_first,
    components_last,
    compute_geometry,
    geometry_kernel,
    geometry_packs,
    induced_volume,
    kernel_layout,
    stacked_kernel,
    tensor_norm_sq,
    tensor_norm_sup,
)
from mcflab.grid import (
    DegenerateImmersionError,
    Immersion,
    apply_symmetry,
    shift_permutation,
)
from mcflab.grid import SymmetryAction
from conftest import (
    PACK_FIELDS,
    REFERENCE_MAKERS,
    assert_same_bytes,
    expression_rk4_positions,
    identity_symmetry,
    measured_radius,
    measured_torus_radii,
    paired_stream,
    run_paired_fixed_dt,
    stencil_symbols,
)


def discrete_radius(grid, r0, t):
    s1, s2 = stencil_symbols(grid)
    c = s2 / s1**2
    return np.sqrt(r0**2 - 2.0 * c * t)


class TestVelocity:
    def test_circle_velocity_is_radial_inward(self, circle_grid):
        r = 2.0
        imm = shapes.circle(circle_grid, r)
        v = geometry_kernel(imm.grid, imm.positions).mean_curv
        s1, s2 = stencil_symbols(circle_grid)
        expected = -(s2 / s1**2) / r
        radial = imm.positions / r
        assert np.allclose(v, expected * radial, atol=1e-13)

    def test_velocity_translation_invariant(self, circle_grid):
        imm = shapes.circle(circle_grid, 1.3)
        shifted = imm.with_positions(imm.positions + np.array([4.0, -7.0]))
        v, w = (geometry_kernel(s.grid, s.positions).mean_curv for s in (imm, shifted))
        assert np.abs(v - w).max() < 1e-12

    def test_product_torus_velocity_per_factor(self, torus_grid):
        r1, r2 = 1.0, 0.5
        imm = shapes.product_torus(torus_grid, r1, r2)
        v = geometry_kernel(imm.grid, imm.positions).mean_curv
        s1, s2 = stencil_symbols(torus_grid)
        c = s2 / s1**2
        p = imm.positions
        assert np.allclose(v[..., 0:2], -(c / r1**2) * p[..., 0:2], atol=1e-12)
        assert np.allclose(v[..., 2:4], -(c / r2**2) * p[..., 2:4], atol=1e-12)


class TestStep:
    def test_step_matches_discrete_radius_law(self, circle_grid):
        r0, dt = 1.0, 1e-3
        out = step_rk4(shapes.circle(circle_grid, r0), dt)
        # RK4 local error on r' = -c/r is O(dt^5)
        assert abs(measured_radius(out) - discrete_radius(circle_grid, r0, dt)) < 1e-12
        assert out.time == dt

    def test_step_commutes_with_grid_shift(self, circle_grid):
        imm = shapes.ellipse(circle_grid, 1.5, 1.0)
        sym = SymmetryAction(
            np.eye(2), np.zeros(2), shift_permutation(circle_grid, [5])
        )
        a = step_rk4(apply_symmetry(imm, sym), 1e-3).positions
        b = apply_symmetry(step_rk4(imm, 1e-3), sym).positions
        assert np.abs(a - b).max() < 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_past_extinction(self):
        grid = GridSpec(1, 32)
        imm = shapes.circle(grid, 0.05)
        with pytest.raises(BlowUpError):
            for _ in range(200):
                imm = step_rk4(imm, 1e-3)

    def test_blow_up_error_node_is_plain_ints(self, flat_torus):
        k1 = np.zeros_like(flat_torus.positions)
        k1[0, 1, 2] = np.nan
        with pytest.raises(BlowUpError, match=re.escape("at node (0, 1)")):
            step_rk4(flat_torus, 1e-3, k1)


    def test_non_finite_new_positions_blow_up_at_the_step_end(self, monkeypatch):
        # finite stage velocities whose RK4 sum overflows: only the check
        # of the new positions sees it, and it names time + dt
        imm = shapes.circle(GridSpec(1, 16), 1.0)
        H = np.full(imm.positions.shape, 1e308)
        kern = SimpleNamespace(mean_curv=H)
        monkeypatch.setattr(flow, "_flow_kernel", lambda *a: kern)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                flow._rk4_positions(imm.grid, imm.positions, 1.0, H, 0.25)
        assert err.value.time == 1.25
        assert str(err.value) == "flow blew up at t=1.25 at node (0,)"

    def test_degenerate_stage_is_a_blow_up(self):
        # all nodes coincide: the metric degenerates at the step's own state
        imm = shapes.circle(GridSpec(1, 16), 0.0)
        with pytest.raises(BlowUpError, match=re.escape("at node (0,)")) as err:
            step_rk4(imm, 1e-3)
        assert isinstance(err.value.__cause__, DegenerateImmersionError)

    def test_degenerate_initial_immersion_stays_bad_input(self):
        imm = shapes.circle(GridSpec(1, 16), 0.0)
        for run in (lambda: run_fixed_dt(imm, 1e-3, 2), lambda: run_flow(imm, 0.01)):
            with pytest.raises(DegenerateImmersionError):
                run()


class TestNonFiniteStage:
    """A NaN or infinite stage raises BlowUpError at the step's start time and
    at its first non-finite node in C order (without a pair's batch index),
    whichever RK stage it appears in."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_blow_up_time_node_and_message(self, monkeypatch, value, batch, m, stage):
        if m == 1:
            imm = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
            nodes, first = [(9,), (4,)], (4,)
        else:
            imm = shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.2)
            nodes, first = [(6, 2), (3, 11)], (3, 11)
        grid = imm.grid
        X = np.stack([imm.positions] * batch, axis=-2) if batch == 2 else imm.positions
        member = (1,) if batch == 2 else ()

        def spoil(H):
            H = H.copy()
            for node in nodes:
                H[node + member + (0,)] = value
            return H

        kernel = flow.geometry_kernel
        calls = []

        def spoiling(grid, Y):
            kern = kernel(grid, Y)
            calls.append(Y)
            if len(calls) == stage - 2:  # the kernel of the stage before
                kern = kern._replace(mean_curv=spoil(kern.mean_curv))
            return kern

        k1 = kernel(grid, X).mean_curv
        if stage == 2:
            k1 = spoil(k1)
        monkeypatch.setattr(flow, "geometry_kernel", spoiling)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                flow._rk4_positions(grid, X, 1e-3, k1, 0.25)
        assert err.value.time == 0.25
        assert err.value.node == first
        assert str(err.value) == f"flow blew up at t=0.25 at node {first}"


# one flow (grid + (A,), as `step_rk4` steps it) or a pair stacked on a
# batch axis (grid + (2, A), as `fixed_dt_stream` steps it), in kernel_layout
RK4_CASES = {
    "m1-single": lambda o: shapes.ellipse(GridSpec(1, 32, o), 1.5, 1.0).positions,
    "m1-pair": lambda o: np.stack(
        [
            shapes.circle(GridSpec(1, 32, o), 1.0).positions,
            shapes.ellipse(GridSpec(1, 32, o), 1.5, 1.0).positions,
        ],
        axis=-2,
    ),
    "m2-single": lambda o: shapes.perturbed_torus(
        GridSpec(2, 16, o), 1.0, 0.6, 0.2
    ).positions,
    "m2-pair": lambda o: np.stack(
        [
            shapes.perturbed_torus(GridSpec(2, 16, o), 1.0, 0.6, 0.2).positions,
            shapes.product_torus(GridSpec(2, 16, o), 1.0, 0.7).positions,
        ],
        axis=-2,
    ),
}


def rk4_case(name: str, order: int):
    """(grid, X in kernel_layout, k1) of an RK4_CASES entry."""
    X = RK4_CASES[name](order)
    m = int(name[1])
    grid = GridSpec(m, X.shape[0], order)
    X = kernel_layout(X, m)
    return grid, X, geometry_kernel(grid, X).mean_curv


def kernel_arrays(kern) -> list:
    """Every array of a KernelResult, the entries of its list fields included."""
    return [a for f in kern for a in (f if isinstance(f, list) else [f])]


def snapshot(arrays: list) -> tuple:
    """(arrays, copies of them), for `assert_unchanged` after later work."""
    return arrays, [a.copy() for a in arrays]


def assert_unchanged(*snapshots):
    for arrays, copies in snapshots:
        for got, want in zip(arrays, copies):
            assert_same_bytes(got, want)


class TestRk4InPlace:
    """`_rk4_positions` builds its stages and its sum in buffers it owns, bit
    for bit the expression form that conftest keeps as the reference, and
    writes neither X nor k1."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("case", sorted(RK4_CASES))
    def test_bitwise_equal_to_the_expression_form(self, case, order):
        grid, X, k1 = rk4_case(case, order)
        dt = 1e-3 if grid.m == 1 else 2e-4
        for _ in range(3):  # each step from the last one's positions and layout
            held = snapshot([X, k1])
            want = expression_rk4_positions(grid, X, dt, k1)
            got = flow._rk4_positions(grid, X, dt, k1, 0.0)
            assert_same_bytes(got, want)
            assert got.strides == want.strides
            assert_unchanged(held)
            assert not np.shares_memory(got, X) and not np.shares_memory(got, k1)
            X, k1 = got, geometry_kernel(grid, got).mean_curv


class TestCallerArraysUnchanged:
    """No step or stream writes an array its caller holds: the positions it
    was given, a k1 passed in, or any field of a kernel it handed over."""

    def test_step_rk4(self):
        imm = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        k1 = geometry_kernel(imm.grid, imm.positions).mean_curv
        held = snapshot([imm.positions, k1])
        step_rk4(imm, 1e-3, k1)
        step_rk4(imm, 1e-3)
        assert_unchanged(held)

    def test_adaptive_stream_at_m1(self):
        imm = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        # at m=1 the loop starts from the caller's own array
        assert kernel_layout(imm.positions, 1) is imm.positions
        held = [snapshot([imm.positions])]
        policy = StepPolicy(cfl_safety=0.3)
        for state, kern, _ in adaptive_stream(imm, 0.02, policy, [0.0, 0.01, 0.02]):
            held.append(snapshot([state.positions] + kernel_arrays(kern)))
        assert len(held) == 4
        assert_unchanged(*held)

    def test_fixed_dt_stream_pair(self):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        b = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        held = [snapshot([a.positions, b.positions])]
        for states, kern in fixed_dt_stream([a, b], 2e-4, 6, store_every=2):
            held.append(snapshot([s.positions for s in states] + kernel_arrays(kern)))
        assert len(held) == 5
        assert_unchanged(*held)


class TestStepPolicy:
    def test_adaptive_dt_value(self, circle_grid):
        r = 2.0
        geom = compute_geometry(shapes.circle(circle_grid, r))
        s1, _ = stencil_symbols(circle_grid)
        pol = StepPolicy(cfl_safety=0.2, dt_max=1.0)
        expected = 0.2 * (r * s1) ** 2 * circle_grid.spacing**2
        dt = pol.step_size(geom.metric, circle_grid.spacing)
        assert abs(dt - expected) < 1e-14

    def test_dt_max_caps(self, unit_circle):
        geom = compute_geometry(unit_circle)
        pol = StepPolicy(cfl_safety=1.0, dt_max=1e-5)
        assert pol.step_size(geom.metric, unit_circle.grid.spacing) == 1e-5

    def test_fixed_dt_overrides(self, unit_circle):
        geom = compute_geometry(unit_circle)
        pol = StepPolicy(fixed_dt=3e-4)
        assert pol.step_size(geom.metric, unit_circle.grid.spacing) == 3e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cfl_safety": 0.0},
            {"cfl_safety": 1.5},
            {"dt_max": -1.0},
            {"fixed_dt": 0.0},
            {"cfl_safety": float("nan")},
            {"dt_max": float("nan")},
            {"dt_max": float("inf")},
            {"fixed_dt": float("nan")},
            {"fixed_dt": float("inf")},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            StepPolicy(**kwargs)


def streamed(*args):
    """(states, volumes, steps) of `adaptive_stream(*args)`: each volume from
    the kernel evaluation handed over with its state, and the number of
    steps taken."""
    states, volumes, steps = [], [], 0
    for state, kern, dts in adaptive_stream(*args):
        states.append(state)
        volumes.append(induced_volume(kern.det, state.grid))
        steps += len(dts)
    return states, volumes, steps


class TestRunFlow:
    def test_final_radius_matches_discrete_law(self, circle_grid):
        r0, T = 1.0, 0.2
        traj = run_flow(shapes.circle(circle_grid, r0), T, StepPolicy(fixed_dt=1e-3))
        assert abs(
            measured_radius(traj.states[-1]) - discrete_radius(circle_grid, r0, T)
        ) < 1e-10

    def test_sample_times_are_landed_exactly(self, circle_grid):
        samples = [0.0, 0.05, 0.125, 0.2]
        traj = run_flow(
            shapes.circle(circle_grid, 1.0),
            0.2,
            StepPolicy(cfl_safety=0.3),
            sample_times=samples,
        )
        assert [s.time for s in traj.states] == samples

    def test_zero_duration_gives_single_state(self, unit_circle, kernel_calls):
        states, volumes, _ = streamed(unit_circle, 0.0)
        assert len(states) == len(volumes) == 1
        assert states[0].time == 0.0
        assert len(kernel_calls) == 1  # the state is still evaluated, as input
        with pytest.raises(DegenerateImmersionError):
            run_flow(shapes.circle(unit_circle.grid, 0.0), 0.0)

    def test_backward_target_rejected(self, unit_circle):
        with pytest.raises(PolicyError):
            run_flow(unit_circle, -0.1)

    def test_empty_sample_times_rejected(self, unit_circle, kernel_calls):
        with pytest.raises(PolicyError, match="sample_times is empty"):
            run_flow(unit_circle, 0.1, sample_times=[])
        assert not kernel_calls

    def test_out_of_range_samples_rejected(self, unit_circle):
        with pytest.raises(PolicyError):
            run_flow(unit_circle, 0.1, sample_times=[0.0, 0.5])

    def test_volume_decreases_along_flow(self, circle_grid):
        imm = shapes.ellipse(circle_grid, 1.5, 1.0)
        _, vols, _ = streamed(
            imm, 0.2, StepPolicy(cfl_safety=0.3), np.linspace(0.0, 0.2, 9)
        )
        assert len(vols) == 9
        assert all(b < a for a, b in zip(vols, vols[1:]))

    @pytest.mark.parametrize(
        "imm",
        [
            shapes.ellipse(GridSpec(1, 32), 1.5, 1.0),
            shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.2),
            shapes.perturbed_torus(GridSpec(2, 16, 4), 1.0, 0.6, 0.2),
        ],
        ids=["m1", "m2-o2", "m2-o4"],
    )
    def test_volumes_are_those_of_the_stored_states(self, imm, kernel_calls):
        """Each handed volume comes from the kernel evaluation the run
        already made at its state, with the bits of the state's own pack."""
        states, volumes, steps = streamed(imm, 0.01, None, [0.0, 0.004, 0.004, 0.01])
        assert len(kernel_calls) == 4 * steps + 1
        packs = [compute_geometry(s) for s in states]
        assert volumes == [induced_volume(p.det_metric, p.grid) for p in packs]

    def test_torus_radii_follow_factor_law(self):
        grid = GridSpec(2, 24)
        T = 0.05
        traj = run_flow(
            shapes.product_torus(grid, 1.0, 0.7), T, StepPolicy(fixed_dt=5e-4)
        )
        r1, r2 = measured_torus_radii(traj.states[-1])
        assert abs(r1 - discrete_radius(grid, 1.0, T)) < 1e-9
        assert abs(r2 - discrete_radius(grid, 0.7, T)) < 1e-9

    def test_stalled_adaptive_flow_stops(self, monkeypatch):
        # dt ~ 1.5e-18 is below half an ulp of t = 1: a step would not move t
        calls = []

        def bounded_step(*args):
            calls.append(None)
            if len(calls) > 3000:
                raise AssertionError("run_flow kept stepping without advancing t")
            return step_rk4(*args)

        monkeypatch.setattr(flow, "step_rk4", bounded_step)
        imm = shapes.circle(GridSpec(1, 16), 1.0)
        imm = imm.with_positions(imm.positions, time=1.0)
        with pytest.raises(PolicyError, match=r"dt=1\.\d+e-18 does not advance t=1\.0"):
            run_flow(imm, 1.001, StepPolicy(cfl_safety=1e-17))
        assert not calls

    @pytest.mark.parametrize("n_steps", [5, 6])
    def test_step_count_is_bounded(self, unit_circle, monkeypatch, n_steps):
        monkeypatch.setattr(flow, "MAX_STEPS", 5, raising=False)
        dt = 2.0**-10  # exact binary steps: n_steps of them reach T exactly
        policy = StepPolicy(fixed_dt=dt)
        if n_steps == 5:
            assert len(run_flow(unit_circle, n_steps * dt, policy).dt_history) == 5
            return
        with pytest.raises(PolicyError, match=r"more than 5 steps: t=0\.0048828125"):
            run_flow(unit_circle, n_steps * dt, policy)

    def test_final_radius_converges_to_continuum(self):
        r0, T = 1.0, 0.125
        errs = []
        for N in (32, 64, 128):
            grid = GridSpec(1, N)
            traj = run_flow(
                shapes.circle(grid, r0), T, StepPolicy(cfl_safety=0.3)
            )
            errs.append(
                abs(measured_radius(traj.states[-1]) - np.sqrt(r0**2 - 2 * T))
            )
        assert np.log2(errs[-2] / errs[-1]) > 1.9


@pytest.fixture
def kernel_calls(monkeypatch):
    """List that gains one entry per `geometry_kernel` call made by the flow."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    kernel = flow.geometry_kernel
    monkeypatch.setattr(flow, "geometry_kernel", counting)
    return calls


class TestKernelEvaluations:
    def test_run_flow_evaluates_kernel_four_times_per_step(self, kernel_calls):
        imm = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        traj = run_flow(imm, 0.02, sample_times=[0.0, 0.01, 0.02])
        assert len(traj.dt_history) > 2
        # and one for the final state, which starts no step
        assert len(kernel_calls) == 4 * len(traj.dt_history) + 1

    def test_pair_evaluates_kernel_four_times_per_step(self, kernel_calls):
        grid = GridSpec(1, 32)
        run_paired_fixed_dt(
            shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.5, 1.0), 1e-4, 12, 4
        )
        assert len(kernel_calls) == 4 * 12 + 1

    def test_fixed_dt_run_flow_matches_run_fixed_dt_bitwise(self):
        dt = 2.0**-10  # exact binary fraction: both runs step to the same times
        imm = shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.2)
        a = run_flow(imm, 20 * dt, StepPolicy(fixed_dt=dt))
        b = run_fixed_dt(imm, dt, 20, store_every=20)
        assert a.dt_history == b.dt_history == [dt] * 20
        assert np.array_equal(a.states[-1].positions, b.states[-1].positions)


class TestFixedDtProtocol:
    def test_times_are_exact_multiples(self, circle_grid):
        traj = run_fixed_dt(shapes.circle(circle_grid, 1.0), 1e-3, 20, store_every=5)
        times = np.array([s.time for s in traj.states])
        assert np.array_equal(times, np.array([0.0, 5e-3, 1e-2, 1.5e-2, 2e-2]))
        assert traj.sample_step == 5 * 1e-3

    def test_sample_step_is_store_every_times_dt_from_any_start(self):
        a = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        a = a.with_positions(a.positions, time=1000.0)
        b = shapes.low_mode_perturbation(a, 1e-3, seed=1)
        single = run_fixed_dt(a, 1e-4, 8, store_every=2)
        trajA, trajB = run_paired_fixed_dt(a, b, 1e-4, 8, store_every=2)
        for traj in (single, trajA, trajB):
            assert traj.sample_step == 2 * 1e-4
        # the stamped times of a late start miss the step at rounding level
        assert single.states[1].time - single.states[0].time != single.sample_step

    def test_store_every_must_divide(self, unit_circle):
        with pytest.raises(PolicyError):
            run_fixed_dt(unit_circle, 1e-3, 7, store_every=3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_non_positive_or_non_finite_dt_rejected(self, unit_circle, kernel_calls, dt):
        with pytest.raises(PolicyError, match="dt must be positive and finite"):
            run_fixed_dt(unit_circle, dt, 4)
        assert not kernel_calls

    def test_negative_n_steps_rejected(self, unit_circle, kernel_calls):
        for run in (
            lambda: fixed_dt_stream([unit_circle], 1e-3, -4),
            lambda: run_fixed_dt(unit_circle, 1e-3, -4),
        ):
            with pytest.raises(PolicyError, match="n_steps must not be negative"):
                run()
        assert not kernel_calls

    def test_zero_steps_yield_the_initial_state_with_its_kernel(self, unit_circle):
        ((states, kern),) = fixed_dt_stream([unit_circle], 1e-3, 0)
        assert states == [unit_circle]
        assert kern.det.shape == unit_circle.grid.shape + (1,)
        (pack,) = geometry_packs(states, kern)
        assert_same_bytes(pack.mean_curv, compute_geometry(unit_circle).mean_curv)

    def test_store_every_below_one_rejected(self, unit_circle, kernel_calls):
        with pytest.raises(PolicyError, match="store_every must be at least 1"):
            run_fixed_dt(unit_circle, 1e-3, 4, store_every=0)
        assert not kernel_calls

    def test_paired_stream_rejects_a_trajectory_without_a_step(self, unit_circle):
        traj = FlowTrajectory(
            [unit_circle.with_positions(unit_circle.positions, time=t)
             for t in (0.0, 0.1, 0.2, 0.3, 0.4)]
        )
        assert traj.sample_step is None
        with pytest.raises(ProtocolError, match="no sample step"):
            paired_stream(traj, traj)

    def test_paired_stream_rejects_an_adaptive_run(self, unit_circle):
        traj = run_flow(unit_circle, 0.02, sample_times=np.linspace(0, 0.02, 5))
        assert len(traj.states) == 5 and traj.sample_step is None
        with pytest.raises(ProtocolError, match="no sample step"):
            paired_stream(traj, traj)


PAIRS = {
    "circle-ellipse-o2": lambda: (
        shapes.circle(GridSpec(1, 64), 1.0),
        shapes.ellipse(GridSpec(1, 64), 1.5, 1.0),
    ),
    "circle-ellipse-o4": lambda: (
        shapes.circle(GridSpec(1, 64, 4), 1.0),
        shapes.ellipse(GridSpec(1, 64, 4), 1.5, 1.0),
    ),
    "torus-perturbed": lambda: (
        shapes.product_torus(GridSpec(2, 16), 1.0, 1.0),
        shapes.low_mode_perturbation(
            shapes.product_torus(GridSpec(2, 16), 1.0, 1.0), 1e-3, seed=3
        ),
    ),
}


class TestPairedFixedDt:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_matches_two_single_runs_bitwise(self, pair):
        a, b = PAIRS[pair]()
        dt = 1e-4 if a.grid.m == 1 else 2e-4
        pa, pb = run_paired_fixed_dt(a, b, dt, 12, store_every=3)
        for got, init in ((pa, a), (pb, b)):
            want = run_fixed_dt(init, dt, 12, store_every=3)
            assert got.dt_history == want.dt_history == [dt] * 12
            assert [s.time for s in got.states] == [s.time for s in want.states]
            assert len(got.states) == len(want.states) == 5
            for s, w in zip(got.states, want.states):
                assert np.array_equal(s.positions, w.positions)
                assert s.positions.flags.c_contiguous
            ref = init  # the per-flow stepper as an independent reference
            for _ in range(12):
                ref = step_rk4(ref, dt)
            assert np.array_equal(got.states[-1].positions, ref.positions)
        assert pa.states[0] is a and pb.states[0] is b

    @pytest.mark.parametrize(
        "make_b, what",
        [
            (lambda a: shapes.circle(GridSpec(1, 48), 1.0), "grid"),
            (
                lambda a: a.with_positions(np.pad(a.positions, ((0, 0), (0, 1)))),
                "ambient dimension: 2 vs 3",
            ),
            (lambda a: a.with_positions(a.positions, time=0.5), "time: 0.0 vs 0.5"),
        ],
        ids=["grid", "ambient", "time"],
    )
    def test_mismatched_pair_is_rejected_before_any_step(
        self, make_b, what, kernel_calls
    ):
        a = shapes.circle(GridSpec(1, 32), 1.0)
        with pytest.raises(ProtocolError, match=re.escape(f"differ in {what}")):
            run_paired_fixed_dt(a, make_b(a), 1e-4, 4)
        assert kernel_calls == []

    def test_degenerate_initial_b_names_its_single_run_node(self):
        grid = GridSpec(1, 32)
        pos = shapes.circle(grid, 1.0).positions.copy()
        pos[6] = pos[4]  # the central difference vanishes at node 5 only
        b = Immersion(grid, pos)
        with pytest.raises(DegenerateImmersionError) as single:
            run_fixed_dt(b, 1e-4, 2)
        with pytest.raises(DegenerateImmersionError) as paired:
            run_paired_fixed_dt(shapes.circle(grid, 1.0), b, 1e-4, 2)
        assert single.value.node == paired.value.node == (5,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_b_blowing_up_is_a_blow_up_of_the_pair(self):
        grid = GridSpec(1, 32)
        b = shapes.circle(grid, 0.05)
        with pytest.raises(BlowUpError) as single:
            run_fixed_dt(b, 1e-3, 200)
        with pytest.raises(BlowUpError) as paired:
            run_paired_fixed_dt(shapes.circle(grid, 1.0), b, 1e-3, 200)
        assert str(paired.value) == str(single.value)


STREAM_SHAPES = {
    "m1": lambda o: shapes.ellipse(GridSpec(1, 32, o), 1.5, 1.0),
    "m1-codim2": REFERENCE_MAKERS["m1-codim2"],  # a space curve, A = 3
    "m2": lambda o: shapes.perturbed_torus(GridSpec(2, 16, o), 1.0, 0.6, 0.2),
}

STREAM_INITIALS = {
    f"{name}-o{order}": (lambda make=make, order=order: make(order))
    for name, make in STREAM_SHAPES.items()
    for order in (2, 4)
}


def torus_blowing_up(t0):
    """A thin product torus, its small factor dying near t0 + 0.05, and a
    perturbed copy that dies first."""
    a = shapes.product_torus(GridSpec(2, 16), 1.0, 0.3)
    b = shapes.low_mode_perturbation(a, 1e-3, seed=3)
    return [x.with_positions(x.positions, time=t0) for x in (b, a)]


class TestFixedDtStream:
    """`fixed_dt_stream` is the one fixed-step loop: the collectors store
    what it yields, and a window builds its packs from the kernel each
    stored state comes with."""

    @pytest.mark.parametrize("flows", [1, 2])
    @pytest.mark.parametrize("shape", sorted(STREAM_INITIALS))
    def test_packs_from_the_stream_are_compute_geometry(self, shape, flows):
        a = STREAM_INITIALS[shape]()
        initials = [a, shapes.low_mode_perturbation(a, 1e-2, seed=5)][:flows]
        dt = 1e-4 if a.grid.m == 1 else 2e-4
        seen = 0
        for states, kern in fixed_dt_stream(initials, dt, 6, store_every=3):
            # the final state too comes with its kernel
            assert kern.det.shape == a.grid.shape + (flows,)
            for state, got in zip(states, geometry_packs(states, kern)):
                want = compute_geometry(state)
                assert got.immersion is state
                for name in PACK_FIELDS:
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.strides == w.strides, name
                    assert_same_bytes(g, w)
                assert induced_volume(got.det_metric, a.grid) == induced_volume(
                    want.det_metric, a.grid
                )
                assert_same_bytes(got.cell_weight, want.cell_weight)
                seen += 1
        assert seen == 3 * flows

    def test_a_member_of_a_pair_is_copied_out_of_the_batch(self):
        a = STREAM_INITIALS["m2-o2"]()
        pair = [a, shapes.low_mode_perturbation(a, 1e-2, seed=5)]
        states, kern = next(fixed_dt_stream(pair, 1e-4, 2))
        for b, pack in enumerate(geometry_packs(states, kern)):
            # the member's view det[..., b] is strided; its pairwise sums
            # would differ from those of the copy
            assert not kern.det[..., b].flags.c_contiguous
            assert pack.det_metric.flags.c_contiguous
            assert not np.shares_memory(pack.det_metric, kern.det)
            assert not np.shares_memory(pack.mean_curv, kern.mean_curv)
            want = compute_geometry(states[b]).det_metric
            assert induced_volume(pack.det_metric, a.grid) == induced_volume(
                want, a.grid
            )

    @pytest.mark.parametrize("t0", [0.0, 0.2, 1000.0])
    def test_stamps_are_exact_multiples_of_the_step(self, t0):
        a = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        a = a.with_positions(a.positions, time=t0)
        b = shapes.low_mode_perturbation(a, 1e-3, seed=1)
        stream = fixed_dt_stream([a, b], 1e-4, 12, store_every=4)
        times = [[s.time for s in states] for states, _ in stream]
        assert times == [[t0 + k * 1e-4] * 2 for k in (0, 4, 8, 12)]
        assert all(type(t) is float for row in times for t in row)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flows, store_every, time, node",
        [
            # as the fixed-step loop raised them before the stream: a blow-up
            # inside a stored interval names the time accumulated from its
            # stamp, which from t0 = 1000 misses the exact multiple
            (1, 1, 1000.049, (0, 1)),
            (1, 7, 1000.049, (0, 1)),
            (2, 1, 1000.047, (0, 0)),
            (2, 7, 1000.0469999999999, (0, 0)),
        ],
    )
    def test_blow_up_inside_the_stream(self, flows, store_every, time, node):
        initials = torus_blowing_up(1000.0)[2 - flows :]
        collect = run_fixed_dt if flows == 1 else run_paired_fixed_dt
        for run in (
            lambda: list(fixed_dt_stream(initials, 1e-3, 210, store_every)),
            lambda: collect(*initials, 1e-3, 210, store_every),
        ):
            with pytest.raises(BlowUpError) as err:
                run()
            assert err.value.time == time
            assert err.value.node == node

    def test_degenerate_initial_immersion_stays_bad_input(self, kernel_calls):
        good = shapes.circle(GridSpec(1, 16), 1.0)
        bad = shapes.circle(GridSpec(1, 16), 0.0)
        for initials in ([bad], [good, bad]):
            kernel_calls.clear()
            stream = fixed_dt_stream(initials, 1e-3, 2)
            assert not kernel_calls  # a generator: nothing runs until read
            with pytest.raises(DegenerateImmersionError):
                next(stream)

    def test_a_given_initial_kernel_is_not_evaluated_again(self, kernel_calls):
        """A caller that evaluated the initial states passes that kernel on:
        the stream yields it, makes one call fewer and the same states."""
        a = STREAM_INITIALS["m2-o2"]()
        pair = [a, shapes.low_mode_perturbation(a, 1e-2, seed=5)]
        kern = stacked_kernel(pair)
        given = list(fixed_dt_stream(pair, 1e-4, 3, kern=kern))
        assert given[0][1] is kern
        assert len(kernel_calls) == 4 * 3 + 1 - 1
        own = list(fixed_dt_stream(pair, 1e-4, 3))
        assert len(kernel_calls) == 2 * (4 * 3 + 1) - 1
        for (states, _), (want, _) in zip(given, own):
            for state, w in zip(states, want):
                assert state.time == w.time
                assert_same_bytes(state.positions, w.positions)

    def test_arguments_are_checked_before_any_state_is_read(self):
        a = shapes.circle(GridSpec(1, 16), 1.0)
        with pytest.raises(PolicyError, match="n_steps must be a multiple"):
            fixed_dt_stream([a], 1e-3, 7, store_every=3)
        with pytest.raises(TypeError):
            fixed_dt_stream([a], 1e-3, 4.0)
        with pytest.raises(ProtocolError, match="differ in time"):
            fixed_dt_stream([a, a.with_positions(a.positions, time=0.5)], 1e-3, 2)

    def test_each_stored_state_reuses_its_step_kernel(self, monkeypatch):
        calls = []

        def counting(grid, X):
            calls.append(None)
            return geometry_kernel(grid, X)

        for module in (flow, geometry):
            monkeypatch.setattr(module, "geometry_kernel", counting)
        a = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        stored = list(fixed_dt_stream([a, a], 1e-4, 12, store_every=4))
        # four per step, and one for the final state, which starts no step
        assert len(calls) == 4 * 12 + 1
        for states, kern in stored:
            packs = geometry_packs(states, kern)
        assert len(calls) == 4 * 12 + 1
        for state, got in zip(states, packs):  # the final state's
            want = compute_geometry(state)
            for name in PACK_FIELDS:
                assert_same_bytes(getattr(got, name), getattr(want, name))


class Token:
    """An object that a weak reference can watch."""


class WatchedKernel(KernelResult):
    """A KernelResult on the same arrays, with a token that lives as long
    as it does: a tuple takes no weak reference itself."""


class WatchedStates(list):
    """A stream's states list that a weak reference can watch."""


def watched(real, log):
    """`fixed_dt_stream` as real gives it, each yielded (states, kern) in
    watchable copies, and log told at each hand-over after the first
    whether the last kern was gone when the consumer asked for the next
    state ("kern"), and whether the last states list was gone once the next
    one was yielded ("states").  The stream itself holds neither: each goes
    out through a one-item box, as the loop hands over its kernels."""

    def stream(*args, **kwargs):
        inner = real(*args, **kwargs)

        def handing_over():
            refs = None
            while True:
                if refs:
                    log.append(("kern", refs[1]() is None))
                box = [next(inner, None)]
                if box[0] is None:
                    return
                if refs:
                    log.append(("states", refs[0]() is None))
                box = [(WatchedStates(box[0][0]), WatchedKernel(*box[0][1]))]
                box[0][1].token = Token()
                refs = [weakref.ref(box[0][0]), weakref.ref(box[0][1].token)]
                yield box.pop()

        return handing_over()

    return stream


def _symmetry_run(tmp_path):
    config = {
        "kind": "symmetry",
        "grid": {"m": 1, "resolution": 32},
        "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
        "symmetry": {"matrix": [[1, 0], [0, -1]],
                     "permutation": {"type": "reflection", "axes": [0]}},
        "steps": 6,
        "dt": 1e-4,
    }
    assert cli.run_experiment(config, str(tmp_path)) == 0


# each consumer of fixed_dt_stream: the module it looks the stream up in,
# and a run of it on 7 stored states (the identity suite's on its 3)
STREAM_CONSUMERS = {
    "run_fixed_dt": (
        flow, lambda tmp: run_fixed_dt(shapes.circle(GridSpec(1, 32), 1.0), 1e-4, 6)
    ),
    "cli.run_symmetry": (cli, _symmetry_run),
    "identities.identity_suite": (
        identities,
        lambda tmp: identities.identity_suite(
            shapes.ellipse(GridSpec(1, 32), 1.5, 1.0), 1e-5
        ),
    ),
    "differences.verify_inequalities": (
        differences,
        lambda tmp: differences.paired_pass(
            shapes.circle(GridSpec(1, 32), 1.0),
            shapes.ellipse(GridSpec(1, 32), 1.2, 0.9),
            6e-4, 2e-4, 1e-4, 1,
        ),
    ),
}


class TestStreamHandOver:
    """The stream's hand-over rule, kept by every consumer: a yielded
    kernel is unreachable when the consumer asks for the next state, and a
    yielded states list once the next state is yielded, so no step runs
    beside a kernel handed over and no state beside the list of the last."""

    @pytest.mark.parametrize("consumer", sorted(STREAM_CONSUMERS))
    def test_consumer_drops_each_hand_over(self, consumer, monkeypatch, tmp_path):
        module, run = STREAM_CONSUMERS[consumer]
        log = []
        monkeypatch.setattr(module, "fixed_dt_stream", watched(fixed_dt_stream, log))
        run(tmp_path)
        states = 3 if consumer == "identities.identity_suite" else 7
        assert [kind for kind, _ in log].count("kern") == states
        assert [kind for kind, _ in log].count("states") == states - 1
        assert all(gone for _, gone in log), log


HANDOFF_INITIALS = {
    "m1": lambda: shapes.ellipse(GridSpec(1, 32), 1.5, 1.0),
    "m2": lambda: shapes.perturbed_torus(GridSpec(2, 16), 1.0, 0.6, 0.2),
}

# each flow entry point on one initial immersion: a list of trajectories
HANDOFF_RUNS = {
    "run_flow": lambda a: [
        run_flow(a, 0.03, StepPolicy(cfl_safety=0.3), [0.0, 0.01, 0.03])
    ],
    "run_fixed_dt": lambda a: [run_fixed_dt(a, 2e-4, 6, store_every=3)],
    "run_paired_fixed_dt": lambda a: list(
        run_paired_fixed_dt(
            a, shapes.low_mode_perturbation(a, 1e-3, seed=2), 2e-4, 6, store_every=3
        )
    ),
}


class TestStoredStates:
    """The m=2 loop state keeps the ambient axis first in memory; what the
    flow hands out is C-order copies, the same bytes from either layout."""

    @pytest.mark.parametrize("shape", sorted(HANDOFF_INITIALS))
    @pytest.mark.parametrize("runner", sorted(HANDOFF_RUNS))
    def test_stored_states_are_c_order_copies(self, monkeypatch, shape, runner):
        loop = []  # every kernel input and every new loop state

        def recording(fn):
            def wrapper(grid, X, *args):
                new = fn(grid, X, *args)
                loop.append(X)
                if isinstance(new, np.ndarray):
                    loop.append(new)
                return new

            return wrapper

        monkeypatch.setattr(flow, "geometry_kernel", recording(geometry_kernel))
        monkeypatch.setattr(flow, "_rk4_positions", recording(flow._rk4_positions))
        trajs = HANDOFF_RUNS[runner](HANDOFF_INITIALS[shape]())
        states = [s.positions for traj in trajs for s in traj.states]
        assert len(states) == 3 * len(trajs) and loop
        for k, s in enumerate(states):
            assert s.flags.c_contiguous
            assert not any(np.shares_memory(s, x) for x in loop)
            assert not any(np.shares_memory(s, o) for o in states[k + 1 :])

    @pytest.mark.parametrize("shape", sorted(HANDOFF_INITIALS))
    @pytest.mark.parametrize("runner", ["run_flow", "run_fixed_dt"])
    def test_the_initial_layout_does_not_change_the_run(self, shape, runner):
        a = HANDOFF_INITIALS[shape]()
        first = a.with_positions(components_last(components_first(a.positions, 1), 1))
        assert not first.positions.flags.c_contiguous
        (want,) = HANDOFF_RUNS[runner](a)
        (got,) = HANDOFF_RUNS[runner](first)
        assert got.dt_history == want.dt_history and len(want.dt_history) > 2
        assert [s.time for s in got.states] == [s.time for s in want.states]
        for g, w in zip(got.states, want.states):
            assert_same_bytes(g.positions, w.positions)


class TestOracles:
    def test_circle_curvature_follows_radius_law(self):
        # |h|_g = c / r(t) at every stored state of a shrinking circle
        grid, r0 = GridSpec(1, 64), 2.0
        s1, s2 = stencil_symbols(grid)
        c = s2 / s1**2
        traj = run_fixed_dt(shapes.circle(grid, r0), 1e-4, 8, store_every=2)
        for state in traj.states:
            geom = compute_geometry(state)
            sup = tensor_norm_sup(geom.second_form, geom, "ll")
            assert abs(sup - c / discrete_radius(grid, r0, state.time)) < 1e-12

    def test_torus_curvature_follows_factor_law(self):
        # |h|_g^2 = c^2 (1 / r1(t)^2 + 1 / r2(t)^2) at every node and time
        grid = GridSpec(2, 16)
        s1, s2 = stencil_symbols(grid)
        c = s2 / s1**2
        traj = run_fixed_dt(
            shapes.product_torus(grid, 1.0, 0.7), 1e-4, 8, store_every=4
        )
        for state in traj.states:
            geom = compute_geometry(state)
            r1 = discrete_radius(grid, 1.0, state.time)
            r2 = discrete_radius(grid, 0.7, state.time)
            norm_sq = tensor_norm_sq(geom.second_form, geom, "ll")
            assert np.abs(norm_sq - c**2 * (r1**-2 + r2**-2)).max() < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_torus_blows_up_when_its_small_factor_dies(self):
        grid = GridSpec(2, 16)
        s1, s2 = stencil_symbols(grid)
        extinction = 0.4**2 / (2.0 * s2 / s1**2)
        imm = shapes.product_torus(grid, 1.0, 0.4)
        with pytest.raises(BlowUpError) as err:
            for _ in range(200):
                imm = step_rk4(imm, 1e-3)
        assert err.value.time >= extinction - 1e-3
        assert discrete_radius(grid, 1.0, err.value.time) > 0.8

    def test_low_mode_perturbation_amplitude_and_seed(self, unit_circle):
        a = shapes.low_mode_perturbation(unit_circle, 0.05, seed=7)
        b = shapes.low_mode_perturbation(unit_circle, 0.05, seed=7)
        assert np.array_equal(a.positions, b.positions)
        disp = np.abs(a.positions - unit_circle.positions).max()
        assert abs(disp - 0.05) < 1e-14

    def test_identity_symmetry_is_identity(self, unit_circle):
        sym = identity_symmetry(unit_circle.grid, unit_circle.ambient_dim)
        assert np.array_equal(
            apply_symmetry(unit_circle, sym).positions, unit_circle.positions
        )
