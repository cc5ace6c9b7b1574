"""Acceptance suite: one test per shipped guarantee, each emitting a single
pass/fail line with the measured value and its tolerance.

Quantitative targets come from closed-form shrinking solutions and from
refinement-order estimates; identities that hold exactly in the semi-discrete
system are reported as "exact" when their residual sits at the rounding floor.
"""

import time

import numpy as np

from mcflab import GridSpec, StepPolicy, compute_geometry, run_flow
from mcflab import shapes
from mcflab.cli import EXACT_FLOOR, LIMITATION_STATEMENT
from mcflab.differences import (
    heat_operator_Y,
    time_derivative_Z_sq,
    verify_inequalities,
)
from mcflab.flow import run_fixed_dt, step_rk4
from mcflab.geometry import curvature_gauss
from mcflab.grid import SymmetryAction, apply_symmetry, reflection_permutation
from mcflab.identities import (
    check_dGamma,
    check_dX,
    check_dg,
    check_dh,
    check_simons,
    gauss_cross_check,
)

from conftest import (
    measured_radius,
    measured_torus_radii,
    check_at,
    paired_center,
    paired_stream,
    trace_identity_residual,
)


def emit(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def finest_pair_order(sups):
    return float(np.log2(sups[-2] / sups[-1]))


def test_criterion_01_shrinking_circle_radius():
    t0 = time.perf_counter()
    grid = GridSpec(1, 128, derivative_order=4)
    traj = run_fixed_dt(shapes.circle(grid, 1.0), 1e-4, 3750)
    err = abs(measured_radius(traj.states[-1]) - 0.5)
    elapsed = time.perf_counter() - t0
    emit(
        1,
        err < 1e-4 and elapsed < 10.0,
        f"circle radius error {err:.3e} (tol 1e-4), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_product_torus_radii():
    t0 = time.perf_counter()
    grid = GridSpec(2, 64, derivative_order=4)
    traj = run_flow(
        shapes.product_torus(grid, 1.0, 1.0), 0.375, StepPolicy(cfl_safety=0.1)
    )
    r1, r2 = measured_torus_radii(traj.states[-1])
    err = max(abs(r1 - 0.5), abs(r2 - 0.5))
    elapsed = time.perf_counter() - t0
    emit(
        2,
        err < 1e-3 and elapsed < 120.0,
        f"torus radii error {err:.3e} (tol 1e-3), {elapsed:.1f}s (limit 2min)",
    )


def test_criterion_03_evolution_identity_orders():
    checks = (check_dX, check_dg, check_dGamma, check_dh)
    details = []
    ok = True
    for name, maker in (
        ("circle", lambda g: shapes.circle(g, 1.0)),
        ("ellipse", lambda g: shapes.ellipse(g, 1.5, 1.0)),
    ):
        trajs = [
            run_fixed_dt(maker(GridSpec(1, N)), 1e-5, 4) for N in (64, 128, 256)
        ]
        for chk in checks:
            sups = [check_at(chk, traj).sup_residual for traj in trajs]
            if max(sups) < EXACT_FLOOR:
                details.append(f"{name}/{chk.__name__}=exact")
                continue
            order = finest_pair_order(sups)
            ok = ok and order >= 1.9
            details.append(f"{name}/{chk.__name__}={order:.2f}")
    emit(3, ok, "evolution orders (target >= 1.9): " + ", ".join(details))


def test_criterion_04_commutation_identity_order():
    geoms = [
        compute_geometry(shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1))
        for N in (16, 32, 64)
    ]
    sups = [check_simons(g, curvature_gauss(g)).sup_residual for g in geoms]
    order = finest_pair_order(sups)
    emit(4, order >= 1.9, f"commutation-identity order {order:.2f} (target >= 1.9)")


def test_criterion_05_curvature_cross_check():
    geoms = [
        compute_geometry(shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1))
        for N in (16, 32, 64)
    ]
    sups = [gauss_cross_check(g, curvature_gauss(g)).sup_residual for g in geoms]
    order = finest_pair_order(sups)
    geom = compute_geometry(shapes.ellipse(GridSpec(1, 64), 1.5, 1.0))
    m1 = gauss_cross_check(geom, curvature_gauss(geom)).sup_residual
    emit(
        5,
        order >= 1.9 and m1 == 0.0,
        f"curvature cross-check order {order:.2f} (target >= 1.9), m=1 sup {m1}",
    )


def test_criterion_06_trace_identity():
    immersions = [
        shapes.circle(GridSpec(1, 64), 2.0),
        shapes.ellipse(GridSpec(1, 64), 1.5, 1.0),
        shapes.product_torus(GridSpec(2, 32), 1.0, 0.5),
        shapes.perturbed_torus(GridSpec(2, 32), 1.0, 0.6, 0.2),
    ]
    worst = max(trace_identity_residual(compute_geometry(i)) for i in immersions)
    emit(6, worst < 1e-12, f"trace-identity deviation {worst:.3e} (tol 1e-12)")


def test_criterion_07_zero_difference():
    grid = GridSpec(1, 64)
    A = run_fixed_dt(shapes.circle(grid, 1.0), 1e-4, 8)
    B = run_fixed_dt(shapes.circle(grid, 1.0), 1e-4, 8)
    p, rate = paired_center(A, B, 4)
    sup = max(
        p.norm_sq_Y().max(),
        p.norm_sq_Z().max(),
        heat_operator_Y(p, rate, p.grad_Y()).max(),
        time_derivative_Z_sq(p, rate).max(),
    )
    emit(7, sup == 0.0, f"identical flows: max of Y, Z, LHS1, LHS2 = {sup} (exact)")


def test_criterion_08_coupled_inequality_constants():
    T, delta, dt, store = 0.3, 0.03, 1e-4, 50
    details = []
    ok = True

    def pair(N, other):
        g = GridSpec(1, N)
        A = run_fixed_dt(shapes.circle(g, 1.0), dt, 3000, store_every=store)
        B = run_fixed_dt(other(g), dt, 3000, store_every=store)
        return paired_stream(A, B)

    for name, other in (
        ("circle-pair", lambda g: shapes.circle(g, 1.2)),
        ("circle-vs-ellipse", lambda g: shapes.ellipse(g, 1.5, 1.0)),
    ):
        Cs = {}
        for N in (128, 256):
            rep = verify_inequalities(*pair(N, other), delta)
            ok = ok and np.isfinite(rep.C1) and np.isfinite(rep.C2)
            ok = ok and rep.flagged_nodes == 0
            Cs[N] = (rep.C1, rep.C2)
        drift = max(
            abs(Cs[256][k] - Cs[128][k]) / max(Cs[128][k], 1e-300) for k in (0, 1)
        )
        ok = ok and drift < 0.20
        details.append(f"{name} C1={Cs[256][0]:.3g} C2={Cs[256][1]:.3g} "
                       f"drift={drift:.1%}")
    # the displayed difference evolutions, on short windows where the time
    # difference is subdominant to the spatial truncation
    sups_dd, sups_dw = [], []
    for N in (128, 256):
        g = GridSpec(1, N)
        args = paired_stream(
            run_fixed_dt(shapes.circle(g, 1.0), 1e-5, 8),
            run_fixed_dt(shapes.ellipse(g, 1.5, 1.0), 1e-5, 8),
        )
        rep = verify_inequalities(*args, delta=2e-5)  # over every center
        sups_dd.append(rep.dd.sup_residual)
        sups_dw.append(rep.dw.sup_residual)
    order_dd = finest_pair_order(sups_dd)
    ok = ok and order_dd >= 1.9
    details.append(f"dd order={order_dd:.2f}")
    if max(sups_dw) < EXACT_FLOOR:
        details.append("dw=exact")
    else:
        order_dw = finest_pair_order(sups_dw)
        ok = ok and order_dw >= 1.9
        details.append(f"dw order={order_dw:.2f}")
    emit(8, ok, "; ".join(details))


def test_criterion_09_symmetry_persistence():
    grid = GridSpec(1, 128)
    current = shapes.ellipse(grid, 1.5, 1.0)
    sym = SymmetryAction(
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.zeros(2),
        reflection_permutation(grid, [0]),
    )

    def defect(imm):
        return float(
            np.abs(apply_symmetry(imm, sym).positions - imm.positions).max()
        )

    worst = defect(current)
    steps = 2000
    for k in range(steps):
        current = step_rk4(current, 1e-4)
        if (k + 1) % 50 == 0:
            worst = max(worst, defect(current))
    emit(
        9,
        worst <= 1e-10,
        f"reflection defect {worst:.3e} over {steps} steps (tol 1e-10)",
    )


def test_criterion_10_metric_equivalence_constant():
    grid = GridSpec(1, 64)
    gA = compute_geometry(shapes.circle(grid, 1.0)).metric
    gB = compute_geometry(shapes.circle(grid, 2.0)).metric
    # at m = 1 the smallest gamma with gA / gamma <= gB <= gamma gA
    ratio = gB[..., 0, 0] / gA[..., 0, 0]
    gamma = float(np.maximum(ratio, 1.0 / ratio).max())
    emit(
        10,
        abs(gamma - 4.0) < 1e-10,
        f"equivalence constant for radii 1, 2: {gamma!r} (target 4 to 1e-10)",
    )


def test_criterion_11_limitation_statement(tmp_path):
    from mcflab.cli import main

    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"m": 1, "resolution": 48},
                "geometry": {"kind": "circle", "radius": 1.0},
                "geometry_b": {"kind": "circle", "radius": 1.2},
                "T": 2e-3,
                "delta": 5e-4,
                "dt": 1e-4,
                "store_every": 1,
            }
        )
    )
    out = tmp_path / "out"
    code = main(["diff-system", "--config", str(cfg), "--out", str(out)])
    present = all(
        LIMITATION_STATEMENT in (out / name).read_text()
        for name in ("inequality_report.txt", "summary.txt", "manifest.txt")
    )
    emit(
        11,
        code == 0 and present and "backwards" in LIMITATION_STATEMENT,
        "forward-only limitation statement present in all report files",
    )
